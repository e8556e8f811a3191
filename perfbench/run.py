"""nanopose benchmark: one command for every end-to-end and per-layer figure.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload infer-stream --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): infer-stream,
closed-loop, design-sweep.  Every operation's output is checked against the
results frozen in perfbench/expected.json (regenerate with freeze.py only
when a change is meant to alter results).

--trace 0 measures the end-to-end metrics with no instrumentation:
  ops_per_s    operations completed per second of operation time
               (frames; 50 s simulation runs; design points and cost fits)
  op_ms_p50    median operation latency
  op_ms_p90    90th percentile latency, the highest percentile that keeps
               at least ten samples beyond it on the slowest workload
  setup_s      median of SETUP_REPEATS set-ups (the user's preparation step
               plus one warm-up operation of each kind), the first before
               the measured operations and the rest spread over the run;
               seeded input generation is excluded.  All but the first run
               in a process that is already warm, so setup_s measures a
               warm re-setup; the first, cold set-up is printed on its own
               "#" line
  peak_rss_mb  peak resident set size of the process
Every time above is normalized to host speed: a fixed probe that shares no
code with nanopose runs every PROBE_EVERY_S, and each operation's time is
scaled by PROBE_REF_S over the median probe time within PROBE_WINDOW_S of
it.  On a shared host whose speed drifts by up to 2x, the ratio of
operation to probe time moves by a few percent, so the normalized figures
read as times on a host where the probe takes PROBE_REF_S.  The raw
figures, the workload-specific ones (infer_fps, sim_realtime_x,
fit_ms_p50, ...) and error_rate are printed on "#" lines before the result.

--trace 1 wraps each layer's public functions where they are looked up and
reports <module>.<function>.{calls,self_s} for one traced set-up plus one
round of the workload's first `round_ops` operations (averaged over the
traced rounds that fit in --seconds), the extra per-layer counts, the
modelled device figures, and trace.overhead, the slowdown of the traced
rounds against the same rounds run untraced in between.  Spans and
per-stage device rows are written to perfbench/out/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every output matched.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from itertools import islice

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPEATS = 9
TAIL_PCT = 90
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 0.0027     # probe time on a quiet 2-vCPU Intel Xeon host
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import nanopose from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import nanopose

    where = os.path.realpath(os.path.dirname(nanopose.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"nanopose imported from {where}, not from {SRC}")
    return nanopose


def blas_record() -> dict:
    """Name, version and thread count of the BLAS numpy uses."""
    import ctypes

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info.setdefault("threads", {})[os.path.basename(path)] = fn()
                break
    return info


def host_record() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_record()}


class Checker:
    """Compares each operation's output with the frozen expected record."""

    def __init__(self, wl, frozen):
        self.wl = wl
        self.frozen = frozen
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, op, out, error=None):
        """Count one operation; returns its record, or None when it failed."""
        self.attempted += 1
        bad = []
        rec = None
        if error is not None:
            bad = [f"{self.wl.key(op)}: raised {error!r}"]
        elif self.wl.key(op) not in self.frozen:
            bad = [f"{self.wl.key(op)}: no frozen result"]
        else:
            rec = self.wl.record(op, out)
            bad = self.wl.verify(op, rec, self.frozen)
        if bad:
            self.failed += 1
            self.problems.extend(bad)
            return None
        return rec


def timed(wl, state, op, checker, tracer=None):
    """Run one operation; returns (seconds, record or None)."""
    error = out = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(state, op)
        else:
            with tracer.op(op[0]):
                out = wl.run(state, op)
    except Exception as e:  # an operation that raises is a counted failure
        if checker.failed < 3:
            traceback.print_exc(file=sys.stderr)
        error = e
    dt = time.perf_counter() - t0
    return dt, checker.check(op, out, error)


def set_up(wl, inputs, checker, tracer=None):
    """One set-up plus its warm-up operations; returns (seconds, state)."""
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        t0 = time.perf_counter()
        state = wl.setup(inputs, workdir)
        spent = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op in wl.warmup_ops():
        dt, _ = timed(wl, state, op, checker, tracer)
        spent += dt
    return spent, state


def probe() -> float:
    """Time one fixed unit of host work: an interpreter loop and small array
    arithmetic, the two kinds of work the workloads spend their time on.

    It runs on one thread.  OpenBLAS workers left spinning by a float64 GEMM
    just before it changed its median time by under 1% on a 2-vCPU Xeon
    host, so a change that moves operations onto BLAS does not skew it."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += math.sin(i * 0.001) * (i % 7)
    a = np.arange(2000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times along a run, and the speed scale at any instant of it."""

    def __init__(self):
        self.at, self.took = [], []

    def tick(self):
        now = time.perf_counter()
        if not self.at or now - self.at[-1] >= PROBE_EVERY_S:
            self.took.append(probe())
            self.at.append(now)

    def scale(self, instants) -> np.ndarray:
        at, took = np.asarray(self.at), np.asarray(self.took)
        out = []
        for t in instants:
            lo, hi = np.searchsorted(at, [t - PROBE_WINDOW_S, t + PROBE_WINDOW_S])
            if hi - lo < 3:
                i = int(np.searchsorted(at, t))
                lo, hi = max(0, i - 2), i + 2
            out.append(PROBE_REF_S / float(np.median(took[lo:hi])))
        return np.asarray(out)


def untraced_run(wl, seed, seconds, checker, lines):
    inputs = wl.make_inputs()
    speed = HostSpeed()
    speed.tick()
    setup_at = [time.perf_counter()]
    dt, state = set_up(wl, inputs, checker)
    setups = [dt]
    ops, starts, times, recs = [], [], [], []
    stream = wl.ops(seed)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or not times:
        speed.tick()
        # The host's speed drifts over tens of seconds, so the repeated
        # set-ups are spread over the run rather than taken back to back.
        due = start + len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setup_at.append(time.perf_counter())
            setups.append(set_up(wl, inputs, checker)[0])
            continue
        op = next(stream)
        starts.append(time.perf_counter())
        dt, rec = timed(wl, state, op, checker)
        ops.append(op)
        times.append(dt)
        recs.append(rec)
    speed.tick()
    scaled = np.asarray(times) * speed.scale(starts)
    scaled_setups = np.asarray(setups) * speed.scale(setup_at)
    raw = summarize(times, setups)
    metrics = summarize(scaled, scaled_setups)
    beyond = len(times) - int(len(times) * TAIL_PCT / 100.0)
    lines.append(f"operations {len(times)}, {beyond} beyond p{TAIL_PCT}; "
                 f"{len(setups)} set-ups; {len(speed.took)} probes, median "
                 f"{1e3 * float(np.median(speed.took)):.3f} ms (reference {1e3 * PROBE_REF_S} ms)")
    lines.append(f"first set-up, the only one in a cold process: {scaled_setups[0]:.6g} s "
                 f"normalized, {setups[0]:.6g} s raw (setup_s is the median of all "
                 f"{len(setups)}, so it measures a warm re-setup)")
    lines.append("raw, not normalized: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    good = [i for i, r in enumerate(recs) if r is not None]
    if good:
        extra = wl.report([ops[i] for i in good], [float(scaled[i]) for i in good],
                          [recs[i] for i in good])
        lines += [f"{k} {v:.6g} {u} (normalized)" for k, (v, u) in extra.items()]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {k: (float(v), END_TO_END_UNITS[k]) for k, v in metrics.items()}


def summarize(times, setups) -> dict:
    ms = 1e3 * np.asarray(times)
    return {
        "ops_per_s": 1e3 * len(ms) / ms.sum(),
        "op_ms_p50": float(np.median(ms)),
        "op_ms_p90": float(np.percentile(ms, TAIL_PCT)),
        "setup_s": float(np.median(setups)),
    }


def layer_catalogue(device):
    """Every per-layer metric name and unit, for every workload, given the
    modelled device figures."""
    from tracer import Tracer
    import workloads

    cat = {}
    for cls in workloads.WORKLOADS.values():
        tr = Tracer()
        cls().sites(tr)
        for name in tr.catalogue:
            cat[f"{name}.calls"] = "count"
            cat[f"{name}.self_s"] = "s"
        cat.update(cls.EXTRAS)
    cat.update({k: u for k, (_, u) in device.items()})
    cat["trace.overhead"] = "%"
    return cat


def traced_run(wl, seed, seconds, checker, lines, host):
    from tracer import Tracer
    import workloads

    inputs = wl.make_inputs()
    set_up(wl, inputs, checker)                  # warm caches before tracing
    tracer = Tracer()
    wl.sites(tracer)
    tracer.phase("setup")
    with tracer.active():
        with tracer.span("setup"):
            _, state = set_up(wl, inputs, checker, tracer)
    tracer.phase("round")
    round_ops = list(islice(wl.ops(seed), wl.round_ops))
    untraced_times, traced_times, recs = [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_times:
        times, recs = [], []
        for op in round_ops:
            dt, rec = timed(wl, state, op, checker)
            times.append(dt)
            recs.append(rec or {})
        untraced_times.append(times)
        with tracer.active():
            traced_times.append([timed(wl, state, op, checker, tracer)[0] for op in round_ops])
    rounds = len(traced_times)

    device, stage_rows = workloads.device_figures()
    metrics = {name: (0, unit) for name, unit in layer_catalogue(device).items()}
    layer_rows = []
    for name in tracer.catalogue:
        calls = tracer.calls("setup", name) + tracer.calls("round", name) / rounds
        self_s = tracer.self_s("setup", name) + tracer.self_s("round", name) / rounds
        calls = int(calls) if float(calls).is_integer() else calls
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        layer_rows.append(dict(kind="layer", name=name, calls=calls, self_s=self_s,
                               setup_calls=tracer.calls("setup", name),
                               setup_self_s=tracer.self_s("setup", name)))
    metrics.update(wl.layer_extras(state, round_ops, recs, untraced_times, tracer))
    metrics.update(device)
    overhead = 100.0 * (sum(map(sum, traced_times)) / sum(map(sum, untraced_times)) - 1.0)
    metrics["trace.overhead"] = (overhead, "%")
    lines.append(f"traced rounds {rounds} x {len(round_ops)} operations; "
                 f"tracing overhead {overhead:+.1f}% against the untraced rounds")
    if tracer.absent:
        lines.append(f"absent wrap sites: {', '.join(tracer.absent)}")

    path = os.path.join(OUT, f"trace_{wl.name}_seed{seed}.jsonl")
    tracer.write(path, dict(workload=wl.name, seed=seed, rounds=rounds,
                            round_ops=len(round_ops), overhead_pct=overhead, host=host),
                 layer_rows + stage_rows)
    lines.append(f"spans and per-stage rows written to {os.path.relpath(path, ROOT)}")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=EXPECTED,
                    help="frozen results to check against (the self-test corrupts a copy)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as e:
        print(f"error: cannot import nanopose from {SRC}: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expect one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        with open(args.expected) as f:
            frozen = json.load(f)[args.workload]
    except (OSError, ValueError, KeyError) as e:
        print(f"error: no frozen results for {args.workload} in {args.expected}: {e!r}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()
    checker = Checker(wl, frozen)
    host = host_record()
    lines = [f"host {json.dumps(host)}"]
    if args.trace:
        metrics = traced_run(wl, args.seed, args.seconds, checker, lines, host)
    else:
        metrics = untraced_run(wl, args.seed, args.seconds, checker, lines)
    rate = checker.failed / checker.attempted
    lines.append(f"error_rate {rate:.6g} ({checker.failed} failed of {checker.attempted})")
    for problem in checker.problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    for ln in lines:
        print(f"# {args.workload}: {ln}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
