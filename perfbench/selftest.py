"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at a tiny length,
untraced and traced, and checks that the result line carries exactly the
declared metrics with their units and no failures.  It then corrupts one
frozen expected value per workload and checks that the run reports a
failure and exits non-zero, and finally checks that a directory holding
only the benchmark, without the package sources, fails without a result.
It also checks that a wrap site whose name the package no longer has is
reported as absent instead of stopping the run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

import run
from tracer import Tracer

SECONDS = "1"


def bench(cwd, workload, trace, expected=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    if expected:
        cmd += ["--expected", expected]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def corrupt(value):
    """A nearby but different value of the same type."""
    if isinstance(value, dict):
        key = sorted(value)[0]
        return dict(value, **{key: corrupt(value[key])})
    if isinstance(value, str):
        return value[::-1] + "x"
    if isinstance(value, int):
        return value + 1
    return value * (1.0 + 1e-6) + 1e-12


def main() -> int:
    run.import_package()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    tr = Tracer()
    tr.site(types.SimpleNamespace(), "removed", "module.removed")
    with tr.active():
        pass
    expect(len(tr.absent) == 1 and tr.absent[0].endswith(".removed")
           and "module.removed" in tr.catalogue,
           "a wrap site whose name is gone is reported absent, not raised")

    for w in (wl["name"] for wl in spec["workloads"]):
        for trace in (0, 1):
            code, res, err = bench(run.ROOT, w, trace)
            tag = f"{w} --trace {trace}"
            expect(code == 0 and res is not None, f"{tag}: exits 0 with a result line")
            if res is None:
                print(err[-2000:], file=sys.stderr)
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: no failed operations")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == declared[trace], f"{tag}: every declared metric with its unit")

    os.makedirs(run.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        for w in (wl["name"] for wl in spec["workloads"]):
            wl = workloads.WORKLOADS[w]()
            key = wl.key(wl.warmup_ops()[0])
            bad = json.loads(json.dumps(expected))
            bad[w][key] = corrupt(bad[w][key])
            path = os.path.join(scratch, f"expected_{w}.json")
            with open(path, "w") as f:
                json.dump(bad, f)
            code, res, _ = bench(run.ROOT, w, 0, expected=path)
            expect(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
                   f"{w}: corrupted frozen value {key} raises the error rate and the exit code")

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, res, _ = bench(bare, spec["workloads"][0]["name"], 0)
        expect(code != 0 and res is None, "without the package sources: non-zero exit, no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
