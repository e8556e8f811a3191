"""The three benchmark workloads.

Each workload drives the package from outside, through public names and
default arguments only.  Its inputs are drawn from fixed pools (frames,
simulator seeds, design points, fit jitters) whose outputs are frozen in
expected.json; the workload seed chooses the order in which pool entries
are visited, so every operation of every run is checked.

A workload provides:
  make_inputs()            seeded stand-ins for camera, training, users
  setup(inputs, workdir)   the user's preparation step (timed as setup_s)
  warmup_ops()             one operation of each kind, run inside set-up
  ops(seed)                endless seeded operation stream
  pool()                   every operation whose result is frozen
  run(state, op)           one timed operation
  key(op), record(op, out) frozen-result key and JSON-able fingerprint
  verify(op, rec, frozen)  list of problems against the frozen records
  report(ops, times, recs) workload-specific figures for the "#" lines
  sites(tracer)            where each layer's names are looked up
  EXTRAS, layer_extras()   per-layer figures the wrappers cannot count
"""

import dataclasses
import hashlib
import importlib
import math
import os

import numpy as np

# seeds of the frozen pools; the workload seed never changes these
NET_SEED = 11
CALIB_SEED = 12
FRAME_SEED = 13
POINT_SEED = 14
FIT_SEED = 15

FRAME_SHAPE = (96, 160)
VARIANTS = ("160x32", "160x16", "80x32")


def _mod(name):
    # nanopose re-exports functions under some module names (nanopose.metrics
    # is the function), so modules are always fetched by full path
    return importlib.import_module(f"nanopose.{name}")


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


class InferStream:
    # Why: this is the onboard per-frame path.  The integer engine does
    # almost all the work (conv ~60%, requant ~25%, pool ~10% in a prototype
    # trace) and no other workload touches it.  The three variants differ in
    # shape: 160x16 has half the channels and 80x32 a quarter of the pixels
    # and takes the 2x downscale path, so a kernel tuned to one shape that
    # costs another shows.  Set-up is the user's quantize + load step for each
    # variant, so quantizer, the float engine and tensorfile land in setup_s.
    # One caller in a closed loop; frames are assigned to the variants in
    # fixed equal shares.
    name = "infer-stream"
    round_ops = 150          # operations in one traced round
    FRAME_POOL = 128
    CALIB_IMAGES = 8         # the quantize command's default calibration size

    def __init__(self):
        self.G = _mod("graph")
        self.engine = _mod("engine")
        self.quantizer = _mod("quantizer")
        self.floatnet = _mod("floatnet")

    def make_inputs(self):
        rng = np.random.default_rng(CALIB_SEED)
        inputs = {"nets": {}, "calib": {}}
        for v in VARIANTS:
            g = self.G.build_variant(v)
            inputs["nets"][v] = self.floatnet.random_float_net(g, seed=NET_SEED)
            inputs["calib"][v] = [
                rng.integers(0, 256, g.input_shape).astype(np.float64) * self.engine.IMAGE_EPS
                for _ in range(self.CALIB_IMAGES)
            ]
        frames = np.random.default_rng(FRAME_SEED).integers(
            0, 256, (self.FRAME_POOL, *FRAME_SHAPE), dtype=np.uint8)
        inputs["frames"] = frames
        return inputs

    def setup(self, inputs, workdir):
        Q = self.quantizer
        qgs = {}
        for v in VARIANTS:
            net = inputs["nets"][v]
            alphas = Q.calibrate(net, Q.CalibrationSet(inputs["calib"][v]))
            qg = Q.convert(net, alphas)
            path = os.path.join(workdir, f"qgraph_{v}.json")
            Q.save_qgraph(qg, path)
            qgs[v] = Q.load_qgraph(path)
        targets = {v: tuple(qgs[v].graph.input_shape[1:]) for v in VARIANTS}
        return {"qgraphs": qgs, "targets": targets, "frames": inputs["frames"]}

    def warmup_ops(self):
        return [("frame", v, 0) for v in VARIANTS]

    def ops(self, seed):
        rng = np.random.default_rng([seed, 1])
        while True:
            order = rng.permutation(len(VARIANTS))
            frames = rng.integers(0, self.FRAME_POOL, len(VARIANTS))
            for k, f in zip(order, frames):
                yield ("frame", VARIANTS[k], int(f))

    def pool(self):
        return [("frame", v, i) for v in VARIANTS for i in range(self.FRAME_POOL)]

    def run(self, state, op):
        _, v, i = op
        img = self.engine.crop_center(state["frames"][i], state["targets"][v])
        return self.engine.infer_int(state["qgraphs"][v], img).raw

    def record(self, op, out):
        return {"raw_sha256": sha256(np.asarray(out, dtype="<i4").tobytes())}

    def key(self, op):
        return f"{op[1]}/{op[2]}"

    def verify(self, op, rec, frozen):
        if rec != frozen[self.key(op)]:
            return [f"{self.key(op)}: raw output hash differs"]
        return []

    def sites(self, tr):
        e, Q = self.engine, self.quantizer
        tr.site(e, "crop_center", "engine.crop_center")
        tr.site(e, "infer_int", "engine.infer_int")
        tr.site(e, "conv2d_int", "engine.conv2d_int")
        tr.site(e, "int_affine_requant", "qtensor.int_affine_requant")
        tr.site(e, "maxpool2x2", "engine.maxpool2x2")
        tr.site(e, "full_weight_codes", "qtensor.full_weight_codes")
        tr.site(e, "infer_float", "engine.infer_float")
        tr.site(Q, "calibrate", "quantizer.calibrate")
        tr.site(Q, "convert", "quantizer.convert")
        tr.site(Q, "fit_requant_scale", "quantizer.fit_requant_scale")
        tr.site(Q, "decompose_weights", "qtensor.decompose_weights")
        tr.site(Q, "save_qgraph", "quantizer.save_qgraph")
        tr.site(Q, "load_qgraph", "quantizer.load_qgraph")
        tr.site(_mod("tensorfile"), "write_qtensor", "tensorfile.write_qtensor")
        tr.site(_mod("tensorfile"), "read_qtensor", "tensorfile.read_qtensor")
        tr.site(self.floatnet.BatchNorm, "sigma", "floatnet.BatchNorm.sigma")

    EXTRAS = {"engine.macs": "count", "engine.macs_per_s": "1/s",
              **{f"engine.infer_int.ms_p50.{v}": "ms" for v in VARIANTS}}

    def layer_extras(self, state, round_ops, round_recs, round_times, tracer):
        """Exact MAC count per round, MAC rate and per-variant p50, both from
        the untraced rounds."""
        macs = {v: self.G.analyze(state["qgraphs"][v].graph).macs for v in VARIANTS}
        total_macs = sum(macs[op[1]] for op in round_ops)
        mean_round_s = sum(sum(t) for t in round_times) / len(round_times)
        out = {"engine.macs": (total_macs, "count"),
               "engine.macs_per_s": (total_macs / mean_round_s, "1/s")}
        for v in VARIANTS:
            ts = [t for times in round_times for op, t in zip(round_ops, times) if op[1] == v]
            out[f"engine.infer_int.ms_p50.{v}"] = (1e3 * float(np.median(ts)), "ms")
        return out

    def report(self, ops, times, recs):
        by_variant = {v: [t for op, t in zip(ops, times) if op[1] == v] for v in VARIANTS}
        return {
            "infer_fps": (len(times) / sum(times), "frame/s"),
            "infer_ms_p50": (1e3 * float(np.median(times)), "ms"),
            "infer_ms_p90": (1e3 * float(np.percentile(times, 90)), "ms"),
            **{f"infer_ms_p50.{v}": (1e3 * float(np.median(ts)), "ms")
               for v, ts in by_variant.items() if ts},
        }


class ClosedLoop:
    # Why: simulate, control, kalman, scenario and pose do all of the work
    # here and the engine does none.  Observation and filter events per run
    # vary 4.5x across the presets while the 500 Hz dynamics stay fixed, so a
    # gain in the observation/filter path and a gain in the dynamics path
    # show differently.  Seeds that share a rate are what a batched
    # multi-seed simulator would step together.  Set-up is the simulator's
    # configuration plus one warm-up run.
    name = "closed-loop"
    round_ops = 10
    PRESETS = ("mocap", "160x32", "160x16", "80x32")
    SEED_POOL = 32
    RTOL = 1e-9              # per-seed metric tolerance for a simulator rewrite
    HALF_FOV_DEG = 40.5
    A_MAX_BOUND = 2.04

    def __init__(self):
        self.simulate = _mod("simulate")
        self.metrics = _mod("metrics")
        self.control = _mod("control")

    def make_inputs(self):
        return {}

    def setup(self, inputs, workdir):
        return {"rates": {p: self.simulate.RATE_HZ[p] for p in self.PRESETS}}

    def warmup_ops(self):
        return [("run", "mocap", 0)]

    # Run times cluster by preset (mocap and 160x32 fast, 160x16 and 80x32
    # slow).  With equal shares the median would sit in the gap between two
    # clusters and jump; running the densest preset twice per block puts the
    # median inside the 160x16 cluster and the p90 inside the 80x32 one.
    BLOCK = ("mocap", "160x32", "160x16", "80x32", "80x32")

    def ops(self, seed):
        rng = np.random.default_rng([seed, 2])
        while True:
            order = rng.permutation(len(self.BLOCK))
            seeds = rng.integers(0, self.SEED_POOL, len(self.BLOCK))
            for k, s in zip(order, seeds):
                yield ("run", self.BLOCK[k], int(s))

    def pool(self):
        return [("run", p, s) for p in self.PRESETS for s in range(self.SEED_POOL)]

    def run(self, state, op):
        _, preset, seed = op
        S = self.simulate
        log = S.run_experiment(S.noise_for(preset, seed=seed), state["rates"][preset])
        m = self.metrics.metrics(log)
        return log, m

    def record(self, op, out):
        log, m = out
        return {
            "median_e_xy": m.median_e_xy,
            "median_e_theta_rad": m.median_e_theta_rad,
            "max_cmd_speed": m.max_cmd_speed,
            "max_cmd_omega": m.max_cmd_omega,
            "max_accel": m.max_accel,
            "phase0_final_distance": m.phase0_final_distance,
            "observations": len(log.observations),
            "sim_s": float(log.rows[-1][0]),
        }

    def key(self, op):
        return f"{op[1]}/{op[2]}"

    def invariants(self, op, rec, clean_e_xy):
        """Acceptance criterion 5: clamps, acceleration bound, mocap
        convergence and heading, heading inside the half field of view."""
        cfg = self.control.ControlConfig()
        bad = []
        if rec["max_cmd_speed"] > cfg.v_max + 1e-9:
            bad.append("command speed clamp exceeded")
        if rec["max_cmd_omega"] > cfg.omega_max + 1e-9:
            bad.append("yaw-rate clamp exceeded")
        if rec["max_accel"] > self.A_MAX_BOUND + 1e-9:
            bad.append("acceleration bound exceeded")
        theta_deg = math.degrees(rec["median_e_theta_rad"])
        if op[1] == "mocap":
            if abs(rec["phase0_final_distance"] - cfg.delta) >= 0.1:
                bad.append("phase-0 distance not converged")
            if theta_deg >= 5.0:
                bad.append("zero-noise median heading error >= 5 deg")
        else:
            if theta_deg >= self.HALF_FOV_DEG:
                bad.append("median heading error outside half field of view")
            if not clean_e_xy < rec["median_e_xy"]:
                bad.append("noisy e_xy not above the zero-noise run")
        return bad

    def verify(self, op, rec, frozen):
        bad = self.invariants(op, rec, frozen["mocap/0"]["median_e_xy"])
        for k, v in frozen[self.key(op)].items():
            same = v == rec[k] if isinstance(v, int) else _rel_close(rec[k], v, self.RTOL)
            if not same:
                bad.append(f"{k} {rec[k]!r} != frozen {v!r}")
        return [f"{self.key(op)}: {b}" for b in bad]

    def sites(self, tr):
        S = self.simulate
        kalman = _mod("kalman")
        tr.site(S, "run_experiment", "simulate.run_experiment")
        tr.site(S, "step_dynamics", "control.step_dynamics")
        tr.site(S, "velocity_command", "control.velocity_command")
        tr.site(kalman.Kalman1D, "predict", "kalman.Kalman1D.predict")
        tr.site(kalman.Kalman1D, "update", "kalman.Kalman1D.update")
        tr.site(S, "subject_state_at", "scenario.subject_state_at")
        tr.site(_mod("scenario"), "subject_state_at", "scenario.subject_state_at")
        tr.site(S, "target_pose_at", "scenario.target_pose_at")
        tr.site(S, "to_drone", "pose.to_drone")
        tr.site(S, "to_odometry", "pose.to_odometry")
        tr.site(self.metrics, "metrics", "metrics.metrics")

    EXTRAS = {"simulate.ticks": "count", "simulate.observations": "count"}

    def layer_extras(self, state, round_ops, round_recs, round_times, tracer):
        ticks = sum(int(round(r.get("sim_s", 0.0) * self.simulate.DYNAMICS_HZ))
                    for r in round_recs)
        obs = sum(r.get("observations", 0) for r in round_recs)
        return {"simulate.ticks": (ticks, "count"), "simulate.observations": (obs, "count")}

    def report(self, ops, times, recs):
        sim_s = sum(r["sim_s"] for r in recs)
        return {"sim_realtime_x": (sim_s / sum(times), "x"),
                "sim_run_s_p50": (float(np.median(times)), "s"),
                "sim_run_s_p90": (float(np.percentile(times, 90)), "s")}


class DesignSweep:
    # Why: planner, audit and costmodel do all of the work, and the engine
    # and simulator do none.  Each design point is a variant x policy x
    # fuse_pool x memory hierarchy with the L1 budget drawn around 64 kB so
    # tile counts vary; it runs the user's plan + sweep step.  Interleaved
    # cost-model fits on jittered reference points cover calibrate-cost.
    # Constraint verdicts (PlanConstraintError, UntileableLayerError) are
    # correct, frozen outcomes, not failures.
    name = "design-sweep"
    round_ops = 200
    POINT_POOL = 256
    FIT_POOL = 64
    POINTS_PER_FIT = 4
    FIT_JITTER = 0.005       # relative std of the jitter on fit targets
    FIT_RTOL = 1e-6
    L1_KB = (4, 124)         # L1 budget range centred on the 64 kB scratchpad
    L2_KB = (320, 384, 448, 512, 576, 640)

    def __init__(self):
        self.G = _mod("graph")
        self.planner = _mod("planner")
        self.audit = _mod("audit")
        self.costmodel = _mod("costmodel")
        self.errors = _mod("errors")

    def make_inputs(self):
        P = self.planner
        rng = np.random.default_rng(POINT_SEED)
        points = []
        for _ in range(self.POINT_POOL):
            points.append({
                "variant": VARIANTS[int(rng.integers(len(VARIANTS)))],
                "policy": P.POLICIES[int(rng.integers(len(P.POLICIES)))],
                "fuse_pool": bool(rng.integers(2)),
                "l1_bytes": int(rng.integers(self.L1_KB[0], self.L1_KB[1] + 1)) * 1024,
                "l2_bytes": int(rng.choice(self.L2_KB)) * 1024,
            })
        jitter = 1.0 + self.FIT_JITTER * np.random.default_rng(FIT_SEED).standard_normal(
            (self.FIT_POOL, 2 * len(self.costmodel.REFERENCE_POINTS)))
        return {"points": points, "jitter": jitter}

    def setup(self, inputs, workdir):
        P, C = self.planner, self.costmodel
        graphs = {v: self.G.build_variant(v) for v in VARIANTS}
        ref_plans = {v: P.plan(graphs[v], P.GAP8, P.STREAMED) for v in VARIANTS}
        ref_ops = [C.operating_point(*f) for _, f, _, _ in C.REFERENCE_POINTS]
        return {"graphs": graphs, "ref_plans": ref_plans, "ref_ops": ref_ops, **inputs}

    def warmup_ops(self):
        return [("point", 0), ("fit", 0)]

    def ops(self, seed):
        rng = np.random.default_rng([seed, 3])
        while True:
            block = [("point", int(i)) for i in rng.integers(0, self.POINT_POOL, self.POINTS_PER_FIT)]
            block.insert(int(rng.integers(self.POINTS_PER_FIT + 1)),
                         ("fit", int(rng.integers(self.FIT_POOL))))
            yield from block

    def pool(self):
        return ([("point", i) for i in range(self.POINT_POOL)]
                + [("fit", j) for j in range(self.FIT_POOL)])

    def run(self, state, op):
        P, C = self.planner, self.costmodel
        if op[0] == "fit":
            j = state["jitter"][op[1]]
            targets = [
                (state["ref_plans"][tag], o, fps * j[2 * k], mw * j[2 * k + 1])
                for k, ((tag, _, fps, mw), o) in enumerate(zip(C.REFERENCE_POINTS, state["ref_ops"]))
            ]
            params, _, _ = C.calibrate_params(targets)
            return params
        pt = state["points"][op[1]]
        mem = P.MemoryHierarchy(l1_bytes=pt["l1_bytes"], l2_bytes=pt["l2_bytes"])
        try:
            p = P.plan(state["graphs"][pt["variant"]], mem, pt["policy"], fuse_pool=pt["fuse_pool"])
        except (self.errors.PlanConstraintError, self.errors.UntileableLayerError) as e:
            return {"verdict": type(e).__name__}
        rep = self.audit.audit_plan(p)
        text = P.plan_to_json(p)
        csv = C.sweep_csv(C.sweep(P.plan_from_json(text)))
        return {"verdict": "ok" if rep.ok else "audit-failed", "plan": text, "sweep": csv,
                "tiles": sum(len(t) for t in p.schedule.values())}

    def record(self, op, out):
        if op[0] == "fit":
            return {"params": dataclasses.asdict(out)}
        rec = {"verdict": out["verdict"]}
        if "plan" in out:
            rec.update(plan_sha256=sha256(out["plan"]), sweep_sha256=sha256(out["sweep"]),
                       tiles=out["tiles"])
        return rec

    def key(self, op):
        return f"{op[0]}/{op[1]}"

    def verify(self, op, rec, frozen):
        exp = frozen[self.key(op)]
        if op[0] == "fit":
            bad = [k for k, v in exp["params"].items()
                   if not _rel_close(rec["params"].get(k, math.nan), v, self.FIT_RTOL)]
            return [f"{self.key(op)}: fitted {k} differs" for k in bad]
        if rec != exp:
            return [f"{self.key(op)}: {rec} != frozen {exp}"]
        return []

    def sites(self, tr):
        P, C = self.planner, self.costmodel
        tr.site(P, "plan", "planner.plan")
        tr.site(P, "tile_layer", "planner.tile_layer")
        tr.site(self.audit, "audit_plan", "audit.audit_plan")
        tr.site(P, "plan_to_json", "planner.plan_to_json")
        tr.site(P, "plan_from_json", "planner.plan_from_json")
        tr.site(C, "estimate", "costmodel.estimate")
        tr.site(C, "sweep", "costmodel.sweep")
        tr.site(C, "sweep_csv", "costmodel.sweep_csv")
        tr.site(C, "calibrate_params", "costmodel.calibrate_params")

    EXTRAS = {"planner.tiles": "count", "costmodel.estimate.calls_per_fit": "count"}

    def layer_extras(self, state, round_ops, round_recs, round_times, tracer):
        tiles = sum(r.get("tiles", 0) for r in round_recs)
        fits = sum(1 for op in round_ops if op[0] == "fit") * len(round_times)
        est = tracer.kind_calls.get("round", {}).get(("fit", "costmodel.estimate"), 0)
        return {"planner.tiles": (tiles, "count"),
                "costmodel.estimate.calls_per_fit": (est / max(fits, 1), "count")}

    def report(self, ops, times, recs):
        pts = [t for op, t in zip(ops, times) if op[0] == "point"]
        fits = [t for op, t in zip(ops, times) if op[0] == "fit"]
        out = {}
        if pts:
            out["design_evals_per_s"] = (len(pts) / sum(pts), "1/s")
            out["design_eval_ms_p50"] = (1e3 * float(np.median(pts)), "ms")
            out["design_eval_ms_p90"] = (1e3 * float(np.percentile(pts, 90)), "ms")
        if fits:
            out["fit_ms_p50"] = (1e3 * float(np.median(fits)), "ms")
        return out


WORKLOADS = {w.name: w for w in (InferStream, ClosedLoop, DesignSweep)}


def device_figures():
    """Modelled device figures at the paper's two anchor operating points.

    Returns (metrics, per-stage rows) for every variant planned on the
    default hierarchy and streamed policy with the default cost parameters.
    """
    G, P, C = _mod("graph"), _mod("planner"), _mod("costmodel")
    metrics, rows = {}, []
    for v in VARIANTS:
        p = P.plan(G.build_variant(v))
        for f_fc, f_cl in ((250.0, 175.0), (25.0, 25.0)):
            est = C.estimate(p, C.operating_point(f_fc, f_cl))
            tag = f"costmodel.{v}.{f_fc:g}-{f_cl:g}"
            metrics[f"{tag}.fps"] = (est.fps, "1/s")
            metrics[f"{tag}.mJ_frame"] = (est.energy_mj, "mJ")
            for field in ("compute_cycles", "dma_cycles", "idle_cycles"):
                metrics[f"{tag}.{field}"] = (sum(getattr(s, field) for s in est.per_layer), "cycles")
            for s in est.per_layer:
                rows.append(dict(kind="stage", variant=v, f_fc=f_fc, f_cl=f_cl,
                                 **dataclasses.asdict(s)))
    return metrics, rows
