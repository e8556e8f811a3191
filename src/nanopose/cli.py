"""Command-line surface tying the toolkit together.

Every artifact embeds a provenance header (tool version, input hashes,
seed); outputs are byte-for-byte reproducible for identical inputs and
seeds.  Exit codes: 0 success, 2 usage, 3 missing file, 4 malformed
artifact, 5 violated resource constraint, 1 anything else.
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import augment as A
from . import costmodel as C
from . import engine
from . import graph as G
from . import planner as P
from . import quantizer as Q
from . import simulate as S
from . import tensorfile
from .metrics import metrics as run_metrics, metrics_csv
from .audit import audit_plan
from .control import ControlConfig
from .errors import ConstraintError, NanoposeError, SchemaError, parse_doc
from .floatnet import random_float_net
from .pose import Pose

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_SCHEMA = 4
EXIT_CONSTRAINT = 5


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, body, seed=None, inputs=()):
    """Write a CSV artifact under a `#` provenance header."""
    lines = [f"nanopose {__version__}"] + [f"seed={seed}"] * (seed is not None)
    lines += [f"input {os.path.basename(p)} sha256={_sha256(p)}" for p in inputs]
    with open(path, "w") as f:
        f.write("".join(f"# {line}\n" for line in lines) + body)


def write_json(path, doc, seed=None, inputs=()):
    """Write a JSON artifact with a `_provenance` record added."""
    prov = {"tool": f"nanopose {__version__}", **({"seed": seed} if seed is not None else {}),
            "inputs": {os.path.basename(p): _sha256(p) for p in inputs}}
    with open(path, "w") as f:
        json.dump(dict(doc, _provenance=prov), f, indent=2)
        f.write("\n")


def cmd_analyze(args):
    g = G.build_variant(args.net)
    s = G.analyze(g)
    mant, exp = f"{s.params:.2e}".split("e")
    print(f"variant {g.variant}  (input {'x'.join(map(str, g.input_shape))})")
    print(f"  operations : {s.macs:>12,} MAC   ({s.macs / 1e6:.1f} MMAC)")
    print(f"  parameters : {s.params:>12,}       ({mant}e{int(exp)})")
    print(f"  memory     : {s.memory_bytes:>12,} B     ({s.memory_bytes / 1e3:.0f} kB)")
    rows = G.layer_table(g)
    widths = {k: max(len(k), max(len(str(r[k])) for r in rows)) for k in rows[0]}
    print("  " + "  ".join(k.rjust(widths[k]) for k in rows[0]))
    for r in rows:
        print("  " + "  ".join(str(r[k]).rjust(widths[k]) for k in r))
    if args.out:
        body = ",".join(rows[0].keys()) + "\n"
        body += "\n".join(",".join(str(v) for v in r.values()) for r in rows) + "\n"
        body += f"total,,,,{s.macs},{s.params},{s.memory_bytes}\n"
        write_csv(args.out, body)
    if args.graph_out:
        write_json(args.graph_out, G.to_doc(g))
    return EXIT_OK


def _load_options(path, fields) -> dict:
    """The settings of one JSON option file.  Keys starting with `_` (such
    as provenance) are dropped; any other key outside `fields` is an error."""
    with open(path, "rb") as f:
        doc = {k: v for k, v in parse_doc(f.read(), path).items() if not k.startswith("_")}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise SchemaError(f"{path}: unknown keys {unknown}; expect some of {sorted(fields)}")
    return doc


def cmd_quantize(args):
    if args.graph:
        with open(args.graph, "rb") as f:
            g = G.from_doc(parse_doc(f.read(), args.graph, "nanopose-graph"))
    else:
        g = G.build_variant(args.net)
    inputs = [p for p in (args.graph,) if p]
    if args.weights:
        net = random_float_net(g, seed=0)
        for l in g.layers:
            if l.kind in (G.CONV, G.FC):
                path = os.path.join(args.weights, f"{l.name}.qtns")
                data, _, _ = tensorfile.read_tensor(path)
                shape = l.weight_shape()
                if data.size != math.prod(shape):
                    raise SchemaError(f"{path}: {data.size} weights, layer {l.name} needs "
                                      f"{math.prod(shape)} {shape}")
                w = np.asarray(data, dtype=np.float64).reshape(shape)
                if not np.isfinite(w).all():
                    raise SchemaError(f"{path}: weights of layer {l.name} must be finite, "
                                      f"got inf or NaN")
                net.weights[l.name] = w
                inputs.append(path)
    else:
        net = random_float_net(g, seed=args.seed)
    if args.calib:
        imgs = []
        for fn in sorted(os.listdir(args.calib)):
            if fn.endswith(".pgm"):
                from .pgm import read_pgm
                px = read_pgm(os.path.join(args.calib, fn))
                # the crop infer applies, so a camera frame calibrates what it will feed
                imgs.append(engine.crop_center(px, g.input_shape[1:]).dequantize())
        if not imgs:
            raise SchemaError(f"no .pgm calibration images under {args.calib}")
    else:
        rng = np.random.default_rng(args.seed)
        imgs = [rng.integers(0, 256, g.input_shape).astype(np.float64) * engine.IMAGE_EPS
                for _ in range(args.calib_size)]
    alphas = Q.calibrate(net, Q.CalibrationSet(imgs))
    qg = Q.convert(net, alphas)
    write_json(args.out, Q.qgraph_doc(qg, args.out), seed=args.seed, inputs=inputs)
    print(f"wrote {args.out} (+{len(qg.weights)} weight tensors)")
    return EXIT_OK


def cmd_infer(args):
    from .pgm import read_pgm

    qg = Q.load_qgraph(args.qgraph)
    px = read_pgm(args.image)
    img = engine.crop_center(px, qg.graph.input_shape[1:])
    res = engine.infer_int(qg, img, record_activations=bool(args.dump_activations))
    # the snapshots go first, so a failed dump leaves no pose CSV behind
    if args.dump_activations:
        os.makedirs(args.dump_activations, exist_ok=True)
        for name, qt in res.activations.items():
            tensorfile.write_qtensor(os.path.join(args.dump_activations, f"{name}.qtns"), qt)
    body = "x,y,z,theta,raw_x,raw_y,raw_z,raw_theta\n"
    body += ",".join(f"{v:.9g}" for v in res.pose) + "," + ",".join(str(int(v)) for v in res.raw) + "\n"
    write_csv(args.out, body, inputs=[args.qgraph, args.image])
    print(f"pose: x={res.pose[0]:.4f} y={res.pose[1]:.4f} z={res.pose[2]:.4f} theta={res.pose[3]:.4f}")
    return EXIT_OK


def cmd_plan(args):
    if args.qgraph:
        g = Q.load_qgraph(args.qgraph).graph
        inputs = [args.qgraph]
    else:
        g = G.build_variant(args.net)
        inputs = []
    mem = P.GAP8
    if args.mem:
        mem = P.MemoryHierarchy(**_load_options(args.mem, P.MemoryHierarchy.__dataclass_fields__))
        inputs.append(args.mem)
    policy = {"streamed": P.STREAMED, "resident": P.RESIDENT}.get(args.policy, args.policy)
    p = P.plan(g, mem, policy, fuse_pool=not args.no_fuse_pool)
    rep = audit_plan(p)
    if not rep.ok:
        raise ConstraintError("plan failed its audit: " + "; ".join(rep.problems))
    write_json(args.out, P.plan_doc(p), inputs=inputs)
    if args.report:
        write_csv(args.report, P.report_csv(p), inputs=inputs)
    print(P.report_table(p))
    print(f"L3 weights: {p.l3_weight_bytes:,} B; naive no-tiling L2 need: "
          f"{P.naive_l2_bytes(p.graph, p.mem):,} B; audit ok")
    return EXIT_OK


def cmd_sweep(args):
    with open(args.plan, "rb") as f:
        p = P.plan_from_json(f.read())
    rep = audit_plan(p)
    if not rep.ok:
        raise SchemaError(f"{args.plan}: plan failed its audit: " + "; ".join(rep.problems))
    inputs, params = [args.plan], None
    if args.params:
        params = C.CostParams(**_load_options(args.params, C.CostParams.__dataclass_fields__))
        inputs.append(args.params)
    result = C.sweep(p, params=params)
    write_csv(args.out, C.sweep_csv(result), inputs=inputs)
    be, bt = result.best_energy, result.best_throughput
    print(f"best energy    : {be.energy_mj:.3f} mJ/frame @ FC {be.op.f_fc:g} / CL {be.op.f_cl:g} MHz")
    print(f"best throughput: {bt.fps:.1f} frame/s @ FC {bt.op.f_fc:g} / CL {bt.op.f_cl:g} MHz "
          f"({bt.power_mw:.1f} mW)")
    return EXIT_OK


def cmd_calibrate(args):
    plans = {tag: P.plan(G.build_variant(tag), P.GAP8, P.STREAMED)
             for tag in dict.fromkeys(tag for tag, _, _, _ in C.REFERENCE_POINTS)}
    targets = [(plans[tag], C.operating_point(*f), fps, mw)
               for tag, f, fps, mw in C.REFERENCE_POINTS]
    params, residuals, info = C.calibrate_params(targets)
    write_json(args.out, dict(vars(params), _fit=dict(residuals=[float(r) for r in residuals], **info)))
    print(f"fitted parameters -> {args.out}; max |residual| = {np.abs(residuals).max():.4f}")
    print(f"Jacobian rank {info['rank']} of {len(C._FIT_FIELDS)}"
          + (" (degenerate)" if info["degenerate"] else ""))
    return EXIT_OK


def cmd_simulate(args):
    ctl, sim = ControlConfig.__dataclass_fields__, S.SimConfig.__dataclass_fields__
    doc = _load_options(args.config, (*ctl, *sim, "noise_std")) if args.config else {}
    noise = (S.NoiseModel(std=doc["noise_std"], seed=args.seed) if "noise_std" in doc
             else S.noise_for(args.net, seed=args.seed))
    rate = S.RATE_HZ[args.net] if args.rate is None else args.rate
    control_cfg = ControlConfig(**{k: v for k, v in doc.items() if k in ctl})
    sim_cfg = S.SimConfig(**{k: v for k, v in doc.items() if k in sim})
    log = S.run_experiment(noise, rate, control_cfg=control_cfg, sim_cfg=sim_cfg)
    m = run_metrics(log)
    write_csv(args.out, S.log_csv(log), seed=args.seed)
    if args.metrics_out:
        write_csv(args.metrics_out, metrics_csv(m), seed=args.seed)
    print(f"net {args.net} @ {rate:g} Hz seed {args.seed}: "
          f"median e_xy {m.median_e_xy:.3f} m, median e_theta {m.median_e_theta_deg:.2f} deg, "
          f"phase-0 distance {m.phase0_final_distance:.3f} m")
    return EXIT_OK


def cmd_augment(args):
    from .pgm import read_pgm, write_pgm

    px = read_pgm(args.image)
    try:
        label = [float(v) for v in args.label.split(",")]
    except ValueError:
        label = []
    if len(label) != 4 or not all(map(math.isfinite, label)):
        raise SchemaError(f"--label must be four finite numbers x,y,z,theta, got {args.label!r}")
    li = A.LabeledImage(px, Pose(*label))
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    rows = ["file,x,y,z,theta"]
    for k in range(args.count):
        out, pitch = A.augment_sample(li, rng)
        name = f"aug_{k:04d}.pgm"
        write_pgm(os.path.join(args.out, name), out.pixels,
                  comment=f"nanopose {__version__} seed={args.seed} sample={k}")
        lbl = out.label
        rows.append(f"{name},{lbl.x:.9g},{lbl.y:.9g},{lbl.z:.9g},{lbl.theta:.9g}")
    write_csv(os.path.join(args.out, "labels.csv"), "\n".join(rows) + "\n",
              seed=args.seed, inputs=[args.image])
    print(f"wrote {args.count} samples under {args.out}")
    return EXIT_OK


def int_at_least(lo):
    """An argparse type: an integer >= lo."""
    def parse(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    parse.__name__ = "int"    # argparse names it in "invalid int value"
    return parse


def build_parser():
    ap = argparse.ArgumentParser(prog="nanopose", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"nanopose {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="footprint report for a network variant")
    p.add_argument("--net", required=True, choices=G.VARIANTS)
    p.add_argument("--out", help="per-layer CSV report")
    p.add_argument("--graph-out", help="write the graph JSON document")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("quantize", help="calibrate and convert a float net to integers")
    p.add_argument("--graph", help="graph JSON (default: build --net)")
    p.add_argument("--net", default="160x32", choices=G.VARIANTS)
    p.add_argument("--weights", help="directory of float QTNS tensors, one per layer")
    p.add_argument("--calib", help="directory of PGM calibration images")
    p.add_argument("--calib-size", type=int_at_least(1), default=8, help="synthetic calibration images")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("infer", help="run integer inference on an image")
    p.add_argument("--qgraph", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="pose CSV")
    p.add_argument("--dump-activations", help="directory for per-layer QTNS snapshots")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("plan", help="tile and schedule a network against a memory hierarchy")
    p.add_argument("--qgraph", help="quantized graph JSON")
    p.add_argument("--net", default="160x32", choices=G.VARIANTS)
    p.add_argument("--mem", help="memory hierarchy JSON (default GAP8 profile)")
    p.add_argument("--policy", default=P.STREAMED,
                   choices=("streamed", "resident") + P.POLICIES)
    p.add_argument("--no-fuse-pool", action="store_true", help="keep pooling as its own stage")
    p.add_argument("--out", required=True, help="plan JSON")
    p.add_argument("--report", help="occupancy CSV")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("sweep", help="latency/power/energy over the operating grid")
    p.add_argument("--plan", required=True)
    p.add_argument("--params", help="cost parameters JSON (default factory fit)")
    p.add_argument("--out", required=True, help="sweep CSV")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("calibrate-cost", help="fit cost parameters to the reference points")
    p.add_argument("--out", required=True, help="parameters JSON")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("simulate", help="closed-loop tracking run")
    p.add_argument("--net", required=True, choices=sorted(S.RATE_HZ))
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--rate", type=float, help="override the high-level loop rate")
    p.add_argument("--config", help="controller/simulation overrides JSON")
    p.add_argument("--out", required=True, help="trajectory CSV")
    p.add_argument("--metrics-out", help="metrics CSV")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("augment", help="draw augmented training samples from one frame")
    p.add_argument("--image", required=True, help="160x160 PGM source frame")
    p.add_argument("--label", required=True, help="x,y,z,theta")
    p.add_argument("--count", type=int_at_least(0), default=10)
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_augment)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError) as e:
        print(f"nanopose: error[not-found]: {e}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except SchemaError as e:
        print(f"nanopose: error[schema]: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConstraintError as e:
        print(f"nanopose: error[constraint]: {e}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except NanoposeError as e:
        print(f"nanopose: error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
