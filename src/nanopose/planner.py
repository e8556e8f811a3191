"""Deployment planning against an explicit memory hierarchy.

Layers are tiled so each tile's double-buffered working set fits the L1
scratchpad, and execution stages get a per-stage L2 occupancy record.  Under
the streamed policy the weights of stage i+1 are transferred from external
RAM during stage i (two-level double buffering); the resident policy
pre-loads all weights into L2 once, when they fit beside code and the worst
activation pair.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import graph as G
from .errors import (PlanConstraintError, SchemaError, UntileableLayerError, as_int,
                     as_str, decoding, parse_doc)

STREAMED = "streamed_l3"
RESIDENT = "resident_l2"
POLICIES = (STREAMED, RESIDENT)


@dataclass
class MemoryHierarchy:
    l1_bytes: int = 64 * 1024
    l2_bytes: int = 512 * 1024
    l3_bytes: int = 8 * 1024 * 1024
    code_budget_l2: int = 80 * 1024

    def __post_init__(self):
        if not (all(type(v) is int and v > 0 for v in vars(self).values())
                and self.l1_bytes < self.l2_bytes < self.l3_bytes and self.code_budget_l2 < self.l2_bytes):
            raise SchemaError(f"memory sizes must be positive integers with l1 < l2 < l3 and code "
                              f"budget < l2, got {vars(self)}")


GAP8 = MemoryHierarchy()


@dataclass
class Tile:
    layer: str
    out_rows: tuple          # [r0, r1)
    out_ch: tuple            # [c0, c1)
    in_rows: tuple           # [r0, r1) clamped input rows incl. halo
    in_bytes: int
    weight_bytes: int
    out_bytes: int

    @property
    def l1_bytes(self) -> int:
        # double buffering keeps two copies of the working set in flight
        return 2 * (self.in_bytes + self.weight_bytes + self.out_bytes)


def _elem_out(layer: G.LayerSpec) -> int:
    return 4 if layer.kind == G.FC else 1


def _tile_geometry(layer: G.LayerSpec, r0: int, r1: int, c0: int, c1: int) -> Tile:
    ic, ih, iw = layer.in_shape
    oc, oh, ow = layer.out_shape
    if layer.kind == G.FC:
        return Tile(
            layer=layer.name, out_rows=(0, 1), out_ch=(c0, c1), in_rows=(0, 1),
            in_bytes=layer.in_ch, weight_bytes=(c1 - c0) * layer.in_ch,
            out_bytes=(c1 - c0) * 4,
        )
    sh = layer.stride[0]
    kh = layer.kernel[0]
    ph = layer.padding[0]
    lo = max(0, r0 * sh - ph)
    hi = min(ih, (r1 - 1) * sh - ph + kh)
    in_bytes = ic * (hi - lo) * iw
    w_bytes = (c1 - c0) * layer.in_ch * layer.kernel[0] * layer.kernel[1] if layer.kind == G.CONV else 0
    out_bytes = (c1 - c0) * (r1 - r0) * ow * _elem_out(layer)
    return Tile(layer=layer.name, out_rows=(r0, r1), out_ch=(c0, c1), in_rows=(lo, hi),
                in_bytes=in_bytes, weight_bytes=w_bytes, out_bytes=out_bytes)


def _worst_ws(layer: G.LayerSpec, h: int, g: int) -> int:
    """Upper bound on any tile's double-buffered bytes at strip height h,
    channel group g (interior halo, no edge clamping credit)."""
    if layer.kind == G.FC:
        return 2 * (layer.in_ch + g * layer.in_ch + 4 * g)
    ic, ih, iw = layer.in_shape
    _, oh, ow = layer.out_shape
    n_in = min((h - 1) * layer.stride[0] + layer.kernel[0], ih)
    w_bytes = g * layer.in_ch * layer.kernel[0] * layer.kernel[1] if layer.kind == G.CONV else 0
    return 2 * (ic * n_in * iw + w_bytes + g * h * ow * _elem_out(layer))


def tile_layer(layer: G.LayerSpec, l1_budget: int) -> list:
    """Cover a layer's output with tiles fitting the double-buffered budget.

    Output rows are split first; channels only when even a single full-width
    row strip cannot fit.  Within that priority the largest fitting strip is
    chosen, so the fewest tiles win.
    """
    if layer.kind in (G.REQUANT, G.DROPOUT):
        return []
    oc, oh, ow = layer.out_shape if layer.kind != G.FC else (layer.out_ch, 1, 1)
    # widest channel group that admits at least a one-row tile
    if _worst_ws(layer, 1, oc) <= l1_budget:
        g = oc
    else:
        g = 0
        for cand in range(oc - 1, 0, -1):
            if _worst_ws(layer, 1, cand) <= l1_budget:
                g = cand
                break
        if g == 0:
            raise UntileableLayerError(
                f"{layer.name}: minimal tile needs {_worst_ws(layer, 1, 1)} bytes > budget {l1_budget}"
            )
    # tallest row strip for that group
    h = 1
    for cand in range(oh, 0, -1):
        if _worst_ws(layer, cand, g) <= l1_budget:
            h = cand
            break
    tiles = []
    for c0 in range(0, oc, g):
        c1 = min(c0 + g, oc)
        for r0 in range(0, oh, h):
            r1 = min(r0 + h, oh)
            tiles.append(_tile_geometry(layer, r0, r1, c0, c1))
    return tiles


@dataclass
class PlanNode:
    """One execution stage: a conv with its fused activation (optionally the
    following pool), a standalone pool, or the head."""

    name: str
    kind: str
    layer_names: list
    macs: int
    weight_bytes: int
    in_bytes: int
    out_bytes: int
    out_rows: int            # spatial rows of the compute layer
    dot_len: int             # inner MAC chain length (k*k*in_ch, or in features)


@dataclass
class OccupancyRow:
    node: str
    code: int
    weights_current: int
    weights_next: int
    weights_resident: int
    input_bytes: int
    output_bytes: int

    @property
    def total(self) -> int:
        return (self.code + self.weights_current + self.weights_next +
                self.weights_resident + self.input_bytes + self.output_bytes)


@dataclass
class DeploymentPlan:
    graph: G.NetGraph
    mem: MemoryHierarchy
    policy: str
    nodes: list
    occupancy: list
    schedule: dict            # layer name -> list[Tile]
    l3_weight_bytes: int
    violations: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations


def _activation_bytes(shape, kind) -> int:
    n = int(np.prod(shape))
    return 4 * n if kind == G.FC else n


def build_nodes(g: G.NetGraph, fuse_pool: bool = True) -> list:
    nodes = []
    layers = list(g.layers)
    i = 0
    while i < len(layers):
        l = layers[i]
        if l.kind == G.CONV:
            group = [l]
            if i + 1 < len(layers) and layers[i + 1].kind == G.REQUANT:
                group.append(layers[i + 1])
            j = i + len(group)
            if fuse_pool and j < len(layers) and layers[j].kind == G.POOL:
                group.append(layers[j])
            nodes.append(PlanNode(
                name=l.name, kind=G.CONV, layer_names=[x.name for x in group],
                macs=l.macs(), weight_bytes=l.weight_count(),
                in_bytes=_activation_bytes(l.in_shape, G.CONV),
                out_bytes=_activation_bytes(group[-1].out_shape, group[-1].kind),
                out_rows=l.out_shape[1], dot_len=l.in_ch * l.kernel[0] * l.kernel[1],
            ))
            i += len(group)
        elif l.kind == G.POOL:
            nodes.append(PlanNode(
                name=l.name, kind=G.POOL, layer_names=[l.name], macs=0, weight_bytes=0,
                in_bytes=_activation_bytes(l.in_shape, G.POOL),
                out_bytes=_activation_bytes(l.out_shape, G.POOL),
                out_rows=l.out_shape[1], dot_len=0,
            ))
            i += 1
        elif l.kind == G.FC:
            nodes.append(PlanNode(
                name=l.name, kind=G.FC, layer_names=[l.name],
                macs=l.macs(), weight_bytes=l.weight_count(),
                in_bytes=_activation_bytes(l.in_shape, G.CONV),
                out_bytes=_activation_bytes(l.out_shape, G.FC),
                out_rows=1, dot_len=l.in_ch,
            ))
            i += 1
        else:
            i += 1
    return nodes


def plan(qg_or_graph, mem: MemoryHierarchy = GAP8, policy: str = STREAMED,
         fuse_pool: bool = True) -> DeploymentPlan:
    """Produce a complete deployment plan, or raise PlanConstraintError with
    the plan and its violations (weights beyond L3, a stage beyond L2)."""
    g = getattr(qg_or_graph, "graph", qg_or_graph)
    if policy not in POLICIES:
        raise SchemaError(f"unknown policy {policy!r}; expect one of {POLICIES}")
    if not g.layers:
        return DeploymentPlan(graph=g, mem=mem, policy=policy, nodes=[], occupancy=[],
                              schedule={}, l3_weight_bytes=0)
    G.infer_shapes(g)
    nodes = build_nodes(g, fuse_pool=fuse_pool)
    total_w = sum(n.weight_bytes for n in nodes)

    if policy == RESIDENT:
        worst_pair = max((n.in_bytes + n.out_bytes for n in nodes), default=0)
        need = total_w + mem.code_budget_l2 + worst_pair
        if need > mem.l2_bytes:
            raise PlanConstraintError(
                f"resident_l2 infeasible: weights {total_w} + code {mem.code_budget_l2} "
                f"+ worst activation pair {worst_pair} = {need} > L2 {mem.l2_bytes}"
            )

    occupancy = []
    violations = []
    if total_w > mem.l3_bytes:
        violations.append(f"L3: weights {total_w} > {mem.l3_bytes}")
    streamed = policy == STREAMED
    for i, n in enumerate(nodes):
        w_next = nodes[i + 1].weight_bytes if streamed and i + 1 < len(nodes) else 0
        row = OccupancyRow(node=n.name, code=mem.code_budget_l2,
                           weights_current=n.weight_bytes if streamed else 0, weights_next=w_next,
                           weights_resident=0 if streamed else total_w,
                           input_bytes=n.in_bytes, output_bytes=n.out_bytes)
        occupancy.append(row)
        if row.total > mem.l2_bytes:
            violations.append(f"{n.name}: L2 occupancy {row.total} > {mem.l2_bytes}")

    schedule = {}
    for l in g.layers:
        tiles = tile_layer(l, mem.l1_bytes)
        if tiles:
            schedule[l.name] = tiles

    p = DeploymentPlan(graph=g, mem=mem, policy=policy, nodes=nodes, occupancy=occupancy,
                       schedule=schedule, l3_weight_bytes=total_w, violations=violations)
    if violations:
        raise PlanConstraintError("; ".join(violations), plan=p, violations=violations)
    return p


def naive_l2_bytes(g: G.NetGraph, code_budget: int = GAP8.code_budget_l2) -> int:
    """L2 needed by a no-tiling allocation: code plus all weights plus the
    largest input/output activation pair of any stage."""
    nodes = build_nodes(g, fuse_pool=False)
    total_w = sum(n.weight_bytes for n in nodes)
    worst = max(n.in_bytes + n.out_bytes for n in nodes)
    return code_budget + total_w + worst


def memory_report(p: DeploymentPlan):
    """Per-stage occupancy rows, machine and human readable."""
    rows = []
    for r in p.occupancy:
        d = dict(layer=r.node, code=r.code)
        if p.policy == STREAMED:
            d["weights_current"] = r.weights_current
            d["weights_next"] = r.weights_next
        else:
            d["weights_resident"] = r.weights_resident
        d["input"] = r.input_bytes
        d["output"] = r.output_bytes
        d["total"] = r.total
        d["l3_weights"] = p.l3_weight_bytes
        rows.append(d)
    return rows


def report_csv(p: DeploymentPlan) -> str:
    rows = memory_report(p)
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    lines += [",".join(str(r[c]) for c in cols) for r in rows]
    return "\n".join(lines) + "\n"


def report_table(p: DeploymentPlan) -> str:
    rows = memory_report(p)
    cols = list(rows[0].keys())
    widths = [max(len(c), max(len(str(r[c])) for r in rows)) for c in cols]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    out = [fmt.format(*cols)]
    out += [fmt.format(*(str(r[c]) for c in cols)) for r in rows]
    return "\n".join(out)


def plan_doc(p: DeploymentPlan) -> dict:
    """The plan as a nanopose-plan document (a dict ready for json)."""
    return {
        "format": "nanopose-plan",
        "version": 1,
        "policy": p.policy,
        "mem": asdict(p.mem),
        "graph": G.to_doc(p.graph),
        "nodes": [asdict(n) for n in p.nodes],
        "occupancy": memory_report(p),
        "l3_weight_bytes": p.l3_weight_bytes,
        "violations": p.violations,
        "schedule": {
            name: [dict({k: v for k, v in vars(t).items() if k != "layer"}, l1_bytes=t.l1_bytes)
                   for t in tiles]
            for name, tiles in p.schedule.items()
        },
    }


def plan_to_json(p: DeploymentPlan) -> str:
    return json.dumps(plan_doc(p), indent=2)


def _tile(name: str, t: dict) -> Tile:
    # one check per tile: a plan holds hundreds of them
    r, c, i = t["out_rows"], t["out_ch"], t["in_rows"]
    v = (*r, *c, *i, t["in_bytes"], t["weight_bytes"], t["out_bytes"])
    if not (len(r) == len(c) == len(i) == 2 and all(type(x) is int for x in v) and min(v) >= 0):
        raise ValueError(f"tile of {name} is not made of non-negative integers: {t!r}")
    return Tile(name, v[0:2], v[2:4], v[4:6], *v[6:])


def plan_from_json(text) -> DeploymentPlan:
    """Decode a plan document.  Derived fields (occupancy totals, tile L1
    bytes) are not read; `audit.audit_plan` checks the rest against the
    graph."""
    doc = parse_doc(text, "plan document", "nanopose-plan")
    with decoding("plan document"):
        policy = doc["policy"]
        if policy not in POLICIES:
            raise SchemaError(f"plan document: unknown policy {policy!r}")
        nodes = [
            PlanNode(name=as_str(d["name"]), kind=as_str(d["kind"]),
                     layer_names=[as_str(x) for x in d["layer_names"]],
                     **{k: as_int(d[k]) for k in ("macs", "weight_bytes", "in_bytes", "out_bytes",
                                                  "out_rows", "dot_len")})
            for d in doc["nodes"]
        ]
        schedule = {
            name: [_tile(name, t) for t in tiles]
            for name, tiles in doc["schedule"].items()
        }
        # a policy's report leaves out the other policy's weight columns
        occupancy = [
            OccupancyRow(node=as_str(d["layer"]), code=as_int(d["code"]),
                         input_bytes=as_int(d["input"]), output_bytes=as_int(d["output"]),
                         **{k: as_int(d.get(k, 0)) for k in ("weights_current", "weights_next", "weights_resident")})
            for d in doc["occupancy"]
        ]
        return DeploymentPlan(graph=G.from_doc(doc["graph"]), mem=MemoryHierarchy(**doc["mem"]),
                              policy=policy, nodes=nodes, occupancy=occupancy, schedule=schedule,
                              l3_weight_bytes=as_int(doc["l3_weight_bytes"]),
                              violations=[as_str(v) for v in doc.get("violations", [])])

