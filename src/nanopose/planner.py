"""Deployment planning against an explicit memory hierarchy.

Layers are tiled so each tile's double-buffered working set fits the L1
scratchpad, and execution stages get a per-stage L2 occupancy record.  A
graph that breaks a capacity gets no plan, only PlanConstraintError.  Under
the streamed policy the weights of stage i+1 are transferred from external
RAM during stage i (two-level double buffering); the resident policy
pre-loads all weights into L2 once, when they fit beside code and every
stage's activations.
"""

import json
import math
from dataclasses import dataclass, asdict
from json.encoder import encode_basestring_ascii as _json_str

from . import graph as G
from .errors import (PlanConstraintError, SchemaError, UntileableLayerError, as_str, decoding,
                     parse_doc)

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


def _tile_geometry(layer: G.LayerSpec, r0: int, r1: int, c0: int, c1: int) -> Tile:
    ic, ih, iw = layer.in_shape
    oc, oh, ow = layer.out_shape
    if layer.kind == G.FC:
        return Tile(out_rows=(0, 1), out_ch=(c0, c1), in_rows=(0, 1), in_bytes=layer.in_ch,
                    weight_bytes=(c1 - c0) * layer.taps(),
                    out_bytes=(c1 - c0) * layer.out_elem_bytes())
    sh = layer.stride[0]
    kh = layer.kernel[0]
    ph = layer.padding[0]
    lo = max(0, r0 * sh - ph)
    hi = min(ih, (r1 - 1) * sh - ph + kh)
    in_bytes = ic * (hi - lo) * iw
    out_bytes = (c1 - c0) * (r1 - r0) * ow * layer.out_elem_bytes()
    return Tile(out_rows=(r0, r1), out_ch=(c0, c1), in_rows=(lo, hi),
                in_bytes=in_bytes, weight_bytes=(c1 - c0) * layer.taps(), out_bytes=out_bytes)


def _worst_ws(layer: G.LayerSpec, h: int, g: int) -> int:
    """Upper bound on any tile's double-buffered bytes at strip height h,
    channel group g (interior halo, no edge clamping credit).  Every term
    is non-decreasing in h and in g, so the largest fitting h or g can be
    found by bisection."""
    if layer.kind == G.FC:
        return 2 * (layer.in_ch + g * layer.taps() + g * layer.out_elem_bytes())
    ic, ih, iw = layer.in_shape
    _, oh, ow = layer.out_shape
    n_in = min((h - 1) * layer.stride[0] + layer.kernel[0], ih)
    return 2 * (ic * n_in * iw + g * layer.taps() + g * h * ow * layer.out_elem_bytes())


def _largest_fitting(fits, hi: int) -> int:
    """Largest n in [1, hi] with fits(n), for a predicate that holds at 1
    and, once false, stays false as n grows."""
    if fits(hi):
        return hi
    lo, hi = 1, hi - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def tile_layer(layer: G.LayerSpec, l1_budget: int) -> list:
    """Cover a layer's output with tiles fitting the double-buffered budget.

    Output rows are split first; channels only when even a single full-width
    row strip cannot fit.  Within that priority the largest fitting strip is
    chosen, so the fewest tiles win; both sizes are bisected (see
    `_worst_ws`).
    """
    if layer.kind in (G.REQUANT, G.DROPOUT):
        return []
    oc, oh, ow = layer.out_shape
    if _worst_ws(layer, 1, 1) > l1_budget:
        raise UntileableLayerError(
            f"{layer.name}: minimal tile needs {_worst_ws(layer, 1, 1)} bytes > budget {l1_budget}"
        )
    # widest channel group that admits a one-row tile, then the tallest
    # row strip for that group
    g = _largest_fitting(lambda c: _worst_ws(layer, 1, c) <= l1_budget, oc)
    h = _largest_fitting(lambda r: _worst_ws(layer, r, g) <= l1_budget, oh)
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
    """Stages and tiles of one graph that fits one memory hierarchy; the L2
    occupancy rows and the L3 weight total are derived from them."""

    graph: G.NetGraph
    mem: MemoryHierarchy
    policy: str
    nodes: list
    schedule: dict            # layer name -> list[Tile]

    @property
    def l3_weight_bytes(self) -> int:
        return sum(n.weight_bytes for n in self.nodes)

    @property
    def occupancy(self) -> list:
        """One L2 row per stage.  Streamed, a stage holds its own weights and
        the next stage's in flight; resident, every stage holds all weights."""
        code, nodes = self.mem.code_budget_l2, self.nodes
        if self.policy == STREAMED:
            w = [n.weight_bytes for n in nodes] + [0]
            return [OccupancyRow(n.name, code, w[i], w[i + 1], 0, n.in_bytes, n.out_bytes)
                    for i, n in enumerate(nodes)]
        total = self.l3_weight_bytes
        return [OccupancyRow(n.name, code, 0, 0, total, n.in_bytes, n.out_bytes) for n in nodes]


def build_nodes(g: G.NetGraph, fuse_pool: bool = True) -> list:
    """Group a shaped graph's layers into execution stages.

    A requant joins the open stage, and with `fuse_pool` so does a pool
    that directly follows a requant.  A dropout runs nothing, but it still
    ends the stage for fusion.  Every other layer opens a stage.  A stage
    takes its kind, name, weights, input and compute geometry from its
    first layer and its output from its last.
    """
    groups = []
    prev = None
    for l in g.layers:
        if l.kind == G.REQUANT or (fuse_pool and l.kind == G.POOL and prev == G.REQUANT):
            groups[-1].append(l)
        elif l.kind != G.DROPOUT:
            groups.append([l])
        prev = l.kind
    return [_stage(group) for group in groups]


def _stage(group: list) -> PlanNode:
    """The stage that runs a group of shaped layers, its figures derived
    from them: kind, name, weights, input and compute geometry from the
    first layer, output from the last."""
    first = group[0]
    return PlanNode(name=first.name, kind=first.kind, layer_names=[l.name for l in group],
                    macs=sum(l.macs() for l in group), weight_bytes=first.weight_count(),
                    in_bytes=math.prod(first.in_shape), out_bytes=group[-1].out_bytes(),
                    out_rows=first.out_shape[1], dot_len=first.taps())


def plan(g: G.NetGraph, mem: MemoryHierarchy = GAP8, policy: str = STREAMED,
         fuse_pool: bool = True) -> DeploymentPlan:
    """Produce a complete deployment plan, or raise PlanConstraintError
    naming every capacity it breaks (weights beyond L3, a stage beyond L2).
    Capacity depends on the stages alone, so it is decided before any layer
    is tiled; a layer that no L1 tile fits then raises UntileableLayerError."""
    if policy not in POLICIES:
        raise SchemaError(f"unknown policy {policy!r}; expect one of {POLICIES}")
    p = DeploymentPlan(graph=g, mem=mem, policy=policy, nodes=build_nodes(g, fuse_pool=fuse_pool),
                       schedule={})
    violations = []
    if p.l3_weight_bytes > mem.l3_bytes:
        violations.append(f"L3: weights {p.l3_weight_bytes} > {mem.l3_bytes}")
    violations += [f"{row.node}: L2 occupancy {row.total} > {mem.l2_bytes}"
                   for row in p.occupancy if row.total > mem.l2_bytes]
    if violations:
        raise PlanConstraintError("; ".join(violations))

    for l in g.layers:
        tiles = tile_layer(l, mem.l1_bytes)
        if tiles:
            p.schedule[l.name] = tiles
    return p


def naive_l2_bytes(g: G.NetGraph, mem: MemoryHierarchy = GAP8) -> int:
    """L2 needed by a no-tiling allocation on `mem`: the largest resident
    occupancy of the unfused stages."""
    p = DeploymentPlan(graph=g, mem=mem, policy=RESIDENT, nodes=build_nodes(g, fuse_pool=False),
                       schedule={})
    return max(row.total for row in p.occupancy)


def memory_report(p: DeploymentPlan):
    """Per-stage occupancy rows, machine and human readable; each policy
    shows only its own weight columns."""
    l3_weights = p.l3_weight_bytes
    streamed = p.policy == STREAMED
    return [{"layer": r.node, "code": r.code,
             **({"weights_current": r.weights_current, "weights_next": r.weights_next} if streamed
                else {"weights_resident": r.weights_resident}),
             "input": r.input_bytes, "output": r.output_bytes, "total": r.total,
             "l3_weights": l3_weights}
            for r in p.occupancy]


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
        "nodes": [_node_doc(n) for n in p.nodes],
        "occupancy": memory_report(p),
        "l3_weight_bytes": p.l3_weight_bytes,
        "violations": [],   # every plan `plan` returns fits its memory hierarchy
        "schedule": {name: [_tile_doc(t) for t in tiles] for name, tiles in p.schedule.items()},
    }


def _node_doc(n: PlanNode) -> dict:
    return dict(vars(n), layer_names=list(n.layer_names))


def _tile_doc(t: Tile) -> dict:
    return dict(vars(t), l1_bytes=t.l1_bytes)


_int_repr = int.__repr__   # how json writes an int


def _indented(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for documents with string
    keys.  The standard library drops to its pure-Python encoder whenever
    `indent` is set; this writes strings and exact ints itself and hands
    every other scalar to `json.dumps`."""
    if type(obj) is str:
        return _json_str(obj)
    if type(obj) is int:
        return _int_repr(obj)
    inner = indent + "  "
    # int leaves, most of a plan, are written inline without a call
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_str(k) + ": " + (_int_repr(v) if type(v) is int else _indented(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_int_repr(v) if type(v) is int else _indented(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj)


def _slots(v):
    # a placeholder field's template slots: %d per int, %s per str or list
    if type(v) is tuple:
        return [_slots(x) for x in v]
    return "%d" if type(v) is int else "%s"


def _template(doc: dict, indent: str) -> str:
    """`_indented(doc, indent)` with every int field, and every element of a
    tuple field, written as %d, and every str or list field as %s: filled
    in field order, with strings and lists already written as JSON, it is
    the text of a record of that layout."""
    text = _indented({k: _slots(v) for k, v in doc.items()}, indent)
    return text.replace('"%d"', "%d").replace('"%s"', "%s")


class _Record:
    """One record layout of the plan document, written by one %-template.

    The layout is that of a placeholder record made by the document's own
    builders: a tuple field has the placeholder's length, and a list field
    holds any number of strings."""

    def __init__(self, doc: dict, indent: str):
        self.indent = indent
        self.template = _template(doc, indent)
        fields = list(doc.values())
        # spliced from the last, so each index still holds when its turn comes
        self.tuples = [i for i, v in enumerate(fields) if type(v) is tuple][::-1]
        types = []
        for v in fields:
            types += map(type, v) if type(v) is tuple else [type(v)]
        self.strs = [i for i, t in enumerate(types) if t is str]
        self.lists = [i for i, t in enumerate(types) if t is list]

    def write(self, doc: dict) -> str:
        """`_indented(doc, indent)`: the template filled in field order."""
        v = [*doc.values()]
        for i in self.tuples:
            v[i:i + 1] = v[i]
        for i in self.strs:
            v[i] = _json_str(v[i])
        for i in self.lists:
            v[i] = _list_json([*map(_json_str, v[i])], self.indent + "  ")
        return self.template % tuple(v)

    def json(self, docs) -> str:
        """The list of records `docs` at its place in the plan document."""
        return _list_json([*map(self.write, docs)], self.indent[:-2])


def _list_json(items: list, indent: str) -> str:
    """`_indented` of a list whose items are written already."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _placeholder_doc(policy: str) -> dict:
    """The document of a plan with one graph layer, stage and tile: the
    layouts the templates write, which depend on the field types alone.
    The layer is the smallest valid graph, a 1-input head; every other str
    is "" and every other int 0."""
    graph = G.NetGraph([G.LayerSpec(G.FC, "", in_ch=1, out_ch=1)], (1, 1, 1))
    node = PlanNode("", "", [""], 0, 0, 0, 0, 0, 0)
    tile = Tile((0, 0), (0, 0), (0, 0), 0, 0, 0)
    return plan_doc(DeploymentPlan(graph, GAP8, policy, [node], {"": [tile]}))


def _frame(doc: dict) -> str:
    """`_indented(doc)` with a %s for each value a plan sets, to be filled
    with that value already written: the text around the records."""
    graph = dict(doc["graph"], variant="%s", input_shape="%s", layers="%s")
    return _indented(dict(doc, policy="%s", mem="%s", graph=graph, nodes="%s", occupancy="%s",
                          l3_weight_bytes="%s", schedule="%s")).replace('"%s"', "%s")


_STREAMED_DOC, _RESIDENT_DOC = map(_placeholder_doc, (STREAMED, RESIDENT))
_PLAN_JSON = _frame(_STREAMED_DOC)
_LAYER = _Record(_STREAMED_DOC["graph"]["layers"][0], "\n      ")
_NODE = _Record(_STREAMED_DOC["nodes"][0], "\n    ")
# memory_report's row, keyed like its choice of weight columns
_ROW = {True: _Record(_STREAMED_DOC["occupancy"][0], "\n    "),
        False: _Record(_RESIDENT_DOC["occupancy"][0], "\n    ")}
# a tile sits in a list in the schedule in the plan
_TILE_JSON = _template(_STREAMED_DOC["schedule"][""][0], "\n      ")


def _tile_json(t: Tile) -> str:
    return _TILE_JSON % (*t.out_rows, *t.out_ch, *t.in_rows, t.in_bytes, t.weight_bytes,
                         t.out_bytes, t.l1_bytes)


def _tiles_json(tiles: list) -> str:
    return _list_json([*map(_tile_json, tiles)], "\n    ")


def plan_to_json(p: DeploymentPlan) -> str:
    """`json.dumps(plan_doc(p), indent=2)`, byte for byte, without the
    standard library's pure-Python encoder, for a plan that `plan` or
    `plan_from_json` returned: each graph layer, stage, occupancy row and
    tile is one template fill.  Such a plan holds only plain ints and
    strings (its graph met `graph.infer_shapes`' rule when it was built),
    so no field is checked here.  The head (graph, stages and occupancy)
    is most of a plan's bytes unless its L1 is small."""
    g = p.graph
    items = [_json_str(name) + ": " + _tiles_json(tiles) for name, tiles in p.schedule.items()]
    schedule = "{\n    " + ",\n    ".join(items) + "\n  }" if items else "{}"
    return _PLAN_JSON % (
        _indented(p.policy, "\n  "), _indented(vars(p.mem), "\n  "),
        _indented(g.variant, "\n    "), _indented(list(g.input_shape), "\n    "),
        _LAYER.json(map(vars, g.layers)), _NODE.json(map(_node_doc, p.nodes)),
        _ROW[p.policy == STREAMED].json(memory_report(p)),
        _indented(p.l3_weight_bytes, "\n  "), schedule)


def _tile(name: str, t: dict) -> Tile:
    # one check per tile: a plan holds hundreds of them
    r, c, i = t["out_rows"], t["out_ch"], t["in_rows"]
    v = (*r, *c, *i, t["in_bytes"], t["weight_bytes"], t["out_bytes"])
    if not (len(r) == len(c) == len(i) == 2 and all(type(x) is int for x in v) and min(v) >= 0):
        raise ValueError(f"tile of {name} is not made of non-negative integers: {t!r}")
    tile = Tile(v[0:2], v[2:4], v[4:6], *v[6:])
    if type(t["l1_bytes"]) is not int or t["l1_bytes"] != tile.l1_bytes:
        raise SchemaError(f"plan document: a tile of {name} stores l1_bytes {t['l1_bytes']!r}, "
                          f"its buffers give {tile.l1_bytes}")
    return tile


def plan_from_json(text) -> DeploymentPlan:
    """Decode a plan document.  Its stages are derived again from their
    `layer_names` and the graph, and the copies it holds (stage figures,
    occupancy rows with their totals, `l3_weight_bytes`, tile L1 bytes) are
    not trusted: each must be the integer or string that the graph, tiles,
    policy and memory sizes give, or SchemaError; a float or bool copy is no
    copy.  `audit.audit_plan` checks the rest against the graph.  A
    document that lists violations describes no plan: it raises
    PlanConstraintError naming each one."""
    doc = parse_doc(text, "plan document", "nanopose-plan")
    with decoding("plan document"):
        policy = doc["policy"]
        if policy not in POLICIES:
            raise SchemaError(f"plan document: unknown policy {policy!r}")
        graph = G.from_doc(doc["graph"])
        layers = {l.name: l for l in graph.layers}
        stages = doc["nodes"]
        nodes = [_stage([layers[x] for x in d["layer_names"]]) for d in stages]
        schedule = {
            name: [_tile(name, t) for t in tiles]
            for name, tiles in doc["schedule"].items()
        }
        p = DeploymentPlan(graph=graph, mem=MemoryHierarchy(**doc["mem"]),
                           policy=policy, nodes=nodes, schedule=schedule)
        occupancy, l3_weight_bytes = doc["occupancy"], doc["l3_weight_bytes"]
        # equal values, then integer types: 7200.0 or True equals an int by value
        if ((stages, occupancy, l3_weight_bytes)
                != ([*map(vars, nodes)], memory_report(p), p.l3_weight_bytes)
                or type(l3_weight_bytes) is not int
                or not {type(v) for d in (*stages, *occupancy) for v in d.values()} <= {int, str, list}):
            raise SchemaError("plan document: occupancy rows differ from those the stages, "
                              "policy and memory sizes give, stage figures from those their "
                              "layers give, or l3_weight_bytes from their sum (a float or bool "
                              "copy of an integer differs too)")
        violations = [as_str(v) for v in doc.get("violations", [])]
    if violations:
        raise PlanConstraintError("plan document lists violations; the plan cannot run on "
                                  "its memory hierarchy: " + "; ".join(violations))
    return p
