"""Independent verification of deployment plans.

The audit recomputes every byte count and input row range from the layer
geometry and the tile slices alone; it shares no sizing code with the
planner, so a planner bug cannot hide itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as G
from .planner import STREAMED, DeploymentPlan


_COMPUTE = (G.CONV, G.POOL, G.FC)


@dataclass
class AuditReport:
    ok: bool
    problems: list = field(default_factory=list)


def _tile_from_geometry(layer: G.LayerSpec, tile):
    """Recompute one tile's input rows (with halo, clamped to the input) and
    its input, weight and output bytes from first principles."""
    r0, r1 = tile.out_rows
    c0, c1 = tile.out_ch
    if layer.kind == G.FC:
        rows = (0, 1)
        in_b = layer.in_ch
        w_b = (c1 - c0) * layer.in_ch
        out_b = (c1 - c0) * 4
    else:
        ic, ih, iw = layer.in_shape
        _, _, ow = layer.out_shape
        lo = max(0, r0 * layer.stride[0] - layer.padding[0])
        hi = min(ih, (r1 - 1) * layer.stride[0] - layer.padding[0] + layer.kernel[0])
        rows = (lo, hi)
        in_b = ic * (hi - lo) * iw
        w_b = (c1 - c0) * layer.in_ch * layer.kernel[0] * layer.kernel[1] if layer.kind == G.CONV else 0
        out_b = (c1 - c0) * (r1 - r0) * ow
    return rows, (in_b, w_b, out_b)


def _chained(spans: list, n: int) -> bool:
    """Sorted [a, b) spans that follow one another from 0 to n."""
    return spans[0][0] == 0 and spans[-1][1] == n and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def _is_grid(spans: list, oc: int, oh: int) -> bool:
    """True when the in-bounds tile slices ((c0, c1), (r0, r1)) are each
    pair of one partition of the channels [0, oc) and one of the rows
    [0, oh), once: an exact cover, seen without a per-cell count.  Any
    other layout is counted cell by cell."""
    chs = sorted({c for c, _ in spans})
    rows = sorted({r for _, r in spans})
    return (bool(spans) and len(set(spans)) == len(spans) == len(chs) * len(rows)
            and _chained(chs, oc) and _chained(rows, oh))


def audit_plan(p: DeploymentPlan) -> AuditReport:
    problems = []
    layers = {l.name: l for l in p.graph.layers}

    # 1. every tile honors the double-buffered L1 bound, the stored bytes and
    #    input rows, and every conv, pool and fc layer is scheduled
    for l in p.graph.layers:
        if l.kind in _COMPUTE and not p.schedule.get(l.name):
            problems.append(f"{l.name}: no tiles scheduled")
    for name, tiles in p.schedule.items():
        layer = layers.get(name)
        if layer is None:
            problems.append(f"{name}: scheduled but not in the graph")
            continue
        oc, oh = layer.out_shape[:2]
        spans = []
        for t in tiles:
            rows, split = _tile_from_geometry(layer, t)
            need = 2 * sum(split)     # double-buffered
            if need > p.mem.l1_bytes:
                problems.append(f"{name}: tile {t.out_rows}x{t.out_ch} needs {need} B > L1 {p.mem.l1_bytes}")
            if (t.in_bytes, t.weight_bytes, t.out_bytes) != split:
                problems.append(f"{name}: tile {t.out_rows}x{t.out_ch} stores input/weight/output bytes "
                                f"{(t.in_bytes, t.weight_bytes, t.out_bytes)}, geometry gives {split}")
            if tuple(t.in_rows) != rows:
                problems.append(f"{name}: tile {t.out_rows}x{t.out_ch} stores input rows "
                                f"{tuple(t.in_rows)}, geometry gives {rows}")
            r0, r1 = t.out_rows
            c0, c1 = t.out_ch
            if not (0 <= r0 < r1 <= oh and 0 <= c0 < c1 <= oc):
                problems.append(f"{name}: tile slice out of bounds {t.out_rows} {t.out_ch}")
                continue
            spans.append(((c0, c1), (r0, r1)))
        if _is_grid(spans, oc, oh):
            continue
        cover = np.zeros((oc, oh), dtype=np.int32)
        for (c0, c1), (r0, r1) in spans:
            cover[c0:c1, r0:r1] += 1
        if (cover != 1).any():
            missed = int((cover == 0).sum())
            dup = int((cover > 1).sum())
            problems.append(f"{name}: output coverage broken ({missed} cells uncovered, {dup} overlapped)")

    # 2. stages run the graph's conv, pool and fc layers once each, in order;
    #    their figures and L2 occupancy are recomputed from graph shapes
    staged = [x for n in p.nodes for x in n.layer_names]
    if (not all(n.layer_names for n in p.nodes) or any(x not in layers for x in staged)
            or [x for x in staged if layers[x].kind in _COMPUTE]
            != [l.name for l in p.graph.layers if l.kind in _COMPUTE]):
        problems.append(f"stages {[n.layer_names for n in p.nodes]} do not run the graph's "
                        f"conv, pool and fc layers in order")
        return AuditReport(ok=False, problems=problems)
    total_w = sum(l.weight_count() for l in p.graph.layers)
    stage_w = [sum(layers[x].weight_count() for x in n.layer_names) for n in p.nodes] + [0]
    for i, (n, row) in enumerate(zip(p.nodes, p.occupancy)):
        group = [layers[x] for x in n.layer_names]
        first = group[0]
        derived = (first.kind, sum(l.macs() for l in group), stage_w[i],
                   first.out_shape[1], first.weight_count() // first.out_ch)
        if (n.kind, n.macs, n.weight_bytes, n.out_rows, n.dot_len) != derived:
            problems.append(f"{n.name}: stage kind, macs, weights, rows or dot length differ "
                            f"from the graph's {derived}")
        in_b = math.prod(first.in_shape)
        out_b = math.prod(group[-1].out_shape) * (4 if group[-1].kind == G.FC else 1)
        if (row.input_bytes, row.output_bytes) != (in_b, out_b):
            problems.append(f"{n.name}: occupancy buffers {row.input_bytes}/{row.output_bytes} "
                            f"!= graph-derived {in_b}/{out_b}")
        # streamed: this stage's and the next one's weights; resident: all
        weights = (stage_w[i], stage_w[i + 1], 0) if p.policy == STREAMED else (0, 0, total_w)
        if (row.weights_current, row.weights_next, row.weights_resident) != weights:
            problems.append(f"{n.name}: current/next/resident weights != graph-derived {weights}")
        total = row.code + sum(weights) + in_b + out_b
        if total > p.mem.l2_bytes:
            problems.append(f"{n.name}: L2 occupancy {total} > {p.mem.l2_bytes}")

    # 3. the plan's L3 weight total is the graph's, and fits L3
    if p.l3_weight_bytes != total_w:
        problems.append(f"weight totals disagree: plan {p.l3_weight_bytes}, graph {total_w}")
    if total_w > p.mem.l3_bytes:
        problems.append(f"L3: weights {total_w} > {p.mem.l3_bytes}")

    return AuditReport(ok=not problems, problems=problems)
