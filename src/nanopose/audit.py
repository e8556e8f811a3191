"""Independent verification of deployment plans.

The audit recomputes every byte count and input row range from the layer
geometry and the tile slices alone; it shares no sizing code with the
planner, so a planner bug cannot hide itself.
"""

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
    its double-buffered bytes from first principles."""
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
    return rows, 2 * (in_b + w_b + out_b)


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
        cover = np.zeros((oc, oh), dtype=np.int32)
        for t in tiles:
            rows, need = _tile_from_geometry(layer, t)
            if need > p.mem.l1_bytes:
                problems.append(f"{name}: tile {t.out_rows}x{t.out_ch} needs {need} B > L1 {p.mem.l1_bytes}")
            if t.l1_bytes != need:
                problems.append(f"{name}: tile reports {t.l1_bytes} B, geometry gives {need}")
            if tuple(t.in_rows) != rows:
                problems.append(f"{name}: tile {t.out_rows}x{t.out_ch} stores input rows "
                                f"{tuple(t.in_rows)}, geometry gives {rows}")
            r0, r1 = t.out_rows
            c0, c1 = t.out_ch
            if not (0 <= r0 < r1 <= oh and 0 <= c0 < c1 <= oc):
                problems.append(f"{name}: tile slice out of bounds {t.out_rows} {t.out_ch}")
                continue
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
    if len(p.occupancy) != len(p.nodes):
        problems.append(f"{len(p.occupancy)} occupancy rows for {len(p.nodes)} stages")
    total_w = sum(l.weight_count() for l in p.graph.layers)
    flagged = {v.split(":", 1)[0] for v in p.violations}
    for i, (n, row) in enumerate(zip(p.nodes, p.occupancy)):
        group = [layers[x] for x in n.layer_names]
        first = group[0]
        derived = (first.kind, sum(l.macs() for l in group), sum(l.weight_count() for l in group),
                   first.out_shape[1], first.weight_count() // first.out_ch)
        if (n.kind, n.macs, n.weight_bytes, n.out_rows, n.dot_len) != derived:
            problems.append(f"{n.name}: stage kind, macs, weights, rows or dot length differ "
                            f"from the graph's {derived}")
        if row.node != n.name:
            problems.append(f"occupancy row {i} is for {row.node}, stage is {n.name}")
        in_b = int(np.prod(first.in_shape))
        out_b = int(np.prod(group[-1].out_shape)) * (4 if group[-1].kind == G.FC else 1)
        if (row.input_bytes, row.output_bytes) != (in_b, out_b):
            problems.append(f"{n.name}: occupancy buffers {row.input_bytes}/{row.output_bytes} "
                            f"!= graph-derived {in_b}/{out_b}")
        if p.policy == STREAMED:
            expect_next = p.nodes[i + 1].weight_bytes if i + 1 < len(p.nodes) else 0
            if (row.weights_current, row.weights_next) != (n.weight_bytes, expect_next):
                problems.append(f"{n.name}: streamed current/next weights {row.weights_current}/"
                                f"{row.weights_next} != {n.weight_bytes}/{expect_next}")
            total = row.code + n.weight_bytes + expect_next + in_b + out_b
        else:
            if row.weights_resident != total_w:
                problems.append(f"{n.name}: resident weights {row.weights_resident} != {total_w}")
            total = row.code + total_w + in_b + out_b
        if total > p.mem.l2_bytes and n.name not in flagged:
            problems.append(f"{n.name}: L2 occupancy {total} > {p.mem.l2_bytes} not flagged by planner")

    # 3. weight conservation: stage weights add up to the L3 total, which
    #    fits L3
    node_w = sum(n.weight_bytes for n in p.nodes)
    if node_w != p.l3_weight_bytes or p.l3_weight_bytes != total_w:
        problems.append(f"weight totals disagree: nodes {node_w}, "
                        f"plan {p.l3_weight_bytes}, graph {total_w}")
    if total_w > p.mem.l3_bytes and "L3" not in flagged:
        problems.append(f"L3: weights {total_w} > {p.mem.l3_bytes} not flagged by planner")

    return AuditReport(ok=not problems, problems=problems)
