import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanopose import graph as G
from nanopose.audit import audit_plan
from nanopose.errors import PlanConstraintError, SchemaError, UntileableLayerError
from nanopose.planner import (
    GAP8,
    POLICIES,
    RESIDENT,
    STREAMED,
    DeploymentPlan,
    MemoryHierarchy,
    _worst_ws,
    build_nodes,
    memory_report,
    naive_l2_bytes,
    plan,
    plan_doc,
    plan_from_json,
    plan_to_json,
    tile_layer,
)

from oracles import with_layer


def layer_of(tag, name):
    return G.build_variant(tag).layer(name)


def over_budget_plan(tag, mem):
    """The streamed plan of a variant on `mem`, built from its stages and
    tiles without the capacity checks, so it may break L2 or L3: the plan
    `plan` refuses to return."""
    g = G.build_variant(tag)
    return DeploymentPlan(graph=g, mem=mem, policy=STREAMED, nodes=build_nodes(g),
                          schedule={l.name: t for l in g.layers if (t := tile_layer(l, mem.l1_bytes))})


def linear_scan_slices(layer, budget):
    """Tile slices by scanning every channel group and strip height down
    from the widest and tallest; None when no one-row, one-channel tile
    fits."""
    oc, oh, _ = layer.out_shape
    g = next((c for c in range(oc, 0, -1) if _worst_ws(layer, 1, c) <= budget), None)
    if g is None:
        return None
    h = next(r for r in range(oh, 0, -1) if _worst_ws(layer, r, g) <= budget)
    return [((r0, min(r0 + h, oh)), (c0, min(c0 + g, oc)))
            for c0 in range(0, oc, g) for r0 in range(0, oh, h)]


class TestTileLayer:
    def test_tiny_layer_single_tile(self):
        l = layer_of("160x32", "fc")
        tiles = tile_layer(l, GAP8.l1_bytes)
        assert len(tiles) == 1
        t = tiles[0]
        assert 2 * (t.in_bytes + t.weight_bytes + t.out_bytes) <= GAP8.l1_bytes

    def test_first_conv_multi_tile_bound(self):
        l = layer_of("160x32", "conv1")
        tiles = tile_layer(l, GAP8.l1_bytes)
        assert len(tiles) > 1
        for t in tiles:
            assert 2 * (t.in_bytes + t.weight_bytes + t.out_bytes) <= GAP8.l1_bytes

    def test_untileable_budget(self):
        l = layer_of("160x32", "conv1")
        # single output row, one channel: 5 input rows + 1 output row + 25 weights
        minimal = 2 * (5 * 160 + 80 + 25)
        with pytest.raises(UntileableLayerError):
            tile_layer(l, minimal - 1)
        assert len(tile_layer(l, minimal)) >= 48 * 32 // 1

    def test_rows_before_channels(self):
        l = layer_of("160x32", "conv1")
        tiles = tile_layer(l, GAP8.l1_bytes)
        # weights are small here, so channels must stay whole
        assert all(t.out_ch == (0, 32) for t in tiles)

    def test_channel_split_when_weights_large(self):
        l = layer_of("160x32", "b3c2")  # 147,456 weight bytes
        tiles = tile_layer(l, GAP8.l1_bytes)
        assert any(t.out_ch != (0, 128) for t in tiles)
        for t in tiles:
            assert t.l1_bytes <= GAP8.l1_bytes

    def test_coverage_exact(self):
        for name in ("conv1", "pool1", "b2c1", "b3c2", "fc"):
            l = layer_of("160x32", name)
            tiles = tile_layer(l, GAP8.l1_bytes)
            oc = l.out_ch if l.kind == G.FC else l.out_shape[0]
            oh = 1 if l.kind == G.FC else l.out_shape[1]
            grid = np.zeros((oc, oh), dtype=int)
            for t in tiles:
                grid[t.out_ch[0]:t.out_ch[1], t.out_rows[0]:t.out_rows[1]] += 1
            assert (grid == 1).all(), name

    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_bisection_matches_linear_scan(self, tag):
        layers = G.build_variant(tag).layers
        for kb in range(1, 129):
            for l in layers:
                want = [] if l.kind in (G.REQUANT, G.DROPOUT) else linear_scan_slices(l, kb * 1024)
                if want is None:
                    with pytest.raises(UntileableLayerError):
                        tile_layer(l, kb * 1024)
                else:
                    got = [(t.out_rows, t.out_ch) for t in tile_layer(l, kb * 1024)]
                    assert got == want, (l.name, kb)

    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_worst_ws_monotone_in_height_and_group(self, tag):
        for l in G.build_variant(tag).layers:
            if l.kind in (G.REQUANT, G.DROPOUT):
                continue
            oc, oh, _ = l.out_shape
            ws = np.array([[_worst_ws(l, h, g) for g in range(1, oc + 1)] for h in range(1, oh + 1)])
            assert (np.diff(ws, axis=0) >= 0).all() and (np.diff(ws, axis=1) >= 0).all(), l.name


class TestBuildNodes:
    def test_fused_stage_count(self):
        g = G.build_variant("160x32")
        assert len(build_nodes(g, fuse_pool=True)) == 8
        assert len(build_nodes(g, fuse_pool=False)) == 9

    def test_fused_first_node_output_is_pool(self):
        g = G.build_variant("160x32")
        n = build_nodes(g, fuse_pool=True)[0]
        assert n.out_bytes == 32 * 24 * 40
        n = build_nodes(g, fuse_pool=False)[0]
        assert n.out_bytes == 32 * 48 * 80


    @pytest.mark.parametrize("fuse_pool", [True, False])
    def test_dropout_breaks_pool_fusion(self, fuse_pool):
        g = G.NetGraph(layers=[
            G.LayerSpec(G.CONV, "c", in_ch=1, out_ch=3, kernel=(3, 3), padding=(1, 1)),
            G.LayerSpec(G.REQUANT, "a"),
            G.LayerSpec(G.DROPOUT, "d"),
            G.LayerSpec(G.POOL, "p", kernel=(2, 2), stride=(2, 2)),
            G.LayerSpec(G.FC, "f", in_ch=3 * 4 * 4, out_ch=4),
        ], input_shape=(1, 8, 8))
        got = [(n.name, n.kind, n.layer_names, n.macs, n.weight_bytes, n.in_bytes, n.out_bytes,
                n.out_rows, n.dot_len) for n in build_nodes(g, fuse_pool=fuse_pool)]
        assert got == [
            ("c", G.CONV, ["c", "a"], 8 * 8 * 27, 27, 64, 3 * 8 * 8, 8, 9),
            ("p", G.POOL, ["p"], 0, 0, 3 * 8 * 8, 3 * 4 * 4, 4, 0),
            ("f", G.FC, ["f"], 4 * 48, 4 * 48, 48, 4 * 4, 1, 48),
        ]


class TestPlan:
    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_streamed_within_l2(self, tag):
        p = plan(G.build_variant(tag), GAP8, STREAMED)
        for row in p.occupancy:
            assert row.total <= GAP8.l2_bytes

    def test_streamed_next_weights_scheduled(self):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        for i, row in enumerate(p.occupancy[:-1]):
            assert row.weights_next == p.nodes[i + 1].weight_bytes
        assert p.occupancy[-1].weights_next == 0

    def test_resident_feasible_160x16(self):
        p = plan(G.build_variant("160x16"), GAP8, RESIDENT)
        total_w = sum(n.weight_bytes for n in p.nodes)
        assert total_w == 77_968
        worst = max(n.in_bytes + n.out_bytes for n in p.nodes)
        assert total_w + GAP8.code_budget_l2 + worst <= GAP8.l2_bytes

    def test_resident_infeasible_raises(self):
        small = MemoryHierarchy(l2_bytes=256 * 1024)
        with pytest.raises(PlanConstraintError, match="^conv1: L2 occupancy 431392 > 262144; "):
            plan(G.build_variant("160x32"), small, RESIDENT)

    @pytest.mark.parametrize("conv_out,fc_out", [(0, 4), (2, 0)], ids=["conv", "fc"])
    def test_empty_channel_dimension_rejected(self, conv_out, fc_out):
        # refused when the graph is built, so no plan of it can be asked for
        with pytest.raises(SchemaError, match="empty dimension"):
            G.NetGraph(layers=[
                G.LayerSpec(G.CONV, "c", in_ch=1, out_ch=conv_out, kernel=(3, 3), padding=(1, 1)),
                G.LayerSpec(G.REQUANT, "a"),
                G.LayerSpec(G.FC, "f", in_ch=conv_out * 64, out_ch=fc_out),
            ], input_shape=(1, 8, 8))

    def test_l3_total_is_parameter_count(self):
        p = plan(G.build_variant("160x32"), GAP8, STREAMED)
        assert p.l3_weight_bytes == 303_392

    def test_weights_beyond_l3_are_a_violation(self):
        # every stage of 160x32 fits this L2, so L3 is the only capacity it breaks
        mem = MemoryHierarchy(l1_bytes=65536, l2_bytes=245760, l3_bytes=262144, code_budget_l2=1024)
        with pytest.raises(PlanConstraintError, match=r"^L3: weights 303392 > 262144$"):
            plan(G.build_variant("160x32"), mem, STREAMED)
        # the audit repeats the check
        assert audit_plan(over_budget_plan("160x32", mem)).problems == ["L3: weights 303392 > 262144"]

    def test_bad_policy(self):
        with pytest.raises(SchemaError):
            plan(G.build_variant("160x16"), GAP8, "magic")

    @pytest.mark.parametrize("mem", [dict(l1_bytes=0.5), dict(l3_bytes=8.0 * 2**20), dict(l3_bytes="8M"),
                                     dict(code_budget_l2=0)])
    def test_memory_sizes_are_positive_integers(self, mem):
        with pytest.raises(SchemaError):
            MemoryHierarchy(**mem)

    def test_empty_graph_empty_plan(self):
        # rejected when built, as every decoder rejects it, so no plan exists
        # that plan_from_json could not read back
        with pytest.raises(SchemaError, match="empty graph"):
            G.NetGraph(layers=[], input_shape=(1, 4, 4))

    def test_non_str_layer_name_rejected(self):
        # a plan keys its schedule by layer name, and a plan document's keys
        # are strings: the graph is refused when built, before any plan exists
        with pytest.raises(SchemaError, match="layer names must be unique strings"):
            with_layer(G.build_variant("80x32"), "conv1", name=7)

    def test_plan_does_not_share_an_editable_graph(self):
        # a plan holds its caller's graph, which can no longer be edited
        # under it, so the plan's document still reads back
        g = G.build_variant("80x32")
        p = plan(g)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.graph.layer("conv1").padding = (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.layer("conv1").padding = (0, 0)
        text = plan_to_json(p)
        assert plan_to_json(plan_from_json(text)) == text


    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_decided_before_tiling(self, policy):
        # no L1 tile of conv1 fits 1 kB, but the stages break L2 first
        mem = MemoryHierarchy(l1_bytes=1024, l2_bytes=128 * 1024)
        g = G.build_variant("160x32")
        with pytest.raises(UntileableLayerError):
            tile_layer(g.layer("conv1"), mem.l1_bytes)
        with pytest.raises(PlanConstraintError, match="L2 occupancy"):
            plan(g, mem, policy)

    def test_l2_violation_reported_with_layer(self):
        tiny = MemoryHierarchy(l2_bytes=150 * 1024, code_budget_l2=80 * 1024)
        violations = ["b2c2: L2 occupancy 200192 > 153600", "b3c1: L2 occupancy 308864 > 153600",
                      "b3c2: L2 occupancy 240896 > 153600"]
        with pytest.raises(PlanConstraintError) as ei:
            plan(G.build_variant("160x32"), tiny, STREAMED)
        assert str(ei.value) == "; ".join(violations)
        # the audit repeats the check and names the same stages
        assert audit_plan(over_budget_plan("160x32", tiny)).problems == violations

    def test_feasibility_monotone_in_memory(self):
        g = G.build_variant("80x32")
        base = MemoryHierarchy(l1_bytes=24 * 1024, l2_bytes=400 * 1024)
        plan(g, base, STREAMED)   # fits, so each larger hierarchy below must too
        for grow in (
            MemoryHierarchy(l1_bytes=64 * 1024, l2_bytes=400 * 1024),
            MemoryHierarchy(l1_bytes=24 * 1024, l2_bytes=512 * 1024),
            MemoryHierarchy(l1_bytes=128 * 1024, l2_bytes=1024 * 1024, l3_bytes=16 * 2**20),
        ):
            assert audit_plan(plan(g, grow, STREAMED)).ok


class TestMemoryReport:
    def test_streamed_columns(self):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        rows = memory_report(p)
        assert "weights_current" in rows[0] and "weights_next" in rows[0]
        assert "weights_resident" not in rows[0]

    def test_resident_single_weight_column(self):
        p = plan(G.build_variant("160x16"), GAP8, RESIDENT)
        rows = memory_report(p)
        assert "weights_resident" in rows[0]
        assert "weights_current" not in rows[0]

    def test_total_is_row_sum(self):
        p = plan(G.build_variant("160x32"), GAP8, STREAMED)
        for r in memory_report(p):
            parts = r["code"] + r["weights_current"] + r["weights_next"] + r["input"] + r["output"]
            assert r["total"] == parts

    def test_naive_number_reported_not_tuned(self):
        # the no-tiling allocation exceeds L2 for the largest variant
        need = naive_l2_bytes(G.build_variant("160x32"))
        assert need > GAP8.l2_bytes


class TestAudit:
    @pytest.mark.parametrize("tag", G.VARIANTS)
    @pytest.mark.parametrize("policy", [STREAMED, RESIDENT])
    def test_reference_plans_pass(self, tag, policy):
        p = plan(G.build_variant(tag), GAP8, policy)
        rep = audit_plan(p)
        assert rep.ok, rep.problems

    def test_detects_tampered_tile(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.schedule["conv1"][0].out_rows = (0, 1)  # break coverage
        rep = audit_plan(p)
        assert not rep.ok
        assert any("coverage" in s for s in rep.problems)

    def test_detects_shifted_tile_bytes(self):
        # the split moves, its double-buffered total does not
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        t = p.schedule["conv1"][0]
        assert (t.in_bytes, t.weight_bytes, t.l1_bytes) == (3600, 800, 65120)
        p.schedule["conv1"][0] = dataclasses.replace(t, in_bytes=3700, weight_bytes=700)
        assert p.schedule["conv1"][0].l1_bytes == 65120
        rep = audit_plan(p)
        assert rep.problems == ["conv1: tile (0, 22)x(0, 32) stores input/weight/output bytes "
                                "(3700, 700, 28160), geometry gives (3600, 800, 28160)"]

    def test_detects_tampered_input_rows(self):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        assert p.schedule["conv1"][0].in_rows == (0, 45)
        p.schedule["conv1"][0].in_rows = (40, 41)
        rep = audit_plan(p)
        assert any("conv1" in s and "input rows (40, 41)" in s for s in rep.problems), rep.problems

    @staticmethod
    def tampered_doc(tamper):
        doc = json.loads(plan_to_json(plan(G.build_variant("160x16"), GAP8, STREAMED)))
        tamper(doc)
        return json.dumps(doc)

    def test_detects_tampered_occupancy(self):
        text = self.tampered_doc(lambda d: d["occupancy"][2].update(
            weights_next=d["occupancy"][2]["weights_next"] + 7))
        with pytest.raises(SchemaError, match="occupancy rows differ"):
            plan_from_json(text)

    @pytest.mark.parametrize("field, value", [("macs", lambda v: v + 1), ("dot_len", float),
                                              ("name", lambda v: v + "x"), ("layer_names", lambda v: [])],
                             ids=["macs-plus-1", "float-dot-len", "renamed", "no-layers"])
    def test_reader_derives_stage_figures(self, field, value):
        # a stage is made again from its layers; a stored figure that differs
        # by value or type, or a stage without layers, is refused
        text = self.tampered_doc(lambda d: d["nodes"][2].update({field: value(d["nodes"][2][field])}))
        with pytest.raises(SchemaError, match="stage figures|missing or mistyped"):
            plan_from_json(text)

    def test_detects_truncated_occupancy(self):
        text = self.tampered_doc(lambda d: d.update(occupancy=d["occupancy"][:3]))
        with pytest.raises(SchemaError, match="occupancy rows differ"):
            plan_from_json(text)

    @pytest.mark.parametrize("name, field, value", [
        ("b3a1", "kernel", [2, 1]), ("fc", "stride", [3, 3]), ("pool1", "padding", [1, 1]),
    ])
    def test_unused_window_field_rejected(self, name, field, value):
        # a requant, dropout or fc layer reads no window and a pool pads
        # nothing, so a document giving one is refused, not ignored
        text = self.tampered_doc(
            lambda d: next(l for l in d["graph"]["layers"] if l["name"] == name).update({field: value}))
        with pytest.raises(SchemaError, match=f"{name}: a .* layer takes kernel, stride, padding"):
            plan_from_json(text)

    def test_detects_unscheduled_layer(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        del p.schedule["b2c1"]
        rep = audit_plan(p)
        assert any("b2c1: no tiles" in s for s in rep.problems)

    def test_detects_zeroed_current_weights(self):
        text = self.tampered_doc(lambda d: d["occupancy"][2].update(weights_current=0))
        with pytest.raises(SchemaError, match="occupancy rows differ"):
            plan_from_json(text)

    def test_detects_tampered_stage_figures(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.nodes[1].macs += 1
        assert not audit_plan(p).ok

    def test_unknown_scheduled_layer_is_a_problem(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.schedule["nope"] = p.schedule["conv1"]
        assert not audit_plan(p).ok

    @pytest.mark.parametrize("tamper", [
        lambda ts: ts[:-1],
        lambda ts: ts + ts[:1],
        lambda ts: [dataclasses.replace(ts[0], out_rows=(0, 1))] + ts[1:],
        lambda ts: ts[:1] + [dataclasses.replace(t, out_ch=(1, 2)) for t in ts[1:]],
        lambda ts: ts[:-1] + ts[-2:-1],
        lambda ts: [dataclasses.replace(t, out_ch=(0, 50)) if t.out_ch == (0, 54) else t for t in ts],
        lambda ts: [dataclasses.replace(t, out_rows=(0, 1)) if t.out_rows == (0, 2) else t for t in ts],
        lambda ts: [dataclasses.replace(t, out_ch=(1, 54)) if t.out_ch == (0, 54) else t for t in ts],
        lambda ts: [dataclasses.replace(t, out_ch=(54, 60)) if t.out_ch == (54, 64) else t for t in ts],
        lambda ts: ts[1:] + [dataclasses.replace(ts[0], out_rows=(0, 1)),
                             dataclasses.replace(ts[0], out_rows=(1, 2))],
    ], ids=["missing", "duplicate", "short", "shifted-channels", "duplicate-for-missing",
            "channel-gap", "row-gap", "channels-from-1", "channels-to-60", "exact-not-grid"])
    def test_coverage_verdict_counts_cells(self, tamper):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        tiles = p.schedule["b2c2"]
        assert [(t.out_rows, t.out_ch) for t in tiles] == [
            ((0, 2), (0, 54)), ((2, 3), (0, 54)), ((0, 2), (54, 64)), ((2, 3), (54, 64))]
        p.schedule["b2c2"] = tamper(tiles)
        grid = np.zeros((64, 3), dtype=int)
        for t in p.schedule["b2c2"]:
            grid[t.out_ch[0]:t.out_ch[1], t.out_rows[0]:t.out_rows[1]] += 1
        found = [s for s in audit_plan(p).problems if "coverage" in s]
        want = [] if (grid == 1).all() else [
            f"b2c2: output coverage broken ({(grid == 0).sum()} cells uncovered, "
            f"{(grid > 1).sum()} overlapped)"]
        assert found == want


class TestPlanJson:
    def test_roundtrip(self):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        q = plan_from_json(plan_to_json(p))
        assert q.policy == p.policy
        assert [n.name for n in q.nodes] == [n.name for n in p.nodes]
        assert memory_report(q) == memory_report(p)
        assert audit_plan(q).ok

    @staticmethod
    def written(p):
        """plan_to_json's text, checked against the standard library's
        encoder byte for byte."""
        text = plan_to_json(p)
        assert text == json.dumps(plan_doc(p), indent=2)
        return text

    @staticmethod
    def read_back_or_refused(doc):
        """The reader refuses a plan document, or reads a plan whose text is
        the document's as json.dumps(indent=2) writes it: what the reader
        accepts holds only plain ints and strings, which the writer's
        templates need."""
        # a numpy scalar goes into the text as the number it holds, a range as a list
        text = json.dumps(doc, default=lambda v: v.tolist() if isinstance(v, np.generic) else list(v))
        try:
            q = plan_from_json(text)
        except SchemaError:
            return
        assert plan_to_json(q) == json.dumps(json.loads(text), indent=2)

    @pytest.mark.parametrize("fuse_pool", [True, False])
    @pytest.mark.parametrize("policy", [STREAMED, RESIDENT])
    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_writer_bytes_match_json_dumps(self, tag, policy, fuse_pool):
        written = split = 0
        for kb in range(4, 125, 8):
            try:
                p = plan(G.build_variant(tag), MemoryHierarchy(l1_bytes=kb * 1024), policy,
                         fuse_pool=fuse_pool)
            except (PlanConstraintError, UntileableLayerError):
                continue
            text = self.written(p)
            assert plan_to_json(plan_from_json(text)) == text
            written += 1
            split += any(t.out_ch[0] > 0 for tiles in p.schedule.values() for t in tiles)
        assert split or not written, "no L1 budget split a layer's channels"

    def test_writer_escapes_names(self):
        # the names reach the layer, stage and occupancy templates too
        g = G.build_variant("80x32")
        names = ['quote "ä"', "back\\slash", "tab\t\u00e9", "drone \U0001f681", "del\x7f", "100%s %d"]
        g = G.NetGraph([dataclasses.replace(l, name=names[i] if i < len(names) else l.name)
                        for i, l in enumerate(g.layers)], g.input_shape,
                       variant='variant "%s" \\ \u00e9 \U0001f681')
        for policy in POLICIES:
            text = self.written(plan(g, GAP8, policy))
            assert text.isascii()
            assert plan_to_json(plan_from_json(text)) == text

    @pytest.mark.parametrize("fields", [
        {"in_bytes": 3.5}, {"weight_bytes": True}, {"out_rows": (np.int64(0), 22)},
        {"out_bytes": np.int64(7)}, {"out_ch": [0, 32]}, {"in_rows": (0, 1, 2)},
        {"out_rows": (0, 1, 22), "out_ch": (32,)},
    ], ids=["float", "bool", "int64-row", "int64-bytes", "list", "three-rows", "ten-ints-misplaced"])
    def test_writer_non_int_tile_field(self, fields):
        # a tile field the int template cannot write never reaches it
        doc = plan_doc(plan(G.build_variant("80x32"), GAP8, STREAMED))
        doc["schedule"]["conv1"][0].update(fields)
        self.read_back_or_refused(doc)

    @pytest.mark.parametrize("policy, record, fields", [
        (STREAMED, "layer", {"kernel": [5, 5]}),
        (STREAMED, "layer", {"in_shape": (np.int64(1), 48, 80)}),
        (STREAMED, "layer", {"stride": (2, 2, 2)}),
        (STREAMED, "layer", {"stride": (2, 2, 2), "padding": (2,)}),
        (STREAMED, "layer", {"kernel": range(5, 7)}),
        (STREAMED, "layer", {"in_ch": True}),
        (STREAMED, "layer", {"out_ch": 32.0}),
        (STREAMED, "layer", {"name": 7}),
        (STREAMED, "node", {"macs": np.int64(10)}),
        (STREAMED, "node", {"layer_names": ("conv1", "act1")}),
        (STREAMED, "node", {"layer_names": []}),
        (STREAMED, "node", {"layer_names": ["conv1", 1]}),
        (STREAMED, "node", {"in_bytes": np.int64(7680)}),
        (STREAMED, "node", {"weight_bytes": True}),
        (RESIDENT, "node", {"out_bytes": 3.5}),
        (RESIDENT, "node", {"name": None}),
    ], ids=["list-kernel", "int64-shape", "three-stride",
            "sixteen-ints-misplaced", "range-kernel", "bool-ch", "float-ch", "int-name",
            "int64-macs", "tuple-names", "no-names", "int-in-names", "int64-in-bytes",
            "bool-weights", "float-out-bytes-resident", "none-name-resident"])
    def test_writer_non_plain_head_field(self, policy, record, fields):
        # nor does a layer or stage field the head templates cannot write;
        # test_graph.TestFieldRule refuses such layer fields in built graphs
        doc = plan_doc(plan(G.build_variant("80x32"), GAP8, policy))
        (doc["graph"]["layers"] if record == "layer" else doc["nodes"])[0].update(fields)
        self.read_back_or_refused(doc)

    def test_writer_empty_plan(self):
        # no empty graph is built, as the graph decoder reads none, so there
        # is no empty plan to write
        with pytest.raises(SchemaError, match="empty graph"):
            G.NetGraph(layers=[], input_shape=(1, 4, 4))


@st.composite
def chains(draw):
    """A valid chain graph: 1-4 conv + requant blocks, each optionally
    followed by a 2x2 pool, with kernels of 1-5 per axis, strides of 1-2,
    padding below the kernel and 1-47 channels."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(6, 39)), draw(st.integers(6, 59))
    input_shape, layers = (c, h, w), []
    for b in range(draw(st.integers(1, 4))):
        # a kernel no larger than its input keeps every output dimension >= 1
        kernel = (draw(st.integers(1, min(5, h))), draw(st.integers(1, min(5, w))))
        padding = tuple(draw(st.integers(0, k - 1)) for k in kernel)
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        out_ch = draw(st.integers(1, 47))
        layers += [G.LayerSpec(G.CONV, f"c{b}", in_ch=c, out_ch=out_ch, kernel=kernel,
                               stride=stride, padding=padding),
                   G.LayerSpec(G.REQUANT, f"a{b}")]
        c, (h, w) = out_ch, G.conv_out_hw(h, w, kernel, stride, padding)
        if min(h, w) >= 2 and draw(st.booleans()):
            layers.append(G.LayerSpec(G.POOL, f"p{b}", kernel=(2, 2), stride=(2, 2)))
            h, w = h // 2, w // 2
    return G.NetGraph(layers=layers, input_shape=input_shape)


class TestGeneratedChains:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(g=chains(), l1_bytes=st.integers(1024, 63 * 1024))
    def test_plan_audits_and_round_trips(self, g, l1_bytes):
        # every chain gets a documented capacity error or a plan that passes
        # its audit and comes back from its text byte for byte
        mem = MemoryHierarchy(l1_bytes=l1_bytes)
        for policy in POLICIES:
            for fuse_pool in (True, False):
                try:
                    p = plan(g, mem, policy, fuse_pool=fuse_pool)
                except (PlanConstraintError, UntileableLayerError):
                    continue
                assert audit_plan(p).ok, audit_plan(p).problems
                text = plan_to_json(p)
                assert plan_to_json(plan_from_json(text)) == text

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(g=chains())
    def test_graph_document_round_trips(self, g):
        # through JSON text, so each window and shape comes back from a list
        g2 = G.from_doc(json.loads(json.dumps(G.to_doc(g))))
        assert (g2.input_shape, g2.variant) == (g.input_shape, g.variant)
        assert [vars(l) for l in g2.layers] == [vars(l) for l in g.layers]
