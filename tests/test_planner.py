import numpy as np
import pytest

from nanopose import graph as G
from nanopose.audit import audit_plan
from nanopose.errors import PlanConstraintError, SchemaError, UntileableLayerError
from nanopose.planner import (
    GAP8,
    RESIDENT,
    STREAMED,
    MemoryHierarchy,
    build_nodes,
    memory_report,
    naive_l2_bytes,
    plan,
    plan_from_json,
    plan_to_json,
    tile_layer,
)


def layer_of(tag, name):
    return G.build_variant(tag).layer(name)


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


class TestPlan:
    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_streamed_within_l2(self, tag):
        p = plan(G.build_variant(tag), GAP8, STREAMED)
        assert p.feasible
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
        assert p.feasible

    def test_resident_infeasible_raises(self):
        small = MemoryHierarchy(l2_bytes=256 * 1024)
        with pytest.raises(PlanConstraintError, match="resident_l2 infeasible"):
            plan(G.build_variant("160x32"), small, RESIDENT)

    def test_l3_total_is_parameter_count(self):
        p = plan(G.build_variant("160x32"), GAP8, STREAMED)
        assert p.l3_weight_bytes == 303_392

    def test_weights_beyond_l3_are_a_violation(self):
        # every stage of 160x32 fits this L2, so L3 is the only capacity it breaks
        mem = MemoryHierarchy(l1_bytes=65536, l2_bytes=245760, l3_bytes=262144, code_budget_l2=1024)
        with pytest.raises(PlanConstraintError) as ei:
            plan(G.build_variant("160x32"), mem, STREAMED)
        p = ei.value.plan
        assert p.violations == ["L3: weights 303392 > 262144"]
        assert audit_plan(p).ok
        p.violations = []   # the audit repeats the check
        rep = audit_plan(p)
        assert rep.problems == ["L3: weights 303392 > 262144 not flagged by planner"]

    def test_bad_policy(self):
        with pytest.raises(SchemaError):
            plan(G.build_variant("160x16"), GAP8, "magic")

    @pytest.mark.parametrize("mem", [dict(l1_bytes=0.5), dict(l3_bytes=8.0 * 2**20), dict(l3_bytes="8M"),
                                     dict(code_budget_l2=0)])
    def test_memory_sizes_are_positive_integers(self, mem):
        with pytest.raises(SchemaError):
            MemoryHierarchy(**mem)

    def test_empty_graph_empty_plan(self):
        g = G.NetGraph(layers=[], input_shape=(1, 4, 4))
        p = plan(g, GAP8, STREAMED)
        assert p.nodes == [] and p.schedule == {} and p.l3_weight_bytes == 0
        assert p.feasible

    def test_l2_violation_reported_with_layer(self):
        tiny = MemoryHierarchy(l2_bytes=150 * 1024, code_budget_l2=80 * 1024)
        with pytest.raises(PlanConstraintError) as ei:
            plan(G.build_variant("160x32"), tiny, STREAMED)
        assert ei.value.plan is not None
        assert ei.value.violations
        assert not ei.value.plan.feasible

    def test_feasibility_monotone_in_memory(self):
        g = G.build_variant("80x32")
        base = MemoryHierarchy(l1_bytes=24 * 1024, l2_bytes=400 * 1024)
        p0 = plan(g, base, STREAMED)
        for grow in (
            MemoryHierarchy(l1_bytes=64 * 1024, l2_bytes=400 * 1024),
            MemoryHierarchy(l1_bytes=24 * 1024, l2_bytes=512 * 1024),
            MemoryHierarchy(l1_bytes=128 * 1024, l2_bytes=1024 * 1024, l3_bytes=16 * 2**20),
        ):
            p = plan(g, grow, STREAMED)
            assert p.feasible
            assert audit_plan(p).ok


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

    def test_detects_tampered_input_rows(self):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        assert p.schedule["conv1"][0].in_rows == (0, 45)
        p.schedule["conv1"][0].in_rows = (40, 41)
        rep = audit_plan(p)
        assert any("conv1" in s and "input rows (40, 41)" in s for s in rep.problems), rep.problems

    def test_detects_tampered_occupancy(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.occupancy[2].weights_next += 7
        rep = audit_plan(p)
        assert not rep.ok

    def test_detects_truncated_occupancy(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.occupancy = p.occupancy[:3]
        assert not audit_plan(p).ok

    def test_detects_unscheduled_layer(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        del p.schedule["b2c1"]
        rep = audit_plan(p)
        assert any("b2c1: no tiles" in s for s in rep.problems)

    def test_detects_zeroed_current_weights(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.occupancy[2].weights_current = 0
        assert not audit_plan(p).ok

    def test_detects_tampered_stage_figures(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.nodes[1].macs += 1
        assert not audit_plan(p).ok

    def test_unknown_scheduled_layer_is_a_problem(self):
        p = plan(G.build_variant("160x16"), GAP8, STREAMED)
        p.schedule["nope"] = p.schedule["conv1"]
        assert not audit_plan(p).ok

    def test_violations_matched_by_exact_name(self):
        tiny = MemoryHierarchy(l2_bytes=150 * 1024, code_budget_l2=80 * 1024)
        with pytest.raises(PlanConstraintError) as ei:
            plan(G.build_variant("160x32"), tiny, STREAMED)
        p = ei.value.plan
        assert audit_plan(p).ok
        p.violations = ["x" + v for v in p.violations]   # "xconv1: ..." names no stage
        assert not audit_plan(p).ok


class TestPlanJson:
    def test_roundtrip(self):
        p = plan(G.build_variant("80x32"), GAP8, STREAMED)
        q = plan_from_json(plan_to_json(p))
        assert q.policy == p.policy
        assert [n.name for n in q.nodes] == [n.name for n in p.nodes]
        assert memory_report(q) == memory_report(p)
        assert audit_plan(q).ok
