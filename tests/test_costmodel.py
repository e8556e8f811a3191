import json
import warnings

import numpy as np
import pytest

from nanopose import costmodel as C, graph as G
from nanopose.errors import FitError, SchemaError
from nanopose.planner import (GAP8, RESIDENT, STREAMED, DeploymentPlan, plan, plan_from_json,
                              plan_to_json)


@pytest.fixture(scope="module")
def plans():
    return {tag: plan(G.build_variant(tag), GAP8, STREAMED) for tag in G.VARIANTS}


@pytest.fixture(scope="module")
def fitted(plans):
    targets = [
        (plans[tag], C.operating_point(*f), fps, mw)
        for tag, f, fps, mw in C.REFERENCE_POINTS
    ]
    params, res, info = C.calibrate_params(targets)
    return params, res, info


class TestOperatingPoints:
    def test_vdd_table_steps(self):
        assert C.min_vdd(25.0) == 1.00
        assert C.min_vdd(100.0) == 1.00
        assert C.min_vdd(125.0) == 1.05
        assert C.min_vdd(250.0) == 1.20

    def test_invalid_points(self):
        with pytest.raises(SchemaError):
            C.operating_point(30.0, 50.0)  # off grid
        with pytest.raises(SchemaError):
            C.operating_point(275.0, 50.0)
        with pytest.raises(SchemaError):
            C.OperatingPoint(vdd=1.0, f_fc=250.0, f_cl=50.0)  # vdd too low

    def test_grid_size(self):
        grid = C.DEFAULT_GRID
        assert len(grid) == 10 * 7
        assert all(op.vdd >= C.min_vdd(max(op.f_fc, op.f_cl)) for op in grid)


class TestEstimate:
    def test_resident_no_stream_no_idle(self, plans):
        p = plan(G.build_variant("160x16"), GAP8, RESIDENT)
        for op in (C.operating_point(25.0, 175.0), C.operating_point(250.0, 25.0)):
            e = C.estimate(p, op)
            assert all(l.dma_cycles == 0 for l in e.per_layer)
            assert all(l.idle_cycles == 0 for l in e.per_layer)

    def test_idle_monotone_in_f_cl(self, plans):
        prev = None
        for f_cl in (25.0, 75.0, 125.0, 175.0):
            e = C.estimate(plans["80x32"], C.operating_point(25.0, f_cl))
            idle = sum(l.idle_cycles for l in e.per_layer)
            if prev is not None:
                assert idle >= prev - 1e-6
            prev = idle

    def test_latency_monotone_in_frequencies(self, plans):
        p = plans["160x32"]
        for f_fc in (25.0, 100.0, 250.0):
            lats = [C.estimate(p, C.operating_point(f_fc, f)).latency_s
                    for f in (25.0, 75.0, 125.0, 175.0)]
            assert all(a >= b - 1e-12 for a, b in zip(lats, lats[1:]))
        for f_cl in (25.0, 100.0, 175.0):
            lats = [C.estimate(p, C.operating_point(f, f_cl)).latency_s
                    for f in (25.0, 100.0, 250.0)]
            assert all(a >= b - 1e-12 for a, b in zip(lats, lats[1:]))

    def test_energy_is_power_times_latency(self, plans):
        for tag in G.VARIANTS:
            e = C.estimate(plans[tag], C.operating_point(75.0, 100.0))
            assert e.energy_mj == pytest.approx(e.power_mw * e.latency_s)
            assert e.fps == pytest.approx(1.0 / e.latency_s)

    def test_idle_zero_when_compute_dominates(self, plans):
        e = C.estimate(plans["80x32"], C.operating_point(250.0, 25.0))
        assert all(l.idle_cycles == 0 for l in e.per_layer)

    def test_resident_orders_by_mac_count(self):
        lat = {}
        for tag in G.VARIANTS:
            p = plan(G.build_variant(tag), GAP8, RESIDENT)
            lat[tag] = C.estimate(p, C.operating_point(100.0, 100.0)).latency_s
        assert lat["160x32"] > lat["160x16"] > lat["80x32"]

    def test_empty_plan_has_no_latency(self):
        # planner.plan rejects an empty graph, but a plan can be built by hand
        p = DeploymentPlan(graph=G.NetGraph(layers=[], input_shape=(1, 4, 4)), mem=GAP8,
                           policy=STREAMED, nodes=[], schedule={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no divide-by-zero warning on the array path
            with pytest.raises(SchemaError, match="empty plan has no latency"):
                C.estimate(p, C.operating_point(25.0, 25.0))
            with pytest.raises(SchemaError, match="empty plan has no latency"):
                C.sweep(p)


    def test_cut_occupancy_rejected(self, plans):
        # the stream schedule `prepare` reads is derived from the stages, so
        # a document whose rows were cut is rejected before it is costed
        doc = json.loads(plan_to_json(plans["80x32"]))
        doc["occupancy"] = doc["occupancy"][:-1]
        with pytest.raises(SchemaError, match="occupancy rows"):
            plan_from_json(json.dumps(doc))


class TestSweep:
    @pytest.mark.parametrize("policy", [STREAMED, RESIDENT])
    @pytest.mark.parametrize("tag", G.VARIANTS)
    def test_columns_equal_estimate(self, tag, policy):
        p = plan(G.build_variant(tag), GAP8, policy)
        sw = C.sweep(p)
        assert sw.grid == C.DEFAULT_GRID
        rows = [C.estimate(p, op) for op in C.DEFAULT_GRID]
        for i, e in enumerate(rows):
            assert sw.fps[i] == e.fps
            assert sw.power_fc_mw[i] == e.power_fc_mw
            assert sw.power_cl_mw[i] == e.power_cl_mw
            assert sw.energy_mj[i] == e.energy_mj
        # first of equal minima / maxima, as min() and max() pick
        assert sw.best_energy == min(rows, key=lambda r: r.energy_mj)
        assert sw.best_throughput == max(rows, key=lambda r: r.fps)
        op = C.operating_point(50.0, 75.0)
        one = C.sweep(p, grid=[op])
        assert one.grid == (op,) and one.energy_mj.tolist() == [rows[C.DEFAULT_GRID.index(op)].energy_mj]

    def test_csv_columns(self, plans):
        sw = C.sweep(plans["160x16"])
        text = C.sweep_csv(sw)
        assert text.splitlines()[0] == "f_fc,f_cl,vdd,fps,mW_fc,mW_cl,mJ_frame"
        assert len(text.splitlines()) == 71


class TestCalibration:
    def test_residuals_small(self, fitted):
        params, res, info = fitted
        assert np.abs(res).max() < 0.05

    def test_reports_rank(self, fitted):
        _, _, info = fitted
        assert "rank" in info and "degenerate" in info

    def test_roundtrip_on_synthetic_targets(self, plans):
        # targets generated by the model itself refit with ~zero residuals
        p0 = C.CostParams()
        targets = []
        for tag, f, _, _ in C.REFERENCE_POINTS:
            op = C.operating_point(*f)
            e = C.estimate(plans[tag], op, p0)
            targets.append((plans[tag], op, e.fps, e.power_mw))
        params, res, info = C.calibrate_params(targets, base=p0)
        assert np.abs(res).max() < 1e-6

    def test_too_few_targets(self, plans):
        with pytest.raises(FitError):
            C.calibrate_params([(plans["80x32"], C.operating_point(25.0, 25.0), 10.0, 5.0)])

    def test_peak_throughput_ordering(self, plans, fitted):
        params, _, _ = fitted
        peak = C.operating_point(250.0, 175.0)
        fps = {tag: C.estimate(plans[tag], peak, params).fps for tag in G.VARIANTS}
        assert fps["80x32"] > fps["160x16"] > fps["160x32"]

    def test_best_energy_within_2x_of_reference(self, plans, fitted):
        params, _, _ = fitted
        for tag, ref in C.REFERENCE_BEST_ENERGY_MJ.items():
            best = C.sweep(plans[tag], params=params).best_energy.energy_mj
            assert ref / 2 <= best <= ref * 2

    def test_idle_pattern_after_fit(self, plans, fitted):
        params, _, _ = fitted
        starved = C.estimate(plans["80x32"], C.operating_point(25.0, 100.0), params)
        assert sum(1 for l in starved.per_layer if l.idle_cycles > 0) >= 3
        fed = C.estimate(plans["80x32"], C.operating_point(75.0, 50.0), params)
        assert all(l.idle_cycles == 0 for l in fed.per_layer)

    def test_energy_optimum_not_max_corner(self, plans, fitted):
        params, _, _ = fitted
        for tag in G.VARIANTS:
            best = C.sweep(plans[tag], params=params).best_energy.op
            assert (best.f_fc, best.f_cl) != (C.F_FC_MAX, C.F_CL_MAX)
