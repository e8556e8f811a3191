import json
import warnings

import numpy as np
import pytest

from nanopose import costmodel as C, graph as G
from nanopose.errors import FitError, SchemaError
from nanopose.planner import (GAP8, RESIDENT, STREAMED, DeploymentPlan, MemoryHierarchy, plan,
                              plan_from_json, plan_to_json)


@pytest.fixture(scope="module")
def plans():
    return {tag: plan(G.build_variant(tag), GAP8, STREAMED) for tag in G.VARIANTS}


def reference_targets(plans, jitter_seed=None):
    """The reference calibration targets, optionally with fps and mW
    jittered by 0.5% (relative std)."""
    n = len(C.REFERENCE_POINTS)
    jitter = (np.ones(2 * n) if jitter_seed is None
              else 1.0 + 0.005 * np.random.default_rng(jitter_seed).standard_normal(2 * n))
    return [(plans[tag], C.operating_point(*f), fps * jitter[2 * k], mw * jitter[2 * k + 1])
            for k, (tag, f, fps, mw) in enumerate(C.REFERENCE_POINTS)]


def synthetic_targets(plans, p0):
    """Targets the model itself generates at p0, at the reference points."""
    targets = []
    for tag, f, _, _ in C.REFERENCE_POINTS:
        op = C.operating_point(*f)
        e = C.estimate(plans[tag], op, p0)
        targets.append((plans[tag], op, e.fps, e.power_mw))
    return targets


@pytest.fixture(scope="module")
def fitted(plans):
    params, res, info = C.calibrate_params(reference_targets(plans))
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

    @pytest.mark.parametrize("tag", G.VARIANTS)
    @pytest.mark.parametrize("policy", [STREAMED, RESIDENT])
    @pytest.mark.parametrize("l1_kb", [16, 64])
    def test_stage_time_identities(self, tag, policy, l1_kb):
        # per stage, at every grid point: idle plus compute cycles on the
        # cluster clock are the wall time, the cluster idles exactly when
        # the stream outlasts the compute, and the frame is its stages' walls
        p = plan(G.build_variant(tag), MemoryHierarchy(l1_bytes=l1_kb * 1024), policy)
        idled = False
        for op in C.DEFAULT_GRID:
            f_fc, f_cl = op.f_fc * 1e6, op.f_cl * 1e6
            e = C.estimate(p, op)
            for s in e.per_layer:
                assert (s.idle_cycles + s.compute_cycles) / f_cl == pytest.approx(s.wall_s, rel=1e-12)
                assert (s.idle_cycles > 0) == (s.dma_cycles / f_fc > s.compute_cycles / f_cl)
                idled |= s.idle_cycles > 0
            assert e.latency_s == pytest.approx(sum(s.wall_s for s in e.per_layer), rel=1e-12)
        assert idled == (policy == STREAMED)

    def test_resident_orders_by_mac_count(self):
        lat = {}
        for tag in G.VARIANTS:
            p = plan(G.build_variant(tag), GAP8, RESIDENT)
            lat[tag] = C.estimate(p, C.operating_point(100.0, 100.0)).latency_s
        assert lat["160x32"] > lat["160x16"] > lat["80x32"]

    def test_empty_plan_has_no_latency(self):
        # no graph is empty, so no plan from `plan` lacks stages, but such a
        # plan can be built by hand
        p = DeploymentPlan(graph=G.build_variant("80x32"), mem=GAP8, policy=STREAMED, nodes=[],
                           schedule={})
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
        rows = [C.estimate(p, op) for op in C.DEFAULT_GRID]
        for i, e in enumerate(rows):
            assert sw.fps[i] == e.fps
            assert sw.power_fc_mw[i] == e.power_fc_mw
            assert sw.power_cl_mw[i] == e.power_cl_mw
            assert sw.energy_mj[i] == e.energy_mj
        # first of equal minima / maxima, as min() and max() pick
        assert sw.best_energy == min(rows, key=lambda r: r.energy_mj)
        assert sw.best_throughput == max(rows, key=lambda r: r.fps)

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
        params, res, info = C.calibrate_params(synthetic_targets(plans, C.CostParams()))
        assert np.abs(res).max() < 1e-6

    def test_too_few_targets(self, plans):
        with pytest.raises(FitError):
            C.calibrate_params([(plans["80x32"], C.operating_point(25.0, 25.0), 10.0, 5.0)])

    @pytest.mark.parametrize("k, value, match", [
        (2, 0.0, r"target 1: measured fps must be finite and > 0, got 0\.0"),
        (2, -5.0, r"target 1: measured fps must be finite and > 0, got -5\.0"),
        (3, float("nan"), r"target 1: measured mW must be finite and > 0, got nan"),
        (3, True, r"target 1: measured mW must be finite and > 0, got True"),
        (0, "80x32", r"target 1: expected a DeploymentPlan, got str"),
        (1, (250.0, 175.0), r"target 1: expected an OperatingPoint, got tuple"),
    ], ids=["fps-zero", "fps-negative", "mw-nan", "mw-bool", "plan-str", "op-tuple"])
    def test_rejects_bad_target(self, plans, k, value, match):
        targets = [list(t) for t in reference_targets(plans)]
        targets[1][k] = value
        with pytest.raises(FitError, match=match):
            C.calibrate_params(targets)

    def test_rejects_short_target(self, plans):
        targets = reference_targets(plans)
        targets[2] = targets[2][:3]
        with pytest.raises(FitError, match=r"target 2: expected \(plan, OperatingPoint, fps, mW\)"):
            C.calibrate_params(targets)

    def test_default_start_inside_bounds(self):
        # the fit starts from the default CostParams, statics summed as the
        # one knob the fit moves
        p = C.CostParams()
        start = {name: getattr(p, name) for name in C._FIT_FIELDS}
        start["static_fc_w"] = p.static_fc_w + p.static_cl_w
        for name, (lo, hi) in C._FIT_BOUNDS.items():
            assert lo <= start[name] <= hi, name

    def test_bounds_box(self):
        assert tuple(C._FIT_BOUNDS) == C._FIT_FIELDS
        for k in (0, 1):
            corner = {name: bounds[k] for name, bounds in C._FIT_BOUNDS.items()}
            C.CostParams(**corner)   # CostParams' own rule holds at both corners

    @pytest.mark.parametrize("case", ["reference", "synthetic", "jitter1", "jitter2"])
    def test_residuals_equal_estimate(self, plans, case):
        # each residual is exactly what `estimate` gives at the returned params
        if case == "synthetic":
            targets = synthetic_targets(plans, C.CostParams())
        else:
            targets = reference_targets(plans, None if case == "reference" else int(case[-1]))
        params, res, _ = C.calibrate_params(targets)
        expected = []
        for plan_, op, fps, mw in targets:
            e = C.estimate(plan_, op, params)
            expected += [(e.fps - fps) / fps, (e.power_mw - mw) / mw]
        assert res.tolist() == expected

    # fitted fields as the single-pass stage formula returned them; exact
    # equality holds on one LAPACK build (perfbench/expected.json freezes
    # fits within 1e-6 across builds)
    GOLDEN = {
        None: dict(eta_peak=16.091519811530702, util_dot_overhead=244.96001255247128,
                   dma_bytes_per_fc_cycle=1.1194379676573072, c_fc_w_per_hz_v2=1.9101819603032374e-10,
                   c_cl_w_per_hz_v2=3.31472461441747e-10, static_fc_w=0.00034564921518441863),
        1: dict(eta_peak=16.204040447031513, util_dot_overhead=246.66831188420258,
                dma_bytes_per_fc_cycle=1.1047042339958315, c_fc_w_per_hz_v2=2.0408045332577322e-10,
                c_cl_w_per_hz_v2=3.217833982056557e-10, static_fc_w=0.00036001776579104615),
        2: dict(eta_peak=16.464473062553978, util_dot_overhead=253.06473190442432,
                dma_bytes_per_fc_cycle=1.1135681154154344, c_fc_w_per_hz_v2=1.9953629166849452e-10,
                c_cl_w_per_hz_v2=3.210601199515434e-10, static_fc_w=0.00040061966854598014),
    }

    @pytest.mark.parametrize("jitter_seed", [None, 1, 2])
    def test_golden_params(self, plans, jitter_seed):
        params, _, _ = C.calibrate_params(reference_targets(plans, jitter_seed))
        golden = dict(C.CostParams().__dict__, **self.GOLDEN[jitter_seed])
        golden["static_cl_w"] = golden["static_fc_w"]
        assert vars(params) == golden

    def test_params_validated_once_per_fit(self, plans, monkeypatch):
        # the solver evaluates only inside the bounds box, which is checked
        # once per fit, so no evaluation builds or re-validates a CostParams
        post_init, at_point = C.CostParams.__post_init__, C._at_point
        calls = {"post_init": 0, "at_point": 0}

        def counting_post_init(self):
            calls["post_init"] += 1
            post_init(self)

        def counting_at_point(*args):
            calls["at_point"] += 1
            return at_point(*args)

        monkeypatch.setattr(C.CostParams, "__post_init__", counting_post_init)
        monkeypatch.setattr(C, "_at_point", counting_at_point)
        C.calibrate_params(reference_targets(plans))
        # default base, two box corners, returned params
        assert calls["post_init"] == 4
        assert calls["at_point"] >= 3 * 20   # evaluations x targets

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
