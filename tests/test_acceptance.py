"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values marked as derived were computed with the independent
oracles in this file and in oracles.py, then frozen.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nanopose import costmodel as C, engine, graph as G
from nanopose import augment as A
from nanopose.audit import audit_plan
from nanopose.control import ControlConfig
from nanopose.floatnet import random_float_net, realistic_random_net
from nanopose.metrics import metrics, rsquared
from nanopose.planner import GAP8, RESIDENT, STREAMED, plan
from nanopose.pose import Pose
from nanopose.qtensor import QTensor, quantize, weight_codes
from nanopose.quantizer import CalibrationSet, calibrate, convert, quantization_error_bound
from nanopose.simulate import RATE_HZ, noise_for, run_experiment

from oracles import make_chain_graph, run_int_reference
from test_graph import ORACLE, enumerate_stats


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{time.perf_counter() - t0:.2f}s]")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({name}): PASS [{dt:.2f}s]")
    assert dt < budget_s, f"criterion {num} took {dt:.1f}s, budget {budget_s}s"


def test_criterion_1_table_reproduction():
    with criterion(1, "footprint table reproduction", 1.0):
        published_rounded = {
            "160x32": ("14.1", "499", "3.03e5"),
            "160x16": ("4.3", "184", "7.80e4"),
            "80x32": ("4.0", "348", "2.99e5"),
        }

        def sci3(v):
            mantissa, exp = f"{v:.2e}".split("e")
            return f"{mantissa}e{int(exp)}"
        for tag in G.VARIANTS:
            w, c = map(int, tag.split("x"))
            hw = (96, 160) if w == 160 else (48, 80)
            o_macs, o_params, o_mem, _, _ = enumerate_stats(hw, c)
            s = G.analyze(G.build_variant(tag))
            # exact integer match to the derived oracle
            assert (s.macs, s.params, s.memory_bytes) == (o_macs, o_params, o_mem)
            assert (s.macs, s.params, s.memory_bytes) == ORACLE[tag]
            # rounding match to the published presentation
            mmac, kb, psci = published_rounded[tag]
            assert f"{s.macs / 1e6:.1f}" == mmac
            assert f"{s.memory_bytes / 1e3:.0f}" == kb
            assert sci3(s.params) == psci


def _random_toy(seed, rng):
    spatial = int(rng.integers(6, 11))
    channels = tuple(int(v) for v in rng.integers(2, 5, size=2))
    g = make_chain_graph((spatial, spatial), channels,
                         with_pool=bool(rng.integers(0, 2)), n_blocks=2)
    net = random_float_net(g, seed=seed)
    imgs = [rng.integers(0, 256, g.input_shape).astype(np.float64) / 255.0 for _ in range(4)]
    qg = convert(net, calibrate(net, CalibrationSet(imgs)))
    return g, net, imgs, qg


def test_criterion_2_quantization_properties():
    with criterion(2, "quantization and bit-exact inference", 60.0):
        # roundtrip below one step on a 10^4-point grid
        for alpha in (1.0, 7.3):
            eps = alpha / 255
            x = np.linspace(0, alpha, 10_000)
            q = quantize(x, eps)
            assert np.abs(x - eps * q.data).max() < eps

        # weight code reconstruction within eps_W
        rng = np.random.default_rng(2024)
        for _ in range(30):
            w = rng.normal(0, rng.uniform(0.05, 1.5), int(rng.integers(16, 400)))
            qw = weight_codes(w)
            assert np.abs(qw.dequantize() - w).max() <= qw.eps

        # >= 100 seeded random graph/input pairs, integer engine vs the
        # naive 6-loop oracle, bit-exact at every layer
        pairs = 0
        for seed in range(25):
            g, net, imgs, qg = _random_toy(seed, np.random.default_rng(1000 + seed))
            for k in range(4):
                codes = np.random.default_rng(5000 + 4 * seed + k).integers(
                    0, 256, g.input_shape).astype(np.uint8)
                res = engine.infer_int(qg, QTensor(codes, engine.IMAGE_EPS),
                                       record_activations=True)
                ref = run_int_reference(qg, codes)
                for name, qt in res.activations.items():
                    assert (qt.data.astype(np.int64) == ref[name]).all(), (seed, k, name)
                pairs += 1
        assert pairs >= 100

        # integer vs float pose within the per-graph accumulated bound;
        # with deployment-statistics nets the empirical gap stays tiny
        # (cross-engine sweep over >= 100 random inputs)
        sweeps = 0
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            g = make_chain_graph((int(rng.integers(6, 11)),) * 2,
                                 tuple(int(v) for v in rng.integers(2, 5, 2)),
                                 with_pool=bool(rng.integers(0, 2)), n_blocks=2)
            net = realistic_random_net(g, seed=seed)
            imgs = [rng.integers(0, 256, g.input_shape).astype(np.float64) / 255.0
                    for _ in range(12)]
            qg = convert(net, calibrate(net, CalibrationSet(imgs)))
            bound = quantization_error_bound(qg, net)
            for img in imgs:
                codes = np.round(img * 255).astype(np.uint8)
                pose_f, _ = engine.infer_float(net, codes / 255.0)
                pose_i = engine.infer_int(qg, QTensor(codes, engine.IMAGE_EPS)).pose
                diff = np.abs(pose_i - pose_f)
                assert (diff <= bound).all()
                assert diff.max() < 0.05
                sweeps += 1
        assert sweeps >= 100


def test_criterion_3_planner_feasibility():
    with criterion(3, "planner feasibility under GAP8 limits", 5.0):
        for tag in G.VARIANTS:
            p = plan(G.build_variant(tag), GAP8, STREAMED)
            rep = audit_plan(p)          # independent verifier, not the planner
            assert rep.ok, rep.problems
            for tiles in p.schedule.values():
                for t in tiles:
                    assert 2 * (t.in_bytes + t.weight_bytes + t.out_bytes) <= 64 * 1024
            for row in p.occupancy:
                assert row.total <= 512 * 1024
        assert audit_plan(plan(G.build_variant("160x16"), GAP8, RESIDENT)).ok


def test_criterion_4_cost_model_structure():
    with criterion(4, "cost model structure after calibration", 10.0):
        plans = {tag: plan(G.build_variant(tag), GAP8, STREAMED) for tag in G.VARIANTS}
        targets = [(plans[tag], C.operating_point(*f), fps, mw)
                   for tag, f, fps, mw in C.REFERENCE_POINTS]
        params, residuals, info = C.calibrate_params(targets)

        # (a) peak-throughput ordering and best-point energies within 2x
        peak = C.operating_point(250.0, 175.0)
        fps = {tag: C.estimate(plans[tag], peak, params).fps for tag in G.VARIANTS}
        assert fps["80x32"] > fps["160x16"] > fps["160x32"]
        sweeps = {tag: C.sweep(plans[tag], params=params) for tag in G.VARIANTS}
        for tag, ref in C.REFERENCE_BEST_ENERGY_MJ.items():
            best = sweeps[tag].best_energy.energy_mj
            assert ref / 2 <= best <= ref * 2, (tag, best, ref)

        # (b) DMA-starved point idles in >= 3 stages; FC-rich point never
        starved = C.estimate(plans["80x32"], C.operating_point(25.0, 100.0), params)
        assert sum(1 for l in starved.per_layer if l.idle_cycles > 0) >= 3
        fed = C.estimate(plans["80x32"], C.operating_point(75.0, 50.0), params)
        assert all(l.idle_cycles == 0 for l in fed.per_layer)

        # (c) energy optimum away from the max-frequency corner
        for tag in G.VARIANTS:
            op = sweeps[tag].best_energy.op
            assert (op.f_fc, op.f_cl) != (C.F_FC_MAX, C.F_CL_MAX)


def test_criterion_5_control_loop_properties():
    with criterion(5, "closed-loop control properties", 120.0):
        cfg = ControlConfig()

        # (a) zero-noise run: phase-0 convergence and sub-5-degree median
        clean = run_experiment(noise_for("mocap", seed=0), RATE_HZ["mocap"])
        m_clean = metrics(clean)
        assert abs(m_clean.phase0_final_distance - cfg.delta) < 0.1
        assert m_clean.median_e_theta_deg < 5.0

        # (c) clamps and the pitch-derived acceleration bound, every tick
        #     (the log's maxima cover every command and dynamics tick)
        def check_limits(log):
            assert log.max_cmd_speed <= cfg.v_max + 1e-9
            assert log.max_cmd_omega <= cfg.omega_max + 1e-9
            assert log.max_accel <= 2.04 + 1e-9

        check_limits(clean)

        # (b) noisy runs at each deployed rate: heading stays inside the
        #     camera half-FOV on 20 seeds; zero-noise e_xy strictly smallest
        half_fov_deg = 40.5
        for variant in ("160x32", "160x16", "80x32"):
            for seed in range(20):
                log = run_experiment(noise_for(variant, seed=seed), RATE_HZ[variant])
                m = metrics(log)
                assert m.median_e_theta_deg < half_fov_deg, (variant, seed)
                assert m_clean.median_e_xy < m.median_e_xy, (variant, seed)
                check_limits(log)


def test_criterion_6_augmentation():
    with criterion(6, "augmentation properties", 30.0):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            li = A.LabeledImage(
                pixels=rng.integers(0, 256, (16, 20)).astype(np.uint8),
                label=Pose(*rng.uniform(-3, 3, 3), rng.uniform(-math.pi, math.pi)),
            )
            back = A.hflip(A.hflip(li))
            assert (back.pixels == li.pixels).all() and back.label == li.label

        src = rng.integers(0, 256, (160, 160)).astype(np.uint8)
        assert A.pitch_crop(src, 0)[1] == pytest.approx(math.radians(14.0))
        assert A.pitch_crop(src, 32)[1] == 0.0
        assert A.pitch_crop(src, 64)[1] == pytest.approx(math.radians(-14.0))

        import hashlib

        def stream_digest(seed):
            g = np.random.default_rng(seed)
            li = A.LabeledImage(src, Pose(1.0, 0.5, 0.0, -0.2))
            h = hashlib.sha256()
            for _ in range(25):
                out, pitch = A.augment_sample(li, g)
                h.update(out.pixels.tobytes())
                h.update(np.float64(pitch).tobytes())
                h.update(np.asarray(tuple(out.label)).tobytes())
            return h.hexdigest()

        assert stream_digest(9) == stream_digest(9)
        assert stream_digest(9) != stream_digest(10)


def test_criterion_7_metrics_correctness():
    with criterion(7, "regression metric definitions", 1.0):
        rng = np.random.default_rng(77)
        y = rng.normal(1.0, 2.0, 1000)
        assert rsquared(y, y) == 1.0
        assert rsquared(y, np.full_like(y, y.mean())) == pytest.approx(0.0, abs=1e-12)
        bad = y.mean() + rng.normal(0, 6.0, 1000)
        assert rsquared(y, bad) < 0.0
