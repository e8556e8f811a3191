import sys

import numpy as np
import pytest

from nanopose import engine, graph as G, qtensor
from nanopose.errors import AccumulatorOverflowError, SchemaError
from nanopose.floatnet import random_float_net
from nanopose.qtensor import QTensor, QuantParams
from nanopose.quantizer import CalibrationSet, calibrate, convert

from oracles import (
    make_chain_graph,
    naive_conv2d_int,
    naive_float_forward,
    naive_pool2x2,
    run_int_reference,
)


def random_image_codes(rng, shape):
    return rng.integers(0, 256, shape).astype(np.uint8)


def converted_toy(seed, spatial=(12, 12), channels=(4, 6), n_blocks=2, with_pool=True):
    rng = np.random.default_rng(seed)
    g = make_chain_graph(spatial, channels, with_pool=with_pool, n_blocks=n_blocks)
    net = random_float_net(g, seed=seed)
    imgs = [random_image_codes(rng, g.input_shape) * engine.IMAGE_EPS for _ in range(4)]
    alphas = calibrate(net, CalibrationSet(imgs))
    return g, net, convert(net, alphas), rng


class TestConvKernel:
    def test_matches_naive_small(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            c, oc = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([1, 2]))
            h, w = int(rng.integers(k, 10)), int(rng.integers(k, 10))
            x = rng.integers(0, 256, (c, h, w)).astype(np.int64)
            wgt = rng.integers(-127, 128, (oc, c, k, k)).astype(np.int64)
            got = engine.conv2d_int(x, wgt, (s, s), (k // 2, k // 2))
            want = naive_conv2d_int(x, wgt, (s, s), (k // 2, k // 2))
            assert (got == want).all()

    def test_worst_case_operands_exact(self):
        # largest conv K the variants use (128 channels, 3x3 = 1152 taps) at
        # the extreme codes: |acc| = 255 * 128 * 1152 in the float64 GEMM
        x = np.full((128, 5, 6), 255, dtype=np.uint8)
        wgt = np.full((2, 128, 3, 3), -128, dtype=np.int8)
        got = engine.conv2d_int(x, wgt, (1, 1), (1, 1))
        want = naive_conv2d_int(x.astype(np.int64), wgt.astype(np.int64), (1, 1), (1, 1))
        assert got.dtype == np.int32
        assert (got == want).all()
        assert got.min() == -255 * 128 * 1152

    def test_accumulator_overflow_checked(self):
        x = np.full((1, 4, 4), 255, dtype=np.int64)
        wgt = np.full((1, 1, 3, 3), 127, dtype=np.int64)
        with pytest.raises(AccumulatorOverflowError):
            engine.conv2d_int(x, wgt, (1, 1), (1, 1), acc_bits=8)


class TestInferInt:
    def test_zero_image_zero_bias_is_zero(self):
        g, net, qg, _ = converted_toy(0)
        for rp in qg.requant.values():
            rp.bias = np.zeros_like(rp.bias)
        img = QTensor(np.zeros(g.input_shape, dtype=np.uint8), engine.image_qparams())
        res = engine.infer_int(qg, img, record_activations=True)
        assert (res.raw == 0).all()
        for qt in res.activations.values():
            assert (qt.data == 0).all()

    def test_matches_naive_reference_everywhere(self):
        g, net, qg, rng = converted_toy(3)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.image_qparams())
        res = engine.infer_int(qg, img, record_activations=True)
        ref = run_int_reference(qg, codes)
        for name, qt in res.activations.items():
            assert (qt.data.astype(np.int64) == ref[name]).all(), name

    def test_hand_computed_single_conv(self):
        # one 1x1 conv (weight code 3), identity requant, 3x3 input
        layers = [
            G.LayerSpec(G.CONV, "c", in_ch=1, out_ch=1, kernel=(1, 1), stride=(1, 1), padding=(0, 0)),
            G.LayerSpec(G.REQUANT, "a"),
            G.LayerSpec(G.DROPOUT, "d"),
            G.LayerSpec(G.FC, "fc", in_ch=9, out_ch=4),
        ]
        g = G.infer_shapes(G.NetGraph(layers, (1, 3, 3)))
        from nanopose.quantizer import QuantizedGraph, RequantParams

        qg = QuantizedGraph(graph=g, input_qp=engine.image_qparams())
        qg.weights["c"] = QTensor(np.array([[[[3]]]], dtype=np.int8),
                                  QuantParams(0.5, 128, False, zero_base=0))
        qg.acc_eps["c"] = engine.IMAGE_EPS * 0.5
        qg.requant["a"] = RequantParams(
            mult=np.array([1 << 15]), shift=15, bias=np.array([0]), alpha=255.0)
        qg.weights["fc"] = QTensor(np.full((4, 9), 2, dtype=np.int8),
                                   QuantParams(1.0, 128, False, zero_base=0))
        qg.acc_eps["fc"] = 1.0
        qg.out_eps = np.full(4, 1.0)
        codes = np.arange(9, dtype=np.uint8).reshape(1, 3, 3)
        res = engine.infer_int(qg, QTensor(codes, engine.image_qparams()), record_activations=True)
        # conv: acc = 3 * code; requant multiplies by 1 (clamped at 255)
        want_act = np.minimum(3 * np.arange(9), 255)
        assert (res.activations["a"].data.reshape(-1) == want_act).all()
        # fc: each output = 2 * sum(acts) = 2 * 108
        assert (res.raw == 2 * want_act.sum()).all()

    def test_shape_mismatch(self):
        g, net, qg, _ = converted_toy(4)
        bad = QTensor(np.zeros((1, 5, 5), dtype=np.uint8), engine.image_qparams())
        with pytest.raises(SchemaError):
            engine.infer_int(qg, bad)

    def test_repeat_determinism(self):
        g, net, qg, rng = converted_toy(5, spatial=(16, 16))
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.image_qparams())
        ref = engine.infer_int(qg, img).raw
        for _ in range(3):
            assert (engine.infer_int(qg, img).raw == ref).all()

    def test_pose_equals_eps_times_raw(self):
        g, net, qg, rng = converted_toy(6)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.image_qparams())
        res = engine.infer_int(qg, img)
        assert np.allclose(res.pose, qg.out_eps * res.raw)


class TestMaxPool:
    @pytest.mark.parametrize("h,w", [(6, 8), (7, 9), (6, 9), (7, 8), (1, 5)])
    def test_matches_naive(self, h, w):
        x = np.random.default_rng(h * 10 + w).integers(0, 256, (3, h, w)).astype(np.uint8)
        got = engine.maxpool2x2(x)
        want = naive_pool2x2(x)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert (got == want).all()


class TestHeldCodes:
    """The graph holds the full weight codes the engine runs; nothing is
    prepared or cached between calls."""

    def test_inference_decodes_no_weights(self, monkeypatch):
        g, net, qg, rng = converted_toy(7)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.image_qparams())
        calls = []
        real = qtensor.full_weight_codes
        for mod in (m for k, m in list(sys.modules.items()) if k.startswith("nanopose")):
            if getattr(mod, "full_weight_codes", None) is real:
                monkeypatch.setattr(mod, "full_weight_codes",
                                    lambda qt: calls.append(qt) or real(qt))
        first = engine.infer_int(qg, img, record_activations=True).raw
        second = engine.infer_int(qg, img).raw
        assert calls == []
        assert (first == second).all()

    def test_replaced_requant_bias_is_used(self):
        g, net, qg, rng = converted_toy(8)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.image_qparams())
        before = engine.infer_int(qg, img).raw
        name = next(iter(qg.requant))
        rp = qg.requant[name]
        rp.bias = rp.bias + (1 << rp.shift) * 40
        res = engine.infer_int(qg, img, record_activations=True)
        ref = run_int_reference(qg, codes)
        for layer, qt in res.activations.items():
            assert (qt.data.astype(np.int64) == ref[layer]).all(), layer
        assert not (res.raw == before).all()

    def test_in_place_edits_take_effect(self):
        g, net, qg, rng = converted_toy(8)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.image_qparams())
        before = engine.infer_int(qg, img, record_activations=True).activations
        conv, act = (l.name for l in g.layers[:2])
        w = qg.weights[conv].data
        w[(0,) * w.ndim] = 127 if w[(0,) * w.ndim] != 127 else -128
        rp = qg.requant[act]
        rp.bias[-1] += (1 << rp.shift) * 40
        res = engine.infer_int(qg, img, record_activations=True)
        ref = run_int_reference(qg, codes)
        for layer, qt in res.activations.items():
            assert (qt.data.astype(np.int64) == ref[layer]).all(), layer
        assert not (res.activations[conv].data[0] == before[conv].data[0]).all()
        assert not (res.activations[act].data[-1] == before[act].data[-1]).all()

    def test_offset_weights_rejected(self):
        g, net, qg, rng = converted_toy(10)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.image_qparams())
        name = next(iter(qg.weights))
        qt = qg.weights[name]
        qg.weights[name] = QTensor(qt.data, QuantParams(qt.qp.eps, 256, True, zero_base=-3))
        with pytest.raises(SchemaError, match="zero_base"):
            engine.infer_int(qg, img)


class TestInferFloat:
    def test_zero_net_zero_output(self):
        g = make_chain_graph((8, 8), (3,), n_blocks=1)
        net = random_float_net(g, seed=0)
        for k in net.weights:
            net.weights[k] = np.zeros_like(net.weights[k])
        for bn in net.bn.values():
            bn.beta = np.zeros_like(bn.beta)
            bn.mean = np.zeros_like(bn.mean)
        pose, _ = engine.infer_float(net, np.zeros(g.input_shape))
        assert np.allclose(pose, 0.0)

    def test_head_linear_scaling(self):
        g = make_chain_graph((8, 8), (3,), n_blocks=1)
        net = random_float_net(g, seed=1)
        img = np.random.default_rng(2).uniform(0, 1, g.input_shape)
        pose1, _ = engine.infer_float(net, img)
        net.weights["fc"] = 3.0 * net.weights["fc"]
        pose2, _ = engine.infer_float(net, img)
        assert np.allclose(pose2, 3.0 * pose1)

    def test_matches_second_implementation(self):
        g = make_chain_graph((10, 10), (3, 4), n_blocks=2)
        net = random_float_net(g, seed=3)
        img = np.random.default_rng(4).uniform(0, 1, g.input_shape)
        pose, _ = engine.infer_float(net, img)
        want = naive_float_forward(net, img)
        assert np.allclose(pose, want, atol=1e-9)


class TestCropCenter:
    def test_160x96_window(self):
        frame = np.arange(162 * 162, dtype=np.int32).astype(np.uint8).reshape(162, 162)
        frame = (np.arange(162 * 162) % 256).astype(np.uint8).reshape(162, 162)
        qt = engine.crop_center(frame, (96, 160))
        assert qt.shape == (1, 96, 160)
        assert (qt.data[0] == frame[33:129, 1:161]).all()

    def test_identity_when_equal(self):
        frame = np.random.default_rng(0).integers(0, 256, (64, 64)).astype(np.uint8)
        qt = engine.crop_center(frame, (64, 64))
        assert (qt.data[0] == frame).all()

    def test_half_resolution_downscales(self):
        frame = np.random.default_rng(1).integers(0, 256, (162, 162)).astype(np.uint8)
        qt = engine.crop_center(frame, (48, 80))
        crop = frame[33:129, 1:161].astype(np.uint32)
        want = (crop[0::2, 0::2] + crop[0::2, 1::2] + crop[1::2, 0::2] + crop[1::2, 1::2] + 2) >> 2
        assert (qt.data[0] == want.astype(np.uint8)).all()

    def test_target_too_large(self):
        with pytest.raises(SchemaError):
            engine.crop_center(np.zeros((10, 10), dtype=np.uint8), (11, 4))
