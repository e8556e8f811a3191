import dataclasses
import tracemalloc

import numpy as np
import pytest

from nanopose import engine, graph as G
from nanopose.errors import AccumulatorOverflowError, RequantParameterError, SchemaError
from nanopose.floatnet import random_float_net
from nanopose.qtensor import QTensor, act_eps
from nanopose.quantizer import CalibrationSet, QuantizedGraph, RequantParams, calibrate, convert

from oracles import (
    make_chain_graph,
    naive_conv2d_int,
    naive_fc_int,
    naive_float_forward,
    naive_pool2x2,
    run_int_reference,
    with_requant,
)


def random_image_codes(rng, shape):
    return rng.integers(0, 256, shape).astype(np.uint8)


def assert_exact_accumulators(got, want, taps):
    """conv2d_int's documented output: float32 when K fits one 514-tap
    block, float64 above, integer values equal to the int64 oracle's."""
    assert got.dtype == (np.float32 if taps <= engine._BLOCK_TAPS else np.float64)
    assert got.shape == want.shape
    assert (got == np.trunc(got)).all()
    assert (got.astype(np.int64) == want).all()


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
            x = rng.integers(0, 256, (c, h, w)).astype(np.uint8)
            wgt = rng.integers(-127, 128, (oc, c, k, k)).astype(np.int8)
            got = engine.conv2d_int(x, wgt, (s, s), (k // 2, k // 2))
            want = naive_conv2d_int(x, wgt, (s, s), (k // 2, k // 2))
            assert (got == want).all()

    def test_worst_case_operands_exact(self):
        # largest conv K the variants use (128 channels, 3x3 = 1152 taps) at
        # the extreme codes: |acc| = 255 * 128 * 1152, summed from three
        # float32 blocks of 384 taps
        x = np.full((128, 5, 6), 255, dtype=np.uint8)
        wgt = np.full((2, 128, 3, 3), -128, dtype=np.int8)
        got = engine.conv2d_int(x, wgt, (1, 1), (1, 1))
        want = naive_conv2d_int(x.astype(np.int64), wgt.astype(np.int64), (1, 1), (1, 1))
        assert_exact_accumulators(got, want, 1152)
        assert got.min() == -255 * 128 * 1152

    def test_accumulator_overflow_checked(self):
        # a 1x1 conv over 65,794 channels of 255 * -128 sums to
        # -2,147,516,160, just below the int32 range
        x = np.full((65794, 1, 1), 255, dtype=np.uint8)
        wgt = np.full((1, 65794, 1, 1), -128, dtype=np.int8)
        with pytest.raises(AccumulatorOverflowError, match="-2147516160"):
            engine.conv2d_int(x, wgt, (1, 1), (0, 0))

    def test_int32_edge_exact(self):
        # the longest K whose worst case fits int32: 65,793 taps of 255 * -128
        # sum to -2,147,483,520, returned exactly with no range scan
        taps = engine._INT32_SAFE_TAPS
        assert 255 * 128 * taps <= 2**31 - 1 < 255 * 128 * (taps + 1)
        x = np.full((taps, 1, 2), 255, dtype=np.uint8)
        wgt = np.full((1, taps, 1, 1), -128, dtype=np.int8)
        got = engine.conv2d_int(x, wgt, (1, 1), (0, 0))
        want = naive_conv2d_int(x.astype(np.int64), wgt.astype(np.int64), (1, 1), (0, 0))
        assert_exact_accumulators(got, want, taps)
        assert got.min() == -2_147_483_520

    def test_range_scanned_only_beyond_safe_taps(self, monkeypatch):
        # against an int32 range no accumulator lies in, any scan raises: a
        # reference 160x32 frame and K = 65,793 run none, K = 65,794 does
        qg, img = reference_frame("160x32")
        taps = [int(np.prod(qt.data.shape[1:])) for qt in qg.weights.values()]
        assert max(taps) <= engine._INT32_SAFE_TAPS
        monkeypatch.setattr(engine, "INT32_MIN", 1)
        monkeypatch.setattr(engine, "INT32_MAX", -1)
        engine.infer_int(qg, img)
        k = engine._INT32_SAFE_TAPS
        engine._int_gemm(np.ones((1, k), np.int8), np.ones((k, 1), np.uint8))
        with pytest.raises(AccumulatorOverflowError):
            engine._int_gemm(np.ones((1, k + 1), np.int8), np.ones((k + 1, 1), np.uint8))

    @pytest.mark.parametrize("taps,edges", [
        pytest.param(514, (0, 514), id="514-float32"),   # 255 * 128 * 514 = 16,776,960 < 2^24
        pytest.param(515, (0, 257, 515), id="515-float32x2"),
        pytest.param(576, (0, 288, 576), id="576-float32x2"),
        pytest.param(1028, (0, 514, 1028), id="1028-float32x2"),
        pytest.param(1029, (0, 343, 686, 1029), id="1029-float32x3"),
        pytest.param(1152, (0, 384, 768, 1152), id="1152-float32x3"),
    ])
    def test_gemm_dtype_boundaries(self, taps, edges):
        # ceil(K / 514) contiguous float32 blocks of near-equal size
        assert engine._k_blocks(taps) == edges

    @pytest.mark.parametrize("w_dtype, x_dtype", [
        pytest.param(np.int16, np.uint8, id="int16-weights"),
        pytest.param(np.int8, np.int16, id="int16-codes"),
        pytest.param(np.int64, np.uint8, id="int64-weights"),
        pytest.param(np.int8, np.int64, id="int64-codes"),
        pytest.param(np.int8, np.float64, id="float64-codes"),
        pytest.param(np.int8, np.float16, id="float16-codes"),
    ])
    def test_wider_operands_rejected(self, w_dtype, x_dtype):
        # the engine runs only int8 weights on uint8 codes, or on the
        # float32 columns conv2d_int builds from them
        w = np.ones((2, 4), dtype=w_dtype)
        x = np.ones((4, 3), dtype=x_dtype)
        with pytest.raises(TypeError, match="int8 weights on uint8 codes"):
            engine._int_gemm(w, x)

    @pytest.mark.parametrize("x_dtype", [np.int16, np.float32, np.float64])
    def test_conv_input_other_than_uint8_rejected(self, x_dtype):
        x = np.ones((2, 4, 4), dtype=x_dtype)
        wgt = np.ones((3, 2, 3, 3), dtype=np.int8)
        with pytest.raises(TypeError, match="uint8 codes"):
            engine.conv2d_int(x, wgt, (1, 1), (1, 1))

    @pytest.mark.parametrize("kernel,stride,padding", [
        pytest.param((1, 3), (1, 1), (0, 1), id="kernel-1x3"),
        pytest.param((3, 1), (1, 1), (1, 0), id="kernel-3x1"),
        pytest.param((3, 3), (2, 1), (1, 1), id="stride-2x1"),
        pytest.param((3, 3), (1, 1), (0, 2), id="padding-0x2"),
        pytest.param((3, 2), (1, 2), (2, 0), id="kernel-3x2-stride-1x2-padding-2x0"),
    ])
    def test_strided_view_matches_naive(self, kernel, stride, padding):
        # each tap is read through one strided view of the padded input:
        # the row and column axes must keep their own kernel, stride and pad
        rng = np.random.default_rng(sum(kernel + stride + padding))
        x = rng.integers(0, 256, (3, 7, 9)).astype(np.uint8)
        wgt = rng.integers(-128, 128, (4, 3, *kernel)).astype(np.int8)
        got = engine.conv2d_int(x, wgt, stride, padding)
        want = naive_conv2d_int(x, wgt, stride, padding)
        assert_exact_accumulators(got, want, 3 * kernel[0] * kernel[1])

    @pytest.mark.parametrize("kernel,padding", [((1, 1), (0, 0)), ((3, 3), (1, 1))])
    def test_input_untouched_and_unshared(self, kernel, padding):
        # the columns are read from a padded float32 copy, never the codes
        rng = np.random.default_rng(3)
        x = rng.integers(0, 256, (2, 5, 6)).astype(np.uint8)
        before = x.copy()
        wgt = rng.integers(-128, 128, (3, 2, *kernel)).astype(np.int8)
        acc = engine.conv2d_int(x, wgt, (1, 1), padding)
        assert (x == before).all()
        assert not np.shares_memory(acc, x)
        assert (acc == naive_conv2d_int(x, wgt, (1, 1), padding)).all()

    @pytest.mark.parametrize("channels", [514, 515, 1028, 1029])
    def test_float32_edge_exact(self, channels):
        # a 1x1 conv over the last K of one and of two float32 blocks and the
        # first K after each: the extreme codes reach |acc| = 255 * 128 * K,
        # random codes mix signs
        rng = np.random.default_rng(channels)
        x = np.full((channels, 3, 4), 255, dtype=np.uint8)
        x[:, 1:] = rng.integers(0, 256, (channels, 2, 4))
        wgt = np.full((3, channels, 1, 1), -128, dtype=np.int8)
        wgt[1:] = rng.integers(-128, 128, (2, channels, 1, 1))
        got = engine.conv2d_int(x, wgt, (1, 1), (0, 0))
        want = naive_conv2d_int(x.astype(np.int64), wgt.astype(np.int64), (1, 1), (0, 0))
        assert_exact_accumulators(got, want, channels)
        assert got.min() == -255 * 128 * channels


class TestInferInt:
    def test_zero_image_zero_bias_is_zero(self):
        g, net, qg, _ = converted_toy(0)
        qg = dataclasses.replace(qg, requant={k: dataclasses.replace(rp, bias=np.zeros_like(rp.bias))
                                              for k, rp in qg.requant.items()})
        img = QTensor(np.zeros(g.input_shape, dtype=np.uint8), engine.IMAGE_EPS)
        res = engine.infer_int(qg, img, record_activations=True)
        assert (res.raw == 0).all()
        for qt in res.activations.values():
            assert (qt.data == 0).all()

    def test_matches_naive_reference_everywhere(self):
        g, net, qg, rng = converted_toy(3)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.IMAGE_EPS)
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
        qg = QuantizedGraph(
            graph=G.NetGraph(layers, (1, 3, 3)),
            weights={"c": QTensor(np.array([[[[3]]]], dtype=np.int8), 0.5),
                     "fc": QTensor(np.full((4, 9), 2, dtype=np.int8), 1.0)},
            requant={"a": RequantParams(mult=np.array([1 << 15]), shift=15, bias=np.array([0]),
                                        alpha=255.0)})
        codes = np.arange(9, dtype=np.uint8).reshape(1, 3, 3)
        res = engine.infer_int(qg, QTensor(codes, engine.IMAGE_EPS), record_activations=True)
        # conv: acc = 3 * code; requant multiplies by 1 (clamped at 255)
        want_act = np.minimum(3 * np.arange(9), 255)
        assert (res.activations["a"].data.reshape(-1) == want_act).all()
        # fc: each output = 2 * sum(acts) = 2 * 108
        assert (res.raw == 2 * want_act.sum()).all()
        # scales: image 1/255 x weight 0.5, then alpha 255 / 255 = 1 x weight 1
        assert res.activations["c"].eps == engine.IMAGE_EPS * 0.5
        assert res.activations["a"].eps == 1.0
        assert res.activations["fc"].eps == 1.0
        assert (res.pose == res.raw).all()

    @pytest.mark.parametrize("hw", [(5, 103), (21, 49)])
    def test_wide_head_extreme_codes(self, hw):
        # a head over 515 and 1029 inputs, past one and two float32 blocks:
        # every activation is 255, and row 0 reaches -255 * 128 * in_ch
        h, w = hw
        layers = [
            G.LayerSpec(G.CONV, "c", in_ch=1, out_ch=1, kernel=(1, 1), stride=(1, 1), padding=(0, 0)),
            G.LayerSpec(G.REQUANT, "a"),
            G.LayerSpec(G.DROPOUT, "d"),
            G.LayerSpec(G.FC, "fc", in_ch=h * w, out_ch=4),
        ]
        fc = np.random.default_rng(h).integers(-128, 128, (4, h * w)).astype(np.int8)
        fc[0], fc[1] = -128, 127
        qg = QuantizedGraph(
            graph=G.NetGraph(layers, (1, h, w)),
            weights={"c": QTensor(np.ones((1, 1, 1, 1), dtype=np.int8), 1.0),
                     "fc": QTensor(fc, 1.0)},
            requant={"a": RequantParams(mult=np.array([1 << 15]), shift=15, bias=np.array([0]),
                                        alpha=255.0)})
        img = QTensor(np.full((1, h, w), 255, dtype=np.uint8), engine.IMAGE_EPS)
        res = engine.infer_int(qg, img, record_activations=True)
        acts = res.activations["a"].data.reshape(-1)
        assert (acts == 255).all()
        assert (res.raw == naive_fc_int(acts, fc)).all()
        assert res.raw[0] == -255 * 128 * h * w and res.raw[1] == 255 * 127 * h * w

    def test_shape_mismatch(self):
        g, net, qg, _ = converted_toy(4)
        bad = QTensor(np.zeros((1, 5, 5), dtype=np.uint8), engine.IMAGE_EPS)
        with pytest.raises(SchemaError):
            engine.infer_int(qg, bad)

    def test_image_quant_params_checked(self):
        g, net, qg, rng = converted_toy(4)
        codes = random_image_codes(rng, g.input_shape)
        engine.infer_int(qg, QTensor(codes, 1 / 255))
        for qt in (QTensor(codes, 0.5), QTensor((codes // 2).astype(np.int8), 1 / 255)):
            with pytest.raises(SchemaError, match="!= uint8 codes at eps"):
                engine.infer_int(qg, qt)

    def test_wide_image_payload_rejected(self):
        # wider codes of the same values: int64 cannot be swapped into a
        # built QTensor, and int32 accumulator codes are no image
        g, net, qg, rng = converted_toy(4)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.IMAGE_EPS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            img.data = img.data.astype(np.int64)
        with pytest.raises(SchemaError, match="int32 codes"):
            engine.infer_int(qg, QTensor(img.data.astype(np.int32), img.eps))

    def test_negative_multiplier_rejected(self):
        # before any frame: no quantized graph holds one, pooled first stage
        # included, and a built one cannot be given one
        g, net, qg, rng = converted_toy(4)
        for name, rp in qg.requant.items():
            with pytest.raises(RequantParameterError, match="negative"):
                with_requant(qg, name, mult=-rp.mult)
            with pytest.raises(ValueError, match="read-only"):
                np.negative(rp.mult, out=rp.mult)

    def test_repeat_determinism(self):
        g, net, qg, rng = converted_toy(5, spatial=(16, 16))
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.IMAGE_EPS)
        ref = engine.infer_int(qg, img).raw
        for _ in range(3):
            assert (engine.infer_int(qg, img).raw == ref).all()

    def test_pose_equals_eps_times_raw(self):
        g, net, qg, rng = converted_toy(6)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.IMAGE_EPS)
        res = engine.infer_int(qg, img)
        last_act = [l.name for l in g.layers if l.kind == G.REQUANT][-1]
        head_eps = act_eps(qg.requant[last_act].alpha) * qg.weights["fc"].eps
        assert np.allclose(res.pose, head_eps * res.raw)


class TestMaxPool:
    @pytest.mark.parametrize("h,w", [(6, 8), (7, 9), (6, 9), (7, 8), (1, 5)])
    def test_matches_naive(self, h, w):
        # uint8 codes, and the float32 accumulators of a conv, which a
        # requant-then-pool pair pools as they are
        codes = np.random.default_rng(h * 10 + w).integers(0, 256, (3, h, w)).astype(np.uint8)
        for x in (codes, 1000.0 - 8 * codes.astype(np.float32)):
            got = engine.maxpool2x2(x)
            want = naive_pool2x2(x)
            assert got.dtype == x.dtype and got.shape == want.shape
            assert (got == want).all()


def odd_pool_qgraph(seed):
    """conv -> requant -> pool on a 7x9 map, then conv -> requant -> head,
    with random codes, one zero-multiplier channel per stage and biases
    that are mostly negative."""
    layers = [
        G.LayerSpec(G.CONV, "c1", in_ch=1, out_ch=5, kernel=(3, 3), stride=(1, 1), padding=(1, 1)),
        G.LayerSpec(G.REQUANT, "a1"),
        G.LayerSpec(G.POOL, "p1", kernel=(2, 2), stride=(2, 2)),
        G.LayerSpec(G.CONV, "c2", in_ch=5, out_ch=3, kernel=(3, 3), stride=(1, 1), padding=(1, 1)),
        G.LayerSpec(G.REQUANT, "a2"),
        G.LayerSpec(G.DROPOUT, "d"),
        G.LayerSpec(G.FC, "fc", in_ch=3 * 3 * 4, out_ch=4),
    ]
    g = G.NetGraph(layers, (1, 7, 9))
    rng = np.random.default_rng(seed)
    weights, requant = {}, {}
    for l in g.layers:
        if l.kind in (G.CONV, G.FC):
            shape = (l.out_ch, l.in_ch, *l.kernel) if l.kind == G.CONV else (l.out_ch, l.in_ch)
            weights[l.name] = QTensor(rng.integers(-128, 128, shape).astype(np.int8), 0.01)
        elif l.kind == G.REQUANT:
            mult = rng.integers(0, 400, l.out_ch)
            mult[1] = 0
            bias = rng.integers(-(2**14) * 200, 2**14 * 40, l.out_ch)
            requant[l.name] = RequantParams(mult=mult, shift=14, bias=bias, alpha=1.0)
    return g, QuantizedGraph(graph=g, weights=weights, requant=requant), rng


class TestPoolBeforeRequant:
    """A requant followed by the max-pool runs on the pooled accumulator;
    every output and recorded layer still matches the naive reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_reference(self, seed):
        g, qg, rng = odd_pool_qgraph(seed)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.IMAGE_EPS)
        res = engine.infer_int(qg, img, record_activations=True)
        ref = run_int_reference(qg, codes)
        assert set(res.activations) == set(ref) - {"d"}
        for name, qt in res.activations.items():
            assert qt.shape == ref[name].shape, name
            assert (qt.data.astype(np.int64) == ref[name]).all(), name
        assert (res.raw == ref["fc"]).all()
        assert (engine.infer_int(qg, img).raw == res.raw).all()
        assert 0 < (res.activations["a1"].data == 0).mean() < 1

    def test_requant_sees_pooled_accumulator(self, monkeypatch):
        g, qg, rng = odd_pool_qgraph(0)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.IMAGE_EPS)
        shapes = []
        real = engine.requant_codes
        monkeypatch.setattr(engine, "requant_codes",
                            lambda acc, *a: shapes.append(acc.shape) or real(acc, *a))
        engine.infer_int(qg, img)
        assert shapes == [(5, 3, 4), (3, 3, 4)]


def reference_frame(variant):
    """A random variant net, quantized, and one random image for it."""
    g = G.build_variant(variant)
    net = random_float_net(g, seed=11)
    rng = np.random.default_rng(12)
    qg = convert(net, calibrate(net, CalibrationSet([random_image_codes(rng, g.input_shape)
                                                     * engine.IMAGE_EPS])))
    return qg, QTensor(random_image_codes(rng, g.input_shape), engine.IMAGE_EPS)


def warm_peak(variant):
    """tracemalloc peak of one warm infer_int call on a random variant net."""
    qg, img = reference_frame(variant)
    engine.infer_int(qg, img)
    tracemalloc.start()
    try:
        engine.infer_int(qg, img)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    def test_160x32_transient_peak(self):
        # the largest frame's im2col, accumulator and requant temporaries stay
        # small enough for the heap to serve them without page faults
        assert warm_peak("160x32") < 1.5 * 2**20

    def test_160x16_transient_peak(self):
        # the im2col columns are built from one padded float32 copy of the
        # input, with no uint8 column buffer beside them
        assert warm_peak("160x16") <= 2**20

    def test_80x32_transient_peak(self):
        # no GEMM casts a whole deep weight matrix to float64 (b3c2's
        # 128 x 1152 alone would be 1.13 MiB)
        assert warm_peak("80x32") <= 800 * 2**10

    def test_float32_columns_not_copied(self):
        # conv2d_int hands its float32 columns to the GEMM, which reads them
        # in place: the peak stays far below one more copy of the columns
        rng = np.random.default_rng(5)
        x = rng.integers(0, 256, (25, 40_000)).astype(np.float32)
        w = rng.integers(-128, 128, (2, 25)).astype(np.int8)
        engine._int_gemm(w, x)
        tracemalloc.start()
        try:
            engine._int_gemm(w, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 2


class TestHeldCodes:
    """The graph holds the full weight codes the engine runs; nothing is
    prepared or cached between calls, and an edited graph is a new one."""

    def test_inference_decodes_no_weights(self, monkeypatch):
        g, net, qg, rng = converted_toy(7)
        img = QTensor(random_image_codes(rng, g.input_shape), engine.IMAGE_EPS)
        seen = []
        real = engine.conv2d_int
        monkeypatch.setattr(engine, "conv2d_int",
                            lambda x, w, *a, **k: seen.append(w) or real(x, w, *a, **k))
        first = engine.infer_int(qg, img, record_activations=True).raw
        second = engine.infer_int(qg, img).raw
        convs = [l.name for l in g.layers if l.kind == G.CONV]
        assert [id(w) for w in seen] == [id(qg.weights[n].data) for n in convs * 2]
        assert (first == second).all()

    def test_replaced_requant_bias_is_used(self):
        g, net, qg, rng = converted_toy(8)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.IMAGE_EPS)
        before = engine.infer_int(qg, img).raw
        name = next(iter(qg.requant))
        rp = qg.requant[name]
        qg = with_requant(qg, name, bias=rp.bias + (1 << rp.shift) * 40)
        res = engine.infer_int(qg, img, record_activations=True)
        ref = run_int_reference(qg, codes)
        for layer, qt in res.activations.items():
            assert (qt.data.astype(np.int64) == ref[layer]).all(), layer
        assert not (res.raw == before).all()

    def test_edited_copies_take_effect(self):
        # the held arrays refuse an in-place write; edited copies, built
        # into a new graph, run on its first frame
        g, net, qg, rng = converted_toy(8)
        codes = random_image_codes(rng, g.input_shape)
        img = QTensor(codes, engine.IMAGE_EPS)
        before = engine.infer_int(qg, img, record_activations=True).activations
        conv, act = (l.name for l in g.layers[:2])
        qt, rp = qg.weights[conv], qg.requant[act]
        with pytest.raises(ValueError, match="read-only"):
            qt.data[(0,) * qt.data.ndim] = 0
        with pytest.raises(ValueError, match="read-only"):
            rp.bias[-1] += 1
        w, bias = qt.data.copy(), rp.bias.copy()
        w[(0,) * w.ndim] = 127 if w[(0,) * w.ndim] != 127 else -128
        bias[-1] += (1 << rp.shift) * 40
        qg = dataclasses.replace(qg, weights={**qg.weights, conv: QTensor(w, qt.eps)},
                                 requant={**qg.requant, act: dataclasses.replace(rp, bias=bias)})
        res = engine.infer_int(qg, img, record_activations=True)
        ref = run_int_reference(qg, codes)
        for layer, qt in res.activations.items():
            assert (qt.data.astype(np.int64) == ref[layer]).all(), layer
        assert not (res.activations[conv].data[0] == before[conv].data[0]).all()
        assert not (res.activations[act].data[-1] == before[act].data[-1]).all()


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

    @pytest.mark.parametrize("frame,target", [
        (np.full((64, 64), 300, dtype=np.int64), (64, 64)),      # would wrap to 44
        (np.full((64, 64), 0.9), (64, 64)),                      # would truncate to 0
        (np.full((162, 162), -1, dtype=np.int16), (48, 80)),     # would wrap to 255
        (np.zeros((1, 64, 64), dtype=np.uint8), (64, 64)),
        (np.zeros((64, 64), dtype=np.uint8).tolist(), (64, 64)),
    ])
    def test_rejects_non_u8_frames(self, frame, target):
        with pytest.raises(SchemaError, match="2-D uint8"):
            engine.crop_center(frame, target)
