import dataclasses
import json

import numpy as np
import pytest

from nanopose import cli, engine, graph as G, quantizer, tensorfile
from nanopose.errors import ConversionError, DeadActivationError, RequantParameterError, SchemaError
from nanopose.floatnet import random_float_net
from nanopose.pgm import write_pgm
from nanopose.qtensor import QTensor, act_eps
from nanopose.quantizer import (
    CalibrationSet,
    QuantizedGraph,
    RequantParams,
    calibrate,
    convert,
    fit_requant_scale,
    load_qgraph,
    quantization_error_bound,
    save_qgraph,
)

from oracles import make_chain_graph, with_requant


def toy_setup(seed, spatial=(12, 12), channels=(4, 6), n_blocks=2, n_calib=5):
    rng = np.random.default_rng(seed)
    g = make_chain_graph(spatial, channels, with_pool=True, n_blocks=n_blocks)
    net = random_float_net(g, seed=seed)
    imgs = [
        rng.integers(0, 256, g.input_shape).astype(np.float64) * engine.IMAGE_EPS
        for _ in range(n_calib)
    ]
    return g, net, imgs, rng


class TestCalibrate:
    def test_alpha_matches_direct_forward(self):
        g, net, imgs, _ = toy_setup(0, n_calib=1)
        alphas = calibrate(net, CalibrationSet(imgs))
        _, collected = engine.infer_float(net, imgs[0])
        for name, alpha in alphas.items():
            assert alpha == pytest.approx(float(collected[name].max()))

    def test_monotone_in_set_size(self):
        g, net, imgs, _ = toy_setup(1, n_calib=6)
        a_small = calibrate(net, CalibrationSet(imgs[:2]))
        a_big = calibrate(net, CalibrationSet(imgs))
        for name in a_small:
            assert a_big[name] >= a_small[name]

    def test_dead_activation_flags_layers(self):
        g, net, imgs, _ = toy_setup(2)
        for bn in net.bn.values():
            bn.gamma = np.zeros_like(bn.gamma)
            bn.beta = np.full_like(bn.beta, -1.0)
        with pytest.raises(DeadActivationError) as ei:
            calibrate(net, CalibrationSet([np.zeros(g.input_shape)]))
        assert len(ei.value.layers) == len(net.bn)


class TestFitRequantScale:
    def test_precision_bound(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            scales = rng.uniform(1e-3, 10.0, 8)
            offs = rng.uniform(-50, 50, 8)
            mult, shift, bias = fit_requant_scale(scales, offs, "t")
            rel = np.abs(mult / (1 << shift) - scales) / scales
            assert rel.max() <= 2.0**-15
            assert 0 <= shift <= 31

    def test_overflow_reduces_shift(self):
        scales = np.array([1e5, 2e5])
        mult, shift, bias = fit_requant_scale(scales, np.zeros(2), "t")
        assert mult.max() <= 2**31 - 1
        assert np.abs(mult / (1 << shift) - scales).max() / scales.min() < 1e-3

    def test_unfittable_scale_raises(self):
        with pytest.raises(ConversionError):
            fit_requant_scale(np.array([1e-9]), np.zeros(1), "t")


class TestConvert:
    def test_identity_bn_reduces_to_rescale(self):
        g, net, imgs, _ = toy_setup(3)
        for bn in net.bn.values():
            bn.gamma = np.ones_like(bn.gamma)
            bn.beta = np.zeros_like(bn.beta)
            bn.mean = np.zeros_like(bn.mean)
            bn.var = np.ones_like(bn.var) - 1e-5
        alphas = calibrate(net, CalibrationSet(imgs))
        qg = convert(net, alphas)
        for name, rp in qg.requant.items():
            conv = [l for l in g.layers if l.kind == G.CONV and f"{name[:-1]}c" == l.name[:-1] + "c"]
            assert (rp.bias == 0).all()
            # pure rescale: all channels share one multiplier
            assert np.unique(rp.mult).size == 1

    def test_weights_within_eps_of_float(self):
        g, net, imgs, _ = toy_setup(4)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        for l in g.layers:
            if l.kind == G.CONV:
                deq = qg.weights[l.name].dequantize().reshape(net.weights[l.name].shape)
                assert np.abs(deq - net.weights[l.name]).max() <= qg.weights[l.name].eps

    def test_scale_chain_consistency(self):
        g, net, imgs, _ = toy_setup(5)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        scales = qg.scales()
        eps_in = engine.IMAGE_EPS
        for l in g.layers:
            if l.kind in (G.CONV, G.FC):
                assert scales[l.name] == eps_in * qg.weights[l.name].eps
                eps_in = scales[l.name]
            elif l.kind == G.REQUANT:
                assert scales[l.name] == act_eps(qg.requant[l.name].alpha)
                eps_in = scales[l.name]
            else:
                assert scales[l.name] == eps_in

    def test_deterministic(self):
        g, net, imgs, _ = toy_setup(6)
        alphas = calibrate(net, CalibrationSet(imgs))
        qa, qb = convert(net, alphas), convert(net, alphas)
        for name in qa.weights:
            assert (qa.weights[name].data == qb.weights[name].data).all()
        for name in qa.requant:
            assert (qa.requant[name].mult == qb.requant[name].mult).all()
            assert qa.requant[name].shift == qb.requant[name].shift

    def test_positive_weight_layer_representable(self):
        g, net, imgs, _ = toy_setup(7)
        first = [l for l in g.layers if l.kind == G.CONV][0].name
        net.weights[first] = np.abs(net.weights[first])
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        codes = qg.weights[first]
        assert codes.data.dtype == np.int8
        assert np.abs(codes.dequantize() - net.weights[first]).max() <= codes.eps


class TestCrossEngine:
    def test_int_within_bound_of_float(self):
        g, net, imgs, rng = toy_setup(8, n_calib=8)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        bound = quantization_error_bound(qg, net)
        for img in imgs:
            codes = np.round(img / engine.IMAGE_EPS).astype(np.uint8)
            pose_f, _ = engine.infer_float(net, codes * engine.IMAGE_EPS)
            res = engine.infer_int(qg, QTensor(codes, engine.IMAGE_EPS))
            assert (np.abs(res.pose - pose_f) <= bound).all()

    def test_grid_snapped_nets_match_tightly(self):
        from nanopose.floatnet import realistic_random_net

        rng = np.random.default_rng(99)
        g = make_chain_graph((10, 10), (4, 6), with_pool=True, n_blocks=2)
        net = realistic_random_net(g, seed=9)
        imgs = [rng.integers(0, 256, g.input_shape).astype(np.float64) / 255.0
                for _ in range(10)]
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        # decomposition is lossless on grid-resident weights
        for l in g.layers:
            if l.kind in (G.CONV, G.FC):
                deq = qg.weights[l.name].dequantize().reshape(net.weights[l.name].shape)
                assert np.abs(deq - net.weights[l.name]).max() < 1e-12
        for img in imgs:
            codes = np.round(img * 255).astype(np.uint8)
            pose_f, _ = engine.infer_float(net, codes / 255.0)
            pose_i = engine.infer_int(qg, QTensor(codes, engine.IMAGE_EPS)).pose
            assert np.abs(pose_i - pose_f).max() < 0.05


class TestCheck:
    """`QuantizedGraph.check` states what `engine.infer_int` runs on; the
    constructor runs it, so a graph that breaks it is never built."""

    def test_converted_graph_passes(self):
        g, net, imgs, _ = toy_setup(13)
        convert(net, calibrate(net, CalibrationSet(imgs))).check()

    def test_requant_parameters_checked(self, tmp_path):
        g, net, imgs, _ = toy_setup(14)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        name = next(iter(qg.requant))
        good = qg.requant[name]
        channels = good.mult.size
        assert good.mult.dtype == good.bias.dtype == np.int32
        cases = [
            ({"shift": 40}, "shift 40"),
            ({"shift": True}, "shift True"),
            ({"bias": np.zeros(channels + 1, dtype=np.int64)}, "bias must be 1-D"),
            ({"bias": np.zeros((channels, 1), dtype=np.int64)}, "bias must be 1-D"),
            ({"mult": np.full(channels, 2**33)}, "mult does not fit 32-bit"),
            ({"bias": np.full(channels, -(2**40))}, "bias does not fit 32-bit"),
            # one past each end of int32, held in a wider dtype
            ({"mult": np.full(channels, 2**31, dtype=np.int64)}, "mult does not fit 32-bit"),
            ({"bias": np.full(channels, -(2**31) - 1, dtype=np.int64)}, "bias does not fit 32-bit"),
            ({"mult": good.mult.astype(np.float64)}, "mult must be 1-D integers"),
            ({"mult": np.r_[3, -np.ones(channels - 1, dtype=np.int64)]}, "negative multiplier -1"),
            ({"alpha": float("nan")}, "alpha nan"),
            ({"alpha": 10**400}, "alpha 10000"),   # beyond the float range
        ]
        for change, message in cases:
            with pytest.raises(RequantParameterError, match=message):
                with_requant(qg, name, **change)
        # the int32 ends themselves pass, in any integer dtype, and are kept
        # as int32
        for dtype in (np.int32, np.int64):
            ends = with_requant(qg, name, mult=np.full(channels, 2**31 - 1, dtype=dtype),
                                bias=np.full(channels, -(2**31), dtype=dtype)).requant[name]
            assert ends.mult.dtype == ends.bias.dtype == np.int32
            assert (ends.mult == 2**31 - 1).all() and (ends.bias == -(2**31)).all()
        save_qgraph(qg, str(tmp_path / "q.json"))
        for rp in load_qgraph(str(tmp_path / "q.json")).requant.values():
            assert rp.mult.dtype == rp.bias.dtype == np.int32

    def test_layer_entries_checked(self):
        g, net, imgs, _ = toy_setup(15)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        conv = next(iter(qg.weights))
        qt = qg.weights[conv]

        def with_weights(weights):
            return dataclasses.replace(qg, weights=weights)

        with pytest.raises(ValueError, match="uint8, int8 or int32"):
            QTensor(qt.data.astype(np.int16), qt.eps)   # QTensor itself rejects int16
        for data in (qt.data.astype(np.int32), qt.data[:1]):
            with pytest.raises(SchemaError, match="i8 weight payload"):
                with_weights({**qg.weights, conv: QTensor(data, qt.eps)})
        with pytest.raises(SchemaError, match="do not match the graph's layers"):
            with_weights({k: v for k, v in qg.weights.items() if k != conv})
        with pytest.raises(SchemaError, match="do not match the graph's layers"):
            with_weights({**qg.weights, "extra": qt})
        with pytest.raises(SchemaError, match="no fully connected head"):
            QuantizedGraph(graph=G.NetGraph(g.layers[:-1], g.input_shape),
                           weights={k: v for k, v in qg.weights.items() if k != "fc"},
                           requant=qg.requant)
        with pytest.raises(SchemaError, match="runs a NetGraph"):
            dataclasses.replace(qg, graph=G.to_doc(g))


def converted_and_loaded(tmp_path):
    """A converted toy qgraph and the one save_qgraph and load_qgraph give
    back from it."""
    g, net, imgs, _ = toy_setup(17)
    qg = convert(net, calibrate(net, CalibrationSet(imgs)))
    save_qgraph(qg, str(tmp_path / "q.json"))
    return {"converted": qg, "loaded": load_qgraph(str(tmp_path / "q.json"))}


class TestFrozen:
    """A quantized graph cannot be edited once built: every edit the
    per-frame check used to catch fails at the edit, and the same change
    made through the constructor fails its check."""

    @pytest.mark.parametrize("source", ["converted", "loaded"])
    def test_edits_fail_at_the_edit(self, tmp_path, source):
        qg = converted_and_loaded(tmp_path)[source]
        conv, rq = next(iter(qg.weights)), next(iter(qg.requant))
        qt, rp = qg.weights[conv], qg.requant[rq]
        with pytest.raises(dataclasses.FrozenInstanceError):
            qg.weights = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            qg.requant = {}
        with pytest.raises(TypeError):
            qg.weights[conv] = QTensor(np.zeros_like(qt.data), qt.eps)
        with pytest.raises(TypeError):
            qg.requant[rq] = rp
        for array in (qt.data, rp.mult, rp.bias):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rp.mult = -rp.mult
        with pytest.raises(dataclasses.FrozenInstanceError):
            qt.data = qt.data.astype(np.int16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            qg.graph.layer(conv).padding = (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            qg.graph.layers = qg.graph.layers[:-1]

    @pytest.mark.parametrize("source", ["converted", "loaded"])
    def test_edits_fail_at_construction(self, tmp_path, source):
        qg = converted_and_loaded(tmp_path)[source]
        conv, rq = next(iter(qg.weights)), next(iter(qg.requant))
        qt, rp = qg.weights[conv], qg.requant[rq]
        with pytest.raises(RequantParameterError, match="negative multiplier"):
            with_requant(qg, rq, mult=-rp.mult)
        with pytest.raises(SchemaError, match="i8 weight payload"):
            dataclasses.replace(qg, weights={**qg.weights, conv: QTensor(qt.data[:1], qt.eps)})
        with pytest.raises(SchemaError, match="needs an activation stage"):
            dataclasses.replace(qg.graph, layers=[l for l in qg.graph.layers if l.name != rq])

    def test_constructor_keeps_its_own_arrays(self):
        # the caller's arrays stay writable, and an edit to them after the
        # graph is built does not reach it
        g, net, imgs, rng = toy_setup(18)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        weights = {k: QTensor(qt.data.copy(), qt.eps) for k, qt in qg.weights.items()}
        requant = {k: dataclasses.replace(rp, mult=rp.mult.astype(np.int64),
                                          bias=rp.bias.astype(np.int64))
                   for k, rp in qg.requant.items()}
        built = QuantizedGraph(graph=g, weights=weights, requant=requant)
        img = QTensor(rng.integers(0, 256, g.input_shape).astype(np.uint8), engine.IMAGE_EPS)
        before = engine.infer_int(built, img).raw
        for qt in weights.values():
            qt.data[...] = 0
        for rp in requant.values():
            rp.mult[...] = -1
        assert (engine.infer_int(built, img).raw == before).all()
        assert (before == engine.infer_int(qg, img).raw).all()

    def test_shares_the_float_nets_graph_safely(self, tmp_path):
        # convert keeps the FloatNet's graph; neither holder can edit it
        g, net, imgs, rng = toy_setup(19)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        assert qg.graph is net.graph
        conv = next(iter(qg.weights))
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.graph.layer(conv).padding = (0, 0)
        img = QTensor(rng.integers(0, 256, g.input_shape).astype(np.uint8), engine.IMAGE_EPS)
        save_qgraph(qg, str(tmp_path / "q.json"))
        back = load_qgraph(str(tmp_path / "q.json"))
        assert [vars(l) for l in back.graph.layers] == [vars(l) for l in qg.graph.layers]
        assert (engine.infer_int(back, img).raw == engine.infer_int(qg, img).raw).all()

    def test_infer_int_refuses_other_objects(self):
        g, net, imgs, rng = toy_setup(20)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        img = QTensor(rng.integers(0, 256, g.input_shape).astype(np.uint8), engine.IMAGE_EPS)
        lookalike = type("Lookalike", (), dict(graph=qg.graph, weights=dict(qg.weights),
                                              requant=dict(qg.requant), scales=qg.scales))()
        with pytest.raises(TypeError, match="runs a QuantizedGraph, got Lookalike"):
            engine.infer_int(lookalike, img)


def wide_head_qgraph(taps, codes):
    """A graph that is one fc head of `taps` inputs, with weight codes `codes`."""
    g = G.NetGraph([G.LayerSpec(G.FC, "fc", in_ch=taps, out_ch=2)], (1, 1, taps))
    return QuantizedGraph(graph=g, weights={"fc": QTensor(codes, 0.01)}, requant={})


class TestAccumulatorHeadroom:
    """A layer of more than engine._INT32_SAFE_TAPS taps is held to
    255 * max_o sum|w[o]| <= int32 max by `check`, before any frame runs."""

    def test_wide_layer_bound_checked(self):
        k = engine._INT32_SAFE_TAPS + 1
        codes = np.full((2, k), -128, dtype=np.int8)
        with pytest.raises(SchemaError, match="fc accumulators reach .* = 2147516160"):
            wide_head_qgraph(k, codes)
        # one zero code in every row leaves 255 * 128 * 65,793 <= int32 max
        codes[:, 0] = 0
        wide_head_qgraph(k, codes)
        # one channel over the bound is enough
        codes[1, 0] = 1
        with pytest.raises(SchemaError, match="beyond 32-bit"):
            wide_head_qgraph(k, codes)

    def test_wide_conv_bound_checked(self):
        k = engine._INT32_SAFE_TAPS + 1
        layers = [G.LayerSpec(G.CONV, "c", in_ch=k, out_ch=1, kernel=(1, 1)),
                  G.LayerSpec(G.REQUANT, "a"), G.LayerSpec(G.FC, "fc", in_ch=1, out_ch=4)]
        g = G.NetGraph(layers, (k, 1, 1))
        one = np.ones(1, dtype=np.int32)
        codes = np.full((1, k, 1, 1), -128, dtype=np.int8)

        def build():
            return QuantizedGraph(graph=g, weights={
                "c": QTensor(codes, 0.01), "fc": QTensor(np.ones((4, 1), dtype=np.int8), 0.01)},
                requant={"a": RequantParams(mult=one, shift=0, bias=0 * one, alpha=1.0)})

        codes[0, 0] = 0
        build()   # 255 * 128 * 65,793 = 2,147,483,520 fits int32
        codes[0, 0] = -1
        with pytest.raises(SchemaError, match="c accumulators reach .* = 2147483775"):
            build()

    def test_safe_tap_count_not_summed(self, monkeypatch):
        # against an int32 bound no layer meets, any summed layer raises: a
        # layer of at most _INT32_SAFE_TAPS taps is never summed
        g, net, imgs, _ = toy_setup(16)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        monkeypatch.setattr(quantizer, "INT32_MAX", -1)
        dataclasses.replace(qg)
        monkeypatch.setattr(engine, "_INT32_SAFE_TAPS", 0)
        with pytest.raises(SchemaError, match="beyond 32-bit"):
            dataclasses.replace(qg)

    def test_load_rejects_bound_beyond_int32(self, tmp_path, capsys):
        k = engine._INT32_SAFE_TAPS + 1
        path = tmp_path / "wide.json"   # 255 * 127 * 65,794 fits int32
        save_qgraph(wide_head_qgraph(k, np.full((2, k), 127, dtype=np.int8)), str(path))
        tensorfile.write_qtensor(str(tmp_path / "wide_fc.qtns"),
                                 QTensor(np.full((2, k), -128, dtype=np.int8), 0.01))
        with pytest.raises(SchemaError, match="wide.json: fc accumulators reach"):
            load_qgraph(str(path))
        # so `infer` exits 4 at load instead of 5 inside the frame
        write_pgm(tmp_path / "f.pgm", np.full((1, k), 255, dtype=np.uint8))
        out = tmp_path / "pose.csv"
        assert cli.main(["infer", "--qgraph", str(path), "--image", str(tmp_path / "f.pgm"),
                         "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "error[schema]" in err and "accumulators reach" in err
        assert not out.exists()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g, net, imgs, rng = toy_setup(9)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        path = tmp_path / "qgraph.json"
        save_qgraph(qg, str(path))
        back = load_qgraph(str(path))
        codes = rng.integers(0, 256, g.input_shape).astype(np.uint8)
        img = QTensor(codes, engine.IMAGE_EPS)
        a = engine.infer_int(qg, img).raw
        b = engine.infer_int(back, img).raw
        assert (a == b).all()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        g, net, imgs, _ = toy_setup(10)
        first = [l for l in g.layers if l.kind == G.CONV][0].name
        net.weights[first] = np.abs(net.weights[first])   # base point 0
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        save_qgraph(qg, str(tmp_path / "a" / "q.json"))
        back = load_qgraph(str(tmp_path / "a" / "q.json"))
        save_qgraph(back, str(tmp_path / "b" / "q.json"))
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for fn in files:
            assert (tmp_path / "a" / fn).read_bytes() == (tmp_path / "b" / fn).read_bytes(), fn
        for name, qt in qg.weights.items():
            assert qt.data.dtype == np.int8 and qt.eps == back.weights[name].eps
            assert (back.weights[name].data == qt.data).all()
        _, _, base = tensorfile.read_tensor(tmp_path / "a" / f"q_{first}.qtns")
        assert base == 0

    def test_codes_wider_than_128_levels_not_saved(self, tmp_path):
        g, net, imgs, _ = toy_setup(11)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        name = next(iter(qg.weights))
        qt = qg.weights[name]
        wide = qt.data.copy()
        wide.flat[:2] = (-100, 100)
        qg = dataclasses.replace(qg, weights={**qg.weights, name: QTensor(wide, qt.eps)})
        with pytest.raises(ValueError, match="exceed range"):
            save_qgraph(qg, str(tmp_path / "q.json"))

    def test_stored_codes_beyond_int8_rejected(self, tmp_path):
        g, net, imgs, _ = toy_setup(12)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        path = tmp_path / "q.json"
        save_qgraph(qg, str(path))
        name = next(iter(qg.weights))
        qtns = tmp_path / f"q_{name}.qtns"
        data, eps, _ = tensorfile.read_tensor(qtns)
        tensorfile.write_tensor(qtns, data, eps=eps, base=100)
        with pytest.raises(SchemaError, match="exceed signed 8-bit"):
            load_qgraph(str(path))


    @pytest.mark.parametrize("kind, field, value", [
        (G.REQUANT, "kernel", [2, 1]), (G.DROPOUT, "padding", [1, 0]),
        (G.FC, "stride", [3, 3]), (G.POOL, "padding", [1, 1]),
    ])
    def test_unused_window_field_rejected(self, tmp_path, kind, field, value):
        g, net, imgs, _ = toy_setup(13)
        path = tmp_path / "q.json"
        save_qgraph(convert(net, calibrate(net, CalibrationSet(imgs))), str(path))
        doc = json.loads(path.read_text())
        next(d for d in doc["graph"]["layers"] if d["kind"] == kind)[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="takes kernel, stride, padding"):
            load_qgraph(str(path))

    def test_negated_multiplier_not_saved(self, tmp_path):
        # no quantized graph with a negative multiplier exists to be saved
        g, net, imgs, _ = toy_setup(16)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        name, rp = next(iter(qg.requant.items()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rp.mult = -rp.mult
        with pytest.raises(RequantParameterError, match="negative multiplier"):
            save_qgraph(with_requant(qg, name, mult=-rp.mult), str(tmp_path / "q" / "q.json"))
        assert not (tmp_path / "q").exists()
