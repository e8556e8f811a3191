import numpy as np
import pytest

from nanopose import engine, graph as G, tensorfile
from nanopose.errors import ConversionError, DeadActivationError, SchemaError
from nanopose.floatnet import random_float_net
from nanopose.qtensor import QTensor, act_eps
from nanopose.quantizer import (
    CalibrationSet,
    calibrate,
    convert,
    fit_requant_scale,
    load_qgraph,
    quantization_error_bound,
    save_qgraph,
)

from oracles import make_chain_graph


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
        _, collected = engine.infer_float(net, imgs[0], collect="acts")
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
                assert np.abs(deq - net.weights[l.name]).max() <= qg.weights[l.name].qp.eps

    def test_scale_chain_consistency(self):
        g, net, imgs, _ = toy_setup(5)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        eps_in = qg.input_qp.eps
        for l in g.layers:
            if l.kind == G.CONV:
                assert qg.acc_eps[l.name] == pytest.approx(eps_in * qg.weights[l.name].qp.eps)
            elif l.kind == G.REQUANT:
                eps_in = act_eps(qg.requant[l.name].alpha)
            elif l.kind == G.FC:
                assert qg.out_eps[0] == pytest.approx(eps_in * qg.weights[l.name].qp.eps)

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
        assert codes.data.dtype == np.int8 and codes.qp.zero_base == 0
        assert np.abs(codes.dequantize() - net.weights[first]).max() <= codes.qp.eps


class TestCrossEngine:
    def test_int_within_bound_of_float(self):
        g, net, imgs, rng = toy_setup(8, n_calib=8)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        bound = quantization_error_bound(qg, net)
        for img in imgs:
            codes = np.round(img / engine.IMAGE_EPS).astype(np.uint8)
            pose_f, _ = engine.infer_float(net, codes * engine.IMAGE_EPS)
            res = engine.infer_int(qg, QTensor(codes, engine.image_qparams()))
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
            pose_i = engine.infer_int(qg, QTensor(codes, engine.image_qparams())).pose
            assert np.abs(pose_i - pose_f).max() < 0.05


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g, net, imgs, rng = toy_setup(9)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        path = tmp_path / "qgraph.json"
        save_qgraph(qg, str(path))
        back = load_qgraph(str(path))
        codes = rng.integers(0, 256, g.input_shape).astype(np.uint8)
        img = QTensor(codes, engine.image_qparams())
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
            assert qt.data.dtype == np.int8 and qt.qp.zero_base == 0
            assert (back.weights[name].data == qt.data).all()
        _, _, base = tensorfile.read_tensor(tmp_path / "a" / f"q_{first}.qtns")
        assert base == 0

    def test_codes_wider_than_128_levels_not_saved(self, tmp_path):
        g, net, imgs, _ = toy_setup(11)
        qg = convert(net, calibrate(net, CalibrationSet(imgs)))
        name = next(iter(qg.weights))
        qg.weights[name].data.flat[:2] = (-100, 100)
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
        tensorfile.write_tensor(qtns, data, eps=eps, zero_base=100)
        with pytest.raises(SchemaError, match="exceed signed 8-bit"):
            load_qgraph(str(path))
