import numpy as np
import pytest

from nanopose.errors import DegenerateLayerError, RequantParameterError
from nanopose.qtensor import (
    QTensor,
    QuantParams,
    act_eps,
    accumulator_qparams,
    decompose_weights,
    full_weight_codes,
    int_affine_requant,
    quantize,
    weight_eps,
)


def u8_qp(eps):
    return QuantParams(eps=eps, levels=256, signed=False)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        for eps in (0.01, 1.0, 37.5):
            q = quantize(np.array([0.0]), u8_qp(eps))
            assert q.data[0] == 0

    def test_floor_definition(self):
        q = quantize(np.array([2.5]), u8_qp(1.0))
        assert q.data[0] == 2

    def test_roundtrip_below_eps_on_grid(self):
        # exhaustive check over a 10^4-sample grid in [0, alpha]
        alpha = 3.7
        eps = alpha / 255
        x = np.linspace(0.0, alpha, 10_000)
        q = quantize(x, u8_qp(eps))
        err = np.abs(x - eps * q.data)
        assert err.max() < eps

    def test_monotone(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 5.0, 500))
        q = quantize(x, u8_qp(5.0 / 255)).data.astype(int)
        assert (np.diff(q) >= 0).all()

    def test_saturates_to_range(self):
        q = quantize(np.array([-10.0, 1e6]), u8_qp(1.0))
        assert q.data[0] == 0 and q.data[1] == 255

    def test_rejects_non_finite_with_index(self):
        x = np.array([1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match="index 1"):
            quantize(x, u8_qp(1.0))


class TestScales:
    def test_weight_eps_arithmetic(self):
        assert weight_eps(-1.27, 1.27) == pytest.approx(0.02)
        assert weight_eps(0.0, 127.0) == pytest.approx(1.0)

    def test_weight_eps_degenerate(self):
        with pytest.raises(DegenerateLayerError):
            weight_eps(0.5, 0.5)
        with pytest.raises(DegenerateLayerError):
            weight_eps(1.0, -1.0)

    def test_weight_eps_matches_scan(self):
        rng = np.random.default_rng(42)
        w = rng.normal(0, 0.3, 1000)
        lo = min(w)
        hi = max(w)
        assert weight_eps(lo, hi) == pytest.approx((hi - lo) / 127)

    def test_act_eps(self):
        assert act_eps(255.0) == pytest.approx(1.0)
        assert act_eps(1.0) == pytest.approx(1 / 255)
        with pytest.raises(DegenerateLayerError):
            act_eps(0.0)

    def test_act_eps_matches_batch_max(self):
        rng = np.random.default_rng(3)
        batch = rng.uniform(0, 9.0, (16, 32))
        alpha = max(float(row.max()) for row in batch)  # brute-force scan
        assert act_eps(alpha) == pytest.approx(alpha / 255)


class TestDecompose:
    def test_symmetric_base_is_minus_64(self):
        rng = np.random.default_rng(0)
        a = 0.8
        w = rng.uniform(-a, a, (16, 8, 3, 3))
        w.flat[0], w.flat[1] = -a, a  # pin the extremes
        eps = weight_eps(w.min(), w.max())
        w_star, base = decompose_weights(w, eps)
        assert base == -64
        recon = eps * (base + w_star.data.astype(np.int64))
        assert np.abs(recon - w).max() <= eps

    def test_asymmetric_positive_fits_int8(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.0, 0.5, 4000)
        w[0], w[1] = 0.0, 0.5
        eps = weight_eps(0.0, 0.5)
        w_star, base = decompose_weights(w, eps)
        full = base + w_star.data.astype(np.int64)
        # exhaustive scan of the reconstructed integer range
        assert full.min() >= -128 and full.max() <= 127
        assert np.abs(eps * full - w).max() <= eps

    def test_reconstruction_bound_random(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            w = rng.normal(0, rng.uniform(0.05, 2.0), 300)
            eps = weight_eps(min(w.min(), 0.0), max(w.max(), 0.0))
            w_star, base = decompose_weights(w, eps)
            assert np.abs(eps * (base + w_star.data.astype(np.int64)) - w).max() <= eps

    def test_full_codes_int8(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 0.4, 256)
        eps = weight_eps(min(w.min(), 0.0), max(w.max(), 0.0))
        w_star, _ = decompose_weights(w, eps)
        codes = full_weight_codes(w_star)
        assert codes.data.dtype == np.int8 and codes.qp.zero_base == 0

    def test_all_zero_rejected_via_eps(self):
        with pytest.raises(DegenerateLayerError):
            weight_eps(0.0, 0.0)


def requant_oracle(acc, scale, shift, bias):
    """Same affine evaluated with unbounded Python ints."""
    out = np.empty(acc.shape, dtype=np.int64)
    c = acc.shape[0]
    scale = np.broadcast_to(np.atleast_1d(scale), (c,))
    bias = np.broadcast_to(np.atleast_1d(bias), (c,))
    for ci in range(c):
        flat = acc[ci].ravel()
        res = []
        for v in flat.tolist():
            t = int(scale[ci]) * int(v) + int(bias[ci])
            t = t // (1 << shift) if t >= 0 else -((-t) >> shift)
            res.append(min(255, max(0, t)))
        out[ci] = np.array(res, dtype=np.int64).reshape(acc[ci].shape)
    return out


class TestRequant:
    def acc(self, arr):
        return QTensor(np.asarray(arr, dtype=np.int32), accumulator_qparams(1.0))

    def test_identity_clamp_only(self):
        acc = self.acc(np.arange(-4, 300).reshape(1, -1, 1))
        out = int_affine_requant(acc, 1, 0, 0)
        assert out.data.min() == 0 and out.data.max() == 255
        assert out.data[0, 10, 0] == 6  # -4 + 10

    def test_negative_acc_relu(self):
        acc = self.acc(np.full((3, 2, 2), -1000, dtype=np.int32))
        out = int_affine_requant(acc, 5, 3, 0)
        assert (out.data == 0).all()

    def test_matches_wide_integer_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            c = int(rng.integers(1, 6))
            acc = rng.integers(-(2**30), 2**30, (c, 4, 5)).astype(np.int32)
            scale = rng.integers(1, 2**20, c)
            bias = rng.integers(-(2**24), 2**24, c)
            shift = int(rng.integers(0, 32))
            got = int_affine_requant(self.acc(acc), scale, shift, bias)
            want = requant_oracle(acc, scale, shift, bias)
            assert (got.data.astype(np.int64) == want).all()

    def test_output_range(self):
        rng = np.random.default_rng(2)
        acc = rng.integers(-(2**31), 2**31 - 1, (4, 8, 8)).astype(np.int32)
        out = int_affine_requant(self.acc(acc), 3, 7, 19)
        assert out.data.dtype == np.uint8

    def test_param_validation(self):
        acc = self.acc(np.zeros((2, 2, 2), dtype=np.int32))
        with pytest.raises(RequantParameterError):
            int_affine_requant(acc, 1, 40, 0)
        with pytest.raises(RequantParameterError):
            int_affine_requant(acc, 1, 0, np.zeros(3))
        with pytest.raises(RequantParameterError):
            int_affine_requant(acc, 2**33, 0, 0)
