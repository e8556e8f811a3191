import numpy as np
import pytest

from nanopose import qtensor
from nanopose.errors import DegenerateLayerError
from nanopose.qtensor import (
    FLOOR_GUARD,
    INT32_MAX,
    INT32_MIN,
    QTensor,
    act_eps,
    quantize,
    requant_codes,
    split_weight_codes,
    weight_codes,
    weight_eps,
)

from oracles import naive_requant


class TestQTensor:
    def test_other_dtypes_and_bad_eps_rejected(self):
        for dtype in (np.int16, np.int64, np.float32, np.bool_):
            with pytest.raises(ValueError, match="uint8, int8 or int32"):
                QTensor(np.zeros(3, dtype=dtype), 0.5)
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                QTensor(np.zeros(3, dtype=np.uint8), eps)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        for eps in (0.01, 1.0, 37.5):
            q = quantize(np.array([0.0]), eps)
            assert q.data[0] == 0

    def test_floor_definition(self):
        q = quantize(np.array([2.5]), 1.0)
        assert q.data[0] == 2

    def test_roundtrip_below_eps_on_grid(self):
        # exhaustive check over a 10^4-sample grid in [0, alpha]
        alpha = 3.7
        eps = alpha / 255
        x = np.linspace(0.0, alpha, 10_000)
        q = quantize(x, eps)
        err = np.abs(x - eps * q.data)
        assert err.max() < eps

    def test_monotone(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 5.0, 500))
        q = quantize(x, 5.0 / 255).data.astype(int)
        assert (np.diff(q) >= 0).all()

    def test_saturates_to_range(self):
        q = quantize(np.array([-10.0, 1e6]), 1.0)
        assert q.data[0] == 0 and q.data[1] == 255

    def test_signed_weight_codes_are_int8(self):
        # quantize saturates to the range of the code dtype it is given
        q = quantize(np.array([-0.3, 0.2, -5.0]), 0.01, np.int8)
        assert q.data.dtype == np.int8
        assert q.data.tolist() == [-30, 20, -128]
        q = quantize(np.array([-1e12, 1e12]), 1.0, np.int32)
        assert q.data.tolist() == [-(2**31), 2**31 - 1]

    def test_rejects_non_finite_with_index(self):
        x = np.array([1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match="index 1"):
            quantize(x, 1.0)


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
    """weight_codes: a layer's weights as int8 codes at one scale."""

    def test_symmetric_base_is_minus_64(self):
        rng = np.random.default_rng(0)
        a = 0.8
        w = rng.uniform(-a, a, (16, 8, 3, 3))
        w.flat[0], w.flat[1] = -a, a  # pin the extremes
        qt = weight_codes(w)
        assert qt.eps == weight_eps(w.min(), w.max())
        _, base = split_weight_codes(qt.data)
        assert base == -64
        assert np.abs(qt.dequantize() - w).max() <= qt.eps

    def test_asymmetric_positive_fits_int8(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.0, 0.5, 4000)
        w[0], w[1] = 0.0, 0.5
        qt = weight_codes(w)
        assert qt.eps == weight_eps(0.0, 0.5)
        # int8 codes: the dtype holds the range, and the base sits at zero
        assert qt.data.dtype == np.int8 and split_weight_codes(qt.data)[1] == 0
        assert np.abs(qt.dequantize() - w).max() <= qt.eps

    def test_reconstruction_bound_random(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            w = rng.normal(0, rng.uniform(0.05, 2.0), 300)
            qt = weight_codes(w)
            assert qt.eps == weight_eps(min(w.min(), 0.0), max(w.max(), 0.0))
            assert np.abs(qt.dequantize() - w).max() <= qt.eps

    def test_full_codes_int8(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 0.4, 256)
        qt = weight_codes(w)
        eps = weight_eps(min(w.min(), 0.0), max(w.max(), 0.0))
        assert qt.data.dtype == np.int8
        assert (qt.data == np.floor(w / eps + FLOOR_GUARD)).all()
        offsets, base = split_weight_codes(qt.data)
        assert (base + offsets.astype(np.int64) == qt.data).all()

    def test_all_zero_rejected_via_eps(self):
        with pytest.raises(DegenerateLayerError):
            weight_codes(np.zeros(8))

    def test_codes_outside_the_int8_window_rejected(self, monkeypatch):
        # a scale finer than weight_eps gives: a window wider than 128
        # levels, then a 3-level window whose base is below -128
        monkeypatch.setattr(qtensor, "weight_eps", lambda lo, hi: (hi - lo) / 254)
        with pytest.raises(DegenerateLayerError, match="exceed range"):
            weight_codes(np.array([-0.8, 0.8]))
        monkeypatch.setattr(qtensor, "weight_eps", lambda lo, hi: 0.005)
        with pytest.raises(DegenerateLayerError, match="exceed signed 8-bit"):
            weight_codes(np.array([-1.0, -0.99]))

    def test_non_finite_rejected(self):
        w = np.array([0.5, -0.5, np.inf])
        with pytest.raises(ValueError, match="index 2"):
            weight_codes(w)


class TestSplitWeightCodes:
    def test_base_is_min_code_or_zero(self):
        offsets, base = split_weight_codes(np.array([-3, 0, 124], dtype=np.int8))
        assert base == -3 and offsets.dtype == np.int8 and offsets.tolist() == [0, 3, 127]
        offsets, base = split_weight_codes(np.array([5, 127], dtype=np.int8))
        assert base == 0 and offsets.tolist() == [5, 127]

    def test_every_128_level_window_roundtrips(self):
        for lo in range(-128, 1):
            codes = np.arange(lo, lo + 128)
            offsets, base = split_weight_codes(codes)
            assert (base + offsets.astype(np.int64) == codes).all()

    @pytest.mark.parametrize("codes", [[-1, 127], [-128, 0, 1], [-100, 100]])
    def test_more_than_128_levels_rejected(self, codes):
        with pytest.raises(ValueError, match="exceed range"):
            split_weight_codes(np.array(codes, dtype=np.int8))


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


# the 32-bit parameter range a QuantizedGraph admits, at its extremes
REQUANT_MULTS = (0, 1, 2**14 + 1, INT32_MAX)
REQUANT_BIASES = (INT32_MIN, 0, INT32_MAX)
OUTPUT_STEPS = (0, 1, 255, 256)


def accumulator_forms(acc):
    """acc as int32 codes and as the exact float accumulators the engine
    hands over: float64 always, float32 where it holds every value."""
    forms = [acc.astype(np.int32), acc.astype(np.float64)]
    if np.abs(acc).max() < 2**24:
        forms.append(acc.astype(np.float32))
    return forms


class TestRequant:
    def test_identity_clamp_only(self):
        acc = np.arange(-4, 300, dtype=np.int32).reshape(1, -1, 1)
        out = requant_codes(acc, 1, 0, 0)
        assert out.min() == 0 and out.max() == 255
        assert out[0, 10, 0] == 6  # -4 + 10

    def test_negative_acc_relu(self):
        acc = np.full((3, 2, 2), -1000, dtype=np.int32)
        out = requant_codes(acc, 5, 3, 0)
        assert (out == 0).all()

    def test_matches_wide_integer_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            c = int(rng.integers(1, 6))
            acc = rng.integers(-(2**30), 2**30, (c, 4, 5)).astype(np.int32)
            scale = rng.integers(1, 2**20, c)
            bias = rng.integers(-(2**24), 2**24, c)
            shift = int(rng.integers(0, 32))
            got = requant_codes(acc, scale, shift, bias)
            want = requant_oracle(acc, scale, shift, bias)
            assert (got.astype(np.int64) == want).all()

    @pytest.mark.parametrize("mult", REQUANT_MULTS)
    def test_full_parameter_range(self, mult):
        # every shift at the int32 extremes of the bias, on accumulators of
        # +-(2^31 - 1) and on those either side of where m * a + b crosses
        # each output step j * 2^s
        bias = np.array(REQUANT_BIASES, dtype=np.int32)
        mults = np.full(len(bias), mult, dtype=np.int32)
        seen = set()
        for shift in range(32):
            rows = []
            for b in REQUANT_BIASES:
                acc = {-INT32_MAX, -1, 0, 1, INT32_MAX}
                for j in OUTPUT_STEPS if mult else ():
                    for t in ((j << shift) - 1, j << shift):
                        a = (t - b) // mult
                        acc |= {min(max(a + d, -INT32_MAX), INT32_MAX) for d in (-1, 0, 1, 2)}
                rows.append(sorted(acc))
            width = max(map(len, rows))
            acc = np.array([r + r[-1:] * (width - len(r)) for r in rows], dtype=np.int64)
            want = naive_requant(acc, mults, shift, bias)
            for form in accumulator_forms(acc):
                got = requant_codes(form, mults, shift, bias)
                assert got.dtype == np.uint8
                assert (got == want).all(), (form.dtype, shift)
            seen |= set(want.ravel().tolist())
        # the steps were reached: each side of the first and of the last code
        assert mult == 0 or {0, 1, 254, 255} <= seen

    @pytest.mark.parametrize("mult", REQUANT_MULTS[1:])
    def test_output_steps_exact(self, mult):
        # m * a + b placed exactly on j * 2^s - 1 and on j * 2^s, the last
        # input of output j - 1 and the first of output j, with a bias that
        # fits int32, for every shift
        for shift in range(32):
            accs, biases, codes = [], [], []
            for j in OUTPUT_STEPS:
                for t, code in (((j << shift) - 1, j - 1), (j << shift, j)):
                    for a in (t // mult - 1, t // mult, t // mult + 1, INT32_MAX, -INT32_MAX):
                        b = t - mult * a
                        if INT32_MIN <= b <= INT32_MAX and abs(a) <= INT32_MAX:
                            accs.append(a)
                            biases.append(b)
                            codes.append(min(max(code, 0), 255))
            assert len(accs) >= 2 * len(OUTPUT_STEPS)
            acc = np.array(accs, dtype=np.int64).reshape(-1, 1)
            mults = np.full(len(accs), mult, dtype=np.int32)
            bias = np.array(biases, dtype=np.int32)
            want = naive_requant(acc, mults, shift, bias)
            assert (want.ravel() == codes).all()
            for form in accumulator_forms(acc):
                assert (requant_codes(form, mults, shift, bias) == want).all(), (form.dtype, shift)

    def test_output_range(self):
        rng = np.random.default_rng(2)
        acc = rng.integers(-(2**31), 2**31 - 1, (4, 8, 8)).astype(np.int32)
        out = requant_codes(acc, 3, 7, 19)
        assert out.dtype == np.uint8
