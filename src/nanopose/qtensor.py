"""Fixed-point tensor representation and the core quantization arithmetic.

All quantization in this toolkit is uniform and per-layer.  The quantizer
maps a real tensor t to integer codes with a single positive scale eps,

    code(x) = floor(x / eps),  dequant(code) = eps * code

A QTensor is those codes plus eps.  The codes' dtype is their kind and
range: uint8 activations, int8 weights and int32 accumulators.  Weights are
stored on disk as 7-bit offsets from a base point (split_weight_codes); that
form exists only in QTNS files.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLayerError

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

# the dtype of each kind of integer code: activations, weights, accumulators
CODE_DTYPES = (np.dtype(np.uint8), np.dtype(np.int8), np.dtype(np.int32))

# floor(x / eps) evaluated in floats can fall one step short when x sits
# exactly on a grid point and the division rounds down; this guard keeps
# grid-resident values (e.g. fine-tuned weights) on their own code
FLOOR_GUARD = 1e-9


@dataclass(frozen=True)
class QTensor:
    """Integer codes of one of the CODE_DTYPES plus the real value of one
    step, eps (finite and > 0); anything else is a ValueError.  Frozen, so
    it keeps the codes array and scale it was checked with; a
    `QuantizedGraph` also makes its weight arrays read-only."""

    data: np.ndarray
    eps: float

    def __post_init__(self):
        if self.data.dtype not in CODE_DTYPES:
            raise ValueError(f"codes must be uint8, int8 or int32, got {self.data.dtype}")
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def dequantize(self) -> np.ndarray:
        return self.eps * self.data.astype(np.float64)


def check_finite(x: np.ndarray) -> None:
    """Reject non-finite elements, reporting the first offending flat index."""
    finite = np.isfinite(x)
    if not finite.all():
        idx = int(np.flatnonzero(~finite.ravel())[0])
        raise ValueError(f"non-finite element at flat index {idx}")


def quantize(t: np.ndarray, eps: float, dtype=np.uint8) -> QTensor:
    """Quantize a real tensor: floor(x / eps) saturated to the range of the
    code dtype."""
    t = np.asarray(t, dtype=np.float64)
    check_finite(t)
    info = np.iinfo(dtype)
    codes = np.clip(np.floor(t / eps + FLOOR_GUARD), info.min, info.max)
    return QTensor(codes.astype(dtype), eps)


def weight_eps(w_min: float, w_max: float) -> float:
    """Per-layer weight scale: the [w_min, w_max] range split into 127 steps."""
    if not w_max > w_min:
        raise DegenerateLayerError(f"degenerate weight range [{w_min}, {w_max}]")
    return (w_max - w_min) / (2**7 - 1)


def act_eps(alpha: float) -> float:
    """Activation scale for a calibrated clipping bound alpha."""
    if not alpha > 0:
        raise DegenerateLayerError(f"dead activation: alpha={alpha}")
    return alpha / (2**8 - 1)


def split_weight_codes(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Signed weight codes as (int8 offsets in [0, 127], base) with
    codes = base + offsets and base = min(codes.min(), 0): anchoring at zero
    keeps a one-sided distribution's base at 0.  ValueError when the codes
    span more than 128 levels from that base."""
    codes = np.asarray(codes, dtype=np.int64)
    base = int(codes.min(initial=0))
    offsets = codes - base
    if offsets.max(initial=0) > 127:
        raise ValueError(f"codes [{codes.min()}, {codes.max()}] exceed range [{base}, {base + 127}]")
    return offsets.astype(np.int8), base


def weight_codes(w: np.ndarray) -> QTensor:
    """Signed int8 codes of a layer's weights at one per-layer scale.

    eps_w is the weight range extended to include zero, split into 127
    steps; anchoring at zero keeps a one-sided distribution inside signed
    8 bits.  The codes are floor(w / eps_w), so eps_w * code reconstructs
    each weight to within eps_w: the floor puts every code in
    (w/eps_w - 1, w/eps_w + FLOOR_GUARD], and with |code| <= 128 float
    rounding moves that by far less than the guard.  DegenerateLayerError
    when the codes do not fit the 128-level window of split_weight_codes or
    its base falls below -128.
    """
    w = np.asarray(w, dtype=np.float64)
    eps_w = weight_eps(min(float(w.min()), 0.0), max(float(w.max()), 0.0))
    check_finite(w)
    codes = np.floor(w / eps_w + FLOOR_GUARD).astype(np.int64)
    try:
        _, base = split_weight_codes(codes)
    except ValueError as e:
        raise DegenerateLayerError(f"weight {e}") from None
    if base < -128:
        raise DegenerateLayerError(
            f"full weight codes [{codes.min()}, {codes.max()}] exceed signed 8-bit"
        )
    return QTensor(codes.astype(np.int8), eps_w)


def requant_codes(acc: np.ndarray, scale_num, shift: int, bias) -> np.ndarray:
    """Fused integer batch-norm plus activation quantization of a
    channels-first accumulator array into uint8 codes.

    out = clamp(floor((scale_num * acc + bias) / 2^shift), 0, 255) per
    channel.  scale_num and bias are 32-bit per-channel parameters (scalars
    broadcast); the clamp at 0 subsumes the ReLU.  scale_num >= 0 makes the
    output non-decreasing in acc per channel, so the affine commutes with
    max-pooling.  Nothing is checked here: a `QuantizedGraph` is held to
    32-bit parameters, a shift in [0, 31] and no negative multiplier when it
    is built.  acc holds integers of magnitude below 2^31: int32 codes or the
    exact float32 or float64 accumulators `engine._int_gemm` returns.

    The affine runs in float64 as clip(acc * (m 2^-s) + b 2^-s, 0, 255)
    cast to uint8, and is exact.  Scaling by 2^-s is exact (no product leaves
    the normal range), so the value computed is fl(fl(m a) + b) 2^-s.  If
    the true output floor((m a + b) / 2^s) lies in [0, 255], then
    0 <= m a + b < 256 * 2^31 = 2^39 and |m a| < 2^39 + 2^31, so m a and the
    sum are exact in float64.  If it lies outside, rounding is monotone and
    0 and 256 * 2^s are floats, so while |m a| < 2^53 a negative sum stays
    negative and one >= 256 * 2^s stays there; if |m a| >= 2^53, the sum
    keeps m a's sign and a magnitude >= 2^53 - 2^31 >= 2^52, which scaled by
    2^-s >= 2^-31 is >= 2^21: either way the clip lands on the same bound.
    On the clipped value in [0, 255], truncation to uint8 is floor.
    """
    step = 2.0 ** -shift
    v = acc.reshape(len(acc), -1).astype(np.float64)
    v *= np.multiply(scale_num, step).reshape(-1, 1)
    v += np.multiply(bias, step).reshape(-1, 1)
    np.clip(v, 0, 255, out=v)
    return v.astype(np.uint8).reshape(acc.shape)
