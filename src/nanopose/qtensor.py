"""Fixed-point tensor representation and the core quantization arithmetic.

All quantization in this toolkit is uniform and per-layer.  The quantizer
maps a real tensor t to integer codes with a single positive scale eps,

    code(x) = floor(x / eps),  dequant(code) = eps * code

Activations are unsigned 8-bit codes, weights signed 8-bit codes and
accumulators 32-bit signed.  Weights are stored on disk as 7-bit offsets
from a base point (split_weight_codes); that form exists only in QTNS files
and in decompose_weights' result.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLayerError

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

# storage dtype of each kind of integer code, by (levels, signed):
# activations, weights, accumulators
DTYPE_FOR_LEVELS = {
    (256, False): np.uint8,
    (256, True): np.int8,
    (2**32, True): np.int32,
}

# floor(x / eps) evaluated in floats can fall one step short when x sits
# exactly on a grid point and the division rounds down; this guard keeps
# grid-resident values (e.g. fine-tuned weights) on their own code
FLOOR_GUARD = 1e-9


@dataclass(frozen=True)
class QuantParams:
    """Scale and integer range of a quantized tensor.

    eps:       real value of one integer step (> 0).
    levels:    number of representable levels (256 activations and weight
               codes, 128 weight offsets, 2**32 accumulators).
    signed:    whether stored codes are signed.
    """

    eps: float
    levels: int
    signed: bool

    def __post_init__(self):
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")

    @property
    def qmin(self) -> int:
        return -(self.levels // 2) if self.signed else 0

    @property
    def qmax(self) -> int:
        return self.levels // 2 - 1 if self.signed else self.levels - 1


@functools.cache
def _dtype_within(dtype, lo: int, hi: int) -> bool:
    """Whether every value of an integer dtype lies in [lo, hi]."""
    if dtype.kind not in "iu":
        return False
    info = np.iinfo(dtype)
    return lo <= info.min and info.max <= hi


@dataclass
class QTensor:
    """Integer tensor payload plus its quantization parameters."""

    data: np.ndarray
    qp: QuantParams

    def __post_init__(self):
        lo, hi = self.qp.qmin, self.qp.qmax
        if _dtype_within(self.data.dtype, lo, hi):
            return
        if self.data.size and (self.data.min() < lo or self.data.max() > hi):
            raise ValueError(
                f"codes [{self.data.min()}, {self.data.max()}] exceed range [{lo}, {hi}]"
            )

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def dequantize(self) -> np.ndarray:
        return self.qp.eps * self.data.astype(np.float64)


def check_finite(x: np.ndarray) -> None:
    """Reject non-finite elements, reporting the first offending flat index."""
    finite = np.isfinite(x)
    if not finite.all():
        idx = int(np.flatnonzero(~finite.ravel())[0])
        raise ValueError(f"non-finite element at flat index {idx}")


def quantize(t: np.ndarray, qp: QuantParams) -> QTensor:
    """Quantize a real tensor: floor(x / eps) saturated to the code range."""
    t = np.asarray(t, dtype=np.float64)
    check_finite(t)
    codes = np.floor(t / qp.eps + FLOOR_GUARD)
    codes = np.clip(codes, qp.qmin, qp.qmax)
    dtype = DTYPE_FOR_LEVELS.get((qp.levels, qp.signed), np.int64)
    return QTensor(data=codes.astype(dtype), qp=qp)


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


def decompose_weights(w: np.ndarray, eps_w: float) -> tuple[QTensor, int]:
    """Split weights into an integer base point plus 7-bit offsets.

    Returns (w_star, w_star_min) where full integer codes are
    w_star_min + w_star = floor(w / eps_w), so eps_w * (w_star_min + w_star)
    reconstructs each weight to within eps_w: the floor puts every code in
    (w/eps_w - 1, w/eps_w + FLOOR_GUARD], and with |code| <= 128 float
    rounding moves that by far less than the guard.  The base point is the
    code of min(w_min, 0); anchoring at zero keeps the full codes inside the
    signed 8-bit range even when the weight distribution is one-sided.
    """
    w = np.asarray(w, dtype=np.float64)
    check_finite(w)
    codes = np.floor(w / eps_w + FLOOR_GUARD).astype(np.int64)
    try:
        offsets, w_star_min = split_weight_codes(codes)
    except ValueError as e:
        raise DegenerateLayerError(f"weight {e}; eps_w inconsistent with this tensor") from None
    if w_star_min < -128:
        raise DegenerateLayerError(
            f"full weight codes [{codes.min()}, {codes.max()}] exceed signed 8-bit"
        )
    return QTensor(offsets, QuantParams(eps=eps_w, levels=128, signed=False)), w_star_min


def requant_codes(acc: np.ndarray, scale_num, shift: int, bias) -> np.ndarray:
    """Fused integer batch-norm plus activation quantization of a
    channels-first accumulator array into uint8 codes.

    out = clamp((scale_num * acc + bias) >> shift, 0, 255) per channel.  The
    shift floors; truncation toward zero would differ only on negative
    values, which the clamp at 0 maps to 0 either way.  scale_num and bias
    are 32-bit per-channel parameters (scalars broadcast); the clamp at 0
    subsumes the ReLU.  scale_num >= 0 makes the output non-decreasing in acc
    per channel, so the affine commutes with max-pooling.  Nothing is
    checked here: `QuantizedGraph.check` holds the parameters to 32 bits, a
    shift in [0, 31] and no negative multiplier.
    """
    per_channel = (-1,) + (1,) * (acc.ndim - 1)
    # |scale * acc + bias| < 2^62 + 2^31: int64 cannot overflow
    v = np.multiply(acc, np.asarray(scale_num, dtype=np.int64).reshape(per_channel))
    v += np.asarray(bias, dtype=np.int64).reshape(per_channel)
    v >>= shift
    np.maximum(v, 0, out=v)
    np.minimum(v, 255, out=v)
    return v.astype(np.uint8)
