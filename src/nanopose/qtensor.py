"""Fixed-point tensor representation and the core quantization arithmetic.

All quantization in this toolkit is uniform and per-layer.  The quantizer
maps a real tensor t to integer codes with a single positive scale eps,

    code(x) = floor(x / eps),  dequant(code) = eps * (zero_base + code)

where zero_base shifts the stored codes so that asymmetric weight ranges
still fit an 8-bit signed integer.  Activations are unsigned with
zero_base 0; accumulators are 32-bit signed.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLayerError, RequantParameterError

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

_DTYPE_FOR_LEVELS = {
    (256, False): np.uint8,
    (128, True): np.int8,
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
    levels:    number of representable levels (256 activations and full
               weight codes, 128 stored weight offsets, 2**32 accumulators).
    signed:    whether stored codes are signed.
    zero_base: integer added to stored codes on dequantization; the minimum
               weight code for decomposed weights, 0 for activations.
    """

    eps: float
    levels: int
    signed: bool
    zero_base: int = 0

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


def act_qparams(alpha: float) -> QuantParams:
    """Unsigned 8-bit activation parameters for a clipping bound alpha."""
    return QuantParams(eps=act_eps(alpha), levels=256, signed=False)


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
        return self.qp.eps * (self.qp.zero_base + self.data.astype(np.float64))


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
    dtype = _DTYPE_FOR_LEVELS.get((qp.levels, qp.signed), np.int64)
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
    w_star_min = int(np.floor(min(float(w.min()), 0.0) / eps_w + FLOOR_GUARD))
    offsets = codes - w_star_min
    if offsets.min() < 0 or offsets.max() > 127:
        raise DegenerateLayerError(
            f"weight codes [{codes.min()}, {codes.max()}] do not span 128 levels "
            f"from base {w_star_min}; eps_w inconsistent with this tensor"
        )
    full = codes
    if full.min() < -128 or full.max() > 127:
        raise DegenerateLayerError(
            f"full weight codes [{full.min()}, {full.max()}] exceed signed 8-bit"
        )
    # Offsets live in [0, 127] and fit an int8 payload; the base point rides
    # in zero_base so dequantize() reconstructs eps_w * (w_star_min + w_star).
    qp = QuantParams(eps=eps_w, levels=128, signed=False, zero_base=w_star_min)
    qt = QTensor(data=offsets.astype(np.int8), qp=qp)
    return qt, w_star_min


def full_weight_codes(w_star: QTensor) -> QTensor:
    """The signed 8-bit codes zero_base + w_star with zero_base 0: the form a
    QuantizedGraph holds and the integer engine runs.  ValueError when they
    leave that range."""
    full = w_star.qp.zero_base + w_star.data.astype(np.int64)
    if full.min() < -128 or full.max() > 127:
        raise ValueError(f"weight codes [{full.min()}, {full.max()}] exceed signed 8-bit")
    return QTensor(full.astype(np.int8), QuantParams(w_star.qp.eps, 256, signed=True))


def offset_weight_codes(qt: QTensor) -> QTensor:
    """Inverse of full_weight_codes, split as decompose_weights splits: 7-bit
    offsets from the base min(codes.min(), 0) in an int8 payload, the base in
    zero_base.  Codes spanning more than 128 levels raise ValueError."""
    codes = full_weight_codes(qt).data.astype(np.int16)
    base = min(int(codes.min()), 0)
    offsets = QTensor(codes - base, QuantParams(qt.qp.eps, 128, signed=False, zero_base=base))
    return QTensor(offsets.data.astype(np.int8), offsets.qp)   # validated before the cast


def requant_vector(values, name: str, channels: int, ndim: int) -> np.ndarray:
    """Validate a 32-bit per-channel (or scalar) requant parameter and return
    it as int64, shaped (channels or 1, 1, ...) to broadcast over ndim axes."""
    arr = np.asarray(values, dtype=np.int64).reshape(-1)
    if arr.size not in (1, channels):
        raise RequantParameterError(f"{name} length {arr.size} != channel count {channels}")
    if arr.min() < INT32_MIN or arr.max() > INT32_MAX:
        raise RequantParameterError(f"{name} does not fit 32-bit")
    return arr.reshape((arr.size,) + (1,) * (ndim - 1))


def requant_codes(acc: np.ndarray, scale_num, shift: int, bias) -> np.ndarray:
    """Fused integer batch-norm plus activation quantization of a
    channels-first accumulator array into uint8 codes.

    out = clamp((scale_num * acc + bias) >> shift, 0, 255) per channel.  The
    shift floors; truncation toward zero would differ only on negative
    values, which the clamp at 0 maps to 0 either way.  scale_num and bias
    are 32-bit per-channel parameters (scalars broadcast); the clamp at 0
    subsumes the ReLU.
    """
    if not 0 <= shift <= 31:
        raise RequantParameterError(f"shift {shift} outside [0, 31]")
    channels, ndim = acc.shape[0], acc.ndim
    scale = requant_vector(scale_num, "scale_num", channels, ndim)
    bias = requant_vector(bias, "bias", channels, ndim)
    # |scale * acc + bias| < 2^62 + 2^31: int64 cannot overflow
    v = np.multiply(acc, scale)
    v += bias
    v >>= shift
    return np.clip(v, 0, 255, out=v).astype(np.uint8)


def int_affine_requant(acc: QTensor, scale_num, shift: int, bias, out_qp: QuantParams = None) -> QTensor:
    """requant_codes on a quantized accumulator.  out_qp, when given,
    carries the scale of the produced activation codes."""
    out = requant_codes(acc.data, scale_num, shift, bias)
    return QTensor(data=out, qp=out_qp or QuantParams(acc.qp.eps, 256, False))


def accumulator_qparams(eps_acc: float) -> QuantParams:
    return QuantParams(eps=eps_acc, levels=2**32, signed=True)
