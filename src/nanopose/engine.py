"""Bit-exact integer inference executor and the float reference executor.

The integer path runs convolutions over 8-bit activation codes and signed
8-bit weight codes with 32-bit accumulators, requantizes through the fused
per-channel integer affine, and leaves the head output as raw 32-bit fixed
point.

Each convolution is im2col plus one GEMM, and the head is one matrix-vector
product.  With uint8 activations and int8 weights both run in float64
through BLAS and are still exact: every product and partial sum is an
integer with |acc| <= 255 * 128 * K over K = in_ch * kh * kw taps, which
stays below 2^53 for any K under 2.7e11 (the reference variants reach
K = 1152 in a conv and 7680 in the head, so |acc| < 2^28).  The bound
follows from the operand dtypes, so it costs nothing per call; operands
whose dtypes could exceed it are multiplied in int64 instead.  Every
accumulator is still checked against the int32 range.

infer_int runs a QuantizedGraph as it is held: the graph keeps each
layer's weights as full signed int8 codes in layer shape (the on-disk
offset form is decoded by quantizer.load_qgraph), and the requant
parameters are validated on every call.  Nothing is cached between calls,
so an edit to a weight code or a requant parameter takes effect on the
next frame.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import graph as G
from .errors import AccumulatorOverflowError, SchemaError
from .floatnet import FloatNet
from .qtensor import (
    QTensor,
    QuantParams,
    accumulator_qparams,
    act_qparams,
    requant_codes,
)

IMAGE_EPS = 1.0 / 255.0

# float64 holds every integer of magnitude below 2**53 exactly
_F64_EXACT = 2**53


def image_qparams() -> QuantParams:
    return QuantParams(eps=IMAGE_EPS, levels=256, signed=False)


@dataclass
class InferenceResult:
    raw: np.ndarray          # four int32 fixed-point values
    pose: np.ndarray         # dequantized (x, y, z, theta), meters/radians
    activations: dict = None  # optional per-layer QTensor snapshots


def _acc_range_check(acc: np.ndarray, limit_bits: int):
    lo, hi = -(2 ** (limit_bits - 1)), 2 ** (limit_bits - 1) - 1
    if acc.size:
        amin, amax = int(acc.min()), int(acc.max())
        if amin < lo or amax > hi:
            raise AccumulatorOverflowError(
                f"accumulator range [{amin}, {amax}] exceeds {limit_bits}-bit"
            )


@functools.cache
def _gemm_dtype(x_dtype, w_dtype, taps: int):
    """float64 when every partial sum of `taps` products is an exact integer
    there, given the operand dtypes' ranges; int64 otherwise."""
    bound = taps
    for dt in (x_dtype, w_dtype):
        info = np.iinfo(dt)
        bound *= max(-int(info.min), int(info.max))
    return np.float64 if bound < _F64_EXACT else np.int64


def conv2d_int(x: np.ndarray, w_codes: np.ndarray, stride, padding,
               acc_bits: int = 32) -> np.ndarray:
    """Integer convolution as im2col plus one GEMM; returns int32
    accumulators (C_out, H, W)."""
    c, h, wdt = x.shape
    oc, ic, kh, kw = w_codes.shape
    sh, sw = stride
    ph, pw = padding
    oh, ow = G.conv_out_hw(h, wdt, (kh, kw), stride, padding)
    dtype = _gemm_dtype(x.dtype, w_codes.dtype, ic * kh * kw)
    padded = np.zeros((c, h + 2 * ph, wdt + 2 * pw), dtype=dtype)
    padded[:, ph : ph + h, pw : pw + wdt] = x
    # one strided copy per kernel tap; rows ordered (c, u, v) like the weights
    cols = np.empty((c, kh, kw, oh, ow), dtype=dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = padded[:, u : u + sh * (oh - 1) + 1 : sh, v : v + sw * (ow - 1) + 1 : sw]
    acc = w_codes.reshape(oc, -1).astype(dtype) @ cols.reshape(c * kh * kw, oh * ow)
    _acc_range_check(acc, acc_bits)
    return acc.astype(np.int32).reshape(oc, oh, ow)


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 / stride-2 max-pool over (C, H, W); an odd last row or column is dropped."""
    h2, w2 = x.shape[1] - x.shape[1] % 2, x.shape[2] - x.shape[2] % 2
    rows = np.maximum(x[:, 0:h2:2, :w2], x[:, 1:h2:2, :w2])
    return np.maximum(rows[:, :, 0::2], rows[:, :, 1::2])


def _weight_codes(qg, layer: G.LayerSpec) -> np.ndarray:
    qt = qg.weights[layer.name]
    if qt.qp.zero_base:
        raise SchemaError(f"{layer.name}: weights carry zero_base {qt.qp.zero_base}; the "
                          f"integer engine runs full codes with zero_base 0")
    return qt.data


def infer_int(qg, image: QTensor, record_activations: bool = False) -> InferenceResult:
    """Run the quantized graph entirely in the integer domain."""
    g = qg.graph
    if tuple(image.shape) != tuple(g.input_shape):
        raise SchemaError(f"image shape {image.shape} != graph input {tuple(g.input_shape)}")
    acts = {} if record_activations else None
    x = image.data
    qp = image.qp
    raw = None
    for l in g.layers:
        if l.kind == G.CONV:
            x = conv2d_int(x, _weight_codes(qg, l), l.stride, l.padding)
        elif l.kind == G.REQUANT:
            rp = qg.requant[l.name]
            x = requant_codes(x, rp.mult, rp.shift, rp.bias)
        elif l.kind == G.POOL:
            x = maxpool2x2(x)
        elif l.kind == G.FC:
            codes = _weight_codes(qg, l)
            flat = x.reshape(-1)
            dtype = _gemm_dtype(flat.dtype, codes.dtype, l.in_ch)
            acc = codes.astype(dtype) @ flat.astype(dtype)
            _acc_range_check(acc, 32)
            x = raw = acc.astype(np.int32)
        else:
            continue
        if record_activations:
            # scales are built only when recorded: per frame they are measurable
            if l.kind == G.CONV:
                qp = accumulator_qparams(qg.acc_eps[l.name])
            elif l.kind == G.REQUANT:
                qp = act_qparams(qg.requant[l.name].alpha)
            elif l.kind == G.POOL:
                qp = QuantParams(qp.eps, 256, False)
            else:
                qp = accumulator_qparams(float(qg.out_eps[0]))
            dtype = np.int32 if l.kind in (G.CONV, G.FC) else np.uint8
            acts[l.name] = QTensor(x.astype(dtype), qp)
    if raw is None:
        raise SchemaError("graph has no fully connected head")
    pose = qg.out_eps * raw.astype(np.float64)
    return InferenceResult(raw=raw, pose=pose, activations=acts)


def conv2d_float(x: np.ndarray, w: np.ndarray, stride, padding) -> np.ndarray:
    c, h, wdt = x.shape
    oc, ic, kh, kw = w.shape
    ph, pw = padding
    oh, ow = G.conv_out_hw(h, wdt, (kh, kw), stride, padding)
    padded = np.zeros((c, h + 2 * ph, wdt + 2 * pw), dtype=np.float64)
    padded[:, ph : ph + h, pw : pw + wdt] = x
    win = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    win = win[:, :: stride[0], :: stride[1]]
    patches = win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, -1)
    return (w.reshape(oc, -1) @ patches.T).reshape(oc, oh, ow)


def infer_float(net: FloatNet, image: np.ndarray, collect: str = "none"):
    """Float reference forward pass with the same layer semantics.

    collect="relu_max" returns (pose, {requant layer -> max ReLU output});
    collect="acts" returns (pose, {layer -> activation array});
    collect="prebn" returns (pose, {requant layer -> pre-normalization conv output}).
    """
    g = net.graph
    if tuple(image.shape) != tuple(g.input_shape):
        raise SchemaError(f"image shape {image.shape} != graph input {tuple(g.input_shape)}")
    x = np.asarray(image, dtype=np.float64)
    collected = {}
    pose = None
    for l in g.layers:
        if l.kind == G.CONV:
            x = conv2d_float(x, net.weights[l.name], l.stride, l.padding)
        elif l.kind == G.REQUANT:
            if collect == "prebn":
                collected[l.name] = np.array(x)
            bn = net.bn[l.name]
            sig = bn.sigma()
            x = bn.gamma[:, None, None] * (x - bn.mean[:, None, None]) / sig[:, None, None]
            x = np.maximum(x + bn.beta[:, None, None], 0.0)
            if collect == "relu_max":
                collected[l.name] = float(x.max())
        elif l.kind == G.POOL:
            x = maxpool2x2(x)
        elif l.kind == G.DROPOUT:
            continue
        elif l.kind == G.FC:
            pose = net.weights[l.name] @ x.reshape(-1)
            x = pose
        if collect == "acts":
            collected[l.name] = np.array(x)
    if pose is None:
        raise SchemaError("graph has no fully connected head")
    return (pose, collected) if collect != "none" else (pose, None)


def downscale2x(img: np.ndarray) -> np.ndarray:
    """Exact 2x bilinear reduction of a u8 image.

    Sampling at pixel centers makes each output the mean of a 2x2 block;
    with 8.8 fixed-point weights (64/256 each) that is
    (a + b + c + d + 128 * 4/256) >> 2, identical on every platform.
    """
    h, w = img.shape
    v = img[: h - h % 2, : w - w % 2].astype(np.uint32)
    s = v[0::2, 0::2] + v[0::2, 1::2] + v[1::2, 0::2] + v[1::2, 1::2]
    return ((s + 2) >> 2).astype(np.uint8)


def crop_center(frame: np.ndarray, target: tuple) -> QTensor:
    """Center-crop a camera frame to the network input, as a u8 QTensor.

    When the doubled target still fits the frame (the half-resolution
    input), the crop keeps the full-size field of view and is then reduced
    2x with exact fixed-point bilinear weights.
    """
    th, tw = target
    h, w = frame.shape
    if th > h or tw > w:
        raise SchemaError(f"target {target} larger than frame {frame.shape}")
    if 2 * th <= h and 2 * tw <= w:
        ch, cw = 2 * th, 2 * tw
        r0, c0 = (h - ch) // 2, (w - cw) // 2
        img = downscale2x(frame[r0 : r0 + ch, c0 : c0 + cw])
    else:
        r0, c0 = (h - th) // 2, (w - tw) // 2
        img = frame[r0 : r0 + th, c0 : c0 + tw]
    return QTensor(img.reshape(1, th, tw).astype(np.uint8), image_qparams())
