"""Bit-exact integer inference executor and the float reference executor.

The integer path runs convolutions over 8-bit activation codes and signed
8-bit weight codes, keeps each layer's exact accumulators in the float form
its GEMM computes them in, requantizes them through the fused per-channel
integer affine, and leaves the head output as raw 32-bit fixed point.

Each convolution is im2col plus a GEMM, and the head is a matrix-vector
product; both go through `_int_gemm`.  `conv2d_int` copies its uint8 input
once into a zero-padded float32 buffer, reads every kernel tap through one
read-only strided view (c, kh, kw, oh, ow) of it, and one reshape copy of
that view is the (K, N) float32 column matrix, rows in the (c, u, v) order
of the weights; the GEMM reads those columns as they are.  With uint8
activations and int8 weights the GEMM runs through BLAS in float32 and is
still exact: a float32 holds every integer below 2^24, and a sum of at most
514 taps keeps every product and partial sum at |.| <= 255 * 128 * 514 <
2^24, whatever order BLAS sums in.  So the K = in_ch * kh * kw taps are cut
into ceil(K / 514) contiguous blocks of near-equal size (K = 576 ->
2 x 288, 1152 -> 3 x 384, the 1920-input head -> 4 x 480), each block is
one float32 GEMM, and the blocks are added in float64, exact below 2^53.
The accumulators stay in that form: float32 for K <= 514 and float64 for
a longer K, every value an integer.  The blocks follow from K alone;
`_int_gemm` takes only int8 weights and uint8 codes (or the float32
columns holding them).  The same operands bound every accumulator by
|acc| <= 255 * 128 * K, inside int32 for K <= 65,793, so the accumulators
are scanned against the int32 range only for a longer K;
`QuantizedGraph.check` holds a graph's longer layers to the tighter bound
255 * max sum|w| before any frame runs.

`requant_codes` maps the float accumulators to uint8 codes in float64,
exactly (its docstring has the argument), so no accumulator is cast to an
integer type on the way.  int32 is left in two places: the head's raw
output and, with record_activations, the snapshot of each conv's
accumulators.

A requant layer followed directly by the 2x2 max-pool (conv1 -> act1 ->
pool1, the largest activation) is applied after the pool: infer_int pools
the float32 accumulators and requantizes a quarter of them.  That is exact
because clamp(floor((m * a + b) / 2^s), 0, 255) is non-decreasing in a for
every channel with m >= 0, so it commutes with max; `convert` never makes a
negative multiplier, and `QuantizedGraph.check` rejects one.

infer_int runs a QuantizedGraph as it is held: signed int8 weight codes
in layer shape and int32 requant vectors.  A QuantizedGraph is checked once
when built (`QuantizedGraph.check`, run by its constructor) and cannot be
edited: its graph, weight codes and requant parameters are frozen and its
arrays read-only.  So a frame does no contract check, and infer_int refuses
any other object.  Every other scale follows from the weight scales and
requant alphas (`scale_chain`, walked per call); nothing is cached.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import graph as G, quantizer   # quantizer imports this module: attributes read at call time
from .errors import AccumulatorOverflowError, SchemaError
from .floatnet import FloatNet
from .qtensor import INT32_MAX, INT32_MIN, QTensor, act_eps, requant_codes

IMAGE_EPS = 1.0 / 255.0

# a float32 holds every integer of magnitude below 2^24 exactly, so a block of
# this many uint8 x int8 products (each at most 255 * 128) sums exactly
_BLOCK_TAPS = (2**24 - 1) // (255 * 128)   # 514
# |acc| <= 255 * 128 * K for the same operands, so int32 holds every
# accumulator of at most this many taps and only a longer K is range-checked
_INT32_SAFE_TAPS = INT32_MAX // (255 * 128)   # 65,793


def scale_chain(g: G.NetGraph, weight_eps, alphas) -> dict:
    """The real value of one integer step of every layer's output, by name.
    The image is IMAGE_EPS; a conv or fc accumulates at its input scale
    times its weight scale `weight_eps[name]`; a requant outputs at
    `act_eps(alphas[name])`; pool and dropout keep their input scale."""
    eps = IMAGE_EPS
    chain = {}
    for l in g.layers:
        if l.kind in (G.CONV, G.FC):
            eps = eps * weight_eps[l.name]
        elif l.kind == G.REQUANT:
            eps = act_eps(alphas[l.name])
        chain[l.name] = eps
    return chain


@dataclass
class InferenceResult:
    raw: np.ndarray          # four int32 fixed-point values
    pose: np.ndarray         # dequantized (x, y, z, theta), meters/radians
    activations: dict = None  # optional per-layer QTensor snapshots


@functools.cache
def _k_blocks(taps: int) -> tuple:
    """Edges of the ceil(taps / 514) contiguous K blocks of near-equal size."""
    n = max(1, -(-taps // _BLOCK_TAPS))
    return tuple(taps * i // n for i in range(n + 1))


def _int_gemm(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact accumulators of int8 weight codes w (M, K) @ uint8 codes x
    (K, N), one float32 GEMM per K block, as integer-valued floats: float32
    when K fits one block, float64 when the blocks are summed; raises if
    any leaves int32.  x may also be float32 columns that hold uint8 code
    values, as `conv2d_int` builds them; they are used without a copy."""
    if w.dtype != np.int8 or x.dtype not in (np.uint8, np.float32):
        raise TypeError(f"_int_gemm runs int8 weights on uint8 codes, got {w.dtype} and {x.dtype}")
    taps = w.shape[1]
    edges = _k_blocks(taps)
    w, x = w.astype(np.float32), x.astype(np.float32, copy=False)
    if len(edges) == 2:
        acc = w @ x
    else:
        acc = np.zeros((w.shape[0], x.shape[1]))
        for k0, k1 in zip(edges, edges[1:]):
            acc += w[:, k0:k1] @ x[k0:k1]
    if taps > _INT32_SAFE_TAPS and acc.size:
        amin, amax = int(acc.min()), int(acc.max())
        if amin < INT32_MIN or amax > INT32_MAX:
            raise AccumulatorOverflowError(f"accumulator range [{amin}, {amax}] exceeds 32-bit")
    return acc


def conv2d_int(x: np.ndarray, w_codes: np.ndarray, stride, padding) -> np.ndarray:
    """Integer convolution of uint8 codes x (C, H, W) as im2col plus one
    blocked GEMM; returns the exact accumulators (C_out, H, W) in `_int_gemm`'s
    float form."""
    if x.dtype != np.uint8:
        raise TypeError(f"conv2d_int runs on uint8 codes, got {x.dtype}")
    c, h, wdt = x.shape
    oc, ic, kh, kw = w_codes.shape
    sh, sw = stride
    ph, pw = padding
    oh, ow = G.conv_out_hw(h, wdt, (kh, kw), stride, padding)
    padded = np.zeros((c, h + 2 * ph, wdt + 2 * pw), dtype=np.float32)
    padded[:, ph : ph + h, pw : pw + wdt] = x
    # every kernel tap (c, u, v) of every output pixel, read in place; the
    # one reshape copy orders the rows (c, u, v) like the weights
    s0, s1, s2 = padded.strides
    taps = np.ndarray((c, kh, kw, oh, ow), np.float32, buffer=padded,
                      strides=(s0, s1, s2, s1 * sh, s2 * sw))
    taps.flags.writeable = False
    acc = _int_gemm(w_codes.reshape(oc, -1), taps.reshape(c * kh * kw, oh * ow))
    return acc.reshape(oc, oh, ow)


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 / stride-2 max-pool over (C, H, W); an odd last row or column is dropped."""
    h2, w2 = x.shape[1] - x.shape[1] % 2, x.shape[2] - x.shape[2] % 2
    rows = np.maximum(x[:, 0:h2:2, :w2], x[:, 1:h2:2, :w2])
    return np.maximum(rows[:, :, 0::2], rows[:, :, 1::2])


def _requant(x: np.ndarray, rp) -> np.ndarray:
    return requant_codes(x, rp.mult, rp.shift, rp.bias)


def infer_int(qg, image: QTensor, record_activations: bool = False) -> InferenceResult:
    """Run a QuantizedGraph entirely in the integer domain on a uint8 image
    of the graph's input.  The graph was checked once, when it was built,
    and cannot have been edited since, so nothing of it is checked here;
    any object that is not a QuantizedGraph is a TypeError."""
    if not isinstance(qg, quantizer.QuantizedGraph):
        raise TypeError(f"infer_int runs a QuantizedGraph, got {type(qg).__name__}")
    g = qg.graph
    if image.shape != g.input_shape:
        raise SchemaError(f"image shape {image.shape} != graph input {g.input_shape}")
    if image.eps != IMAGE_EPS or image.data.dtype != np.uint8:
        raise SchemaError(f"image of {image.data.dtype} codes at eps {image.eps} != "
                          f"uint8 codes at eps {IMAGE_EPS}")
    scales = qg.scales()
    acts = {} if record_activations else None
    x = image.data
    pooled = None   # requant parameters applied after the max-pool that follows
    for l, nxt in zip(g.layers, [*g.layers[1:], None]):
        if l.kind == G.CONV:
            x = conv2d_int(x, qg.weights[l.name].data, l.stride, l.padding)
        elif l.kind == G.REQUANT:
            rp = qg.requant[l.name]
            if nxt is not None and nxt.kind == G.POOL:
                # monotone requant commutes with max: pool the accumulator first
                pooled = rp
                if record_activations:
                    acts[l.name] = QTensor(_requant(x, rp), scales[l.name])
                continue
            x = _requant(x, rp)
        elif l.kind == G.POOL:
            x = maxpool2x2(x)
            if pooled is not None:
                x, pooled = _requant(x, pooled), None
        elif l.kind == G.FC:
            x = raw = _int_gemm(qg.weights[l.name].data, x.reshape(-1, 1)).reshape(-1).astype(np.int32)
        else:
            continue
        if record_activations:
            # a conv's float accumulators are snapshot as the int32 codes they hold
            acts[l.name] = QTensor(x.astype(np.int32) if l.kind == G.CONV else x, scales[l.name])
    return InferenceResult(raw=raw, pose=scales[g.head().name] * raw.astype(np.float64),
                           activations=acts)


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


def infer_float(net: FloatNet, image: np.ndarray):
    """Float reference forward pass with the same layer semantics.

    Returns (pose, {layer name -> its output}); the outputs are the arrays
    the pass computed, not copies, and a dropout's is its input."""
    g = net.graph
    if image.shape != g.input_shape:
        raise SchemaError(f"image shape {image.shape} != graph input {g.input_shape}")
    head = g.head()   # SchemaError for a graph without one
    x = np.asarray(image, dtype=np.float64)
    outputs = {}
    for l in g.layers:
        if l.kind == G.CONV:
            x = conv2d_float(x, net.weights[l.name], l.stride, l.padding)
        elif l.kind == G.REQUANT:
            bn = net.bn[l.name]
            sig = bn.sigma()
            x = bn.gamma[:, None, None] * (x - bn.mean[:, None, None]) / sig[:, None, None]
            x = np.maximum(x + bn.beta[:, None, None], 0.0)
        elif l.kind == G.POOL:
            x = maxpool2x2(x)
        elif l.kind == G.FC:
            x = net.weights[l.name] @ x.reshape(-1)
        outputs[l.name] = x
    return outputs[head.name], outputs


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
    """Center-crop a 2-D uint8 camera frame to the network input, as a u8
    QTensor that owns its pixels; any other frame is a SchemaError.

    When the doubled target still fits the frame (the half-resolution
    input), the crop keeps the full-size field of view and is then reduced
    2x with exact fixed-point bilinear weights.
    """
    if not isinstance(frame, np.ndarray) or frame.ndim != 2 or frame.dtype != np.uint8:
        got = f"{frame.dtype} {frame.shape}" if isinstance(frame, np.ndarray) else type(frame).__name__
        raise SchemaError(f"frame must be a 2-D uint8 array, got {got}")
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
    return QTensor(img.reshape(1, th, tw).copy(), IMAGE_EPS)
