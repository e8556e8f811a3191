"""Post-training calibration and float-to-integer graph conversion.

Calibration records the maximum each ReLU reaches over a calibration set;
conversion decomposes weights per layer, folds batch-norm and the activation
scale into one per-channel integer affine (multiplier, shift, bias), and
leaves the head as raw 32-bit output with a per-variable scale.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import engine, graph as G, tensorfile
from .errors import (ConversionError, DeadActivationError, SchemaError, as_int, as_str,
                     decoding, finite_real, parse_doc)
from .floatnet import FloatNet
from .qtensor import (
    INT32_MAX,
    QTensor,
    QuantParams,
    act_eps,
    decompose_weights,
    full_weight_codes,
    offset_weight_codes,
    weight_eps,
)

# round(scale * 2^shift) must keep at least this many counts so the fitted
# ratio reproduces the float scale to a relative error of 2^-15.
_MIN_MULT = 2**14 + 1


@dataclass
class CalibrationSet:
    inputs: list

    def __post_init__(self):
        if not self.inputs:
            raise SchemaError("calibration set is empty")


@dataclass
class RequantParams:
    mult: np.ndarray   # int32 per channel
    shift: int
    bias: np.ndarray   # int32 per channel
    alpha: float       # activation clipping bound; output eps = alpha / 255


@dataclass
class QuantizedGraph:
    graph: G.NetGraph
    input_qp: QuantParams
    weights: dict = field(default_factory=dict)   # conv/fc name -> QTensor of full int8 codes
    requant: dict = field(default_factory=dict)   # requant name -> RequantParams
    acc_eps: dict = field(default_factory=dict)   # conv name -> eps_in * eps_w
    out_eps: np.ndarray = None                    # per output variable (4,)


def calibrate(net: FloatNet, calib: CalibrationSet) -> dict:
    """Max ReLU output per activation stage over the calibration set."""
    alphas = {}
    for img in calib.inputs:
        _, collected = engine.infer_float(net, img, collect="relu_max")
        for name, m in collected.items():
            alphas[name] = max(alphas.get(name, 0.0), m)
    dead = [n for n, a in alphas.items() if not a > 0.0]
    if dead:
        raise DeadActivationError(dead)
    return alphas


def fit_requant_scale(scales: np.ndarray, offsets: np.ndarray, layer: str) -> tuple:
    """Pick (mult, shift, bias) integers approximating per-channel affines.

    Starts at shift 15, raises it until the smallest multiplier carries
    enough precision, and lowers it if any parameter would leave 32 bits.
    """
    scales = np.asarray(scales, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if np.any(scales <= 0):
        raise ConversionError(layer, "non-positive requant scale")
    shift = 15
    while shift < 31 and round(scales.min() * (1 << shift)) < _MIN_MULT:
        shift += 1
    while shift >= 0:
        mult = np.round(scales * (1 << shift))
        bias = np.round(offsets * (1 << shift))
        if mult.max() <= INT32_MAX and np.abs(bias).max() <= INT32_MAX:
            break
        shift -= 1
    else:
        raise ConversionError(layer, "requant parameters cannot fit 32-bit at any shift")
    if round(scales.min() * (1 << shift)) < _MIN_MULT:
        raise ConversionError(layer, f"scale {scales.min():.3g} too small for 2^-15 fitting at shift {shift}")
    return mult.astype(np.int64), shift, bias.astype(np.int64)


def convert(net: FloatNet, alphas: dict) -> QuantizedGraph:
    """Transform a calibrated float net into an integer-deployable graph."""
    g = net.graph
    qg = QuantizedGraph(graph=g, input_qp=engine.image_qparams())
    eps_in = qg.input_qp.eps
    # the graph puts each activation stage right after its conv
    for l in g.layers:
        if l.kind in (G.CONV, G.FC):
            w = net.weights[l.name]
            # Extend the range to include zero so the full signed codes stay
            # inside 8 bits even for one-sided weight distributions.
            eps_w = weight_eps(min(float(w.min()), 0.0), max(float(w.max()), 0.0))
            qg.weights[l.name] = full_weight_codes(decompose_weights(w, eps_w)[0])
            acc_eps = qg.acc_eps[l.name] = eps_in * eps_w
            if l.kind == G.FC:
                qg.out_eps = np.full(l.out_ch, acc_eps, dtype=np.float64)
        elif l.kind == G.REQUANT:
            alpha = alphas[l.name]
            eps_out = act_eps(alpha)
            bn = net.bn[l.name]
            sig = bn.sigma()
            scales = bn.gamma / sig * acc_eps / eps_out
            offsets = (bn.beta - bn.gamma * bn.mean / sig) / eps_out
            mult, shift, bias = fit_requant_scale(scales, offsets, l.name)
            qg.requant[l.name] = RequantParams(mult=mult, shift=shift, bias=bias, alpha=alpha)
            eps_in = eps_out
    if qg.out_eps is None:
        raise ConversionError("fc", "graph has no fully connected head")
    return qg


def quantization_error_bound(qg: QuantizedGraph, net: FloatNet) -> np.ndarray:
    """Worst-case |pose_int - pose_float| per output, by interval propagation.

    Tracks, per layer, a bound on the real-valued activation error between
    the two executors: weight rounding contributes eps_w per tap against the
    incoming activation bound, incoming error passes through the dequantized
    weight mass, and each requantization adds its own code granularity plus
    the affine fitting slack.
    """
    g = qg.graph
    delta = 0.0          # current elementwise activation error bound
    x_max = 1.0          # clipping bound of the incoming activation level
    pending = None
    bound = None
    for l in g.layers:
        if l.kind == G.CONV:
            eps_w = qg.weights[l.name].qp.eps
            taps = l.in_ch * l.kernel[0] * l.kernel[1]
            w_deq = np.abs(qg.weights[l.name].dequantize()).reshape(l.out_ch, -1).sum(axis=1).max()
            # |w| <= |w_deq| + eps_w per tap, hence the extra taps * eps_w mass
            pending = eps_w * taps * x_max + (w_deq + taps * eps_w) * delta
        elif l.kind == G.REQUANT:
            bn = net.bn[l.name]
            gain = float(np.max(np.abs(bn.gamma / bn.sigma())))
            rp = qg.requant[l.name]
            eps_out = act_eps(rp.alpha)
            # one code of floor granularity, affine fitting slack over the
            # full code range, and one code of bias rounding
            delta = gain * pending + eps_out * (2.0 + 2.0**-15 * 255.0)
            x_max = rp.alpha
            pending = None
        elif l.kind == G.FC:
            eps_w = qg.weights[l.name].qp.eps
            w_deq = np.abs(qg.weights[l.name].dequantize()).reshape(l.out_ch, -1).sum(axis=1)
            bound = eps_w * l.in_ch * x_max + (w_deq + l.in_ch * eps_w) * delta + qg.out_eps
    return np.asarray(bound, dtype=np.float64)


def qgraph_doc(qg: QuantizedGraph, path: str) -> dict:
    """Write the weight payloads as QTNS files beside `path` and return the
    nanopose-qgraph document that names them."""
    base = os.path.dirname(os.path.abspath(path))
    os.makedirs(base, exist_ok=True)
    doc = {
        "format": "nanopose-qgraph",
        "version": 1,
        "graph": G.to_doc(qg.graph),
        "input_eps": qg.input_qp.eps,
        "out_eps": [float(v) for v in qg.out_eps],
        "weights": {},
        "requant": {name: {"mult": [int(v) for v in rp.mult], "shift": rp.shift,
                           "bias": [int(v) for v in rp.bias], "alpha": rp.alpha}
                    for name, rp in qg.requant.items()},
        "acc_eps": {k: float(v) for k, v in qg.acc_eps.items()},
    }
    stem = os.path.splitext(os.path.basename(path))[0]
    for name, qt in qg.weights.items():
        fn = f"{stem}_{name}.qtns"
        tensorfile.write_qtensor(os.path.join(base, fn), offset_weight_codes(qt))
        doc["weights"][name] = fn
    return doc


def save_qgraph(qg: QuantizedGraph, path: str) -> None:
    """Write the graph JSON with weight payloads as sibling QTNS files."""
    doc = qgraph_doc(qg, path)   # creates the directory
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def _eps(v) -> float:
    if not (finite_real(v) and v > 0):
        raise ValueError(f"expected a scale that is finite and > 0, got {v!r}")
    return float(v)


def _int_vector(v) -> np.ndarray:
    a = np.asarray(v)
    if a.ndim != 1 or a.dtype.kind != "i":
        raise ValueError(f"expected a list of integers, got {v!r}")
    return a.astype(np.int64)


def load_qgraph(path: str) -> QuantizedGraph:
    """Read a qgraph written by save_qgraph, with its QTNS payloads.

    Every conv and fc layer needs weights and an accumulator scale, and every
    activation stage its requant parameters, each sized to its layer.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "rb") as f:
        doc = parse_doc(f.read(), path, "nanopose-qgraph")
    with decoding(path):
        g = G.from_doc(doc["graph"])
        qg = QuantizedGraph(
            graph=g,
            input_qp=QuantParams(eps=_eps(doc["input_eps"]), levels=256, signed=False),
            out_eps=np.array([_eps(v) for v in doc["out_eps"]], dtype=np.float64),
            acc_eps={k: _eps(v) for k, v in doc["acc_eps"].items()},
        )
        weights, requant = doc["weights"], doc["requant"]
        if (set(weights) != {l.name for l in g.layers if l.kind in (G.CONV, G.FC)}
                or set(requant) != {l.name for l in g.layers if l.kind == G.REQUANT}):
            raise SchemaError(f"{path}: weights or requant entries do not match the graph's layers")
        for l in g.layers:
            if l.kind in (G.CONV, G.FC):
                qt = tensorfile.read_qtensor(os.path.join(base, as_str(weights[l.name])))
                shape = (l.out_ch, l.in_ch, *l.kernel) if l.kind == G.CONV else (l.out_ch, l.in_ch)
                if tuple(qt.data.shape) != shape or l.name not in qg.acc_eps:
                    raise SchemaError(f"{path}: {l.name} needs an accumulator scale and "
                                      f"weights of shape {shape}, got {qt.data.shape}")
                qg.weights[l.name] = full_weight_codes(qt)
            if l.kind == G.FC and qg.out_eps.shape != (l.out_ch,):
                raise SchemaError(f"{path}: out_eps shape {qg.out_eps.shape} != head outputs "
                                  f"({l.out_ch},)")
            if l.kind == G.REQUANT:
                d = requant[l.name]
                rp = RequantParams(mult=_int_vector(d["mult"]), shift=as_int(d["shift"]),
                                   bias=_int_vector(d["bias"]), alpha=_eps(d["alpha"]))
                if {rp.mult.size, rp.bias.size} - {1, l.out_ch}:
                    raise SchemaError(f"{path}: requant {l.name} mult/bias lengths {rp.mult.size}/"
                                      f"{rp.bias.size} are neither 1 nor the channel count {l.out_ch}")
                qg.requant[l.name] = rp
    return qg
