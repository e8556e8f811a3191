"""Post-training calibration and float-to-integer graph conversion.

Calibration records the maximum each ReLU reaches over a calibration set;
conversion floors each layer's weights to signed int8 codes at one scale
(`qtensor.weight_codes`), folds batch-norm and the activation scale into one
per-channel integer affine (multiplier, shift, bias), and leaves the head as
raw 32-bit output with a per-variable scale.
"""

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import engine, graph as G, tensorfile
from .errors import (ConversionError, DeadActivationError, RequantParameterError, SchemaError,
                     as_str, decoding, finite_real, parse_doc)
from .floatnet import FloatNet
from .qtensor import INT32_MAX, INT32_MIN, QTensor, weight_codes

# round(scale * 2^shift) must keep at least this many counts so the fitted
# ratio reproduces the float scale to a relative error of 2^-15.
_MIN_MULT = 2**14 + 1


@dataclass
class CalibrationSet:
    inputs: list

    def __post_init__(self):
        if not self.inputs:
            raise SchemaError("calibration set is empty")


@dataclass(frozen=True)
class RequantParams:
    mult: np.ndarray   # int32 per channel
    shift: int
    bias: np.ndarray   # int32 per channel
    alpha: float       # activation clipping bound; output eps = alpha / 255


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, which the caller has just made, locked against writes."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuantizedGraph:
    """An integer-deployable graph: weight codes with their scales and requant
    parameters with their alphas.  `scales` derives every other scale.

    Checked once when built: the constructor holds its fields to `check`
    and keeps its own read-only copies, so a quantized graph cannot be
    edited and every frame `engine.infer_int` runs meets the contract.
    `weights` and `requant` are read-only mappings of read-only arrays, the
    requant vectors narrowed to int32; a changed graph is a new one, built
    for example with `dataclasses.replace`."""

    graph: G.NetGraph
    weights: Mapping   # conv/fc name -> QTensor of signed int8 codes
    requant: Mapping   # requant name -> RequantParams

    def __post_init__(self):
        self.check()
        # inside int32 now, so narrowing the requant vectors cannot wrap
        object.__setattr__(self, "weights", MappingProxyType(
            {k: QTensor(_read_only(qt.data.copy()), qt.eps) for k, qt in self.weights.items()}))
        object.__setattr__(self, "requant", MappingProxyType(
            {k: RequantParams(mult=_read_only(rp.mult.astype(np.int32)), shift=rp.shift,
                              bias=_read_only(rp.bias.astype(np.int32)), alpha=rp.alpha)
             for k, rp in self.requant.items()}))

    def scales(self) -> dict:
        """Output scale of every layer, by name (`engine.scale_chain`)."""
        return engine.scale_chain(self.graph, {k: qt.eps for k, qt in self.weights.items()},
                                  {k: rp.alpha for k, rp in self.requant.items()})

    def check(self) -> None:
        """The contract `engine.infer_int` is bit-exact under, or SchemaError;
        the constructor runs it, once, before keeping any field.

        The graph is a NetGraph, which cannot change either, and ends in a
        fully connected head; every conv and fc layer, and no other name,
        holds int8 codes in its layer's shape; every activation stage, and
        no other name, holds 1-D integer `mult` and `bias` of length 1 or
        its channel count inside int32, no negative multiplier, an int
        `shift` in [0, 31] and a finite `alpha` > 0.  A requant field that
        breaks it raises RequantParameterError.  A conv or fc layer of more
        than `engine._INT32_SAFE_TAPS` taps also needs 255 * (max over
        output channels of sum|w|) inside int32, so every accumulator fits
        before a frame runs.
        """
        if not isinstance(self.graph, G.NetGraph):
            raise SchemaError(f"a quantized graph runs a NetGraph, got {type(self.graph).__name__}")
        layers = self.graph.layers
        self.graph.head()   # SchemaError for a graph without one
        if (self.weights.keys() != {l.name for l in layers if l.kind in (G.CONV, G.FC)}
                or self.requant.keys() != {l.name for l in layers if l.kind == G.REQUANT}):
            raise SchemaError("weights or requant entries do not match the graph's layers")
        for l in layers:
            if l.kind in (G.CONV, G.FC):
                qt = self.weights[l.name]
                shape = l.weight_shape()
                if qt.data.dtype != np.int8 or qt.data.shape != shape:
                    raise SchemaError(f"{l.name} needs an i8 weight payload of shape {shape}, "
                                      f"got {qt.data.dtype} {qt.data.shape}")
                # 255 * max_o sum|w[o]| bounds every accumulator and partial
                # sum; up to the engine's safe tap count it cannot leave int32
                if l.taps() > engine._INT32_SAFE_TAPS:
                    bound = 255 * int(np.abs(qt.data.reshape(l.out_ch, -1).astype(np.int64))
                                      .sum(axis=1).max())
                    if bound > INT32_MAX:
                        raise SchemaError(f"{l.name} accumulators reach 255 * max sum|w| = "
                                          f"{bound}, beyond 32-bit")
            elif l.kind == G.REQUANT:
                rp = self.requant[l.name]
                for key, v in (("mult", rp.mult), ("bias", rp.bias)):
                    if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind == "i"
                            and v.size in (1, l.out_ch)):
                        raise RequantParameterError(
                            f"requant {l.name} {key} must be 1-D integers of length 1 "
                            f"or the channel count {l.out_ch}, got {type(v).__name__} "
                            f"{getattr(v, 'dtype', '')} {getattr(v, 'shape', '')}")
                    if key == "mult" and (lo := v.min()) < 0:
                        raise RequantParameterError(f"requant {l.name} has a negative "
                                                    f"multiplier {int(lo)}")
                    # an integer dtype of at most 32 bits cannot leave int32
                    if v.dtype.itemsize > 4 and (v.min() < INT32_MIN or v.max() > INT32_MAX):
                        raise RequantParameterError(f"requant {l.name} {key} does not fit 32-bit")
                if type(rp.shift) is not int or not 0 <= rp.shift <= 31:
                    raise RequantParameterError(
                        f"requant {l.name} shift {rp.shift!r} is not an int in [0, 31]")
                if not (finite_real(rp.alpha) and rp.alpha > 0):
                    raise RequantParameterError(
                        f"requant {l.name} alpha {rp.alpha!r} is not finite and > 0")


def calibrate(net: FloatNet, calib: CalibrationSet) -> dict:
    """Max ReLU output per activation stage over the calibration set."""
    alphas = {}
    stages = [l.name for l in net.graph.layers if l.kind == G.REQUANT]
    for img in calib.inputs:
        _, outputs = engine.infer_float(net, img)
        for name in stages:
            alphas[name] = max(alphas.get(name, 0.0), float(outputs[name].max()))
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
    return mult.astype(np.int32), shift, bias.astype(np.int32)


def convert(net: FloatNet, alphas: dict) -> QuantizedGraph:
    """Transform a calibrated float net into an integer-deployable graph."""
    g = net.graph
    weights = {l.name: weight_codes(net.weights[l.name]) for l in g.layers
               if l.kind in (G.CONV, G.FC)}
    eps = engine.scale_chain(g, {k: qt.eps for k, qt in weights.items()}, alphas)
    requant = {}
    # the graph puts each activation stage right after its conv
    for conv, l in zip(g.layers, g.layers[1:]):
        if l.kind == G.REQUANT:
            bn = net.bn[l.name]
            sig = bn.sigma()
            scales = bn.gamma / sig * eps[conv.name] / eps[l.name]
            offsets = (bn.beta - bn.gamma * bn.mean / sig) / eps[l.name]
            mult, shift, bias = fit_requant_scale(scales, offsets, l.name)
            requant[l.name] = RequantParams(mult=mult, shift=shift, bias=bias, alpha=alphas[l.name])
    return QuantizedGraph(graph=g, weights=weights, requant=requant)


def quantization_error_bound(qg: QuantizedGraph, net: FloatNet) -> np.ndarray:
    """Worst-case |pose_int - pose_float| per output, by interval propagation.

    Tracks, per layer, a bound on the real-valued activation error between
    the two executors: weight rounding contributes eps_w per tap against the
    incoming activation bound, incoming error passes through the dequantized
    weight mass, and each requantization adds its own code granularity plus
    the affine fitting slack.

    The bound is sound but informative only for shallow graphs, such as
    two-block chains.  The worst-case error passes the clip bound alpha by
    the second activation stage and grows 25-40x per conv, so on the
    eight-layer reference variants (`realistic_random_net(seed=3)`, 8
    calibration frames) the largest bound is 1.3e11 to 5.5e12 m per pose
    output, where the measured max |pose_int - pose_float| over 20 random
    frames is 0.16 to 0.38 m.
    """
    g = qg.graph
    eps = qg.scales()
    delta = 0.0          # current elementwise activation error bound
    x_max = 1.0          # clipping bound of the incoming activation level
    pending = None
    bound = None
    for l in g.layers:
        if l.kind == G.CONV:
            eps_w = qg.weights[l.name].eps
            taps = l.taps()
            w_deq = np.abs(qg.weights[l.name].dequantize()).reshape(l.out_ch, -1).sum(axis=1).max()
            # |w| <= |w_deq| + eps_w per tap, hence the extra taps * eps_w mass
            pending = eps_w * taps * x_max + (w_deq + taps * eps_w) * delta
        elif l.kind == G.REQUANT:
            bn = net.bn[l.name]
            gain = float(np.max(np.abs(bn.gamma / bn.sigma())))
            # one code of floor granularity, affine fitting slack over the
            # full code range, and one code of bias rounding
            delta = gain * pending + eps[l.name] * (2.0 + 2.0**-15 * 255.0)
            x_max = qg.requant[l.name].alpha
            pending = None
        elif l.kind == G.FC:
            eps_w = qg.weights[l.name].eps
            taps = l.taps()
            w_deq = np.abs(qg.weights[l.name].dequantize()).reshape(l.out_ch, -1).sum(axis=1)
            bound = eps_w * taps * x_max + (w_deq + taps * eps_w) * delta + eps[l.name]
    return np.asarray(bound, dtype=np.float64)


def _scale_copies(qg: QuantizedGraph) -> dict:
    """The scale chain as a qgraph document records it: the image scale, the
    head's scale once per output and every conv and fc accumulator scale."""
    eps = qg.scales()
    head = qg.graph.head()
    return {
        "input_eps": engine.IMAGE_EPS,
        "out_eps": [float(eps[head.name])] * head.out_ch,
        "acc_eps": {l.name: float(eps[l.name]) for l in qg.graph.layers
                    if l.kind in (G.CONV, G.FC)},
    }


def qgraph_doc(qg: QuantizedGraph, path: str) -> dict:
    """Write the weight payloads as QTNS files beside `path` and return the
    nanopose-qgraph document that names them.  A QuantizedGraph met
    `QuantizedGraph.check` when it was built, so nothing is checked here."""
    scales = _scale_copies(qg)
    base = os.path.dirname(os.path.abspath(path))
    os.makedirs(base, exist_ok=True)
    doc = {
        "format": "nanopose-qgraph",
        "version": 1,
        "graph": G.to_doc(qg.graph),
        "input_eps": scales["input_eps"],
        "out_eps": scales["out_eps"],
        "weights": {},
        "requant": {name: {"mult": [int(v) for v in rp.mult], "shift": rp.shift,
                           "bias": [int(v) for v in rp.bias], "alpha": rp.alpha}
                    for name, rp in qg.requant.items()},
        "acc_eps": scales["acc_eps"],
    }
    stem = os.path.splitext(os.path.basename(path))[0]
    for name, qt in qg.weights.items():
        fn = f"{stem}_{name}.qtns"
        tensorfile.write_qtensor(os.path.join(base, fn), qt)
        doc["weights"][name] = fn
    return doc


def save_qgraph(qg: QuantizedGraph, path: str) -> None:
    """Write the graph JSON with weight payloads as sibling QTNS files."""
    doc = qgraph_doc(qg, path)   # creates the directory
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def load_qgraph(path: str) -> QuantizedGraph:
    """Read a qgraph written by save_qgraph, with its QTNS payloads, as one
    `QuantizedGraph`, whose constructor holds it to `QuantizedGraph.check`;
    a SchemaError names the file.  The document's scale copies
    (`input_eps`, `out_eps`, `acc_eps`) are not read: each must equal the
    value the weight scales and alphas give, or SchemaError.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "rb") as f:
        doc = parse_doc(f.read(), path, "nanopose-qgraph")
    with decoding(path):
        graph = G.from_doc(doc["graph"])
        # an entry that names no conv or fc layer stays unread, for `check` to reject
        layers = {l.name for l in graph.layers if l.kind in (G.CONV, G.FC)}
        weights = {name: tensorfile.read_qtensor(os.path.join(base, as_str(fn)))
                   if name in layers else fn for name, fn in doc["weights"].items()}
        requant = {name: RequantParams(mult=np.asarray(d["mult"]), shift=d["shift"],
                                       bias=np.asarray(d["bias"]), alpha=d["alpha"])
                   for name, d in doc["requant"].items()}
        try:
            qg = QuantizedGraph(graph=graph, weights=weights, requant=requant)
        except SchemaError as e:   # RequantParameterError keeps its class
            raise type(e)(f"{path}: {e}") from None
        wrong = [k for k, v in _scale_copies(qg).items() if doc[k] != v]
        if wrong:
            raise SchemaError(f"{path}: {', '.join(wrong)} differ from the scales the weights "
                              f"and requant alphas give")
    return qg
