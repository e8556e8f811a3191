"""Float parameter container for a NetGraph, plus seeded synthetic weights.

Convolutions carry raw weights; each activation stage owns the batch-norm
statistics that precede its ReLU.  The head is a bias-free linear layer.
"""

from dataclasses import dataclass, field

import numpy as np

from . import graph as G

BN_EPS = 1e-5
_N_PROBE = 8   # probe images realistic_random_net takes batch-norm moments over


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def sigma(self) -> np.ndarray:
        return np.sqrt(self.var + BN_EPS)


@dataclass
class FloatNet:
    graph: G.NetGraph
    weights: dict = field(default_factory=dict)   # conv/fc layer name -> ndarray
    bn: dict = field(default_factory=dict)        # requant layer name -> BatchNorm


def random_float_net(g: G.NetGraph, seed: int = 0) -> FloatNet:
    """He-style fan-in scaled weights and mildly varied batch-norm stats.

    The positive beta floor keeps every activation stage alive so that the
    net is calibratable without training.
    """
    rng = np.random.default_rng(seed)
    net = FloatNet(graph=g)
    for l in g.layers:
        if l.kind in (G.CONV, G.FC):
            net.weights[l.name] = rng.normal(0.0, np.sqrt(2.0 / l.taps()), l.weight_shape())
        elif l.kind == G.REQUANT:
            ch = l.out_ch
            net.bn[l.name] = BatchNorm(
                gamma=rng.uniform(0.7, 1.3, ch),
                beta=rng.uniform(0.05, 0.3, ch),
                mean=rng.normal(0.0, 0.2, ch),
                var=rng.uniform(0.5, 1.5, ch),
            )
    return net


def snap_weights_to_grid(w: np.ndarray) -> np.ndarray:
    """Move weights onto their own 127-step quantization grid.

    Deployment quantizes weights losslessly when they already sit on the
    per-layer grid, which is where fake-quantized fine-tuning leaves them.
    The code extremes are pinned so the grid is a fixed point of the
    zero-extended range computation.
    """
    from .qtensor import FLOOR_GUARD, weight_eps

    eps = weight_eps(min(float(w.min()), 0.0), max(float(w.max()), 0.0))
    base = int(np.floor(min(float(w.min()), 0.0) / eps + FLOOR_GUARD))
    codes = np.clip(np.round(w / eps), base, base + 127)
    codes.flat[int(np.argmin(codes))] = base
    codes.flat[int(np.argmax(codes))] = base + 127
    return eps * codes


def realistic_random_net(g: G.NetGraph, seed: int = 0) -> FloatNet:
    """Random net with the statistics a trained, deployment-ready one has.

    Batch-norm mean/var are set from the moments the conv outputs actually
    take on a probe batch of _N_PROBE images (keeping stage gains near
    one), the head is rescaled to unit RMS pose outputs, and all weights
    are snapped onto their quantization grid so their 8-bit codes are exact.
    """
    from . import engine  # deferred: engine imports this module

    rng = np.random.default_rng(seed)
    net = random_float_net(g, seed=seed)
    for bn in net.bn.values():
        bn.gamma = rng.uniform(0.9, 1.1, bn.gamma.shape)
        bn.beta = rng.uniform(0.05, 0.3, bn.beta.shape)
    probe = [rng.integers(0, 256, g.input_shape).astype(np.float64) / 255.0
             for _ in range(_N_PROBE)]
    # each activation stage normalizes the conv output right before it
    pairs = [(conv.name, l.name) for conv, l in zip(g.layers, g.layers[1:]) if l.kind == G.REQUANT]
    per_layer = {name: [] for _, name in pairs}
    for img in probe:
        _, outputs = engine.infer_float(net, img)
        for conv, name in pairs:
            per_layer[name].append(outputs[conv])
    for name, chunks in per_layer.items():
        stacked = np.concatenate([a.reshape(a.shape[0], -1) for a in chunks], axis=1)
        net.bn[name].mean = stacked.mean(axis=1)
        net.bn[name].var = np.maximum(stacked.var(axis=1), 1e-3)
    head = g.head().name
    poses = np.stack([engine.infer_float(net, img)[0] for img in probe])
    rms = float(np.sqrt((poses**2).mean()))
    if rms > 0:
        net.weights[head] = net.weights[head] * (1.0 / rms)
    for name in net.weights:
        net.weights[name] = snap_weights_to_grid(net.weights[name])
    return net
