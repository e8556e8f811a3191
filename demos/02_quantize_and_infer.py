"""From a float network to bit-exact integer inference.

Weights come from a seeded generator (no training here); activation
clipping bounds are calibrated as the max each ReLU reaches over a small
calibration batch.  Conversion folds batch-norm and the activation scale
into one per-channel integer affine so the whole forward pass runs on
uint8/int32 arithmetic.  The float reference path bounds the quantization
error.
"""

import numpy as np

from nanopose import engine, graph as G
from nanopose.floatnet import realistic_random_net
from nanopose.qtensor import QTensor
from nanopose.quantizer import CalibrationSet, calibrate, convert, quantization_error_bound

g = G.build_variant("80x32")
net = realistic_random_net(g, seed=7)

rng = np.random.default_rng(7)
calib = CalibrationSet([
    rng.integers(0, 256, g.input_shape).astype(np.float64) / 255.0 for _ in range(6)
])
alphas = calibrate(net, calib)
print("calibrated activation bounds:")
for name, a in alphas.items():
    print(f"  {name:>6}: alpha = {a:8.3f}  (eps = {a / 255:.5f})")

qg = convert(net, alphas)
bound = quantization_error_bound(qg, net)

# infer on a calibration image: inside the calibrated activation ranges the
# integer path is provably within the accumulated bound of the float path
codes = np.round(calib.inputs[0] * 255).astype(np.uint8)
res = engine.infer_int(qg, QTensor(codes, engine.IMAGE_EPS))
pose_f, _ = engine.infer_float(net, codes / 255.0)

print("\nraw 32-bit outputs :", res.raw)
print("integer-path pose  :", np.round(res.pose, 4))
print("float-path pose    :", np.round(pose_f, 4))
print("abs difference     :", np.round(np.abs(res.pose - pose_f), 5))
assert (np.abs(res.pose - pose_f) <= bound).all()
# `bound` is a worst-case interval propagation; on a net this deep it is
# loose by design, while the measured gap stays small against the pose scale
