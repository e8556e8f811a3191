"""Draw augmented training samples from one synthetic 160x160 frame.

Each draw picks a vertical crop window (synthesizing camera pitch in
+/-14 degrees), applies photometric jitter ops each with probability 0.5
(contrast, brightness, gamma, vignette, blur), and flips half the samples
horizontally, negating the lateral and heading labels.  Outputs land in
demo_out/augmentation as PGM files plus a labels.csv.
"""

import math
import os

import numpy as np

from nanopose.augment import LabeledImage, augment_sample
from nanopose.pgm import write_pgm
from nanopose.pose import Pose

out_dir = os.path.join("demo_out", "augmentation")
os.makedirs(out_dir, exist_ok=True)

# synthetic scene: smooth gradient background with a dark "subject" blob
yy, xx = np.mgrid[0:160, 0:160]
scene = (80 + 60 * np.sin(xx / 25.0) + 0.3 * yy).clip(0, 255)
blob = np.exp(-(((yy - 85) / 28.0) ** 2 + ((xx - 80) / 14.0) ** 2))
frame = np.clip(scene - 90 * blob, 0, 255).astype(np.uint8)
write_pgm(os.path.join(out_dir, "source.pgm"), frame)

li = LabeledImage(frame, Pose(1.8, 0.15, 0.0, 0.35))
rng = np.random.default_rng(42)

rows = ["file,x,y,z,theta,pitch_deg"]
for k in range(10):
    sample, pitch = augment_sample(li, rng)
    name = f"sample_{k:02d}.pgm"
    write_pgm(os.path.join(out_dir, name), sample.pixels)
    lbl = sample.label
    flipped = "flipped" if lbl.y != li.label.y else "kept"
    print(f"{name}: pitch {math.degrees(pitch):+6.2f} deg, label y {flipped}")
    rows.append(f"{name},{lbl.x},{lbl.y},{lbl.z},{lbl.theta},{math.degrees(pitch):.3f}")

with open(os.path.join(out_dir, "labels.csv"), "w") as f:
    f.write("\n".join(rows) + "\n")
print(f"\nwrote {out_dir}/")
