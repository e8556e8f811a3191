"""Training-set augmentation for grayscale images with pose labels.

Source frames are 160x160 captures taken with a flat camera attitude.  A
vertical crop window synthesizes pitch, photometric and optical jitter runs
on normalized [0, 1] intensities with a single final requantization, and a
horizontal flip mirrors the label's lateral and heading components.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .pose import Pose

CROP_H = 96
SOURCE_H = 160
MAX_OFFSET = SOURCE_H - CROP_H  # 64
PITCH_MAX_DEG = 14.0

# jitter: each photometric op, and the flip, runs with probability
# OP_PROBABILITY; each op parameter but the blur sigma is drawn uniformly
# from its range
OP_PROBABILITY = 0.5
CONTRAST_RANGE = (0.7, 2.0)
BRIGHTNESS_RANGE = (-0.2, 0.2)
GAMMA_RANGE = (0.4, 2.0)
VIGNETTE_RADIUS_RANGE = (0.6, 1.4)     # times the half-diagonal
VIGNETTE_STRENGTH_RANGE = (0.2, 0.8)
BLUR_SIGMA = 3.0


@dataclass
class LabeledImage:
    pixels: np.ndarray  # uint8, H x W
    label: Pose

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 2:
            raise SchemaError("pixels must be a 2-D uint8 array")


def pitch_crop(img: np.ndarray, row_offset: int):
    """Crop rows [offset, offset+96) from a 160x160 frame.

    The window position maps linearly to an approximate camera pitch:
    offset 0 is +14 degrees, 32 is level, 64 is -14 degrees.  Selected rows
    are copied bit-exactly.  Returns (cropped image, pitch in radians).
    """
    if img.shape[0] != SOURCE_H:
        raise SchemaError(f"expected {SOURCE_H} source rows, got {img.shape[0]}")
    if not 0 <= row_offset <= MAX_OFFSET:
        raise SchemaError(f"row_offset {row_offset} outside [0, {MAX_OFFSET}]")
    pitch_deg = PITCH_MAX_DEG * (MAX_OFFSET // 2 - row_offset) / (MAX_OFFSET // 2)
    return img[row_offset : row_offset + CROP_H].copy(), math.radians(pitch_deg)


def vignette_mask(shape, radius: float, strength: float) -> np.ndarray:
    """Multiplicative cosine falloff: 1 at the center, 1-strength at radius."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    d = np.hypot(yy - cy, xx - cx)
    t = np.minimum(d / radius, 1.0)
    return 1.0 - strength * (1.0 - np.cos(t * np.pi / 2.0))


def photometric(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply each jitter op independently with probability OP_PROBABILITY.

    Order is fixed: contrast, brightness, gamma, vignette, blur.  All ops run
    on [0, 1] floats; the result is clamped and requantized once at the end.
    """
    x = img.astype(np.float64) / 255.0
    if rng.random() < OP_PROBABILITY:
        x = x * rng.uniform(*CONTRAST_RANGE)
    if rng.random() < OP_PROBABILITY:
        x = x + rng.uniform(*BRIGHTNESS_RANGE)
    if rng.random() < OP_PROBABILITY:
        x = np.clip(x, 0.0, 1.0) ** rng.uniform(*GAMMA_RANGE)
    if rng.random() < OP_PROBABILITY:
        half_diag = math.hypot(*img.shape) / 2.0
        radius = rng.uniform(*VIGNETTE_RADIUS_RANGE) * half_diag
        strength = rng.uniform(*VIGNETTE_STRENGTH_RANGE)
        x = x * vignette_mask(img.shape, radius, strength)
    if rng.random() < OP_PROBABILITY:
        from scipy.ndimage import gaussian_filter   # only blurring pays its import time
        x = gaussian_filter(x, sigma=BLUR_SIGMA, mode="nearest")
    return np.clip(np.round(np.clip(x, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def hflip(li: LabeledImage) -> LabeledImage:
    """Mirror about the vertical axis; negate the lateral and heading labels."""
    lbl = li.label
    return LabeledImage(
        pixels=li.pixels[:, ::-1].copy(),
        label=Pose(lbl.x, -lbl.y, lbl.z, -lbl.theta),
    )


def augment_sample(li: LabeledImage, rng: np.random.Generator):
    """One full augmentation draw: pitch crop, jitter, optional flip.

    Returns (LabeledImage with 160x96 pixels, pitch in radians).
    """
    offset = int(rng.integers(0, MAX_OFFSET + 1))
    img, pitch = pitch_crop(li.pixels, offset)
    img = photometric(img, rng)
    out = LabeledImage(pixels=img, label=li.label)
    if rng.random() < OP_PROBABILITY:
        out = hflip(out)
    return out, pitch
