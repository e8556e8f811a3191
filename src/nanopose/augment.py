"""Training-set augmentation for grayscale images with pose labels.

Source frames are 160x160 captures taken with a flat camera attitude.  A
vertical crop window synthesizes pitch, photometric and optical jitter runs
on normalized [0, 1] intensities with a single final requantization, and a
horizontal flip mirrors the label's lateral and heading components.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SchemaError
from .pose import Pose

CROP_H = 96
SOURCE_H = 160
MAX_OFFSET = SOURCE_H - CROP_H  # 64
PITCH_MAX_DEG = 14.0


@dataclass
class LabeledImage:
    pixels: np.ndarray  # uint8, H x W
    label: Pose

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 2:
            raise SchemaError("pixels must be a 2-D uint8 array")


@dataclass
class AugmentConfig:
    contrast_range: tuple = (0.7, 2.0)
    brightness_range: tuple = (-0.2, 0.2)
    gamma_range: tuple = (0.4, 2.0)
    vignette_radius_range: tuple = (0.6, 1.4)   # times half-diagonal
    vignette_strength_range: tuple = (0.2, 0.8)
    blur_sigma: float = 3.0
    op_probability: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.op_probability <= 1.0:
            raise SchemaError("op_probability must be in [0, 1]")


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


def apply_contrast(x: np.ndarray, factor: float) -> np.ndarray:
    return x * factor


def apply_brightness(x: np.ndarray, delta: float) -> np.ndarray:
    return x + delta


def apply_gamma(x: np.ndarray, gamma: float) -> np.ndarray:
    return np.clip(x, 0.0, 1.0) ** gamma


def vignette_mask(shape, radius: float, strength: float) -> np.ndarray:
    """Multiplicative cosine falloff: 1 at the center, 1-strength at radius."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    d = np.hypot(yy - cy, xx - cx)
    t = np.minimum(d / radius, 1.0)
    return 1.0 - strength * (1.0 - np.cos(t * np.pi / 2.0))


def apply_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    from scipy.ndimage import gaussian_filter   # only blurring pays its import time
    return gaussian_filter(x, sigma=sigma, mode="nearest")


def photometric(img: np.ndarray, config: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply each jitter op independently with the configured probability.

    Order is fixed: contrast, brightness, gamma, vignette, blur.  All ops run
    on [0, 1] floats; the result is clamped and requantized once at the end.
    """
    x = img.astype(np.float64) / 255.0
    p = config.op_probability
    if rng.random() < p:
        x = apply_contrast(x, rng.uniform(*config.contrast_range))
    if rng.random() < p:
        x = apply_brightness(x, rng.uniform(*config.brightness_range))
    if rng.random() < p:
        x = apply_gamma(x, rng.uniform(*config.gamma_range))
    if rng.random() < p:
        half_diag = math.hypot(*img.shape) / 2.0
        radius = rng.uniform(*config.vignette_radius_range) * half_diag
        strength = rng.uniform(*config.vignette_strength_range)
        x = x * vignette_mask(img.shape, radius, strength)
    if rng.random() < p:
        x = apply_blur(x, config.blur_sigma)
    return np.clip(np.round(np.clip(x, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def hflip(li: LabeledImage) -> LabeledImage:
    """Mirror about the vertical axis; negate the lateral and heading labels."""
    lbl = li.label
    return LabeledImage(
        pixels=li.pixels[:, ::-1].copy(),
        label=Pose(lbl.x, -lbl.y, lbl.z, -lbl.theta),
    )


def augment_sample(li: LabeledImage, config: AugmentConfig, rng: np.random.Generator):
    """One full augmentation draw: pitch crop, jitter, optional flip.

    Returns (LabeledImage with 160x96 pixels, pitch in radians).
    """
    offset = int(rng.integers(0, MAX_OFFSET + 1))
    img, pitch = pitch_crop(li.pixels, offset)
    img = photometric(img, config, rng)
    out = LabeledImage(pixels=img, label=replace(li.label))
    if rng.random() < config.op_probability:
        out = hflip(out)
    return out, pitch
