import hashlib
import math

import numpy as np
import pytest

from nanopose import augment as A
from nanopose.errors import SchemaError
from nanopose.pgm import read_pgm, write_pgm


def checker(seed=0, size=160):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (size, size)).astype(np.uint8)


class TestPitchCrop:
    def test_center_is_level(self):
        img, pitch = A.pitch_crop(checker(), 32)
        assert pitch == 0.0
        assert img.shape == (96, 160)

    def test_endpoints(self):
        _, top = A.pitch_crop(checker(), 0)
        _, bottom = A.pitch_crop(checker(), 64)
        assert top == pytest.approx(math.radians(14.0))
        assert bottom == pytest.approx(math.radians(-14.0))

    def test_linear_interpolation(self):
        _, p = A.pitch_crop(checker(), 16)
        assert p == pytest.approx(math.radians(7.0))

    def test_rows_copied_bit_exact(self):
        src = checker(3)
        for off in (0, 17, 64):
            img, _ = A.pitch_crop(src, off)
            assert (img == src[off : off + 96]).all()

    def test_offset_out_of_range(self):
        with pytest.raises(SchemaError):
            A.pitch_crop(checker(), 65)
        with pytest.raises(SchemaError):
            A.pitch_crop(checker(), -1)


class ForcedRng:
    """Deterministic stand-in driving the op gates."""

    def __init__(self, gates, params=()):
        self.gates = list(gates)
        self.params = list(params)

    def random(self):
        return 0.0 if self.gates.pop(0) else 1.0

    def uniform(self, lo, hi):
        return self.params.pop(0)

    def integers(self, lo, hi):
        return lo


class TestPhotometric:
    def test_all_ops_skipped_is_identity(self):
        img = checker(1, 96)
        out = A.photometric(img, ForcedRng([False] * 5))
        assert (out == img).all()

    def test_neutral_parameters_identity(self):
        img = checker(2, 96)
        # contrast 1.0, brightness 0, gamma 1.0 applied; vignette/blur skipped
        rng = ForcedRng([True, True, True, False, False], params=[1.0, 0.0, 1.0])
        out = A.photometric(img, rng)
        assert (out == img).all()

    def test_contrast_two_on_mid_gray_saturates(self):
        img = np.full((8, 8), 128, dtype=np.uint8)  # 0.502 normalized
        rng = ForcedRng([True, False, False, False, False], params=[2.0])
        out = A.photometric(img, rng)
        assert (out == 255).all()

    def test_output_always_u8_range(self):
        rng = np.random.default_rng(5)
        img = checker(4, 96)
        for _ in range(20):
            out = A.photometric(img, rng)
            assert out.dtype == np.uint8

    def test_vignette_darkens_corners_not_center(self):
        img = np.full((96, 96), 200, dtype=np.uint8)
        mask = A.vignette_mask(img.shape, radius=40.0, strength=0.5)
        assert mask[48, 48] == pytest.approx(1.0, abs=1e-3)
        assert mask[0, 0] == pytest.approx(0.5)


class TestHflip:
    def test_involution_on_1000_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            li = A.LabeledImage(
                pixels=rng.integers(0, 256, (12, 16)).astype(np.uint8),
                label=A.Pose(*rng.uniform(-3, 3, 3), rng.uniform(-math.pi, math.pi)),
            )
            twice = A.hflip(A.hflip(li))
            assert (twice.pixels == li.pixels).all()
            assert twice.label == li.label

    def test_sign_rule(self):
        li = A.LabeledImage(np.zeros((4, 4), np.uint8), A.Pose(1.3, 0.4, 0.0, 0.2))
        out = A.hflip(li)
        assert out.label == A.Pose(1.3, -0.4, 0.0, -0.2)

    def test_fixed_point(self):
        li = A.LabeledImage(np.zeros((4, 4), np.uint8), A.Pose(2.0, 0.0, 1.0, 0.0))
        assert A.hflip(li).label == li.label

    def test_pixels_mirrored(self):
        px = np.arange(12, dtype=np.uint8).reshape(3, 4)
        out = A.hflip(A.LabeledImage(px, A.Pose(0, 0, 0, 0)))
        assert (out.pixels == px[:, ::-1]).all()


class TestPipelineDeterminism:
    def digest(self, seed):
        rng = np.random.default_rng(seed)
        li = A.LabeledImage(checker(9), A.Pose(1.0, -0.5, 0.2, 0.3))
        h = hashlib.sha256()
        for _ in range(10):
            out, pitch = A.augment_sample(li, rng)
            h.update(out.pixels.tobytes())
            h.update(repr((tuple(out.label), round(pitch, 12))).encode())
        return h.hexdigest()

    def test_same_seed_same_stream(self):
        assert self.digest(123) == self.digest(123)

    def test_different_seed_differs(self):
        assert self.digest(123) != self.digest(124)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = checker(11, 40)
        p = tmp_path / "x.pgm"
        write_pgm(p, img, comment="seed=11")
        assert (read_pgm(p) == img).all()

    def test_rejects_other_formats(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n1 1\n255\nabc")
        with pytest.raises(SchemaError):
            read_pgm(p)

    @pytest.mark.parametrize("raw", [b"P5\n-1 -1\n255\n", b"P5\n0 4\n255\n",
                                     b"P5\n99999999 99999999\n255\n", b"P5\n4 2\n255\n1234567",
                                     b"P5\n+4 1_0\n2_55\n" + bytes(40)])
    def test_rejects_bad_header_or_short_payload(self, tmp_path, raw):
        p = tmp_path / "x.pgm"
        p.write_bytes(raw)
        with pytest.raises(SchemaError):
            read_pgm(p)
