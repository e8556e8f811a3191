import math

import numpy as np
import pytest

from nanopose.kalman import Kalman1D
from nanopose.pose import Pose, to_drone, to_odometry, wrap_angle


def kf_step(kf: Kalman1D, obs: float, dt: float):
    """One predict step followed by an update."""
    kf.step(dt, obs)


class TestPose:
    def test_pose_is_a_tuple(self):
        # labels, paths and the frame transforms share one (x, y, z, theta) type
        rel, drone = Pose(1.2, -0.4, 0.3, 0.7), Pose(0.5, 2.0, 0.0, -2.9)
        assert isinstance(rel, tuple) and rel == (1.2, -0.4, 0.3, 0.7)
        x, y, z, theta = rel
        assert (x, y, z, theta) == (rel.x, rel.y, rel.z, rel.theta)
        assert to_odometry(rel, drone) == to_odometry(tuple(rel), tuple(drone))

    def test_identity_at_origin(self):
        p = (1.2, -0.4, 0.3, 0.7)
        out = to_odometry(p, (0.0, 0.0, 0.0, 0.0))
        assert out == p

    def test_quarter_turn(self):
        x, y, _, theta = to_odometry((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, math.pi / 2))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0)
        assert theta == pytest.approx(math.pi / 2)

    def test_roundtrip_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rel = (*rng.uniform(-5, 5, 3).tolist(), rng.uniform(-math.pi, math.pi))
            drone = (*rng.uniform(-5, 5, 3).tolist(), rng.uniform(-math.pi, math.pi))
            back = to_drone(to_odometry(rel, drone), drone)
            assert back[:3] == pytest.approx(rel[:3], abs=1e-12)
            assert abs(wrap_angle(back[3] - rel[3])) < 1e-12

    def test_wrap_stays_in_range(self):
        for a in np.linspace(-20, 20, 1001):
            w = wrap_angle(a)
            assert -math.pi <= w <= math.pi

    def test_wrap_identity_inside(self):
        for a in (-math.pi, -1.0, 0.0, 2.5, math.pi):
            assert wrap_angle(a) == a


class TestKalman:
    def test_noiseless_constant_velocity_converges(self):
        kf = Kalman1D(q=1e-9, r=1e-9)
        kf.start(0.0)
        dt = 0.1
        for k in range(1, 200):
            kf_step(kf, 0.5 * k * dt, dt)
        assert kf.p == pytest.approx(0.5 * 199 * dt, abs=1e-3)
        assert kf.v == pytest.approx(0.5, abs=1e-3)

    def test_beats_raw_observations_in_mse(self):
        # Monte Carlo over 100 seeded tracks
        rng = np.random.default_rng(42)
        wins = 0
        for trial in range(100):
            v = rng.uniform(-1, 1)
            x0 = rng.uniform(-2, 2)
            kf = Kalman1D(q=1.0, r=0.25)
            dt = 1.0 / 30
            err_f, err_o = 0.0, 0.0
            for k in range(90):
                truth = x0 + v * k * dt
                obs = truth + rng.normal(0, 0.5)
                if k == 0:
                    kf.start(obs)
                else:
                    kf_step(kf, obs, dt)
                if k > 10:
                    err_f += (kf.p - truth) ** 2
                    err_o += (obs - truth) ** 2
            wins += err_f < err_o
        assert wins >= 95

    def test_angular_innovation_wraps(self):
        kf = Kalman1D(q=0.1, r=0.01, angular=True)
        kf.start(math.pi - 0.05)
        kf_step(kf, -math.pi + 0.05, 0.02)  # 0.1 rad away across the seam
        assert abs(wrap_angle(kf.p)) > math.pi - 0.1

    def test_covariance_stays_pd_long_run(self):
        rng = np.random.default_rng(7)
        kf = Kalman1D(q=1.0, r=0.386, angular=True)
        kf.start(0.0)
        dt = 1.0 / 135
        for k in range(50 * 135):  # 50 s at 135 Hz
            kf_step(kf, rng.normal(0, 0.6), dt)
            assert kf.p00 > 0.0 and kf.p00 * kf.p11 - kf.p01 * kf.p01 > 0.0

    def test_dt_validation(self):
        kf = Kalman1D(q=1.0, r=1.0)
        kf.start(0.0)
        with pytest.raises(ValueError):
            kf.step(0.0, 0.0)
