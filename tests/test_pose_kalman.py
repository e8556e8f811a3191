import math

import numpy as np
import pytest

from nanopose import kalman as K
from nanopose.kalman import Kalman1D
from nanopose.pose import Pose, to_drone, to_odometry, wrap_angle
from nanopose.simulate import MAX_EVENTS, NOISE_STD


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


def stepped_gains(period, q, r, n):
    """The (k0, k1) of a Kalman1D started at event 1 of the timeline
    k * period and stepped event by event, as the simulator's loop steps
    it.  Each step starts from a zero mean and observes 1.0, so the
    innovation is exactly 1 and the new (p, v) is exactly (k0, k1)."""
    kf = Kalman1D(q=q, r=r)
    kf.start(0.0)
    gains = []
    t_prev = period
    for k in range(2, n + 2):
        t = k * period
        kf.p = kf.v = 0.0
        kf.step(t - t_prev, 1.0)
        gains.append((kf.p.hex(), kf.v.hex()))
        t_prev = t
    return gains


def hexed(schedule):
    k0s, k1s = schedule
    return [(a.hex(), b.hex()) for a, b in zip(k0s, k1s)]


class TestGainSchedule:
    # observation variances: noise-free and each preset's per-component std squared
    R_VALUES = sorted({s * s for std in NOISE_STD.values() for s in std})

    # the events of a 50 s run at each deployed rate, and of 3 s at 1000 Hz
    @pytest.mark.parametrize("rate, n", [(30.0, 1500), (48.0, 2400), (111.0, 5550), (135.0, 6750),
                                         (1000.0, 3000), (7.0 / 3.0, 116)])
    def test_equals_a_filter_stepped_event_by_event(self, cold_schedules, rate, n):
        period = 1.0 / rate
        for r in self.R_VALUES:
            assert hexed(K.gain_schedule(period, 1.0, r, n)) == stepped_gains(period, 1.0, r, n), r

    def test_shorter_reads_a_prefix_and_longer_extends(self, cold_schedules):
        period, r = 1.0 / 111.0, 0.074
        want = stepped_gains(period, 1.0, r, 900)
        assert hexed(K.gain_schedule(period, 1.0, r, 300)) == want[:300]
        assert hexed(K.gain_schedule(period, 1.0, r, 900)) == want
        assert hexed(K.gain_schedule(period, 1.0, r, 500)) == want[:500]
        assert [len(k0s) for k0s, _ in cold_schedules.values()] == [900]
        assert [len(k) for k in K.gain_schedule(period, 1.0, r, 0)] == [0, 0]

    def test_kept_gains_are_read_only(self, cold_schedules):
        k0s, k1s = K.gain_schedule(1.0 / 48.0, 1.0, 0.066, 10)
        with pytest.raises(TypeError):
            k0s[0] = 0.5
        assert K.gain_schedule(1.0 / 48.0, 1.0, 0.066, 10)[0].tolist() == k0s.tolist()

    def test_kept_within_the_limit(self, cold_schedules, monkeypatch):
        monkeypatch.setattr(K, "SCHEDULE_LIMIT", 1000)
        want = {}
        for rate in (40.0, 50.0, 60.0, 70.0):        # 400 gains each
            period = 1.0 / rate
            want[period] = hexed(K.gain_schedule(period, 1.0, 0.02, 400))
            assert sum(len(k0s) for k0s, _ in cold_schedules.values()) <= 1000
        # the least recently used go first; a dropped schedule is computed again
        assert [key[0] for key in cold_schedules] == [1.0 / 60.0, 1.0 / 70.0]
        assert hexed(K.gain_schedule(1.0 / 40.0, 1.0, 0.02, 400)) == want[1.0 / 40.0]
        assert [key[0] for key in cold_schedules] == [1.0 / 70.0, 1.0 / 40.0]
        # a schedule longer than the limit is computed, not kept
        assert len(K.gain_schedule(1.0 / 80.0, 1.0, 0.02, 1001)[0]) == 1001
        assert [key[0] for key in cold_schedules] == [1.0 / 70.0, 1.0 / 40.0]

    def test_kept_within_the_stated_limit(self, cold_schedules):
        # the gains of the longest run fit, and two schedules of more than
        # half the limit are not both kept
        assert MAX_EVENTS <= K.SCHEDULE_LIMIT
        n = K.SCHEDULE_LIMIT // 2 + 1
        for rate in (10_000.0, 20_000.0):
            K.gain_schedule(1.0 / rate, 1.0, 0.02, n)
        assert [(key[0], len(k0s)) for key, (k0s, _) in cold_schedules.items()] == [(1.0 / 20_000.0, n)]

    def test_lost_positive_definiteness_keeps_nothing(self, cold_schedules):
        with pytest.raises(FloatingPointError, match="positive definiteness"):
            K.gain_schedule(1.0 / 30.0, 1e300, 0.0, 10)
        assert not cold_schedules
        K.gain_schedule(1.0 / 30.0, 1.0, 0.0, 10)
        with pytest.raises(FloatingPointError):
            K.gain_schedule(1.0 / 30.0, 1e300, 0.0, 10)
        assert list(cold_schedules) == [(1.0 / 30.0, 1.0, 0.0)]
