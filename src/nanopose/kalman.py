"""Decoupled per-component constant-velocity Kalman filters.

Each pose component (x, y, z, theta) runs an independent 2-state filter
over position and velocity with white-acceleration process noise of
variance q and scalar observation variance r.  The covariance is stored as
the three entries of a symmetric 2x2 matrix, so symmetry is structural.

One cycle has two halves, each stated once on plain floats:
`covariance_step` predicts the covariance dt ahead and returns the gain and
the updated covariance, and `fuse` predicts the mean and fuses one
observation with that gain.  The covariance (Riccati) recursion never reads
an observation, so on a fixed event timeline the whole gain sequence
depends only on the period, q and r: `gain_schedule` computes it once and
serves it again to every later filter on that timeline in the process.
`Kalman1D.step` runs both halves for a filter driven event by event.
"""

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .pose import wrap_angle

R_FLOOR = 1e-8  # keeps the update well-posed for noise-free observations

# (k0, k1) pairs that gain_schedule keeps over all schedules, 16 bytes each:
# 8 MB, as many as simulate.MAX_EVENTS, so one schedule of the longest run fits
SCHEDULE_LIMIT = 500_000


def start_covariance(r: float) -> tuple:
    """The covariance (p00, p01, p11) of a filter at its first observation."""
    return r + 1.0, 0.0, 4.0


def covariance_step(dt: float, q: float, r: float, p00: float, p01: float, p11: float) -> tuple:
    """Predict the covariance dt seconds ahead and update it for one
    observation of variance r: (p00, p01, p11, k0, k1), the updated
    covariance and the position and velocity gains.  A covariance that is
    no longer positive definite raises FloatingPointError."""
    p00 = p00 + dt * (2.0 * p01) + dt * dt * p11 + q * dt**4 / 4.0
    p01 = p01 + dt * p11 + q * dt**3 / 2.0
    p11 = p11 + q * dt * dt
    s = p00 + r + R_FLOOR
    k0 = p00 / s
    k1 = p01 / s
    p11 = p11 - k1 * p01
    p00 = (1.0 - k0) * p00
    p01 = (1.0 - k0) * p01
    if not (p00 > 0.0 and (p00 * p11 - p01 * p01) > 0.0):
        raise FloatingPointError(
            f"covariance lost positive definiteness: [[{p00},{p01}],[{p01},{p11}]]")
    return p00, p01, p11, k0, k1


def fuse(p: float, v: float, dt: float, obs: float, k0: float, k1: float, angular: bool) -> tuple:
    """Predict the mean (p, v) dt seconds ahead and fuse the observation obs
    with the gains (k0, k1): the new (p, v).  An angular component wraps its
    prediction, innovation and estimate to [-pi, pi]."""
    if angular:
        p = wrap_angle(p + v * dt)
        innov = wrap_angle(obs - p)
        return wrap_angle(p + k0 * innov), v + k1 * innov
    p = p + v * dt
    innov = obs - p
    return p + k0 * innov, v + k1 * innov


_schedules = OrderedDict()   # (period, q, r) -> (k0s, k1s), two float64 arrays of one length
_schedules_lock = threading.Lock()   # one caller at a time reads, evicts and inserts


def gain_schedule(period: float, q: float, r: float, n: int) -> tuple:
    """The gains of a filter started at the observation of event 1 of the
    timeline k * period and stepped at events 2 .. n + 1, with
    dt = k * period - (k - 1) * period: (k0s, k1s), read-only float64
    memoryviews of n gains each.

    Schedules are kept per (period, q, r) and a shorter request reads a
    prefix of a longer one, so every later filter on that timeline shares
    the first computation.  At most SCHEDULE_LIMIT (k0, k1) pairs are kept
    in all; the least recently used schedules are dropped first, and a
    schedule longer than the limit is computed but not kept.  A covariance
    that loses positive definiteness raises FloatingPointError and keeps
    nothing."""
    key = (period, q, r)
    with _schedules_lock:
        kept = _schedules.get(key)
        if kept is not None and len(kept[0]) >= n:
            _schedules.move_to_end(key)
        else:
            t = np.arange(1, n + 2) * period       # the event times k * period, as the loop computes them
            p00, p01, p11 = start_covariance(r)
            kept = array("d"), array("d")
            keep0, keep1 = kept[0].append, kept[1].append
            for dt in (t[1:] - t[:-1]).tolist():
                p00, p01, p11, k0, k1 = covariance_step(dt, q, r, p00, p01, p11)
                keep0(k0)
                keep1(k1)
            _schedules.pop(key, None)
            if n <= SCHEDULE_LIMIT:
                held = sum(len(k0s) for k0s, _ in _schedules.values())
                while held + n > SCHEDULE_LIMIT:
                    held -= len(_schedules.popitem(last=False)[1][0])
                _schedules[key] = kept
        return tuple(memoryview(k).toreadonly()[:n] for k in kept)


@dataclass(slots=True)
class Kalman1D:
    q: float                 # acceleration variance
    r: float                 # observation variance
    angular: bool = False    # wrap innovations to [-pi, pi]
    p: float = 0.0
    v: float = 0.0
    p00: float = 1.0
    p01: float = 0.0
    p11: float = 1.0

    def start(self, obs: float):
        self.p = obs
        self.v = 0.0
        self.p00, self.p01, self.p11 = start_covariance(self.r)

    def step(self, dt: float, obs: float):
        """Predict dt seconds ahead and fuse the observation obs: the
        filter's one cycle, its covariance half first."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.p00, self.p01, self.p11, k0, k1 = covariance_step(
            dt, self.q, self.r, self.p00, self.p01, self.p11)
        self.p, self.v = fuse(self.p, self.v, dt, obs, k0, k1, self.angular)
