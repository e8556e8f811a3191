"""Decoupled per-component constant-velocity Kalman filters.

Each pose component (x, y, z, theta) runs an independent 2-state filter
over position and velocity with white-acceleration process noise of
variance q and scalar observation variance r.  The covariance is stored as
the three entries of a symmetric 2x2 matrix, so symmetry is structural.
Plain floats keep the per-event cost low, and one `step` call runs a whole
predict-and-update cycle.
"""

from dataclasses import dataclass

from .pose import wrap_angle

R_FLOOR = 1e-8  # keeps the update well-posed for noise-free observations


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
        self.p00 = self.r + 1.0
        self.p01 = 0.0
        self.p11 = 4.0

    def step(self, dt: float, obs: float):
        """Predict dt seconds ahead and fuse the observation obs: the
        filter's one cycle, computed on locals and stored once."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        angular = self.angular
        q = self.q
        v = self.v
        p = self.p + v * dt
        if angular:
            p = wrap_angle(p)
        p00, p01, p11 = self.p00, self.p01, self.p11
        p00 = p00 + dt * (2.0 * p01) + dt * dt * p11 + q * dt**4 / 4.0
        p01 = p01 + dt * p11 + q * dt**3 / 2.0
        p11 = p11 + q * dt * dt
        innov = obs - p
        if angular:
            innov = wrap_angle(innov)
        s = p00 + self.r + R_FLOOR
        k0 = p00 / s
        k1 = p01 / s
        p += k0 * innov
        if angular:
            p = wrap_angle(p)
        v += k1 * innov
        p11 = p11 - k1 * p01
        p00 = (1.0 - k0) * p00
        p01 = (1.0 - k0) * p01
        self.p, self.v, self.p00, self.p01, self.p11 = p, v, p00, p01, p11
        # the covariance must stay positive definite
        if not (p00 > 0.0 and (p00 * p11 - p01 * p01) > 0.0):
            raise FloatingPointError(
                f"covariance lost positive definiteness: [[{p00},{p01}],[{p01},{p11}]]")
