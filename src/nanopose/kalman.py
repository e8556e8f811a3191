"""Decoupled per-component constant-velocity Kalman filters.

Each pose component (x, y, z, theta) runs an independent 2-state filter
over position and velocity with white-acceleration process noise of
variance q and scalar observation variance r.  The covariance is stored as
the three entries of a symmetric 2x2 matrix, so symmetry is structural.
Plain floats keep the per-tick cost negligible.
"""

from dataclasses import dataclass

from .pose import wrap_angle

R_FLOOR = 1e-8  # keeps the update well-posed for noise-free observations


@dataclass
class Kalman1D:
    q: float                 # acceleration variance
    r: float                 # observation variance
    angular: bool = False    # wrap innovations to [-pi, pi]
    p: float = 0.0
    v: float = 0.0
    p00: float = 1.0
    p01: float = 0.0
    p11: float = 1.0
    initialized: bool = False

    def start(self, obs: float):
        self.p = obs
        self.v = 0.0
        self.p00 = self.r + 1.0
        self.p01 = 0.0
        self.p11 = 4.0
        self.initialized = True

    def predict(self, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.p += self.v * dt
        if self.angular:
            self.p = wrap_angle(self.p)
        q = self.q
        p00, p01, p11 = self.p00, self.p01, self.p11
        self.p00 = p00 + dt * (2.0 * p01) + dt * dt * p11 + q * dt**4 / 4.0
        self.p01 = p01 + dt * p11 + q * dt**3 / 2.0
        self.p11 = p11 + q * dt * dt

    def update(self, obs: float):
        innov = obs - self.p
        if self.angular:
            innov = wrap_angle(innov)
        s = self.p00 + self.r + R_FLOOR
        k0 = self.p00 / s
        k1 = self.p01 / s
        self.p += k0 * innov
        if self.angular:
            self.p = wrap_angle(self.p)
        self.v += k1 * innov
        p00, p01, p11 = self.p00, self.p01, self.p11
        self.p00 = (1.0 - k0) * p00
        self.p01 = (1.0 - k0) * p01
        self.p11 = p11 - k1 * p01
        if not self.positive_definite():
            raise FloatingPointError(
                f"covariance lost positive definiteness: [[{self.p00},{self.p01}],[{self.p01},{self.p11}]]"
            )

    def positive_definite(self) -> bool:
        return self.p00 > 0.0 and (self.p00 * self.p11 - self.p01 * self.p01) > 0.0
