"""Velocity-level tracking control.

The high-level controller drives the drone toward a point a fixed distance
in front of the subject within a time horizon tau, feeding forward the
subject's estimated velocity; heading control points the camera at the
subject.  Commands are clamped per axis at 1 m/s and 0.8 rad/s.
`ControlConfig` also holds the time constants and the acceleration bound
of the drone's first-order response proxy, which `simulate.run_experiment`
integrates in its tick loop: a_max is the 12-degree pitch ceiling's
g*sin(12deg) ~= 2.04 m/s^2.  Poses are (x, y, z, theta) and velocities
(vx, vy, vz, omega) tuples.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_positive
from .pose import wrap_angle, wrap_angles

G_ACCEL = 9.81
PITCH_LIMIT_DEG = 12.0


@dataclass
class ControlConfig:
    delta: float = 1.3                 # standoff distance in front of the subject, m
    tau: float = 0.5                   # control horizon, s
    v_max: float = 1.0                 # per-axis linear clamp, m/s
    omega_max: float = 0.8             # angular clamp, rad/s
    a_max: float = G_ACCEL * math.sin(math.radians(PITCH_LIMIT_DEG))
    t_v: float = 0.3                   # velocity tracking time constant, s
    t_omega: float = 0.15              # yaw-rate tracking time constant, s

    def __post_init__(self):
        require_positive(self, *self.__dataclass_fields__)


def _clamp(v, lim):
    return lim if v > lim else (-lim if v < -lim else v)


def _standoff(x, y, th, delta):
    """The point delta ahead of (x, y) along the heading th, which may be
    an array: the horizontal part of the standoff rule."""
    cos, sin = (np.cos, np.sin) if isinstance(th, np.ndarray) else (math.cos, math.sin)
    return x + delta * cos(th), y + delta * sin(th)


def target_pose(subject, delta: float) -> tuple:
    """The pose delta ahead of the subject (x, y, z, theta) along its facing
    axis, facing back at it: where the controller sends the drone.  The
    fields may be arrays, one entry per instant."""
    x, y, z, th = subject
    back = wrap_angles(th + math.pi) if isinstance(th, np.ndarray) else wrap_angle(th + math.pi)
    return (*_standoff(x, y, th, delta), z, back)


def velocity_command(drone, est_pose, est_vel, cfg: ControlConfig):
    """Target linear velocity and yaw rate for the drone pose and the
    subject's estimated pose, all (x, y, z, theta), and its estimated
    velocity (vx, vy, vz, omega).  Only the target's position enters: the
    yaw command points the camera at the subject itself."""
    x, y, z, th = drone
    sx, sy, sz, sth = est_pose
    svx, svy, svz, _ = est_vel
    tx, ty = _standoff(sx, sy, sth, cfg.delta)
    vx = _clamp((tx - x) / cfg.tau + svx, cfg.v_max)
    vy = _clamp((ty - y) / cfg.tau + svy, cfg.v_max)
    vz = _clamp((sz - z) / cfg.tau + svz, cfg.v_max)
    dx = sx - x
    dy = sy - y
    if dx * dx + dy * dy < 1e-12:
        omega = 0.0   # bearing undefined, hold the current heading
    else:
        heading_to_subject = math.atan2(dy, dx)
        omega = _clamp(wrap_angle(heading_to_subject - th) / cfg.tau, cfg.omega_max)
    return (vx, vy, vz), omega
