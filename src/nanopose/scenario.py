"""Scripted subject motion for the tracking experiment.

A script is a sequence of phases.  A phase is a body-frame velocity
(``forward``, ``left``, m/s) and yaw rate (``yaw_rate``, rad/s,
counter-clockwise positive) held for ``duration`` seconds, starting where
the previous phase ended.  Without a yaw rate the subject walks a straight
line; with one it walks an arc, and an arc with zero speed is an in-place
turn.  The script works out each phase's start time and start pose once,
by running the phases to their ends.  The last phase holds past the end of
the script, so a script that ends standing keeps the subject still.

The default script runs eight phases over 50 s: stand, walk forward and
back (2.4 m in 6 s each), sidestep left and right (2.4 m in 7 s each)
without turning, a quarter circle of radius 2.4 m walked facing the path
tangent, a 180-degree in-place clockwise rotation in 8 s, and a final
stand.  The subject starts at the origin facing +x ("top of the map"); the
drone starts 3.6 m in front, aimed 30 degrees off the subject so it must
yaw left to center them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .pose import Pose, wrap_angle, wrap_angles

WALK_DIST = 2.4
CIRCLE_RADIUS = 2.4
SEPARATION = 3.6
HEADING_OFFSET = math.radians(30.0)


@dataclass(frozen=True)
class Phase:
    name: str
    duration: float
    forward: float = 0.0    # m/s along the subject's facing axis
    left: float = 0.0       # m/s to the subject's left
    yaw_rate: float = 0.0   # rad/s

    def state(self, start: Pose, tau) -> Pose:
        """Pose tau seconds after starting from `start`.  tau may be an
        array of offsets; a component that does not change along the phase
        stays a scalar."""
        u, w, om = self.forward, self.left, self.yaw_rate
        th0 = start.theta
        c0, s0 = math.cos(th0), math.sin(th0)
        if om == 0.0:
            return Pose(start.x + (u * c0 - w * s0) * tau, start.y + (u * s0 + w * c0) * tau,
                        start.z, th0)
        th = th0 + om * tau
        if isinstance(th, np.ndarray):
            c, s, th = np.cos(th), np.sin(th), wrap_angles(th)
        else:
            c, s, th = math.cos(th), math.sin(th), wrap_angle(th)
        return Pose(start.x + (u * (s - s0) + w * (c - c0)) / om,
                    start.y + (u * (c0 - c) + w * (s - s0)) / om,
                    start.z, th)


@dataclass(frozen=True)
class ScenarioScript:
    phases: tuple
    drone_start: Pose
    subject_start: Pose
    # derived once from the phases: start time and start pose of each phase
    starts: tuple = field(init=False, repr=False, compare=False)
    start_poses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phases = tuple(self.phases)
        if not phases or not all(p.duration > 0 for p in phases):
            raise SchemaError("a scenario script needs phases, each with a duration > 0")
        t, pose = 0.0, self.subject_start
        starts, start_poses = [], []
        for p in phases:
            starts.append(t)
            start_poses.append(pose)
            t += p.duration
            pose = p.state(pose, p.duration)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "starts", tuple(starts))
        object.__setattr__(self, "start_poses", tuple(start_poses))

    @property
    def total_duration(self) -> float:
        return self.phase_end(-1)

    def phase_end(self, index: int) -> float:
        return self.starts[index] + self.phases[index].duration


def default_script() -> ScenarioScript:
    t_walk, t_side, t_arc, t_spin = 6.0, 7.0, 6.0, 8.0   # phase durations, s
    arc_rate = (math.pi / 2.0) / t_arc
    phases = (
        Phase("stand", 5.0),
        Phase("forward", t_walk, forward=WALK_DIST / t_walk),
        Phase("backward", t_walk, forward=-WALK_DIST / t_walk),
        Phase("side_left", t_side, left=WALK_DIST / t_side),
        Phase("side_right", t_side, left=-WALK_DIST / t_side),
        # facing the tangent of a circle of radius R: forward speed R * omega
        Phase("quarter_circle", t_arc, forward=CIRCLE_RADIUS * arc_rate, yaw_rate=arc_rate),
        Phase("spin_180", t_spin, yaw_rate=-math.pi / t_spin),
        Phase("stand", 5.0),
    )
    # drone ahead of the subject along its facing axis, yawed 30 deg short
    # of the bearing back to the subject
    drone_start = Pose(SEPARATION, 0.0, 0.0, wrap_angle(math.pi - HEADING_OFFSET))
    return ScenarioScript(phases=phases, drone_start=drone_start,
                          subject_start=Pose(0.0, 0.0, 0.0, 0.0))


def subject_state_at(t, script: ScenarioScript) -> Pose:
    """Ground-truth subject pose at each time of the 1-D ascending array t
    (a negative time reads as 0).

    Returns a Pose whose every field is an array as long as t.  Motion is
    piecewise analytic, so sampling is exact at any instant; each phase's
    closed form is evaluated once over the times it covers.
    """
    ts = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
    if ts.ndim != 1 or np.any(ts[1:] < ts[:-1]):
        raise ValueError("sample times must be a 1-D array in ascending order")
    # phase i covers starts[i] <= t < starts[i + 1], as bisect_right decides
    edges = [0, *np.searchsorted(ts, script.starts[1:], side="left").tolist(), ts.size]
    out = np.empty((4, ts.size))
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if lo < hi:
            pose = script.phases[i].state(script.start_poses[i], ts[lo:hi] - script.starts[i])
            for row, v in zip(out[:, lo:hi], pose):
                row[:] = v
    return Pose(*out)
