"""Poses on R^3 x S^1 and frame transforms about the shared gravity axis.

A pose is an (x, y, z, theta) tuple.  `Pose` is that tuple with named
fields, for labels and sampled paths; the frame transforms take either and
return plain tuples, so the simulator's event loop builds no object per
event.  Angle differences are always real values in [-pi, pi].
"""

import math
from typing import NamedTuple

import numpy as np


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi]; values already inside pass through unchanged."""
    if -math.pi <= a <= math.pi:
        return a
    return math.atan2(math.sin(a), math.cos(a))


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle applied elementwise to an array of angles."""
    return np.where((-math.pi <= a) & (a <= math.pi), a, np.arctan2(np.sin(a), np.cos(a)))


class Pose(NamedTuple):
    x: float
    y: float
    z: float
    theta: float


def to_odometry(pred_in_drone, drone_pose) -> tuple:
    """Express a drone-relative pose in the world-fixed odometry frame.
    Both poses, and the result, are (x, y, z, theta) sequences of floats."""
    px, py, pz, pth = pred_in_drone
    x, y, z, th = drone_pose
    c, s = math.cos(th), math.sin(th)
    return (x + c * px - s * py, y + s * px + c * py, z + pz, wrap_angle(pth + th))


def to_drone(pose_in_odom, drone_pose) -> tuple:
    """Inverse of to_odometry, on the same (x, y, z, theta) sequences."""
    px, py, pz, pth = pose_in_odom
    x, y, z, th = drone_pose
    dx = px - x
    dy = py - y
    c, s = math.cos(th), math.sin(th)
    return (c * dx + s * dy, -s * dx + c * dy, pz - z, wrap_angle(pth - th))
