"""Poses on R^3 x S^1 and frame transforms about the shared gravity axis.

Angle differences are always real values in [-pi, pi].
"""

import math
from dataclasses import dataclass

import numpy as np


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi]; values already inside pass through unchanged."""
    if -math.pi <= a <= math.pi:
        return a
    return math.atan2(math.sin(a), math.cos(a))


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle applied elementwise to an array of angles."""
    return np.where((-math.pi <= a) & (a <= math.pi), a, np.arctan2(np.sin(a), np.cos(a)))


@dataclass(slots=True)
class Pose:
    x: float
    y: float
    z: float
    theta: float

    def as_tuple(self):
        return (self.x, self.y, self.z, self.theta)


def to_odometry(pred_in_drone: Pose, drone_pose: Pose) -> Pose:
    """Express a drone-relative pose in the world-fixed odometry frame."""
    c, s = math.cos(drone_pose.theta), math.sin(drone_pose.theta)
    return Pose(
        x=drone_pose.x + c * pred_in_drone.x - s * pred_in_drone.y,
        y=drone_pose.y + s * pred_in_drone.x + c * pred_in_drone.y,
        z=drone_pose.z + pred_in_drone.z,
        theta=wrap_angle(pred_in_drone.theta + drone_pose.theta),
    )


def to_drone(pose_in_odom: Pose, drone_pose: Pose) -> Pose:
    """Inverse of to_odometry.  drone_pose may be anything with x, y, z and
    theta, such as the simulator's drone state."""
    dx = pose_in_odom.x - drone_pose.x
    dy = pose_in_odom.y - drone_pose.y
    c, s = math.cos(drone_pose.theta), math.sin(drone_pose.theta)
    return Pose(
        x=c * dx + s * dy,
        y=-s * dx + c * dy,
        z=pose_in_odom.z - drone_pose.z,
        theta=wrap_angle(pose_in_odom.theta - drone_pose.theta),
    )
