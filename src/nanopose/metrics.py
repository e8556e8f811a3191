"""Run metrics: pose-error statistics and regression quality.

e_xy is the horizontal distance between the drone's actual pose and its
target pose; e_theta the absolute heading difference.  R^2 is the fraction
of target variance the predictions explain: 1 for a perfect predictor, 0
for one that always answers the mean, negative when worse than that.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .simulate import READOUT_HZ, TrajectoryLog


def rsquared(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise SchemaError("rsquared wants two equal-length non-empty vectors")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -math.inf
    return 1.0 - ss_res / ss_tot


@dataclass
class Metrics:
    median_e_xy: float
    p5_e_xy: float
    p95_e_xy: float
    median_e_theta_rad: float
    median_e_theta_deg: float
    p95_e_theta_deg: float
    r2: dict                      # per observed variable, drone frame
    phase0_final_distance: float  # drone-subject distance as phase 0 ends; NaN if the run ends first
    max_cmd_speed: float
    max_cmd_omega: float
    max_accel: float


def _distance_at(log: TrajectoryLog, t: float) -> float:
    """Drone-subject distance at the log row nearest t; NaN if the log ends before t."""
    ts = log.column("t")
    if ts[-1] < t - 0.5 / READOUT_HZ:
        return math.nan
    i = int(np.argmin(np.abs(ts - t)))
    row = log.rows[i]
    c = log.columns
    return math.hypot(
        row[c.index("drone_x")] - row[c.index("sub_x")],
        row[c.index("drone_y")] - row[c.index("sub_y")],
    )


def metrics(log: TrajectoryLog) -> Metrics:
    if len(log.rows) == 0:
        raise SchemaError("empty trajectory log")
    e_xy = log.column("e_xy")
    e_th = log.column("e_theta")
    obs = log.observations[:, 1:5]
    truth = log.observations[:, 5:9]
    names = ("x", "y", "z", "theta")
    r2 = {}
    for i, name in enumerate(names):
        if np.ptp(truth[:, i]) == 0.0:
            # constant ground truth carries no variance to explain
            r2[name] = 1.0 if np.allclose(obs[:, i], truth[:, i]) else math.nan
        else:
            r2[name] = rsquared(truth[:, i], obs[:, i])
    return Metrics(
        median_e_xy=float(np.median(e_xy)),
        p5_e_xy=float(np.percentile(e_xy, 5)),
        p95_e_xy=float(np.percentile(e_xy, 95)),
        median_e_theta_rad=float(np.median(e_th)),
        median_e_theta_deg=float(np.degrees(np.median(e_th))),
        p95_e_theta_deg=float(np.degrees(np.percentile(e_th, 95))),
        r2=r2,
        phase0_final_distance=_distance_at(log, log.script.phase_end(0)),
        max_cmd_speed=log.max_cmd_speed,
        max_cmd_omega=log.max_cmd_omega,
        max_accel=log.max_accel,
    )


def metrics_csv(m: Metrics) -> str:
    pairs = [
        ("median_e_xy_m", m.median_e_xy),
        ("p5_e_xy_m", m.p5_e_xy),
        ("p95_e_xy_m", m.p95_e_xy),
        ("median_e_theta_deg", m.median_e_theta_deg),
        ("p95_e_theta_deg", m.p95_e_theta_deg),
        ("phase0_final_distance_m", m.phase0_final_distance),
        ("max_cmd_speed_mps", m.max_cmd_speed),
        ("max_cmd_omega_radps", m.max_cmd_omega),
        ("max_accel_mps2", m.max_accel),
    ] + [(f"r2_{k}", v) for k, v in m.r2.items()]
    lines = ["metric,value"] + [f"{k},{v:.6g}" for k, v in pairs]
    return "\n".join(lines) + "\n"
