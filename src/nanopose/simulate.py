"""Closed-loop tracking simulation on a deterministic event timeline.

Four coupled loops run on one clock: dynamics at 500 Hz, drone state
readout at 100 Hz, and an observation/control pair at the inference rate.
Each observation reflects the relative pose one inference period in the
past (captured with the drone pose of that instant), is disturbed by the
per-component noise model, transformed to the odometry frame with the
current 100 Hz drone readout, fused by the per-component Kalman filters,
and turned into a velocity set-point that holds until the next observation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control import (ControlConfig, DroneState, SubjectEstimate, step_dynamics, target_pose,
                      velocity_command)
from .errors import SchemaError, finite_real, require_positive
from .kalman import Kalman1D
from .pose import Pose, to_drone, to_odometry, wrap_angle
from .scenario import ScenarioScript, default_script, subject_state_at

DYNAMICS_HZ = 500.0
READOUT_HZ = 100.0

# per-variant observation noise (std, derived from deployed-model mean
# squared error) and high-level loop rates
NOISE_STD = {
    "160x32": (math.sqrt(0.066), math.sqrt(0.078), math.sqrt(0.020), math.sqrt(0.386)),
    "160x16": (math.sqrt(0.074), math.sqrt(0.083), math.sqrt(0.025), math.sqrt(0.412)),
    "80x32": (math.sqrt(0.088), math.sqrt(0.084), math.sqrt(0.029), math.sqrt(0.504)),
    "mocap": (0.0, 0.0, 0.0, 0.0),
}
RATE_HZ = {"160x32": 48.0, "160x16": 111.0, "80x32": 135.0, "mocap": 30.0}


@dataclass
class NoiseModel:
    std: tuple                    # (x, y, z, theta)
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.std, (tuple, list)) and len(self.std) == 4
                and all(finite_real(s) and s >= 0 for s in self.std)):
            raise SchemaError(f"noise std must be 4 finite values >= 0, got {self.std!r}")
        self.std = tuple(self.std)


def noise_for(variant: str, seed: int = 0) -> NoiseModel:
    if variant not in NOISE_STD:
        raise SchemaError(f"unknown variant {variant!r}; expect one of {sorted(NOISE_STD)}")
    return NoiseModel(std=NOISE_STD[variant], seed=seed)


@dataclass
class SimConfig:
    q_accel_var: float = 1.0      # Kalman white-acceleration variance
    duration: float = None        # defaults to the script length

    def __post_init__(self):
        require_positive(self, "q_accel_var")
        if self.duration is not None:
            require_positive(self, "duration")


LOG_COLUMNS = (
    "t",
    "sub_x", "sub_y", "sub_z", "sub_theta",
    "drone_x", "drone_y", "drone_z", "drone_theta",
    "est_x", "est_y", "est_z", "est_theta",
    "cmd_vx", "cmd_vy", "cmd_vz", "cmd_omega",
    "e_xy", "e_theta",
)


@dataclass
class TrajectoryLog:
    columns: tuple
    rows: list
    observations: list            # (t_img, obs drone-frame 4-tuple, truth drone-frame 4-tuple)
    max_cmd_speed: float
    max_cmd_omega: float
    max_accel: float
    rate_hz: float
    seed: int
    script: ScenarioScript

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.asarray([r[i] for r in self.rows], dtype=np.float64)


def run_experiment(noise: NoiseModel, inference_rate: float,
                   control_cfg: ControlConfig = None, sim_cfg: SimConfig = None,
                   script: ScenarioScript = None) -> TrajectoryLog:
    cfg = control_cfg or ControlConfig()
    sim = sim_cfg or SimConfig()
    script = script or default_script()
    if not (finite_real(inference_rate) and inference_rate > 0):
        raise SchemaError(f"inference rate must be finite and > 0, got {inference_rate!r}")
    rng = np.random.default_rng(noise.seed)
    duration = sim.duration if sim.duration is not None else script.total_duration

    drone = DroneState(*script.drone_start.as_tuple())
    filters = [
        Kalman1D(q=sim.q_accel_var, r=s * s, angular=(i == 3))
        for i, s in enumerate(noise.std)
    ]
    kf_time = None

    dt = 1.0 / DYNAMICS_HZ
    n_ticks = int(round(duration * DYNAMICS_HZ))
    readout_every = int(round(DYNAMICS_HZ / READOUT_HZ))
    obs_period = 1.0 / inference_rate

    cmd_v = (0.0, 0.0, 0.0)
    cmd_w = 0.0
    readout_pose = drone.pose()
    pending = None               # measurement captured one period ago
    next_obs_t = obs_period
    obs_index = 1

    rows = []
    observations = []
    max_cmd_speed = 0.0
    max_cmd_omega = 0.0
    max_accel = 0.0

    def log_row(t):
        sp, _ = subject_state_at(t, script)
        tgt = target_pose(sp, cfg.delta)
        e_xy = math.hypot(drone.x - tgt.x, drone.y - tgt.y)
        e_th = abs(wrap_angle(drone.theta - tgt.theta))
        est = estimate_pose() or (math.nan,) * 4
        rows.append((
            t, sp.x, sp.y, sp.z, sp.theta,
            drone.x, drone.y, drone.z, drone.theta,
            *est, *cmd_v, cmd_w, e_xy, e_th,
        ))

    def estimate_pose():
        if not filters[0].initialized:
            return None
        return tuple(f.p for f in filters)

    def capture(t):
        sp, _ = subject_state_at(t, script)
        rel = to_drone(sp, drone.pose())
        truth = rel.as_tuple()
        eps = rng.standard_normal(4)
        obs = (
            rel.x + eps[0] * noise.std[0],
            rel.y + eps[1] * noise.std[1],
            rel.z + eps[2] * noise.std[2],
            wrap_angle(rel.theta + eps[3] * noise.std[3]),
        )
        observations.append((t, obs, truth))
        return obs

    log_row(0.0)
    pending = capture(0.0)
    t = 0.0
    for tick in range(1, n_ticks + 1):
        t = tick * dt
        # observation/control events due by now
        while next_obs_t <= t + 1e-12:
            t_ev = next_obs_t
            if pending is not None:
                obs_odom = to_odometry(Pose(*pending), readout_pose)
                vals = obs_odom.as_tuple()
                step = t_ev - kf_time if kf_time is not None else None
                for i, f in enumerate(filters):
                    if not f.initialized:
                        f.start(vals[i])
                    else:
                        f.predict(step)
                        f.update(vals[i])
                kf_time = t_ev
                est = SubjectEstimate(
                    pose=Pose(*(f.p for f in filters)),
                    vel=tuple(f.v for f in filters),
                )
                cmd_v, cmd_w = velocity_command(readout_pose, est, cfg)
                max_cmd_speed = max(max_cmd_speed, max(abs(v) for v in cmd_v))
                max_cmd_omega = max(max_cmd_omega, abs(cmd_w))
            pending = capture(t_ev)
            obs_index += 1
            next_obs_t = obs_index * obs_period
        ah = step_dynamics(drone, cmd_v, cmd_w, dt, cfg)
        max_accel = max(max_accel, ah)
        if tick % readout_every == 0:
            readout_pose = drone.pose()
            log_row(t)

    return TrajectoryLog(
        columns=LOG_COLUMNS, rows=rows, observations=observations,
        max_cmd_speed=max_cmd_speed, max_cmd_omega=max_cmd_omega, max_accel=max_accel,
        rate_hz=inference_rate, seed=noise.seed, script=script,
    )


def log_csv(log: TrajectoryLog) -> str:
    lines = [",".join(log.columns)]
    for r in log.rows:
        lines.append(",".join(f"{v:.9g}" for v in r))
    return "\n".join(lines) + "\n"
