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
EVENT_SLACK = 1e-12   # s; an event due within this of a tick fires on it

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
    script: ScenarioScript

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.asarray([r[i] for r in self.rows], dtype=np.float64)


def _event_count(n_ticks: int, dt: float, period: float) -> int:
    """Observation events a run of n_ticks dynamics ticks fires, under the
    event loop's own rule: event k >= 1 is due at tick time t when
    k*period <= t + EVENT_SLACK."""
    if n_ticks == 0:
        return 0
    horizon = n_ticks * dt + EVENT_SLACK
    k = int(horizon / period)
    while (k + 1) * period <= horizon:
        k += 1
    while k > 0 and k * period > horizon:
        k -= 1
    return k


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

    dt = 1.0 / DYNAMICS_HZ
    n_ticks = int(round(duration * DYNAMICS_HZ))
    readout_every = int(round(DYNAMICS_HZ / READOUT_HZ))
    obs_period = 1.0 / inference_rate
    delta = cfg.delta
    std_x, std_y, std_z, std_th = noise.std
    # One noise row per capture: one at t = 0 and one per observation event.
    # A single draw yields the same stream as one draw of 4 per capture.
    # Rows stay Python floats so the whole loop runs on float arithmetic.
    eps = rng.standard_normal((1 + _event_count(n_ticks, dt, obs_period), 4)).tolist()

    drone = DroneState(*script.drone_start.as_tuple())
    filters = [
        Kalman1D(q=sim.q_accel_var, r=s * s, angular=(i == 3))
        for i, s in enumerate(noise.std)
    ]
    kx, ky, kz, kth = filters
    kf_time = None

    cmd_v = (0.0, 0.0, 0.0)
    cmd_w = 0.0
    readout = script.drone_start.as_tuple()      # drone pose at the last 100 Hz readout
    est_cmd = (math.nan,) * 4 + cmd_v + (cmd_w,)  # filter estimate and command, as logged
    next_obs_t = obs_period
    obs_index = 1

    rows = []
    observations = []
    max_cmd_speed = 0.0
    max_cmd_omega = 0.0
    max_accel = 0.0

    def log_row(t):
        sp = subject_state_at(t, script)[0]
        tgt = target_pose(sp, delta)
        x, y, th = drone.x, drone.y, drone.theta
        rows.append((t, sp.x, sp.y, sp.z, sp.theta, x, y, drone.z, th) + est_cmd
                    + (math.hypot(x - tgt.x, y - tgt.y), abs(wrap_angle(th - tgt.theta))))

    def capture(t, e):
        rel = to_drone(subject_state_at(t, script)[0], drone.pose())
        obs = (
            rel.x + e[0] * std_x,
            rel.y + e[1] * std_y,
            rel.z + e[2] * std_z,
            wrap_angle(rel.theta + e[3] * std_th),
        )
        observations.append((t, obs, rel.as_tuple()))
        return obs

    log_row(0.0)
    pending = capture(0.0, eps[0])              # measurement captured one period ago
    for tick in range(1, n_ticks + 1):
        t = tick * dt
        # observation/control events due by now
        while next_obs_t <= t + EVENT_SLACK:
            t_ev = next_obs_t
            readout_pose = Pose(*readout)
            vals = to_odometry(Pose(*pending), readout_pose).as_tuple()
            if kf_time is None:
                for f, v in zip(filters, vals):
                    f.start(v)
            else:
                step = t_ev - kf_time
                for f, v in zip(filters, vals):
                    f.predict(step)
                    f.update(v)
            kf_time = t_ev
            p = (kx.p, ky.p, kz.p, kth.p)
            est = SubjectEstimate(pose=Pose(*p), vel=(kx.v, ky.v, kz.v, kth.v))
            cmd_v, cmd_w = velocity_command(readout_pose, est, cfg)
            est_cmd = p + cmd_v + (cmd_w,)
            for v in cmd_v:
                if abs(v) > max_cmd_speed:
                    max_cmd_speed = abs(v)
            if abs(cmd_w) > max_cmd_omega:
                max_cmd_omega = abs(cmd_w)
            pending = capture(t_ev, eps[obs_index])
            obs_index += 1
            next_obs_t = obs_index * obs_period
        ah = step_dynamics(drone, cmd_v, cmd_w, dt, cfg)
        if ah > max_accel:
            max_accel = ah
        if tick % readout_every == 0:
            readout = (drone.x, drone.y, drone.z, drone.theta)
            log_row(t)

    return TrajectoryLog(
        columns=LOG_COLUMNS, rows=rows, observations=observations,
        max_cmd_speed=max_cmd_speed, max_cmd_omega=max_cmd_omega, max_accel=max_accel,
        script=script,
    )


def log_csv(log: TrajectoryLog) -> str:
    lines = [",".join(log.columns)]
    for r in log.rows:
        lines.append(",".join(f"{v:.9g}" for v in r))
    return "\n".join(lines) + "\n"
