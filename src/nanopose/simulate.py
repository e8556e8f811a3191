"""Closed-loop tracking simulation on a deterministic event timeline.

Four coupled loops run on one clock: dynamics at 500 Hz, drone state
readout at 100 Hz, and an observation/control pair at the inference rate.
Each observation reflects the relative pose one inference period in the
past (captured with the drone pose of that instant), is disturbed by the
per-component noise model, transformed to the odometry frame with the
current 100 Hz drone readout, fused by the per-component Kalman filters,
and turned into a velocity set-point that holds until the next observation.
Events due by a tick fire before its dynamics step, and the readout is
taken after it.  Only the ticks and that feedback run in the Python loop,
on plain floats: the drone's first-order proxy is stated once, in the tick
loop of `run_experiment`, on eight local floats, and poses pass between
`pose`, `kalman` and `control` as (x, y, z, theta) tuples, so no object is
built per tick, event or capture.  The filters' gains depend only on the
event timeline, q and each component's r, so they come from
`kalman.gain_schedule`, which computes them once per (period, q, r) in the
process and serves every later run at that rate and noise preset; the loop
keeps each component's mean (p, v) as locals and runs `kalman.fuse` on
them.  The subject's path at every capture and log time, the scaled noise
(none is drawn when every std is 0, as for mocap), and the log's subject,
target and tracking-error columns do not depend on the loop and are
computed as arrays before and after it.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .control import ControlConfig, target_pose, velocity_command
from .errors import SchemaError, finite_real, require_positive
from .kalman import fuse, gain_schedule
from .pose import to_drone, to_odometry, wrap_angle, wrap_angles
from .scenario import ScenarioScript, default_script, subject_state_at

DYNAMICS_HZ = 500.0
READOUT_HZ = 100.0
EVENT_SLACK = 1e-12   # s; an event due within this of a tick fires on it
MAX_EVENTS = 500_000  # most ticks (1,000 s), and most captures (about 1 kB each), of a run

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
        if not (type(self.seed) is int and self.seed >= 0):    # a bool or float is no int
            raise SchemaError(f"noise seed must be an int >= 0, got {self.seed!r}")
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
    rows: np.ndarray              # (n, len(columns)) float64, one row per 100 Hz readout
    observations: np.ndarray      # (n, 9) float64: t_img, obs drone-frame x, y, z, theta, truth x, y, z, theta
    max_cmd_speed: float
    max_cmd_omega: float
    max_accel: float
    script: ScenarioScript

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _table(tuples: list, width: int) -> np.ndarray:
    """Equal-length tuples of Python floats as an (n, width) float64 array."""
    flat = np.fromiter(chain.from_iterable(tuples), np.float64, len(tuples) * width)
    return flat.reshape(len(tuples), width)


def _check_tick(cfg: ControlConfig, dt: float):
    """Reject time constants the dynamics tick cannot integrate: the Euler
    step of a first-order lag scales the tracking error by 1 - dt/T per
    tick, which stays inside (-1, 1) only while T > dt/2."""
    for name in ("t_v", "t_omega"):
        value = getattr(cfg, name)
        if not value > dt / 2.0:
            raise SchemaError(f"ControlConfig.{name} = {value!r} s is too short for the {1.0 / dt:g} Hz "
                              f"dynamics tick; it must exceed {dt / 2.0:g} s")


def _events_due(t_end: float, period: float) -> int:
    """The number of observation events k >= 1 due by t_end, those with
    k * period <= t_end: the event loop's own test at its last tick."""
    k = int(t_end / period)
    while (k + 1) * period <= t_end:
        k += 1
    while k > 0 and k * period > t_end:
        k -= 1
    return k


def run_experiment(noise: NoiseModel, inference_rate: float,
                   control_cfg: ControlConfig = None, sim_cfg: SimConfig = None,
                   script: ScenarioScript = None) -> TrajectoryLog:
    """Fly the script once, logging every 100 Hz readout and capture.  A run
    of more than MAX_EVENTS (500,000) dynamics ticks or captures raises
    SchemaError before anything is allocated."""
    cfg = control_cfg or ControlConfig()
    sim = sim_cfg or SimConfig()
    script = script or default_script()
    if not (finite_real(inference_rate) and inference_rate > 0):
        raise SchemaError(f"inference rate must be finite and > 0, got {inference_rate!r}")
    dt = 1.0 / DYNAMICS_HZ
    _check_tick(cfg, dt)
    duration = sim.duration if sim.duration is not None else script.total_duration

    # each count is capped before int(), so a product that overflowed to inf converts
    n_ticks = int(round(min(duration * DYNAMICS_HZ, MAX_EVENTS + 1)))
    if n_ticks > MAX_EVENTS:
        raise SchemaError(f"a {duration!r} s run (SimConfig.duration or the script length) needs "
                          f"more than {MAX_EVENTS:,} dynamics ticks")
    readout_every = int(round(DYNAMICS_HZ / READOUT_HZ))
    obs_period = 1.0 / inference_rate
    # One capture at t = 0 and one per observation event k, at k * period.
    # Events k >= 1 are due by k * period <= n_ticks * dt + EVENT_SLACK, so
    # the captures are sized for one more than that bound to absorb float
    # rounding; a longer noise draw leaves its prefix unchanged, and a
    # single draw yields the same stream as one draw of 4 per capture.  The
    # subject's path and the scaled noise do not depend on the loop, so both
    # are computed here for every capture and handed to the loop as floats.
    n_captures = 2 + int(min((n_ticks * dt + EVENT_SLACK) * inference_rate, MAX_EVENTS))
    if n_captures > MAX_EVENTS:
        raise SchemaError(f"inference rate {inference_rate!r} Hz over {n_ticks * dt:g} s needs "
                          f"more than {MAX_EVENTS:,} captures")
    t_capture = np.arange(n_captures) * obs_period
    subject = np.column_stack(subject_state_at(t_capture, script)).tolist()
    if any(noise.std):
        rng = np.random.default_rng(noise.seed)
        disturb = (rng.standard_normal((n_captures, 4)) * noise.std).tolist()
    else:
        disturb = None                          # mocap observes the relative pose exactly

    # One gain schedule per component, sized for the events that fire:
    # event 1 starts the filters at its observation and each later one
    # steps them.  A schedule that loses positive definiteness fails here,
    # before the loop, and only for an event that fires.
    n_events = _events_due(n_ticks * dt + EVENT_SLACK, obs_period)
    try:
        schedules = [gain_schedule(obs_period, sim.q_accel_var, s * s, max(n_events - 1, 0))
                     for s in noise.std]
    except FloatingPointError as e:
        raise SchemaError(f"the tracking filters cannot run with SimConfig.q_accel_var = "
                          f"{sim.q_accel_var!r} and noise std {noise.std}: {e}") from None
    gains = zip(*(k for pair in schedules for k in pair))
    fx = fy = fz = fth = fvx = fvy = fvz = fw = 0.0
    kf_time = None

    # The drone's dynamics proxy: its attitude cascade tracks the held
    # command as a first-order lag, the velocity with time constant t_v and
    # the yaw rate with t_omega.  The horizontal acceleration (v_cmd - v) / t_v
    # is scaled back to magnitude a_max, the 12-degree pitch ceiling's
    # g * sin(12 deg) ~= 2.04 m/s^2, when it exceeds it; the largest magnitude
    # applied is logged as max_accel.  Each tick steps the velocities and yaw
    # rate first, then the position and heading with the new rates
    # (semi-implicit Euler), the heading wrapped to [-pi, pi].  The state is
    # eight floats and the held command four, locals of this loop.
    x, y, z, th = script.drone_start
    vx = vy = vz = w = 0.0
    t_v, t_omega, a_max = cfg.t_v, cfg.t_omega, cfg.a_max
    cmd_v = (0.0, 0.0, 0.0)
    cmd_w = 0.0
    cvx, cvy, cvz = cmd_v
    readout = script.drone_start                 # drone pose at the last 100 Hz readout
    est_cmd = (math.nan,) * 4 + cmd_v + (cmd_w,)  # filter estimate and command, as logged
    next_obs_t = obs_period
    obs_index = 1

    logged = [readout + est_cmd]                 # per 100 Hz row: drone readout, estimate, command
    captured = []                                # per capture: observation, then ground truth
    max_cmd_speed = 0.0
    max_cmd_omega = 0.0
    max_accel = 0.0

    def capture(k, drone):
        rel = to_drone(subject[k], drone)
        if disturb is None:
            obs = rel
        else:
            rx, ry, rz, rth = rel
            ex, ey, ez, eth = disturb[k]
            obs = (rx + ex, ry + ey, rz + ez, wrap_angle(rth + eth))
        captured.append(obs + rel)
        return obs

    pending = capture(0, readout)               # measurement captured one period ago
    for tick in range(1, n_ticks + 1):
        t = tick * dt
        # observation/control events due by now
        while next_obs_t <= t + EVENT_SLACK:
            t_ev = next_obs_t
            o = to_odometry(pending, readout)
            if kf_time is None:
                fx, fy, fz, fth = o
            else:
                ox, oy, oz, oth = o
                step = t_ev - kf_time
                gx0, gx1, gy0, gy1, gz0, gz1, gth0, gth1 = next(gains)
                fx, fvx = fuse(fx, fvx, step, ox, gx0, gx1, False)
                fy, fvy = fuse(fy, fvy, step, oy, gy0, gy1, False)
                fz, fvz = fuse(fz, fvz, step, oz, gz0, gz1, False)
                fth, fw = fuse(fth, fw, step, oth, gth0, gth1, True)
            kf_time = t_ev
            p = (fx, fy, fz, fth)
            cmd_v, cmd_w = velocity_command(readout, p, (fvx, fvy, fvz, fw), cfg)
            cvx, cvy, cvz = cmd_v
            est_cmd = p + cmd_v + (cmd_w,)
            for v in cmd_v:
                if abs(v) > max_cmd_speed:
                    max_cmd_speed = abs(v)
            if abs(cmd_w) > max_cmd_omega:
                max_cmd_omega = abs(cmd_w)
            pending = capture(obs_index, (x, y, z, th))
            obs_index += 1
            next_obs_t = obs_index * obs_period
        # one dynamics tick
        ax = (cvx - vx) / t_v
        ay = (cvy - vy) / t_v
        ah = math.hypot(ax, ay)
        if ah > a_max:
            scale = a_max / ah
            ax *= scale
            ay *= scale
            ah = a_max
        az = (cvz - vz) / t_v
        vx += ax * dt
        vy += ay * dt
        vz += az * dt
        w += (cmd_w - w) / t_omega * dt
        x += vx * dt
        y += vy * dt
        z += vz * dt
        th = wrap_angle(th + w * dt)
        if ah > max_accel:
            max_accel = ah
        if tick % readout_every == 0:
            readout = (x, y, z, th)
            logged.append(readout + est_cmd)

    # the subject, its target and the tracking errors at every log row
    t_log = np.arange(0, n_ticks + 1, readout_every) * dt
    sub = subject_state_at(t_log, script)
    tgt_x, tgt_y, _, tgt_theta = target_pose(sub, cfg.delta)
    rows = np.empty((len(logged), len(LOG_COLUMNS)))
    rows[:, 0] = t_log
    rows[:, 1:5] = np.column_stack(sub)
    rows[:, 5:17] = _table(logged, 12)
    rows[:, 17] = np.hypot(rows[:, 5] - tgt_x, rows[:, 6] - tgt_y)
    rows[:, 18] = np.abs(wrap_angles(rows[:, 8] - tgt_theta))
    observations = np.empty((len(captured), 9))
    observations[:, 0] = t_capture[:len(captured)]
    observations[:, 1:] = _table(captured, 8)

    return TrajectoryLog(
        columns=LOG_COLUMNS, rows=rows, observations=observations,
        max_cmd_speed=max_cmd_speed, max_cmd_omega=max_cmd_omega, max_accel=max_accel,
        script=script,
    )


def log_csv(log: TrajectoryLog) -> str:
    lines = [",".join(log.columns)]
    for r in log.rows.tolist():
        lines.append(",".join(f"{v:.9g}" for v in r))
    return "\n".join(lines) + "\n"
