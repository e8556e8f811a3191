import math
from bisect import bisect_right

import numpy as np
import pytest

from nanopose.control import ControlConfig, target_pose, velocity_command
from nanopose.errors import SchemaError
from nanopose.metrics import metrics
from nanopose.pose import Pose, wrap_angle
from nanopose.scenario import Phase, ScenarioScript, default_script, subject_state_at
from nanopose.simulate import (DYNAMICS_HZ, EVENT_SLACK, NOISE_STD, RATE_HZ, READOUT_HZ, NoiseModel,
                               SimConfig, _events_due, noise_for, run_experiment)

from oracles import reference_proxy

CFG = ControlConfig()
READOUT_TICKS = round(DYNAMICS_HZ / READOUT_HZ)   # dynamics ticks per 100 Hz readout


def est(x, y, z, th, vel=(0, 0, 0, 0)):
    """The subject's estimated pose and velocity, as velocity_command takes them."""
    return (x, y, z, th), vel


def state_at(t, script):
    """The subject's pose at the single time t."""
    return Pose(*(c[0] for c in subject_state_at([t], script)))


class TestVelocityCommand:
    def test_fixed_point_zero_command(self):
        # drone already at the target, facing the subject
        subj = est(0.0, 0.0, 0.0, 0.0)
        drone = (CFG.delta, 0.0, 0.0, math.pi)
        (vx, vy, vz), w = velocity_command(drone, *subj, CFG)
        assert (vx, vy, vz) == (0.0, 0.0, 0.0)
        assert w == 0.0

    def test_forward_clamped_to_1(self):
        subj = est(0.0, 0.0, 0.0, 0.0)
        drone = (3.6, 0.0, 0.0, math.pi)
        cfg = ControlConfig(delta=1.3, tau=1.0)
        (vx, _, _), _ = velocity_command(drone, *subj, cfg)
        # (3.6 - 1.3) / 1 = 2.3 clamps at 1; sign points back at the subject
        assert vx == -1.0

    def test_30_degree_bearing(self):
        subj = est(1.0, math.tan(math.radians(30.0)), 0.0, 0.0)
        drone = (0.0, 0.0, 0.0, 0.0)
        cfg = ControlConfig(tau=1.0)
        _, w = velocity_command(drone, *subj, cfg)
        assert w == pytest.approx(0.5236, abs=1e-4)

    def test_coincident_holds_heading(self):
        subj = est(0.0, 0.0, 0.0, 1.0)
        drone = (0.0, 0.0, 0.0, 0.4)
        _, w = velocity_command(drone, *subj, CFG)
        assert w == 0.0

    def test_clamps_always_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            subj = est(*rng.uniform(-8, 8, 3), rng.uniform(-math.pi, math.pi),
                       vel=tuple(rng.uniform(-3, 3, 4)))
            drone = (*rng.uniform(-8, 8, 3), rng.uniform(-math.pi, math.pi))
            (vx, vy, vz), w = velocity_command(drone, *subj, CFG)
            assert max(abs(vx), abs(vy), abs(vz)) <= CFG.v_max
            assert abs(w) <= CFG.omega_max

    def test_drives_toward_target_pose(self):
        # unclamped, the linear command is the gap to target_pose's position
        # over tau plus the subject's velocity: one standoff rule for both
        rng = np.random.default_rng(3)
        cfg = ControlConfig(tau=1.0, v_max=100.0)
        for _ in range(200):
            pose, vel = est(*rng.uniform(-8, 8, 3).tolist(), rng.uniform(-math.pi, math.pi),
                            vel=tuple(rng.uniform(-1, 1, 4).tolist()))
            drone = (*rng.uniform(-8, 8, 3).tolist(), rng.uniform(-math.pi, math.pi))
            v, _ = velocity_command(drone, pose, vel, cfg)
            tgt = target_pose(pose, cfg.delta)
            assert v == tuple((tgt[i] - drone[i]) / cfg.tau + vel[i] for i in range(3))


class TestDynamics:
    """The drone's dynamics proxy, which only run_experiment's tick loop
    integrates, checked through the logs of whole runs."""

    DT = 1.0 / DYNAMICS_HZ

    def replay(self, log, cfg):
        """The reference proxy flown from the script's start under the
        logged commands: events fire on readout ticks, so row k's command
        holds from tick 5k (row 0's from tick 1) until the next row's."""
        ticks = READOUT_TICKS * (len(log.rows) - 1)
        cmd = log.rows[:, [log.columns.index(c) for c in ("cmd_vx", "cmd_vy", "cmd_vz", "cmd_omega")]]
        commands = [tuple(cmd[tick // READOUT_TICKS].tolist()) for tick in range(1, ticks + 1)]
        return reference_proxy(log.script.drone_start, commands, self.DT, cfg)

    @pytest.mark.parametrize("variant,seed,cfg", [
        ("80x32", 0, CFG),
        ("160x16", 1, ControlConfig(tau=0.2, v_max=2.0, a_max=1.0, t_v=0.1, t_omega=0.05)),
        ("mocap", 2, ControlConfig(delta=0.8, t_v=0.02, t_omega=0.9)),
    ])
    def test_replay_matches_reference_proxy(self, variant, seed, cfg):
        # every event k at 100 Hz is due on the readout tick 5k, not before
        period = 1.0 / 100.0
        for k in range(1, 5001):
            tick = READOUT_TICKS * k
            assert (k * period <= tick * self.DT + EVENT_SLACK
                    and not k * period <= (tick - 1) * self.DT + EVENT_SLACK), k
        log = run_experiment(noise_for(variant, seed), 100.0, control_cfg=cfg)
        poses, largest = self.replay(log, cfg)
        drone = log.rows[:, [log.columns.index(c) for c in ("drone_x", "drone_y", "drone_z", "drone_theta")]]
        assert drone[0].tolist() == list(log.script.drone_start)
        assert drone[1:].tolist() == [list(p) for p in poses[READOUT_TICKS - 1::READOUT_TICKS]]
        assert log.max_accel == largest

    def test_reference_step_response(self):
        # after one time constant 1 - e^-1 of a unit step, modulo the
        # acceleration clamp, and the step reached after 6 s
        poses, largest = reference_proxy((0.0, 0.0, 0.0, 0.0), [(1.0, 0.0, 0.0, 0.0)] * 3150, self.DT, CFG)
        n = int(CFG.t_v / self.DT)
        speed = [(b[0] - a[0]) / self.DT for a, b in zip(poses, poses[1:])]
        assert speed[n - 2] == pytest.approx(1 - math.exp(-1), abs=0.12)
        assert speed[-1] == pytest.approx(1.0, abs=1e-3)
        assert largest == CFG.a_max

    def test_still_at_standoff_never_moves(self):
        # a drone that starts at the standoff pose of a still subject, under
        # mocap noise, is commanded nothing and never leaves its start
        sub = default_script().subject_start
        start = Pose(*target_pose(sub, CFG.delta))
        script = ScenarioScript(phases=(Phase("stand", 5.0),), drone_start=start, subject_start=sub)
        for rate in (30.0, 48.0, 111.0):
            log = run_experiment(noise_for("mocap"), rate, script=script)
            for name in ("drone_x", "drone_y", "drone_z", "drone_theta"):
                assert (log.column(name) == getattr(start, name.removeprefix("drone_"))).all(), name
            for name in ("cmd_vx", "cmd_vy", "cmd_vz", "cmd_omega"):
                assert (log.column(name) == 0.0).all(), name
            assert log.max_accel == 0.0

    def test_acceleration_bound_over_random_configs(self):
        rng = np.random.default_rng(1)
        for variant in ("160x32", "160x16", "80x32"):
            for seed in range(4):
                cfg = ControlConfig(delta=rng.uniform(0.5, 2.0), tau=rng.uniform(0.1, 2.0),
                                    v_max=rng.uniform(0.2, 3.0), omega_max=rng.uniform(0.2, 2.0),
                                    a_max=rng.uniform(0.1, 5.0), t_v=rng.uniform(0.002, 1.0),
                                    t_omega=rng.uniform(0.002, 1.0))
                log = run_experiment(noise_for(variant, seed), RATE_HZ[variant], control_cfg=cfg,
                                     sim_cfg=SimConfig(duration=8.0))
                assert 0.0 < log.max_accel <= cfg.a_max
        assert CFG.a_max == pytest.approx(9.81 * math.sin(math.radians(12.0)))
        assert CFG.a_max < 2.04 + 1e-3


class TestScenario:
    def test_total_duration_50s(self):
        assert default_script().total_duration == 50.0

    def test_phase_geometry(self):
        s = default_script()
        assert state_at(0.0, s) == (0.0, 0.0, 0.0, 0.0)
        p = state_at(11.0, s)  # forward done
        assert p.x == pytest.approx(2.4)
        p = state_at(24.0, s)  # side-left done, orientation unchanged
        assert (p.y, p.theta) == (pytest.approx(2.4), 0.0)
        p = state_at(37.0, s)  # quarter circle done, facing map-left
        assert p.x == pytest.approx(2.4)
        assert p.y == pytest.approx(2.4)
        assert p.theta == pytest.approx(math.pi / 2)
        p = state_at(45.0, s)  # in-place 180 done, facing map-right
        assert p.theta == pytest.approx(-math.pi / 2)

    def test_pose_continuous_at_phase_boundaries(self):
        s = default_script()
        for i in range(len(s.phases) - 1):
            b = s.phase_end(i)
            before = state_at(math.nextafter(b, 0.0), s)
            at = state_at(b, s)
            assert abs(before.x - at.x) <= 1e-12 and abs(before.y - at.y) <= 1e-12
            assert abs(wrap_angle(before.theta - at.theta)) <= 1e-12

    def test_array_sampling_matches_scalar(self):
        # each time against the closed form of its phase, which bisect_right
        # picks: phase i covers starts[i] <= t < starts[i + 1]
        s = default_script()
        ts = np.sort(np.concatenate([np.linspace(-1.0, 55.0, 401), s.starts,
                                     [math.nextafter(b, 0.0) for b in s.starts[1:]]]))
        pose = subject_state_at(ts, s)
        for i, t in enumerate(np.maximum(ts, 0.0).tolist()):
            k = bisect_right(s.starts, t) - 1
            p = s.phases[k].state(s.start_poses[k], t - s.starts[k])
            assert (pose.x[i], pose.y[i], pose.z[i]) == pytest.approx((p.x, p.y, p.z), abs=1e-12)
            assert abs(wrap_angle(pose.theta[i] - p.theta)) <= 1e-12
        for bad in (ts[::-1], ts.reshape(-1, 1), 1.0):
            with pytest.raises(ValueError):
                subject_state_at(bad, s)

    def test_initial_offset_30_degrees(self):
        s = default_script()
        bearing = math.atan2(-s.drone_start.y, -s.drone_start.x)
        off = abs(bearing - s.drone_start.theta) % (2 * math.pi)
        assert min(off, 2 * math.pi - off) == pytest.approx(math.radians(30.0))

    def test_target_pose_faces_subject(self):
        x, _, _, theta = target_pose(state_at(0.0, default_script()), 1.3)
        assert x == pytest.approx(1.3)
        assert abs(theta) == pytest.approx(math.pi)


class TestRunExperiment:
    def test_deterministic_bit_identical(self):
        a = run_experiment(noise_for("80x32", seed=5), RATE_HZ["80x32"])
        b = run_experiment(noise_for("80x32", seed=5), RATE_HZ["80x32"])
        assert np.array_equal(a.rows, b.rows, equal_nan=True)
        assert np.array_equal(a.observations, b.observations, equal_nan=True)

    # metrics of the event loop before it ran on plain floats; the rewrite
    # must reproduce them (the 7.3 s run is not a whole number of periods).
    # p95_e_xy, the phase-0 distance and R^2 were captured from the loop
    # that still built its log and observations as tuples.
    PINNED = [
        ("mocap", 0, None, 0.017159863586173375, 0.002961721878401491, 1501,
         0.33672360620275305, 1.3051201820345868, (1.0, 1.0, 1.0, 1.0)),
        ("80x32", 5, None, 0.17843640755745516, 0.0888370410229391, 6751,
         0.7273330969306281, 1.282279416613176,
         (0.2619270424208364, -0.9064890273673318, -33.27445819047426, -0.5214373266575678)),
        ("160x32", 3, 7.3, 0.21937974516044798, 0.07662872164355175, 351,
         2.209114696461123, 1.2754164783419588,
         (0.8893898785365137, 0.5122294078922192, -6.532791375991938, -0.7178027813732213)),
    ]

    @pytest.mark.parametrize("variant,seed,duration,e_xy,e_theta,n_obs,p95_e_xy,phase0,r2", PINNED,
                             ids=["-".join(map(str, p[:6])) for p in PINNED])
    def test_metrics_pinned(self, variant, seed, duration, e_xy, e_theta, n_obs, p95_e_xy, phase0, r2):
        log = run_experiment(noise_for(variant, seed=seed), RATE_HZ[variant],
                             sim_cfg=SimConfig(duration=duration))
        m = metrics(log)
        assert m.median_e_xy == pytest.approx(e_xy, rel=1e-9)
        assert m.median_e_theta_rad == pytest.approx(e_theta, rel=1e-9)
        assert m.p95_e_xy == pytest.approx(p95_e_xy, rel=1e-9)
        assert m.phase0_final_distance == pytest.approx(phase0, rel=1e-9)
        assert tuple(m.r2.values()) == pytest.approx(r2, rel=1e-9)
        assert (m.max_cmd_speed, m.max_cmd_omega) == (CFG.v_max, CFG.omega_max)
        assert m.max_accel == pytest.approx(CFG.a_max, rel=1e-9)
        n_rows = 1 + round((duration or log.script.total_duration) * 100)
        assert (log.rows.shape, log.rows.dtype) == ((n_rows, len(log.columns)), np.float64)
        assert (log.observations.shape, log.observations.dtype) == ((n_obs, 9), np.float64)

    @pytest.mark.parametrize("rate", [30.0, 48.0, 111.0, 135.0, 1000.0, 7.0 / 3.0])
    @pytest.mark.parametrize("n_ticks", [0, 1, 999, 1000, 3650, 25000])
    def test_event_count_matches_the_loop_rule(self, rate, n_ticks):
        # one observation at t = 0 plus one per event: event k >= 1 fires on
        # the first tick t with k * period <= t + EVENT_SLACK
        dt, period = 1.0 / 500.0, 1.0 / rate
        k = 1
        for tick in range(1, n_ticks + 1):
            while k * period <= tick * dt + EVENT_SLACK:
                k += 1
        duration = n_ticks * dt or dt / 4     # under half a tick runs 0 ticks
        log = run_experiment(noise_for("160x32", seed=0), rate, sim_cfg=SimConfig(duration=duration))
        assert len(log.observations) == k
        # the filters' gain schedules are sized by the same rule
        assert _events_due(n_ticks * dt + EVENT_SLACK, period) == k - 1

    def test_event_limit_is_inclusive(self, monkeypatch):
        # 2 s: 1000 dynamics ticks; at 500 Hz, 2 + 1000 captures
        import nanopose.simulate as S

        for rate, need, what in ((30.0, 1000, "dynamics ticks"), (500.0, 1002, "captures")):
            monkeypatch.setattr(S, "MAX_EVENTS", need)
            run_experiment(noise_for("mocap"), rate, sim_cfg=SimConfig(duration=2.0))
            monkeypatch.setattr(S, "MAX_EVENTS", need - 1)
            with pytest.raises(SchemaError, match=f"more than {need - 1:,} {what}"):
                run_experiment(noise_for("mocap"), rate, sim_cfg=SimConfig(duration=2.0))

    def test_mocap_converges_and_regulates(self):
        log = run_experiment(noise_for("mocap", seed=1), RATE_HZ["mocap"])
        m = metrics(log)
        assert abs(m.phase0_final_distance - 1.3) < 0.1
        assert m.median_e_theta_deg < 5.0

    def test_stationary_subject_error_to_zero(self):
        # freeze the script in phase 0 by shortening the run
        log = run_experiment(noise_for("mocap", seed=2), 30.0, sim_cfg=SimConfig(duration=5.0))
        c = log.columns
        last = log.rows[-1]
        assert last[c.index("e_xy")] < 0.05
        assert last[c.index("e_theta")] < math.radians(1.5)

    def test_clamps_recorded(self):
        log = run_experiment(noise_for("160x16", seed=3), RATE_HZ["160x16"])
        cfg = ControlConfig()
        assert log.max_cmd_speed <= cfg.v_max + 1e-9
        assert log.max_cmd_omega <= cfg.omega_max + 1e-9
        assert log.max_accel <= cfg.a_max + 1e-9

    def test_zero_noise_beats_noisy_exy(self):
        clean = metrics(run_experiment(noise_for("mocap", seed=4), RATE_HZ["mocap"])).median_e_xy
        for variant in ("160x32", "160x16", "80x32"):
            noisy = metrics(run_experiment(noise_for(variant, seed=4), RATE_HZ[variant])).median_e_xy
            assert clean < noisy

    @pytest.mark.parametrize("seed", [-3, 1.5, True, False, np.int64(2), "1", None])
    @pytest.mark.parametrize("std", [NOISE_STD["80x32"], NOISE_STD["mocap"]])
    def test_noise_seed_must_be_an_int(self, std, seed):
        # a bool, float or numpy integer is no int, and mocap's all-zero std,
        # which never draws, takes no other seed either
        with pytest.raises(SchemaError, match="seed"):
            NoiseModel(std, seed=seed)
        with pytest.raises(SchemaError, match="seed"):
            noise_for("80x32", seed=seed)

    def test_theta_stays_wrapped(self):
        log = run_experiment(noise_for("80x32", seed=6), RATE_HZ["80x32"])
        th = log.column("drone_theta")
        assert (np.abs(th) <= math.pi + 1e-12).all()


class TestCustomScript:
    """A script the caller builds drives the subject, the target and the
    phase-0 distance; nothing falls back to the default script."""

    def script(self):
        d = default_script()
        return ScenarioScript(phases=(Phase("stand", 2.0), Phase("forward", 3.0, forward=0.5)),
                              drone_start=d.drone_start, subject_start=d.subject_start)

    def test_motion_follows_script(self):
        s = self.script()
        assert s.total_duration == 5.0 and s.phase_end(0) == 2.0
        assert state_at(1.0, s).x == 0.0
        p = state_at(4.0, s)
        assert p.x == pytest.approx(1.0)
        assert target_pose(p, 1.3)[0] == pytest.approx(2.3)

    def test_rejects_empty_or_zero_length_phases(self):
        d = default_script()
        for phases in ((), (Phase("stand", 2.0), Phase("forward", 0.0, forward=0.5))):
            with pytest.raises(SchemaError):
                ScenarioScript(phases=phases, drone_start=d.drone_start, subject_start=d.subject_start)

    def test_run_logs_script(self):
        s = self.script()
        log = run_experiment(noise_for("mocap", seed=0), RATE_HZ["mocap"], script=s)
        assert log.script is s
        t, sub_x = log.column("t"), log.column("sub_x")
        assert t[-1] == pytest.approx(5.0)
        assert np.allclose(sub_x, np.maximum(t - 2.0, 0.0) * 0.5, atol=1e-12)
        gap_x = log.column("drone_x") - sub_x
        gap_y = log.column("drone_y") - log.column("sub_y")
        # the subject faces +x throughout, so the target is delta further along x
        assert np.allclose(log.column("e_xy"), np.hypot(gap_x - CFG.delta, gap_y), atol=1e-12)
        i = int(np.argmin(np.abs(t - s.phase_end(0))))
        assert metrics(log).phase0_final_distance == pytest.approx(math.hypot(gap_x[i], gap_y[i]))
