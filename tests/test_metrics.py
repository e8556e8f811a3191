import math

import numpy as np
import pytest

from nanopose.errors import SchemaError
from nanopose.metrics import metrics, metrics_csv, rsquared
from nanopose.simulate import RATE_HZ, SimConfig, noise_for, run_experiment


class TestRsquared:
    def test_perfect_predictor(self):
        y = np.array([0.3, -1.2, 4.0, 0.0])
        assert rsquared(y, y) == 1.0

    def test_mean_predictor_zero(self):
        rng = np.random.default_rng(0)
        y = rng.normal(2.0, 1.5, 500)
        pred = np.full_like(y, y.mean())
        assert rsquared(y, pred) == pytest.approx(0.0, abs=1e-12)

    def test_worse_than_mean_negative(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0.0, 1.0, 500)
        pred = y.mean() + rng.normal(0.0, 3.0, 500)  # noisier than the data
        assert rsquared(y, pred) < 0.0

    def test_partial_fit_between_zero_and_one(self):
        rng = np.random.default_rng(2)
        y = np.linspace(0, 10, 400)
        pred = y + rng.normal(0, 1.0, 400)
        assert 0.0 < rsquared(y, pred) < 1.0

    def test_validation(self):
        with pytest.raises(SchemaError):
            rsquared([1.0, 2.0], [1.0])


class TestRunMetrics:
    def test_fields_present_and_csv(self):
        log = run_experiment(noise_for("mocap", seed=0), RATE_HZ["mocap"])
        m = metrics(log)
        text = metrics_csv(m)
        assert text.startswith("metric,value")
        assert "median_e_theta_deg" in text
        assert m.median_e_theta_rad == pytest.approx(math.radians(m.median_e_theta_deg))

    def test_mocap_r2_near_one_for_moving_vars(self):
        log = run_experiment(noise_for("mocap", seed=0), RATE_HZ["mocap"])
        m = metrics(log)
        assert m.r2["x"] > 0.999
        assert m.r2["theta"] > 0.999

    def test_noise_lowers_r2(self):
        clean = metrics(run_experiment(noise_for("mocap", seed=1), 48.0))
        noisy = metrics(run_experiment(noise_for("160x32", seed=1), 48.0))
        assert noisy.r2["x"] < clean.r2["x"]

    def test_phase0_distance_absent_when_run_ends_first(self):
        # phase 0 of the default script ends at 5 s
        short = metrics(run_experiment(noise_for("mocap", seed=0), RATE_HZ["mocap"],
                                       sim_cfg=SimConfig(duration=2.0)))
        assert math.isnan(short.phase0_final_distance)
        full = metrics(run_experiment(noise_for("mocap", seed=0), RATE_HZ["mocap"],
                                      sim_cfg=SimConfig(duration=5.0)))
        assert math.isfinite(full.phase0_final_distance)
