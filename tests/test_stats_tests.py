"""Tests for confidence intervals and Welch comparisons."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import SimulationConfig
from repro.metrics.stats_tests import compare_factors, mean_ci, welch_t
from repro.sim.trials import run_trials


class TestMeanCi:
    def test_interval_contains_mean(self, rng):
        x = rng.normal(10, 2, size=50)
        mean, lo, hi = mean_ci(x)
        assert lo < mean < hi
        assert mean == pytest.approx(float(x.mean()))

    def test_coverage_roughly_95(self):
        """~95% of CIs over repeated draws cover the true mean."""
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(400):
            x = rng.normal(5.0, 1.0, size=30)
            _, lo, hi = mean_ci(x)
            hits += lo <= 5.0 <= hi
        assert 0.90 <= hits / 400 <= 0.99

    def test_single_sample(self):
        assert mean_ci(np.array([3.0])) == (3.0, 3.0, 3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_ci(np.array([]))

    def test_narrower_with_more_samples(self, rng):
        x = rng.normal(0, 1, size=1000)
        _, lo_small, hi_small = mean_ci(x[:10])
        _, lo_big, hi_big = mean_ci(x)
        assert (hi_big - lo_big) < (hi_small - lo_small)


class TestWelch:
    def test_detects_separated_means(self, rng):
        a = rng.normal(5.0, 0.5, size=40)
        b = rng.normal(7.0, 0.5, size=40)
        result = welch_t(a, b)
        assert result.significant
        assert result.mean_difference < 0
        if result.p_value is not None:
            assert result.p_value < 1e-6

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(42)
        a = rng.normal(5.0, 1.0, size=60)
        b = rng.normal(5.0, 1.0, size=60)
        result = welch_t(a, b)
        assert not result.significant

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            welch_t(np.array([1.0]), np.array([1.0, 2.0]))

    def test_identical_samples(self):
        a = np.array([2.0, 2.0, 2.0])
        result = welch_t(a, a)
        assert result.t_statistic == 0.0
        assert not result.significant


class TestTrialSetComparison:
    def test_strategies_differ_significantly(self):
        base = SimulationConfig(n_nodes=100, n_tasks=10_000, seed=0)
        plain = run_trials(base, 6)
        balanced = run_trials(
            base.with_updates(strategy="random_injection"), 6
        )
        report = balanced.compare_with(plain)
        assert report["significant"]
        assert report["difference"] < 0  # balanced factor is lower

    def test_factor_ci(self):
        trials = run_trials(
            SimulationConfig(n_nodes=60, n_tasks=1200, seed=1), 5
        )
        mean, lo, hi = trials.factor_ci()
        assert lo <= mean <= hi

    def test_compare_report_keys(self):
        a = run_trials(SimulationConfig(n_nodes=40, n_tasks=800, seed=2), 4)
        b = run_trials(SimulationConfig(n_nodes=40, n_tasks=800, seed=3), 4)
        report = compare_factors(a.factors, b.factors)
        assert set(report) >= {
            "mean_a",
            "mean_b",
            "difference",
            "t",
            "significant",
        }


def test_importing_repro_does_not_load_scipy():
    """SciPy is imported on first use only: every CLI call, serve node
    and fabric worker would otherwise pay for it at startup."""
    code = (
        "import sys, repro, repro.cli, repro.sim.trials, "
        "repro.fabric.broker, repro.net.cluster; "
        "sys.exit('scipy' in sys.modules)"
    )
    src = Path(repro.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
