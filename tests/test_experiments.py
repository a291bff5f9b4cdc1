"""Tests of the experiment harness: each table/figure reproduces its shape.

These run at ``quick`` scale with small trial counts; the assertions
check the *qualitative* results the paper reports (orderings, directions,
monotonicity), which are stable at this scale.
"""

import functools
import math

import numpy as np
import pytest

from repro.experiments import claims, run_experiment
from repro.experiments.registry import EXPERIMENTS, experiment_ids
from repro.experiments.spec import ExperimentResult, resolve_scale, trials_for
from repro.errors import ExperimentError


class TestRegistry:
    def test_ids_stable(self):
        assert set(experiment_ids()) == {
            "table1",
            "table2",
            "fig01",
            "fig02_03",
            "fig04_06",
            "fig07_09",
            "fig10",
            "fig11_12",
            "fig13_14",
            "text_claims",
            "ablations",
            "ext_skew",
            "ext_future_work",
            "ext_maintenance",
            "ext_arrivals",
            "ext_failures",
            "ext_adversarial",
        }

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            run_experiment("table9")

    def test_scale_resolution(self, monkeypatch):
        assert resolve_scale(None) == "quick"
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale(None) == "full"
        assert resolve_scale("quick") == "quick"
        with pytest.raises(ExperimentError):
            resolve_scale("huge")

    def test_trials_for(self):
        assert trials_for("quick", quick=5, full=100) == 5
        assert trials_for("full", quick=5, full=100) == 100


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        # restrict to the 3 smallest grid rows via direct measurement
        from repro.experiments.table1 import measure_initial_distribution

        rows = {}
        for n_nodes, n_tasks in [(1000, 100_000), (1000, 500_000)]:
            rows[(n_nodes, n_tasks)] = measure_initial_distribution(
                n_nodes, n_tasks, n_trials=5, seed=0
            )
        return rows

    def test_median_is_ln2_of_mean(self, result):
        for (n_nodes, n_tasks), (median, _sigma) in result.items():
            mean = n_tasks / n_nodes
            assert median == pytest.approx(mean * math.log(2), rel=0.06)

    def test_sigma_close_to_mean(self, result):
        """Table I's observation: σ ≈ mean workload (exponential arcs)."""
        for (n_nodes, n_tasks), (_median, sigma) in result.items():
            mean = n_tasks / n_nodes
            assert sigma == pytest.approx(mean, rel=0.15)

    def test_matches_paper_values(self, result):
        from repro.experiments.table1 import PAPER_TABLE1

        for key, (median, sigma) in result.items():
            paper_median, paper_sigma = PAPER_TABLE1[key]
            assert median == pytest.approx(paper_median, rel=0.08)
            if key == (1000, 100_000):
                # The paper reports sigma=137.27 here, inconsistent with
                # its own exponential signature (sigma≈mean=100) that every
                # other Table I row follows; we match the theory (≈100.5)
                # and flag the paper cell as an outlier in EXPERIMENTS.md.
                assert sigma == pytest.approx(100.5, rel=0.15)
            else:
                assert sigma == pytest.approx(paper_sigma, rel=0.20)


class TestTable2:
    def test_churn_monotonically_helps(self):
        from repro.experiments.table2 import cell

        factors = [
            cell(200, 20_000, churn, n_trials=3, seed=0)
            for churn in (0.0, 0.001, 0.01)
        ]
        assert factors[0] > factors[1] > factors[2]

    def test_more_tasks_amplify_churn_gains(self):
        from repro.experiments.table2 import cell

        few = cell(100, 10_000, 0.01, n_trials=3, seed=0)
        many = cell(100, 100_000, 0.01, n_trials=3, seed=0)
        assert many < few


# The seed each figure experiment runs at here; its claim rows must hold.
FIGURE_SEEDS = {
    "fig01": 0,
    "fig02_03": 0,
    "fig04_06": 1,
    "fig07_09": 1,
    "fig10": 1,
    "fig11_12": 1,
    "fig13_14": 1,
}


@functools.cache
def _figure(experiment: str) -> ExperimentResult:
    return run_experiment(experiment, seed=FIGURE_SEEDS[experiment])


@pytest.mark.parametrize(
    "claim",
    [c for c in claims.CLAIMS if c.experiment in FIGURE_SEEDS],
    ids=lambda c: c.id,
)
def test_figure_claim(claim):
    verdict = claims.Verdict(claim, claim.measure(_figure(claim.experiment)))
    assert verdict.holds, str(verdict)


class TestFig01:
    def test_density_valid(self):
        assert _figure("fig01").data["density"].sum() == pytest.approx(1.0)


class TestFig0203:
    @pytest.fixture(scope="class")
    def result(self):
        return _figure("fig02_03")

    def test_layout_sizes(self, result):
        hashed = result.data["hashed"]
        assert len(hashed.node_ids) == 10
        assert len(hashed.task_ids) == 100
        assert int(hashed.task_counts.sum()) == 100

    def test_projection_on_unit_circle(self, result):
        xy = result.data["hashed"].node_xy
        assert np.allclose(np.hypot(xy[:, 0], xy[:, 1]), 1.0)


class TestComparisonFigures:
    def test_identical_start(self):
        left, right = _figure("fig04_06").data["histograms"][0]
        assert np.array_equal(left.counts, right.counts)
