"""Tests for multi-trial execution, fault tolerance and seed management."""

import multiprocessing.context
import os
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError, TrialError
from repro.fabric import GridPoint
from repro.fabric.broker import (
    Broker,
    fabric_metrics,
    reset_fabric_metrics,
    trial_summary,
)
from repro.sim.trials import (
    default_n_jobs,
    run_trial,
    run_trials,
    sweep_grid,
)


# ----------------------------------------------------------------------
# fault-injection trial functions — module level so "spawn" workers can
# unpickle them; failure state crosses processes via environment/files.
# ----------------------------------------------------------------------
def _failing_trial(config, seed_seq):
    """Trial 1 always raises; the others run normally."""
    if seed_seq.spawn_key[-1] == 1:
        raise RuntimeError("injected failure")
    return run_trial(config, seed_seq)


def _flaky_trial(config, seed_seq):
    """Trial 1 fails on its first attempt only (marker file = retried)."""
    index = seed_seq.spawn_key[-1]
    marker = os.path.join(os.environ["REPRO_TEST_FLAKY_DIR"], f"t{index}")
    if index == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient failure")
    return run_trial(config, seed_seq)


def _crashing_trial(config, seed_seq):
    """Trial 2 hard-kills its worker on the first attempt (no traceback,
    no cleanup — the way a segfault or OOM kill looks to the broker)."""
    index = seed_seq.spawn_key[-1]
    marker = os.path.join(os.environ["REPRO_TEST_FLAKY_DIR"], f"c{index}")
    if index == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(17)
    return run_trial(config, seed_seq)


def _hanging_trial(config, seed_seq):
    time.sleep(600)
    return run_trial(config, seed_seq)  # pragma: no cover


class TestReproducibility:
    def test_same_seed_same_trialset(self, tiny_config):
        a = run_trials(tiny_config, 4)
        b = run_trials(tiny_config, 4)
        assert np.array_equal(a.factors, b.factors)

    def test_trials_are_independent(self, tiny_config):
        trials = run_trials(tiny_config, 6)
        assert len(set(r.runtime_ticks for r in trials.results)) > 1

    def test_different_root_seed(self, tiny_config):
        a = run_trials(tiny_config, 3)
        b = run_trials(tiny_config.with_updates(seed=99), 3)
        assert not np.array_equal(a.factors, b.factors)


class TestParallelism:
    def test_parallel_equals_serial(self, tiny_config):
        serial = run_trials(tiny_config, 4, n_jobs=1, cache=False)
        parallel = run_trials(tiny_config, 4, n_jobs=2, cache=False)
        assert np.array_equal(serial.factors, parallel.factors)

    def test_default_n_jobs_counts_logical_cpus(self):
        assert 1 <= default_n_jobs() <= 8

    def test_repro_n_jobs_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "3")
        assert default_n_jobs() == 3

    def test_repro_n_jobs_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "zero")
        with pytest.raises(ConfigError):
            default_n_jobs()
        monkeypatch.setenv("REPRO_N_JOBS", "0")
        with pytest.raises(ConfigError):
            default_n_jobs()


class TestFaultTolerance:
    def test_failure_is_structured(self, tiny_config):
        with pytest.raises(TrialError) as excinfo:
            run_trials(
                tiny_config, 3, trial_fn=_failing_trial, retries=0,
                cache=False,
            )
        err = excinfo.value
        assert len(err.failures) == 1
        failure = err.failures[0]
        assert failure.trial_index == 1
        assert failure.spawn_key == (1,)
        assert failure.seed_entropy == tiny_config.seed
        assert failure.attempts == 1
        assert "injected failure" in failure.error
        assert err.n_completed == 2  # siblings were not thrown away
        assert "trial 1" in str(err)

    def test_completed_siblings_are_cached(self, tiny_config, tmp_path):
        from repro.sim.cache import TrialCache

        cache = TrialCache(tmp_path)
        with pytest.raises(TrialError):
            run_trials(
                tiny_config, 4, trial_fn=_failing_trial, retries=1,
                cache=cache,
            )
        assert cache.stores == 3  # all non-failing trials preserved

    def test_retry_recovers_transient_failure(
        self, tiny_config, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        reset_fabric_metrics()
        recovered = run_trials(
            tiny_config, 3, trial_fn=_flaky_trial, retries=1, cache=False
        )
        plain = run_trials(tiny_config, 3, cache=False)
        assert np.array_equal(recovered.factors, plain.factors)
        assert fabric_metrics().counter("fabric.retries") == 1

    def test_retries_exhausted(self, tiny_config):
        with pytest.raises(TrialError) as excinfo:
            run_trials(
                tiny_config, 3, trial_fn=_failing_trial, retries=2,
                cache=False,
            )
        assert excinfo.value.failures[0].attempts == 3

    def test_progress_callback(self, tiny_config):
        events = []
        run_trials(tiny_config, 3, cache=False, progress=events.append)
        assert [e["trial"] for e in events] == [0, 1, 2]
        assert all(e["status"] == "ok" for e in events)

    @pytest.mark.slow
    def test_worker_crash_keeps_siblings(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A hard worker death (os._exit) loses only the in-flight
        trial; one retry on a replacement worker completes the set with
        results bit-identical to a serial run.  The death is caught when
        the worker exits, long before its lease would expire."""
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        lease_timeout = 60.0
        broker = Broker(
            [GridPoint(tiny_config, 4)], n_jobs=2, trial_fn=_crashing_trial,
            retries=2, cache=False, lease_timeout=lease_timeout,
        )
        t0 = time.perf_counter()
        recovered = broker.run()[0]
        elapsed = time.perf_counter() - t0
        serial = run_trials(tiny_config, 4, cache=False)
        assert np.array_equal(recovered.factors, serial.factors)
        assert elapsed < lease_timeout / 2, elapsed
        assert broker.metrics.counter("fabric.retries") == 1
        assert broker.metrics.counter("fabric.lease_expired") == 0

    @pytest.mark.slow
    def test_hung_workers_time_out(self, tiny_config):
        broker = Broker(
            [GridPoint(tiny_config, 2)], n_jobs=2, trial_fn=_hanging_trial,
            retries=0, cache=False, lease_timeout=3.0,
        )
        with pytest.raises(TrialError) as excinfo:
            broker.run()
        assert all("timed out" in f.error for f in excinfo.value.failures)

    @pytest.mark.slow
    def test_hung_workers_time_out_on_a_slow_kill(
        self, tiny_config, monkeypatch
    ):
        """A loaded host: a killed hung worker is dead and reaped long
        before the broker gets on with its dispatch loop.  Its unit was
        settled before the kill, so it still reports as a timeout, not
        as a worker death."""
        kill = multiprocessing.context.SpawnProcess.kill

        def slow_kill(proc):
            kill(proc)
            time.sleep(1.0)

        monkeypatch.setattr(
            multiprocessing.context.SpawnProcess, "kill", slow_kill
        )
        broker = Broker(
            [GridPoint(tiny_config, 2)], n_jobs=2, trial_fn=_hanging_trial,
            retries=0, cache=False, lease_timeout=2.0,
        )
        with pytest.raises(TrialError) as excinfo:
            broker.run()
        errors = [f.error for f in excinfo.value.failures]
        assert len(errors) == 2
        assert all("timed out" in e for e in errors), errors


class TestAggregation:
    def test_factor_summary(self, tiny_config):
        trials = run_trials(tiny_config, 5)
        summary = trials.factor_summary()
        assert summary.n_trials == 5
        assert summary.min <= summary.mean <= summary.max
        assert trials.mean_factor == pytest.approx(summary.mean)

    def test_counter_means(self, tiny_config):
        config = tiny_config.with_updates(strategy="random_injection")
        trials = run_trials(config, 3)
        means = trials.counter_means()
        assert means["decision_rounds"] > 0

    def test_zero_trials_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            run_trials(tiny_config, 0)

    def test_negative_retries_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            run_trials(tiny_config, 1, retries=-1)

    def test_run_stats_accounting(self, tiny_config, tmp_path):
        from repro.sim.cache import TrialCache

        cache = TrialCache(tmp_path)
        reset_fabric_metrics()
        t0 = time.perf_counter()
        run_trials(tiny_config, 3, cache=cache)
        run_ms = (time.perf_counter() - t0) * 1000
        run_trials(tiny_config, 3, cache=cache)
        counters = fabric_metrics().as_dict()["counters"]
        assert counters["fabric.done"] == 3
        assert counters["fabric.cached"] == 3
        assert counters["fabric.done"] + counters["fabric.cached"] == 6
        # fresh-run time, booked once per fresh trial, never per cache hit
        assert 0 < counters["fabric.run_ms"] <= round(run_ms) + 1
        line = trial_summary(counters, 1.0)
        assert "6 trials" in line and "3 cached" in line
        assert "3 run" in line and line.endswith("1.0s wall")


class TestSweep:
    def test_sweep_varies_field(self, tiny_config):
        sets = Broker(sweep_grid(tiny_config, "n_tasks", [300, 600], 2)).run()
        assert sets[0].config.n_tasks == 300
        assert sets[1].config.n_tasks == 600
        assert all(ts.n_trials == 2 for ts in sets)

    def test_sweep_points_are_decorrelated(self, tiny_config):
        """Regression: sweep points used to reuse the identical trial
        seed streams (with_updates preserves `seed`), silently running
        common random numbers at every parameter value.  A field that
        does not affect the dynamics exposes this directly."""
        sets = Broker(
            sweep_grid(tiny_config, "max_ticks", [10**6, 2 * 10**6], 3)
        ).run()
        assert sets[0].config.seed != sets[1].config.seed
        assert not np.array_equal(sets[0].factors, sets[1].factors)

    def test_sweep_crn_opt_in(self, tiny_config):
        sets = Broker(
            sweep_grid(
                tiny_config, "max_ticks", [10**6, 2 * 10**6], 3,
                common_random_numbers=True,
            )
        ).run()
        assert sets[0].config.seed == sets[1].config.seed == tiny_config.seed
        assert np.array_equal(sets[0].factors, sets[1].factors)

    def test_sweep_seeds_reproducible(self, tiny_config):
        a, b = (
            Broker(sweep_grid(tiny_config, "churn_rate", [0.0, 0.01], 2)).run()
            for _ in range(2)
        )
        for x, y in zip(a, b):
            assert x.config.seed == y.config.seed
            assert np.array_equal(x.factors, y.factors)

    def test_sweep_over_seed_field(self, tiny_config):
        sets = Broker(sweep_grid(tiny_config, "seed", [1, 2], 2)).run()
        assert [ts.config.seed for ts in sets] == [1, 2]
