"""Tests for the content-addressed trial cache and resume behavior."""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.sim import cache as cache_mod
from repro.sim.cache import TrialCache, cache_enabled, get_cache, trial_key
from repro.sim.persistence import save_sweep
from repro.fabric import Broker
from repro.sim.trials import run_trial, run_trials, sweep_grid


def seed_children(config, n):
    return np.random.SeedSequence(config.seed).spawn(n)


class TestTrialKey:
    def test_deterministic(self, tiny_config):
        a, b = seed_children(tiny_config, 1)[0], seed_children(tiny_config, 1)[0]
        assert trial_key(tiny_config, a) == trial_key(tiny_config, b)

    def test_sensitive_to_config(self, tiny_config):
        child = seed_children(tiny_config, 1)[0]
        other = tiny_config.with_updates(n_tasks=tiny_config.n_tasks + 1)
        assert trial_key(tiny_config, child) != trial_key(other, child)

    def test_sensitive_to_seed_path(self, tiny_config):
        c0, c1 = seed_children(tiny_config, 2)
        assert trial_key(tiny_config, c0) != trial_key(tiny_config, c1)

    def test_sensitive_to_schema_version(self, tiny_config, monkeypatch):
        child = seed_children(tiny_config, 1)[0]
        before = trial_key(tiny_config, child)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999)
        assert trial_key(tiny_config, child) != before


class TestTrialCache:
    def test_roundtrip_bit_identical(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        child = seed_children(tiny_config, 1)[0]
        result = run_trial(tiny_config, child)
        key = trial_key(tiny_config, child)
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.runtime_ticks == result.runtime_ticks
        assert loaded.ideal_ticks == result.ideal_ticks
        assert loaded.counters == result.counters
        assert np.array_equal(loaded.final_loads, result.final_loads)
        assert loaded.config == result.config

    def test_miss_returns_none(self, tmp_path):
        cache = TrialCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1

    def test_corrupted_entry_is_removed(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        key = trial_key(tiny_config, seed_children(tiny_config, 1)[0])
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"format": "truncated')
        assert cache.load(key) is None
        assert not path.exists()

    def test_clear(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        child = seed_children(tiny_config, 1)[0]
        cache.store(trial_key(tiny_config, child), run_trial(tiny_config, child))
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        assert get_cache() is None


class TestRunTrialsCaching:
    def test_second_run_is_all_hits(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        first = run_trials(tiny_config, 4, cache=cache)
        assert cache.stores == 4
        second = run_trials(tiny_config, 4, cache=cache)
        assert cache.hits == 4
        assert np.array_equal(first.factors, second.factors)

    def test_cached_equals_uncached(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        run_trials(tiny_config, 3, cache=cache)
        cached = run_trials(tiny_config, 3, cache=cache)
        fresh = run_trials(tiny_config, 3, cache=False)
        assert np.array_equal(cached.factors, fresh.factors)
        for a, b in zip(cached.results, fresh.results):
            assert a.runtime_ticks == b.runtime_ticks
            assert a.counters == b.counters
            assert np.array_equal(a.final_loads, b.final_loads)

    def test_partial_run_resumes(self, tiny_config, tmp_path):
        """A smaller run's trials are reused by a larger one (the i-th
        child seed does not depend on the trial count)."""
        cache = TrialCache(tmp_path)
        run_trials(tiny_config, 2, cache=cache)
        assert cache.stores == 2
        full = run_trials(tiny_config, 5, cache=cache)
        assert cache.hits == 2 and cache.stores == 5
        fresh = run_trials(tiny_config, 5, cache=False)
        assert np.array_equal(full.factors, fresh.factors)

    def test_seedless_config_not_cached(self, tmp_path):
        config = SimulationConfig(n_nodes=20, n_tasks=200, seed=None)
        cache = TrialCache(tmp_path)
        run_trials(config, 2, cache=cache)
        assert cache.stores == 0 and cache.hits == 0


class TestSweepResume:
    def test_interrupted_sweep_resumes_bit_identical(
        self, tiny_config, tmp_path
    ):
        """In-process version of the `sweep-kill-resume` smoke row: a
        sweep that lost part of its work resumes from the cache and
        serializes byte-identically to an uninterrupted run."""
        values = [0.0, 0.01]
        grid = sweep_grid(tiny_config, "churn_rate", values, 3)
        baseline = Broker(grid, cache=False).run()
        cache = TrialCache(tmp_path)
        # "interruption": only the first point's first trials completed
        run_trials(
            tiny_config.with_updates(
                churn_rate=0.0,
                seed=baseline[0].config.seed,
            ),
            2,
            cache=cache,
        )
        assert cache.stores == 2
        resumed = Broker(grid, cache=cache).run()
        assert cache.hits == 2
        base_path = tmp_path / "base.json"
        res_path = tmp_path / "resumed.json"
        save_sweep(baseline, base_path)
        save_sweep(resumed, res_path)
        assert base_path.read_bytes() == res_path.read_bytes()

    def test_sweep_points_share_nothing(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        Broker(
            sweep_grid(tiny_config, "churn_rate", [0.0, 0.01], 2), cache=cache
        ).run()
        keys = {p.name for p in cache.entries()}
        assert len(keys) == 4  # 2 points x 2 trials, no collisions


class TestCacheCLI:
    def test_cache_info_and_clear(self, tiny_config, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = TrialCache()
        child = seed_children(tiny_config, 1)[0]
        cache.store(trial_key(tiny_config, child), run_trial(tiny_config, child))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "cached trials" in out and "1" in out
        assert main(["cache", "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.entries() == []

    def test_run_prints_trial_accounting(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        manifest = tmp_path / "manifest.json"
        assert main(["run", "fig01", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "cached" in out and "run" in out
        data = json.loads(manifest.read_text())
        assert data["runs"][0]["experiment_id"] == "fig01"

    @pytest.mark.parametrize(
        "experiment, n_trials", [("fig01", 0), ("two_runs", 6)]
    )
    def test_run_manifest_v3_books_each_trial_once(
        self, experiment, n_trials, monkeypatch, tmp_path, capsys,
        tiny_config,
    ):
        """A v3 manifest carries each trial outcome once, as ``fabric.*``
        counters: fig01 runs no trials, ``two_runs`` runs three trials
        fresh and then the same three from the cache."""
        from repro.cli import main
        from repro.experiments import registry
        from repro.experiments.spec import ExperimentResult

        def two_runs(scale=None, seed=0, n_jobs=1):
            run_trials(tiny_config, 3)
            run_trials(tiny_config, 3)
            return ExperimentResult(
                experiment_id="two_runs", title="t", headers=[], rows=[]
            )

        monkeypatch.setitem(
            registry.EXPERIMENTS, "two_runs", ("two runs", two_runs)
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        manifest = tmp_path / "manifest.json"
        assert main(["run", experiment, "--manifest", str(manifest)]) == 0
        data = json.loads(manifest.read_text())
        assert data["format"] == "repro.run_manifest.v3"
        run = data["runs"][0]
        assert run["format"] == "repro.run_manifest.v3"
        assert "run_stats" not in run
        counters = run["metrics"]["counters"]
        assert not [name for name in counters if name.startswith("trials.")]
        done = counters.get("fabric.done", 0)
        cached = counters.get("fabric.cached", 0)
        assert done + cached == n_trials
        assert cached == n_trials // 2
        out = capsys.readouterr().out
        assert f"{n_trials} trials, {cached} cached, {done} run" in out

    def test_manifest_holds_no_queue_gauges(
        self, monkeypatch, tmp_path, tiny_config
    ):
        """Queue depth and ETA describe a live broker: its status
        document reports them, a finished run's manifest carries none."""
        from repro.experiments import registry
        from repro.experiments.runner import run_with_manifest
        from repro.experiments.spec import ExperimentResult
        from repro.fabric import GridPoint

        statuses = []

        def one_broker(scale=None, seed=0, n_jobs=1):
            broker = Broker([GridPoint(config=tiny_config, n_trials=3)])
            statuses.append(broker.status())
            broker.run()
            statuses.append(broker.status())
            return ExperimentResult(
                experiment_id="one_broker", title="t", headers=[], rows=[]
            )

        monkeypatch.setitem(
            registry.EXPERIMENTS, "one_broker", ("one broker", one_broker)
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _, manifest = run_with_manifest("one_broker")
        assert manifest.counters["fabric.done"] == 3
        queue_state = {"fabric.queued", "fabric.running", "fabric.eta_seconds"}
        for block in manifest.as_dict()["metrics"].values():
            assert not queue_state & set(block)
        before, after = statuses
        assert (before["queued"], before["running"]) == (3, 0)
        assert before["eta_seconds"] is None  # no settled runs yet
        assert (after["queued"], after["running"]) == (0, 0)
        assert after["eta_seconds"] == 0.0


class TestTempFileHygiene:
    """Regressions for the orphaned-``.tmp-*`` bugs: staging files used
    to be counted as entries, deleted out from under concurrent stores
    by clear(), and accumulated forever after a SIGKILL mid-store."""

    def _store_one(self, cache, config):
        child = seed_children(config, 1)[0]
        cache.store(trial_key(config, child), run_trial(config, child))

    def test_entries_exclude_staging_files(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        self._store_one(cache, tiny_config)
        bucket = next(p for p in cache.trials_dir.iterdir() if p.is_dir())
        (bucket / ".tmp-abc123.json").write_text("{half a write")
        assert len(cache.entries()) == 1
        assert not any(p.name.startswith(".tmp-") for p in cache.entries())
        # clear() must not delete the in-flight temp either
        assert cache.clear() == 1
        assert (bucket / ".tmp-abc123.json").exists()

    def test_init_sweeps_stale_tmp_only(self, tiny_config, tmp_path):
        import os

        cache = TrialCache(tmp_path)
        self._store_one(cache, tiny_config)
        bucket = next(p for p in cache.trials_dir.iterdir() if p.is_dir())
        stale = bucket / ".tmp-stale.json"
        fresh = bucket / ".tmp-fresh.json"
        stale.write_text("{")
        fresh.write_text("{")
        old = stale.stat().st_mtime - (cache_mod.STALE_TMP_SECONDS + 60)
        os.utime(stale, (old, old))
        TrialCache(tmp_path)  # construction runs the sweep
        assert not stale.exists()  # orphan reclaimed
        assert fresh.exists()  # possibly another process's live write
        assert len(TrialCache(tmp_path).entries()) == 1

    def test_size_bytes_tolerates_vanishing_entry(
        self, tiny_config, tmp_path, monkeypatch
    ):
        cache = TrialCache(tmp_path)
        self._store_one(cache, tiny_config)
        real = cache.entries()
        ghost = cache.trials_dir / "ff" / f"{'f' * 64}.json"
        monkeypatch.setattr(
            TrialCache, "entries", lambda self: real + [ghost]
        )
        # the ghost was unlinked between glob and stat; no crash, and the
        # surviving entry is still counted
        assert cache.size_bytes() == real[0].stat().st_size
