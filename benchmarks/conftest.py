"""Shared helpers for the benchmark harness.

``bench_paper.py`` regenerates every experiment that has rows in
``repro.experiments.claims.CLAIMS`` (at ``quick`` scale by default —
set ``REPRO_SCALE=full`` for the paper's 100-trial versions) through
the ``render`` fixture, which reports the wall time through
pytest-benchmark and prints the reproduced rows, so the run doubles as
the experiment log backing EXPERIMENTS.md; its trials share one cache
made fresh for the session (``session_trial_cache``), so a cell that
several experiments share is simulated once.  ``bench_core_ops.py`` and
``bench_protocol.py`` time the ring state and the Chord stack, uncached.
"""

from __future__ import annotations

import os
import tempfile

# Pinned before numpy ever spins up its thread pool: benchmark numbers
# must not depend on the host's core count.
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from repro.experiments.spec import ExperimentResult


@pytest.fixture(scope="session", autouse=True)
def _no_trial_cache():
    """Benchmarks time real work — cached trials would fake the numbers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE", "0")
        yield


@pytest.fixture(scope="session")
def _session_cache_dir():
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as path:
        yield path


@pytest.fixture(scope="module")
def session_trial_cache(_session_cache_dir):
    """Cache trials in a directory made fresh for this session, so an
    identical (config, seed) cell that several experiments share runs
    once per session; nothing is read from, or left for, another one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE", "1")
        mp.setenv("REPRO_CACHE_DIR", _session_cache_dir)
        yield


def run_and_render(benchmark, fn, **kwargs) -> ExperimentResult:
    """Run an experiment once under the benchmark timer and print it."""
    result = benchmark.pedantic(
        lambda: fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(result.render())
    return result


@pytest.fixture
def render(benchmark):
    def _run(fn, **kwargs) -> ExperimentResult:
        return run_and_render(benchmark, fn, **kwargs)

    return _run
