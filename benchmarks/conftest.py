"""Shared helpers for the benchmark harness.

``bench_paper.py`` regenerates every experiment that has rows in
``repro.experiments.claims.CLAIMS`` (at ``quick`` scale by default —
set ``REPRO_SCALE=full`` for the paper's 100-trial versions) through
the ``render`` fixture, which reports the wall time through
pytest-benchmark and prints the reproduced rows, so the run doubles as
the experiment log backing EXPERIMENTS.md.  ``bench_core_ops.py`` and
``bench_protocol.py`` time the ring state and the Chord stack.
"""

from __future__ import annotations

import os

# Pinned before numpy ever spins up its thread pool: benchmark numbers
# must not depend on the host's core count.
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from repro.experiments.spec import ExperimentResult


@pytest.fixture(scope="session", autouse=True)
def _no_trial_cache():
    """Benchmarks time real work — cached trials would fake the numbers."""
    import os

    old = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "0"
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE", None)
    else:
        os.environ["REPRO_CACHE"] = old


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
