"""Runtime determinism sanitizer (``repro.sanitize``): the env toggle,
RNG ownership tracking, the asyncio watch, and end-to-end proof that a
sanitized trial stays bit-identical to a plain one."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import sanitize
from repro.config import SimulationConfig
from repro.errors import SanitizeError
from repro.obs import result_fingerprint
from repro.sim.trials import run_trial
from repro.util.rng import make_rng

CONFIG = SimulationConfig(
    strategy="invitation",
    n_nodes=40,
    n_tasks=1500,
    churn_rate=0.02,
    seed=11,
)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
    sanitize.reset()
    yield
    sanitize.reset()


def arm(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_FLAG, "1")


class TestToggle:
    def test_disabled_by_default(self):
        assert not sanitize.enabled()

    def test_env_flag_read_per_call(self, monkeypatch):
        arm(monkeypatch)
        assert sanitize.enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        assert not sanitize.enabled()

    def test_checks_are_inert_when_off(self):
        rng = make_rng(1)
        sanitize.track_rng(rng, "a")
        sanitize.track_rng(rng, "b")  # would raise when armed
        assert sanitize.report_count() == 0


class TestTrackRng:
    def test_conflicting_owner_raises_and_reports(self, monkeypatch):
        arm(monkeypatch)
        rng = make_rng(1)
        sanitize.track_rng(rng, "tick-engine")
        with pytest.raises(SanitizeError, match="rng-aliasing"):
            sanitize.track_rng(rng, "stress-worker-0")
        assert sanitize.report_count() == 1
        assert "tick-engine" in sanitize.reports()[0]

    def test_same_owner_is_idempotent(self, monkeypatch):
        arm(monkeypatch)
        rng = make_rng(1)
        sanitize.track_rng(rng, "tick-engine")
        sanitize.track_rng(rng, "tick-engine")
        assert sanitize.report_count() == 0

    def test_distinct_streams_coexist(self, monkeypatch):
        arm(monkeypatch)
        sanitize.track_rng(make_rng(1), "a")
        sanitize.track_rng(make_rng(1), "b")  # same seed, own stream
        assert sanitize.report_count() == 0

    def test_two_wrappers_over_one_bit_generator_collide(self, monkeypatch):
        arm(monkeypatch)
        rng = make_rng(1)
        alias = np.random.Generator(rng.bit_generator)
        sanitize.track_rng(rng, "a")
        with pytest.raises(SanitizeError):
            sanitize.track_rng(alias, "b")

    def test_reset_clears_ownership(self, monkeypatch):
        arm(monkeypatch)
        rng = make_rng(1)
        sanitize.track_rng(rng, "a")
        sanitize.reset()
        sanitize.track_rng(rng, "b")
        assert sanitize.report_count() == 0


class TestAsyncioWatch:
    def test_blocking_callback_is_reported(self, monkeypatch):
        arm(monkeypatch)

        async def blocky():
            loop = asyncio.get_running_loop()
            sanitize.install_asyncio_watch(loop, slow_callback_s=0.05)
            await asyncio.sleep(0)
            time.sleep(0.2)  # deliberately stall the loop
            await asyncio.sleep(0)

        asyncio.run(blocky())
        assert any(
            "blocked-event-loop" in msg for msg in sanitize.reports()
        )

    def test_off_means_no_debug_flip(self):
        async def probe():
            loop = asyncio.get_running_loop()
            sanitize.install_asyncio_watch(loop)
            return loop.get_debug()

        assert asyncio.run(probe()) is False


@pytest.mark.slow
class TestSanitizedTrials:
    def test_trial_bit_identical_under_sanitizer(self, monkeypatch):
        plain = result_fingerprint(run_trial(CONFIG))
        arm(monkeypatch)
        sanitized = result_fingerprint(run_trial(CONFIG))
        assert plain == sanitized
        assert sanitize.report_count() == 0
