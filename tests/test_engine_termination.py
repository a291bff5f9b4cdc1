"""Termination-edge coverage: arrivals_pending / finished / terminated.

The interplay the scale work must not disturb: a run is ``finished``
only when no tasks remain *and* the arrival window has closed; it is
``terminated`` when it can never finish (ring death, unrecoverable
loss); ``max_ticks`` is a truncation, not a completion.
"""

from repro.config import AdversaryModel, FailureModel, SimulationConfig
from repro.sim.engine import TickEngine


def run_engine(config):
    engine = TickEngine(config)
    return engine, engine.run()


class TestRingDeathMidArrivals:
    CONFIG = SimulationConfig(
        n_nodes=12,
        n_tasks=600,
        churn_rate=1.0,  # everyone leaves at tick 1...
        arrival_rate=20.0,
        arrival_until=50,
        failures=FailureModel(
            crash_fraction=1.0, replication_factor=0
        ),  # ...by crashing, with no backups
        seed=3,
    )

    def test_terminates_while_arrivals_still_pending(self):
        engine, result = run_engine(self.CONFIG)
        assert engine.terminated
        assert engine.termination_reason == "ring_empty"
        # the arrival window was still open when the ring died: the run
        # is dead but not "finished" — these are distinct states
        assert engine.arrivals_pending
        assert not engine.finished
        assert result.termination_reason == "ring_empty"
        assert not result.completed
        assert result.runtime_ticks < self.CONFIG.arrival_until

    def test_lost_tasks_are_accounted(self):
        engine, result = run_engine(self.CONFIG)
        assert engine.tasks_lost > 0
        assert (
            result.total_consumed + engine.tasks_lost
            >= self.CONFIG.n_tasks
        )


class TestRingEmptiesOfTasksMidArrivals:
    """``remaining == 0`` inside the arrival window must not finish."""

    CONFIG = SimulationConfig(
        n_nodes=25,
        n_tasks=25,
        arrival_rate=4.0,
        arrival_until=30,
        seed=11,
    )

    def test_drained_ring_keeps_ticking_through_window(self):
        engine = TickEngine(self.CONFIG)
        saw_drained_but_pending = False
        while not engine.finished:
            engine.step()
            if engine.remaining == 0 and engine.arrivals_pending:
                assert not engine.finished
                saw_drained_but_pending = True
        # 25 nodes drain 25 initial tasks in one tick while ~4/tick
        # arrive: the drained-but-pending state must occur
        assert saw_drained_but_pending
        assert engine.tick >= self.CONFIG.arrival_until

    def test_run_completes_after_window(self):
        _, result = run_engine(self.CONFIG)
        assert result.completed
        assert result.termination_reason is None
        assert result.runtime_ticks >= self.CONFIG.arrival_until
        assert result.total_injected > self.CONFIG.n_tasks


class TestMaxTicksOnFinalConsumptionTick:
    """One node, ten tasks, rate one: the run needs exactly ten ticks."""

    def config(self, max_ticks):
        return SimulationConfig(
            n_nodes=1, n_tasks=10, max_ticks=max_ticks, seed=0
        )

    def test_cap_equal_to_runtime_still_completes(self):
        engine, result = run_engine(self.config(max_ticks=10))
        assert result.runtime_ticks == 10
        assert engine.finished
        assert result.completed
        assert result.termination_reason is None
        assert result.total_consumed == 10

    def test_cap_one_short_truncates(self):
        engine, result = run_engine(self.config(max_ticks=9))
        assert result.runtime_ticks == 9
        assert not engine.finished
        assert engine.remaining == 1
        assert not result.completed
        assert result.termination_reason == "max_ticks"


class TestFreeRiderTruncation:
    """Free-riding adversaries strand tasks: with no churn there is no
    rejoin path to recapture them, so the run must truncate at
    ``max_ticks`` — never report completion — and the stranded work must
    show up in the adversary summary.
    """

    CONFIG = SimulationConfig(
        n_nodes=20,
        n_tasks=1000,
        max_ticks=60,
        adversary=AdversaryModel(free_riders=3, attack_tick=2),
        seed=21,
    )

    def test_truncates_with_stranded_tasks(self):
        engine, result = run_engine(self.CONFIG)
        assert not engine.finished
        assert not result.completed
        assert result.termination_reason == "max_ticks"
        assert result.adversary is not None
        assert result.adversary["stranded_tasks"] > 0
        assert result.adversary["slots_joined"] == 3
