"""The tick engine: the paper's simulation loop (§V).

One **tick** is "the amount of time it takes a node to complete one task
... and perform the appropriate maintenance" — maintenance is assumed
free and instantaneous (the active/aggressive ChordReduce model), so the
loop reduces to, per tick:

1. **strategy round** (every ``decision_interval`` ticks, starting at the
   first multiple — the paper's "this check occurs every 5 ticks", which
   yields exactly 7 load-balancing operations by the tick-35 snapshots of
   Figures 7–14); the view defers the round's Sybil actions and
   :meth:`SimView.end_round` commits them to the ring in one batch;
2. **churn**: each in-network node leaves with probability ``churn_rate``
   (tasks flow losslessly to its successor), each waiting node joins with
   the same probability at a random identifier and immediately acquires
   the work in its range (§IV-A);
3. **consumption**: every in-network physical node completes up to its
   per-tick rate of tasks, drawn from its identities' remaining work,
   heaviest identity first;
4. **measurement**: snapshots and time series.

The run ends when no tasks remain; the runtime in ticks and the runtime
factor versus the ideal are the primary outputs (§V-C).

Performance: consumption is fully vectorized.  When no Sybils exist every
owner has exactly one slot and the per-tick cost is two NumPy ops over
the slot arrays; with Sybils the engine consumes over the owner-grouped
CSR layout cached by :meth:`RingState.consumption_groups` using the
NumPy kernels in :mod:`repro.sim.kernels` — no per-owner Python loops
at all, and no per-tick sort between structural mutations.  Without a
profiler ``step()`` enters no phase context, and without a trace sink
it builds no event dicts; see ``docs/scaling.md``.  A trial runs in one
process; parallelism lives at the trial layer (:mod:`repro.fabric`).
"""

from __future__ import annotations

import numpy as np

from repro import sanitize
from repro.core.registry import make_strategy
from repro.core.strategy import Strategy
from repro.errors import RingEmptyError
from repro.hashspace.idspace import IdSpace
from repro.metrics.histograms import histogram, shared_edges
from repro.metrics.timeseries import TickSeries
from repro.config import SimulationConfig
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import TraceSink
from repro.sim.adversary import AdversaryPlane
from repro.sim.kernels import consume_fast, consume_grouped
from repro.sim.owners import OwnerRegistry
from repro.sim.results import SimulationResult
from repro.sim.state import RingState
from repro.sim.view import SimView
from repro.sim.keydist import generate_task_keys
from repro.sim.workload import (
    draw_new_node_ids,
    draw_unique_ids,
    ideal_runtime,
)
from repro.util.rng import make_rng

__all__ = ["TickEngine", "run_simulation"]


class TickEngine:
    """Drives one simulated computation to completion.

    Build with a :class:`SimulationConfig` (plus optionally a pre-built
    strategy); call :meth:`run` for the full loop or :meth:`step` to
    advance tick by tick (examples and tests use stepping).
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        strategy: Strategy | None = None,
        rng: np.random.Generator | None = None,
        trace: TraceSink | None = None,
        profiler: PhaseProfiler | None = None,
    ):
        self.config = config
        self.trace = trace
        # both trace and profiler are pure observers: attaching them
        # must leave seeded results bit-identical (no RNG draws, no
        # state writes) — the obs rows of `make smoke` pin this
        self.profiler = profiler
        self._tracing = trace is not None
        self.rng = rng if rng is not None else make_rng(config.seed)
        if sanitize.enabled():
            # Every engine claims the single global stream under one
            # label: sequential engines may legitimately share it, but a
            # concurrent consumer (a stress worker, say) claiming the
            # same BitGenerator is stream aliasing.
            sanitize.track_rng(self.rng, "tick-engine")
        self.space = IdSpace(config.bits)
        self.owners = OwnerRegistry(config, self.rng)

        node_ids = draw_unique_ids(config.n_nodes, self.space, self.rng)
        node_owners = np.arange(config.n_nodes, dtype=np.int64)
        self.owners.main_id[: config.n_nodes] = node_ids
        task_keys = generate_task_keys(
            config.n_tasks, config, self.space, self.rng
        )
        self.state = RingState.build(
            self.space, node_ids, node_owners, task_keys, self.rng
        )

        self.strategy = strategy if strategy is not None else make_strategy(config)
        self.view = SimView(
            config, self.state, self.owners, self.rng,
            event_sink=self._emit if self._tracing else None,
        )
        self.strategy.on_attach(self.view)

        self.tick = 0
        self.total_consumed = 0
        self.total_injected = config.n_tasks
        self.ideal_ticks = ideal_runtime(
            max(config.n_tasks, 1), self.owners.initial_capacity()
        ) if config.n_tasks else 0.0
        self.counters: dict[str, int] = {
            "churn_joins": 0,
            "churn_leaves": 0,
            "churn_keys_moved": 0,
            "decision_rounds": 0,
        }
        self.failures = config.failures
        self.tasks_lost = 0
        self.termination_reason: str | None = None
        if self.failures.crash_fraction > 0:
            # failure counters exist only when crashes are possible, so
            # default-config results keep their historical counter set
            self.counters["crashes"] = 0
            self.counters["tasks_lost"] = 0
            self.counters["recovered_from_backup"] = 0
        # the adversary plane exists only when the model is on: disabled
        # runs skip the phase entirely (no RNG draws, no allocations, no
        # extra counters) and stay bit-identical to pre-feature seeds
        self._adversary = (
            AdversaryPlane(self) if config.adversary.enabled else None
        )
        self.timeseries = TickSeries() if config.collect_timeseries else None
        self._snapshot_loads: dict[int, np.ndarray] = {}
        if 0 in config.snapshot_ticks:
            self._record_snapshot(0)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        return self.state.total_remaining()

    @property
    def arrivals_pending(self) -> bool:
        return (
            self.config.arrival_rate > 0
            and self.tick < self.config.arrival_until
        )

    @property
    def finished(self) -> bool:
        return self.remaining == 0 and not self.arrivals_pending

    @property
    def terminated(self) -> bool:
        """Whether the run stopped early (ring death, unrecoverable loss)."""
        return self.termination_reason is not None

    def network_loads(self) -> np.ndarray:
        """Remaining workload of each *in-network* physical node."""
        loads = self.state.owner_loads(self.owners.n_total)
        return loads[self.owners.in_network]

    def step(self) -> int:
        """Advance one tick; returns the number of tasks consumed.

        Each phase runs through :func:`_in_phase`, which times it only
        when a profiler is attached: without one the tick enters no
        profiler context at all.  Profiled or not, the phases mutate
        identical state in identical order (the ``obs-trace`` smoke row
        pins this).
        """
        if self.finished or self.terminated:
            return 0
        self.tick += 1
        cfg = self.config
        prof = self.profiler
        if cfg.decision_interval and self.tick % cfg.decision_interval == 0:
            _in_phase(prof, "strategy", self._run_strategy_round, prof)
        if cfg.churn_rate > 0:
            _in_phase(prof, "churn", self._apply_churn, prof)
            if self.terminated:
                return 0
        if self._adversary is not None:
            _in_phase(prof, "adversary", self._adversary.run_tick, self.tick)
        if cfg.arrival_rate > 0 and self.tick <= cfg.arrival_until:
            _in_phase(prof, "arrivals", self._apply_arrivals)
        consumed = _in_phase(prof, "consumption", self._consume_tick)
        self.total_consumed += consumed
        _in_phase(prof, "measurement", self._measure, consumed)
        return consumed

    def _measure(self, consumed: int) -> None:
        loads = None
        if self.tick in self.config.snapshot_ticks:
            # One owner_loads pass serves both measurements.
            loads = self.network_loads()
            self._snapshot_loads[self.tick] = loads.copy()
        if self.timeseries is None:
            return
        state = self.state
        n_slots = state.n_slots
        n_in_network = self.owners.n_in_network
        if loads is None and not state.n_sybil_slots and (
            n_slots == n_in_network
        ):
            # one slot per in-network owner: idle owners are empty slots
            idle = n_slots - int(np.count_nonzero(state.counts))
        else:
            if loads is None:
                loads = self.network_loads()
            idle = int((loads == 0).sum())
        self.timeseries.append(
            tick=self.tick,
            consumed=consumed,
            remaining=self.remaining,
            n_slots=n_slots,
            n_in_network=n_in_network,
            idle_owners=idle,
        )

    def run(self) -> SimulationResult:
        """Run to completion (or the ``max_ticks`` cap) and package results.

        Runs that can no longer complete — the ring emptied, or crashes
        destroyed tasks — terminate with a structured result
        (``completed=False``, ``termination_reason`` set) instead of
        raising or spinning to ``max_ticks``.
        """
        while (
            not self.finished
            and not self.terminated
            and self.tick < self.config.max_ticks
        ):
            try:
                self.step()
            except RingEmptyError:
                self.termination_reason = "ring_empty"
                break
        return self._build_result()

    # ------------------------------------------------------------------
    # tick phases
    # ------------------------------------------------------------------
    def _emit(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.tick, kind, **fields)

    def _run_strategy_round(self, prof: PhaseProfiler | None = None) -> None:
        """One decision round: the strategy decides, then the view
        commits the round's deferred actions to the ring.  ``prof``
        (profiled runs only) times the ``strategy.decide`` and
        ``strategy.commit`` sub-phases."""
        stats = self.view.begin_round()
        _in_phase(prof, "strategy.decide", self.strategy.decide, self.view)
        _in_phase(prof, "strategy.commit", self.view.end_round)
        stats.merge_into(self.counters)
        self.counters["decision_rounds"] += 1

    def _apply_churn(self, prof: PhaseProfiler | None = None) -> None:
        """One churn phase, committed in one slab pass (see DESIGN.md §5).

        The tick holds one :class:`~repro.sim.state.RingBatch` and
        commits it once: departures queue on it and merge their keys at
        stable positions; the joins' ids come from one sized generator
        draw against the ring the departures leave; the batch's one
        ``add`` takes every joiner at once, as arrays in join order —
        one sort, one placement among the live slots, one split per arc
        — and its commit applies departures and joins together, and the
        registry books the joins in one write.  Merges and RNG draws
        replay the sequential per-node order exactly, and a split draws
        nothing, so seeded runs are bit-identical to the historical
        one-``np.insert``/``np.delete``-per-event loop while doing
        O(n + events) structural work.

        ``prof`` (profiled runs only) times the ``churn.depart``,
        ``churn.join`` and ``churn.commit`` sub-phases.
        """
        rate = self.config.churn_rate
        rng = self.rng
        cf = self.failures.crash_fraction
        # departures: each in-network *honest* node flips a coin (§IV-A);
        # adversarial identities never leave voluntarily.  With no
        # adversaries the honest view is the plain network view, so the
        # RNG draw (and the seeded trajectory) is unchanged.
        net = self.owners.honest_network_indices
        leaving = net[rng.random(net.size) < rate]
        batch = None
        if leaving.size:
            # one vectorized draw, gated on cf > 0 so default configs
            # consume no extra RNG and stay bit-identical
            crashing = (
                rng.random(leaving.size) < cf if cf > 0 else None
            )
            batch = self.state.begin_batch_removal(leaving)
            ring_died = _in_phase(
                prof, "churn.depart", self._depart, batch, leaving, crashing
            )
            if ring_died:
                batch.commit()
                # everything still on the wreck is unrecoverable
                lost = self.state.total_remaining()
                self.counters["tasks_lost"] += lost
                self.tasks_lost += lost
                self.termination_reason = "ring_empty"
                self._emit("ring_empty", tick=self.tick, tasks_lost=lost)
                return
        # arrivals: each *honest* waiting node flips the same coin.
        # Evicted or crashed adversarial identities are quarantined — they
        # never resurrect through the benign waiting pool.
        waiting = self.owners.honest_waiting_indices
        joining = waiting[rng.random(waiting.size) < rate]
        idents: list[int] = []
        if joining.size:
            exist = self.state.ids_exist if batch is None else batch.ids_exist
            idents = _in_phase(
                prof, "churn.join", draw_new_node_ids,
                joining.size, self.space, rng, exist,
            )
        if idents:
            _in_phase(
                prof, "churn.commit", self._commit_joins,
                batch, joining, idents,
            )
        elif batch is not None:
            _in_phase(prof, "churn.commit", batch.commit)

    def _depart(self, batch, leaving: np.ndarray, crashing) -> bool:
        """Queue the departures; returns True if the ring died."""
        # hoisted flag: per-event _emit calls build a kwargs dict even
        # when no sink is attached, so the no-observer path skips them
        tracing = self._tracing
        counters = self.counters
        ring_died = False
        for i, owner in enumerate(leaving.tolist()):
            if crashing is not None and crashing[i]:
                # crash-stop: un-replicated tasks are lost
                res = batch.crash_owner_guarded(
                    owner, self.failures.replication_factor
                )
                if res is None:
                    # the last live node crashed: the ring is dead
                    ring_died = True
                    continue
                recovered, lost = res
                counters["crashes"] += 1
                counters["churn_leaves"] += 1
                counters["churn_keys_moved"] += recovered
                counters["recovered_from_backup"] += recovered
                counters["tasks_lost"] += lost
                self.tasks_lost += lost
                self.owners.leave_network(owner)
                if tracing:
                    self._emit(
                        "churn_crash", owner=owner,
                        recovered=recovered, lost=lost,
                    )
                continue
            # never empty the ring: the last identities stay put
            moved = batch.remove_owner_guarded(owner)
            if moved is None:
                continue
            counters["churn_keys_moved"] += moved
            self.owners.leave_network(owner)
            counters["churn_leaves"] += 1
            if tracing:
                self._emit("churn_leave", owner=owner, keys_moved=moved)
        return ring_died

    def _commit_joins(
        self, batch, joining: np.ndarray, idents: list[int]
    ) -> None:
        """Add the joiners at their drawn ids to the tick's batch (begun
        here when nobody left) and commit it: the ring takes every join
        at once, and the registry books them in one write."""
        if batch is None:
            batch = self.state.begin_batch_insertion()
        moved = batch.add(idents, joining, is_main=True)
        batch.commit()
        self.owners.join_network(joining, idents)
        counters = self.counters
        counters["churn_keys_moved"] += moved
        counters["churn_joins"] += len(idents)
        if self._tracing:
            for owner, ident, acquired in zip(
                joining.tolist(), idents, batch.acquired
            ):
                self._emit("churn_join", owner=owner, ident=ident,
                           acquired=acquired)

    def _apply_arrivals(self) -> None:
        """Streaming-arrival extension: new tasks trickle in each tick."""
        count = int(self.rng.poisson(self.config.arrival_rate))
        if count == 0:
            return
        keys = generate_task_keys(count, self.config, self.space, self.rng)
        self.state.add_tasks(keys)
        self.total_injected += count
        if self._tracing:
            self._emit("arrivals", count=count)
        self.counters["tasks_arrived"] = (
            self.counters.get("tasks_arrived", 0) + count
        )

    def _consume_tick(self) -> int:
        state = self.state
        counts = state.counts
        if state.n_slots == 0:
            raise RingEmptyError(
                f"ring became empty at tick {self.tick}",
                tick=self.tick,
                strategy=self.config.strategy,
                churn_rate=self.config.churn_rate,
                crash_fraction=self.failures.crash_fraction,
            )
        rates = self.owners.rate
        if state.n_sybil_slots == 0:
            # FAST PATH: one slot per owner — consume directly per slot.
            consumed = consume_fast(counts, state.owner, rates)
        else:
            consumed = self._consume_multi_slot()
        state.note_consumed(consumed)
        return consumed

    def _consume_multi_slot(self) -> int:
        """Distribute each owner's rate across its identities.

        Heaviest identity first, over the owner-grouped CSR layout
        cached by the state (rebuilt only on structural mutation).  The
        arithmetic lives in :mod:`repro.sim.kernels`; benchmarks and the
        whole-trial differential test swap this method for the
        reference oracle.
        """
        state = self.state
        groups = state.consumption_groups()
        return consume_grouped(
            state.counts,
            self.owners.rate,
            groups.order,
            groups.starts,
            groups.sizes,
            groups.owners,
        )

    # ------------------------------------------------------------------
    # measurement and packaging
    # ------------------------------------------------------------------
    def _record_snapshot(self, tick: int) -> None:
        self._snapshot_loads[tick] = self.network_loads().copy()

    def _build_result(self) -> SimulationResult:
        snapshots = []
        if self._snapshot_loads:
            edges = shared_edges(list(self._snapshot_loads.values()))
            snapshots = [
                histogram(
                    loads,
                    edges,
                    tick=tick,
                    label=self.config.strategy,
                )
                for tick, loads in sorted(self._snapshot_loads.items())
            ]
        ideal = (
            ideal_runtime(self.total_injected, self.owners.initial_capacity())
            if self.total_injected
            else float(max(self.tick, 1))
        )
        self.ideal_ticks = ideal
        reason = self.termination_reason
        if reason is None:
            if self.finished and self.tasks_lost > 0:
                # every surviving task ran, but crashes destroyed some:
                # the computation as submitted can never complete
                reason = "data_loss"
            elif not self.finished:
                reason = "max_ticks"
        completed = (
            self.finished
            and self.tasks_lost == 0
            and self.termination_reason is None
        )
        return SimulationResult(
            config=self.config,
            runtime_ticks=self.tick,
            ideal_ticks=ideal,
            completed=completed,
            total_consumed=self.total_consumed,
            snapshots=snapshots,
            timeseries=self.timeseries,
            counters=dict(self.counters),
            final_loads=self.network_loads().copy(),
            termination_reason=reason,
            total_injected=self.total_injected,
            n_survivors=self.owners.n_in_network,
            adversary=(
                self._adversary.summary()
                if self._adversary is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    def snapshot_loads(self) -> dict[int, np.ndarray]:
        """Raw per-owner load vectors captured at the snapshot ticks."""
        return dict(self._snapshot_loads)


def _in_phase(prof: PhaseProfiler | None, name: str, fn, *args):
    """``fn(*args)``, timed as phase ``name`` when ``prof`` is given.

    An unprofiled tick passes no profiler, so it enters no context at all.
    """
    if prof is None:
        return fn(*args)
    with prof.phase(name):
        return fn(*args)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Convenience wrapper: build an engine from config and run it."""
    return TickEngine(config).run()
