"""Deferred strategy rounds against the per-call oracle.

``SimView`` defers a round's Sybil creations and retirements into round
lists that ``end_round`` commits in one ``RingState.commit_round``
pass.  :class:`~tests.percall_view.PerCallSimView` applies every
action to the ring immediately, as the simulator did before.  Both must
produce the same results: the same whole-result fingerprint, the same
final generator state, and the same trace event stream — traced, and
untraced as the benchmarks run it.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.config import AdversaryModel, SimulationConfig
from repro.core.registry import strategy_names
from repro.errors import SimulationError
from repro.obs.metrics import result_fingerprint
from repro.obs.trace import TraceRecorder
from repro.sim.engine import TickEngine
from repro.sim.view import SimView
from repro.util.rng import uniform_word_id
from tests.percall_view import PerCallSimView

SYBIL_STRATEGIES = [n for n in strategy_names() if n != "none"]

GRID = [
    (strategy, placement, churn, threshold)
    for strategy, placement, churn, threshold in itertools.product(
        SYBIL_STRATEGIES, ("random", "midpoint", "median"), (0.0, 0.01), (0, 3)
    )
    # churn at rate 0 is the no-strategy baseline (and warns)
    if not (strategy == "churn" and churn == 0.0)
]


def run_with(config: SimulationConfig, view_cls, monkeypatch, traced=True):
    """(fingerprint, final generator state, trace events) of one run;
    untraced, the view emits nothing and the events are None."""
    monkeypatch.setattr(engine_module, "SimView", view_cls)
    trace = TraceRecorder() if traced else None
    engine = TickEngine(config, trace=trace)
    result = engine.run()
    events = trace and [(e.tick, e.kind, e.fields) for e in trace.events]
    return result_fingerprint(result), engine.rng.bit_generator.state, events


def assert_same_run(config: SimulationConfig, monkeypatch) -> None:
    deferred = run_with(config, SimView, monkeypatch)
    per_call = run_with(config, PerCallSimView, monkeypatch)
    assert deferred[0] == per_call[0], "result fingerprint"
    assert deferred[1] == per_call[1], "final generator state"
    assert deferred[2] == per_call[2], "trace event stream"


def grid_config(strategy, placement, churn, threshold) -> SimulationConfig:
    return SimulationConfig(
        strategy=strategy,
        n_nodes=60,
        n_tasks=3000,
        placement=placement,
        churn_rate=churn,
        sybil_threshold=threshold,
        seed=7,
    )


GRID_IDS = [f"{s}-{p}-c{c}-t{t}" for s, p, c, t in GRID]


class TestDifferential:
    @pytest.mark.parametrize(
        "strategy,placement,churn,threshold", GRID, ids=GRID_IDS
    )
    def test_matches_per_call(
        self, strategy, placement, churn, threshold, monkeypatch
    ):
        config = grid_config(strategy, placement, churn, threshold)
        assert_same_run(config, monkeypatch)

    @pytest.mark.parametrize(
        "strategy,placement,churn,threshold", GRID, ids=GRID_IDS
    )
    def test_matches_per_call_untraced(
        self, strategy, placement, churn, threshold, monkeypatch
    ):
        """The untraced view, which skips building event fields, is the
        one the benchmarks run."""
        config = grid_config(strategy, placement, churn, threshold)
        deferred = run_with(config, SimView, monkeypatch, traced=False)
        per_call = run_with(config, PerCallSimView, monkeypatch, traced=False)
        assert deferred[0] == per_call[0], "result fingerprint"
        assert deferred[1] == per_call[1], "final generator state"

    def test_adversary_enabled(self, monkeypatch):
        config = SimulationConfig(
            strategy="invitation",
            n_nodes=50,
            n_tasks=3000,
            churn_rate=0.02,
            max_sybils=5,
            seed=424242,
            adversary=AdversaryModel(
                eclipse_sybils=12,
                eclipse_arc_fraction=0.01,
                free_riders=3,
                churn_amplification=0.05,
                attack_tick=5,
                join_cost=2,
                detection_interval=10,
            ),
        )
        assert_same_run(config, monkeypatch)

    def test_join_cost(self, monkeypatch):
        config = SimulationConfig(
            strategy="random_injection",
            n_nodes=80,
            n_tasks=4000,
            seed=3,
            adversary=AdversaryModel(join_cost=2),
        )
        assert_same_run(config, monkeypatch)

    @pytest.mark.parametrize(
        "strategy", ["neighbor_injection", "smart_neighbor_injection"]
    )
    def test_avoid_failed_ranges(self, strategy, monkeypatch):
        """A create that acquires nothing marks its arc by the start id
        read before the Sybil splits it; both views mark, and then
        skip, the same arcs."""
        config = SimulationConfig(
            strategy=strategy, n_nodes=60, n_tasks=3000,
            avoid_failed_ranges=True, seed=7,
        )
        assert_same_run(config, monkeypatch)
        engine = TickEngine(config)
        engine.run()
        assert engine.strategy._failed_ranges

    @pytest.mark.parametrize(
        "strategy", ["random_injection", "invitation", "neighbor_injection"]
    )
    def test_tiny_rings(self, strategy, monkeypatch):
        """Two-node rings under heavy churn hit the full-circle arcs and
        the never-empty guard."""
        config = SimulationConfig(
            strategy=strategy, n_nodes=2, n_tasks=60, churn_rate=0.5,
            bits=12, placement="median", seed=2,
        )
        assert_same_run(config, monkeypatch)


# Whole-result fingerprints of the four benchmarked Sybil strategies,
# computed with per-call actions before rounds were deferred.
GOLDEN = [
    ("random_injection", 148, "e19ec46dab57ab7f"),
    ("neighbor_injection", 192, "5756da6927979c1b"),
    ("smart_neighbor_injection", 167, "8e4964e6a268c761"),
    ("invitation", 224, "c1155aed0968e4ab"),
]


@pytest.mark.parametrize("strategy,ticks,fingerprint", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_fingerprints(strategy, ticks, fingerprint):
    config = SimulationConfig(
        strategy=strategy, n_nodes=200, n_tasks=20_000, seed=2026
    )
    result = TickEngine(config).run()
    assert result.runtime_ticks == ticks
    assert result_fingerprint(result) == fingerprint


def walk(view, engine) -> list[int]:
    """The view's live slots in ring order from the lowest identifier,
    walked from a live slot (a main identity's) by the widest window."""
    start = view.main_slot(int(engine.owners.network_indices[0]))
    slots = [start, *view.successor_window(start, 10**9)[0]]
    low = min(range(len(slots)), key=lambda i: view.slot_id(slots[i]))
    return slots[low:] + slots[:low]


def slot_of(view, engine, ident: int) -> int:
    """The view's slot whose identifier is ``ident``."""
    return next(s for s in walk(view, engine) if view.slot_id(s) == ident)


def read_everything(view, engine) -> dict:
    """Every strategy-visible read, over the whole ring, with each slot
    named by its identifier: each slot's owner, gap and count as the
    one-slot window of its predecessor, the windows across the wrap and
    wider than the ring, and each owner's main and heaviest slots."""
    ring = walk(view, engine)
    n = len(ring)
    owners = engine.owners.network_indices.tolist()
    name = view.slot_id

    def named(window):
        return ([name(s) for s in window[0]], *window[1:])

    low, high = ring[0], ring[-1]
    return {
        "ids": [name(s) for s in ring],
        "slots": [
            named(view.successor_window(
                view.predecessor_window(s, 1)[0][0], 1, counts=True
            ))
            for s in ring
        ],
        "succ": named(view.successor_window(high, 3, counts=True)),
        "pred": named(view.predecessor_window(low, 3)),
        "wide": [
            (
                named(view.successor_window(low, k, counts=True)),
                named(view.predecessor_window(high, k)),
            )
            for k in (n - 1, n, n + 3)
        ],
        "main": [name(view.main_slot(o)) for o in owners],
        "heaviest": [name(view.heaviest_slot(o)) for o in owners],
        "live": [view.live_owner_load(o) for o in owners],
    }


@pytest.mark.parametrize("placement", ["random", "midpoint", "median"])
def test_reads_match_after_every_action(placement):
    """Mid-round reads through the round equal the ring's own reads
    after the same actions applied one by one — deferred retirements of
    keyless Sybils as well as the ones that fall back to committing
    (retiring keyed or just-created Sybils)."""
    config = SimulationConfig(
        strategy="random_injection", n_nodes=40, n_tasks=2000,
        placement=placement, seed=11,
    )
    deferred = TickEngine(config)
    per_call = TickEngine(config)
    per_call.view = PerCallSimView(
        config, per_call.state, per_call.owners, per_call.rng
    )
    script = np.random.default_rng(5)
    for engine in (deferred, per_call):
        # run into the balancing phase: idle owners with keyless Sybils
        for _ in range(26):
            engine.step()
        engine.view.begin_round()
    for _ in range(120):
        kind = int(script.integers(0, 3))
        owner = int(script.choice(deferred.owners.network_indices))
        slot = int(script.integers(0, deferred.state.n_slots))
        outcomes = []
        for engine in (deferred, per_call):
            view = engine.view
            if kind == 0 and view.can_add_sybil(owner):
                outcomes.append(view.create_sybil_random(owner))
            elif kind == 1 and view.can_add_sybil(owner):
                ring = walk(view, engine)
                outcomes.append(view.create_sybil_in_slot_arc(
                    owner, ring[slot % len(ring)]
                ))
            else:
                outcomes.append(view.retire_sybils(owner))
        assert outcomes[0] == outcomes[1]
        assert read_everything(deferred.view, deferred) == read_everything(
            per_call.view, per_call
        )
    deferred.view.end_round()
    assert np.array_equal(deferred.state.ids, per_call.state.ids)
    assert np.array_equal(deferred.state.counts, per_call.state.counts)
    for i in range(deferred.state.n_slots):
        assert np.array_equal(
            deferred.state.remaining_keys(i), per_call.state.remaining_keys(i)
        )
    deferred.state.verify_invariants()
    assert (
        deferred.rng.bit_generator.state == per_call.rng.bit_generator.state
    )


class TestHandles:
    """The open round names a slot by a handle that no action moves:
    scripted actions on both views, with slots matched by identifier,
    must leave every read and the committed ring equal to the per-call
    oracle's."""

    @staticmethod
    def twins(placement="midpoint", **overrides):
        """A deferred and a per-call engine ten ticks into the same run,
        each with a round begun, and no Sybils on the ring yet."""
        overrides.setdefault("n_nodes", 40)
        config = SimulationConfig(
            strategy="none", n_tasks=2000, placement=placement, seed=11,
            **overrides,
        )
        twins = (TickEngine(config), TickEngine(config))
        per_call = twins[1]
        per_call.view = PerCallSimView(
            config, per_call.state, per_call.owners, per_call.rng
        )
        for engine in twins:
            for _ in range(10):
                engine.step()
            engine.view.begin_round()
        return twins

    @staticmethod
    def both(twins, act):
        """``act(view, engine)`` on both views: the outcomes and every
        read must agree."""
        outcomes = [act(engine.view, engine) for engine in twins]
        assert outcomes[0] == outcomes[1]
        assert read_everything(twins[0].view, twins[0]) == read_everything(
            twins[1].view, twins[1]
        )
        return outcomes[0]

    @staticmethod
    def empty(twins, idents) -> None:
        """Consume every key of the slots at ``idents`` (between rounds),
        so Sybils placed in their arcs take none."""
        for engine in twins:
            engine.view.end_round()
            state = engine.state
            pos = state.ids.searchsorted(np.array(idents, dtype=np.uint64))
            state.consume_at(pos, state.counts[pos].copy())
            engine.view.begin_round()

    def create_in(self, twins, owner, ident):
        return self.both(twins, lambda view, engine: (
            view.create_sybil_in_slot_arc(owner, slot_of(view, engine, ident))
        ))

    @staticmethod
    def commit(twins) -> None:
        deferred, per_call = twins
        for engine in twins:
            engine.view.end_round()
        for name in ("ids", "owner", "is_main", "counts"):
            assert np.array_equal(
                getattr(deferred.state, name), getattr(per_call.state, name)
            )
        for i in range(deferred.state.n_slots):
            assert np.array_equal(
                deferred.state.remaining_keys(i),
                per_call.state.remaining_keys(i),
            )
        deferred.state.verify_invariants()
        assert (
            deferred.rng.bit_generator.state
            == per_call.rng.bit_generator.state
        )
        for engine in twins:
            engine.view.begin_round()

    def adjacent_pair(self):
        """Twins whose ring holds two adjacent keyless Sybils of one
        owner, in the arc that the next random draw falls in; returns
        (twins, that owner, the arc's end id, the Sybils' ids)."""
        twins = self.twins()
        state = twins[0].state
        draw = uniform_word_id(copy.deepcopy(twins[0].rng), state.space.bits)
        end = state.ids.item(
            int(state.ids.searchsorted(np.uint64(draw))) % state.n_slots
        )
        self.empty(twins, [end])
        owner = int(state.owner[state.ids.searchsorted(np.uint64(end)) - 1])
        # midpoint placement: the first Sybil splits (pred, end], the
        # second the arc (first, end] that end is left with
        for _ in range(2):
            assert self.create_in(twins, owner, end) == 0
        sybils = list(twins[0].view._pending)  # in creation order
        self.commit(twins)
        assert twins[0].view.n_sybils(owner) == 2
        return twins, owner, end, sybils

    def test_random_create_in_a_merged_arc(self):
        twins, owner, end, sybils = self.adjacent_pair()
        assert self.both(twins, lambda v, e: v.retire_sybils(owner)) == 2
        view = twins[0].view
        # deferred: both unlinked from the round, not committed
        dropped = twins[0].state.ids[view._dropped].tolist()
        assert sorted(dropped) == sorted(sybils)
        helper = int(twins[0].state.owner[0])
        self.both(twins, lambda v, e: v.create_sybil_random(helper))
        # the draw fell in the merged arc: the new slot sits before end
        new = view._pending_by_owner[helper][0]
        assert view.slot_id(view.successor_window(new, 1)[0][0]) == end
        self.commit(twins)

    def test_create_reuses_a_retired_id(self):
        twins, owner, end, sybils = self.adjacent_pair()
        self.both(twins, lambda v, e: v.retire_sybils(owner))
        helper = int(twins[0].state.owner[0])
        # the arc is (pred, end] again: its midpoint is the first Sybil's
        assert self.create_in(twins, helper, end) == 0
        assert list(twins[0].view._pending) == [sybils[0]]
        self.commit(twins)

    @pytest.mark.parametrize("placement", ["random", "midpoint"])
    def test_wrap_at_slot_zero(self, placement):
        twins = self.twins(placement)
        state = twins[0].state
        owners = twins[0].owners.network_indices.tolist()
        # the wrapping arc (top id, lowest id] of the round-start slot 0
        self.empty(twins, [state.ids.item(0)])
        for owner in owners[:4]:
            # split the arc of the lowest live id: the wrapping one
            self.both(twins, lambda v, e, o=owner: v.create_sybil_in_slot_arc(
                o, walk(v, e)[0]
            ))
        first = next(iter(twins[0].view._pending.values()))
        self.commit(twins)
        # a base Sybil at the wrap retires by unlinking; more join there
        self.both(twins, lambda v, e: v.retire_sybils(first))
        for owner in owners[4:7]:
            self.both(twins, lambda v, e, o=owner: v.create_sybil_in_slot_arc(
                o, walk(v, e)[0]
            ))
            self.both(twins, lambda v, e, o=owner: v.create_sybil_random(o))
        assert twins[0].view._dropped
        self.commit(twins)

    def test_windows_wider_than_the_live_ring(self):
        twins = self.twins(n_nodes=4)
        state = twins[0].state
        self.empty(twins, state.ids.tolist())
        owners = twins[0].owners.network_indices.tolist()
        ends = state.ids.tolist()
        for owner, end in zip(owners, ends):
            self.create_in(twins, owner, end)
        self.commit(twins)
        # retire three of four owners' Sybils, then add one: the live
        # ring is shorter than the round-start ring
        for owner in owners[:3]:
            self.both(twins, lambda v, e, o=owner: v.retire_sybils(o))
        self.create_in(twins, owners[0], ends[1])
        view = twins[0].view
        live = walk(view, twins[0])
        assert len(live) == 6 < len(view._base_counts)
        for slot in live:
            for k in range(1, 10):
                assert len(view.successor_window(slot, k)[0]) == min(k, 5)
                assert len(view.predecessor_window(slot, k)[0]) == min(k, 5)
        self.commit(twins)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_heaviest_slot_ties(self, side):
        """An owner whose main slot and new Sybil both hold no keys: the
        tie goes to the lower identifier, the Sybil's (placed before the
        main) or the main's (placed after it)."""
        twins = self.twins()
        state = twins[0].state
        owner = int(twins[0].owners.network_indices[3])
        pos = state.main_slot_of(owner)
        main = state.ids.item(pos)
        end = state.ids.item((pos + side) % state.n_slots)
        self.empty(twins, [main, end])
        self.create_in(twins, owner, end)
        view = twins[0].view
        (new,) = view._pending
        assert (new < main) == (side < 0)
        assert view.slot_id(view.heaviest_slot(owner)) == min(new, main)
        self.commit(twins)

    def test_relocate_main_after_in_round_creates(self):
        twins = self.twins()
        state = twins[0].state
        owners = twins[0].owners.network_indices.tolist()
        ends = [state.ids.item(p) for p in (5, 6, 20)]
        self.create_in(twins, owners[0], ends[0])
        self.create_in(twins, owners[1], ends[1])
        view = twins[0].view
        created = view._pending_by_owner[owners[1]][0]
        assert created >= len(view._base_counts)  # a new handle
        target = view.slot_id(created)
        # into the arc of the Sybil just created, then of a base slot
        # past the new ones
        self.both(twins, lambda v, e: v.relocate_main(
            owners[2], slot_of(v, e, target)
        ))
        self.create_in(twins, owners[3], ends[2])
        self.both(twins, lambda v, e: v.relocate_main(
            owners[4], slot_of(v, e, ends[2])
        ))
        self.commit(twins)

    def test_relocate_keyless_mains_in_the_round(self):
        """A move whose old main held no keys at round start joins the
        round — into another slot's arc or into its own old one — and a
        second move of the same owner commits the round first."""
        twins = self.twins()
        state = twins[0].state
        owners = twins[0].owners.network_indices.tolist()
        mains = [state.ids.item(state.main_slot_of(o)) for o in owners[:2]]
        self.empty(twins, mains)
        view = twins[0].view
        ends = [state.ids.item(p) for p in (5, 20)]
        self.create_in(twins, owners[3], ends[0])
        self.both(twins, lambda v, e: v.relocate_main(
            owners[0], slot_of(v, e, ends[1])
        ))
        self.both(twins, lambda v, e: v.relocate_main(
            owners[1], slot_of(v, e, mains[1])
        ))
        assert len(view._mains) == 2
        assert sorted(state.ids[view._dropped].tolist()) == sorted(mains)
        assert state.n_slots == 40  # deferred: the ring is untouched
        self.both(twins, lambda v, e: v.relocate_main(
            owners[0], slot_of(v, e, ends[0])
        ))
        assert state.n_slots == 41 and view._mains == []  # committed
        assert (
            twins[0].owners.main_id.tolist()
            == twins[1].owners.main_id.tolist()
        )
        self.commit(twins)


class TestCommitShape:
    def test_paper_strategies_never_use_per_slot_primitives(self):
        """Every Sybil action of a default run is deferred, and so is
        every main-identity move (at the default threshold a mover's
        main holds no keys): the ring's single-slot insert, remove and
        retire are never called, retirements never open a batch
        removal, and each round makes at most one round commit and
        opens at most one batch insertion."""
        for strategy in ("random_injection", "neighbor_injection",
                         "smart_neighbor_injection", "invitation",
                         "relocation"):
            engine = TickEngine(SimulationConfig(
                strategy=strategy, n_nodes=100, n_tasks=5000, seed=4,
            ))
            state = engine.state
            calls: dict[str, int] = {}

            def counted(name):
                method = getattr(state, name)

                def wrapper(*args, **kwargs):
                    calls[name] = calls.get(name, 0) + 1
                    return method(*args, **kwargs)

                setattr(state, name, wrapper)

            for name in ("insert_slot", "retire_sybils", "remove_slot"):
                counted(name)
            rounds = []
            original = engine._run_strategy_round

            def round_once(*args):
                before = dict(calls)
                original(*args)
                rounds.append({
                    k: calls.get(k, 0) - before.get(k, 0) for k in calls
                })

            engine._run_strategy_round = round_once
            counted("begin_batch_removal")
            counted("begin_batch_insertion")
            counted("commit_round")
            engine.run()
            assert calls.get("insert_slot", 0) == 0
            assert calls.get("retire_sybils", 0) == 0
            assert calls.get("remove_slot", 0) == 0
            assert calls.get("begin_batch_removal", 0) == 0
            acted = "relocations" if strategy == "relocation" else (
                "sybils_created"
            )
            assert engine.counters[acted] > 0
            for per_round in rounds:
                assert per_round.get("commit_round", 0) <= 1
                assert per_round.get("begin_batch_insertion", 0) <= 1

    def test_closed_round_is_released(self):
        """Between rounds the view holds no round state: the closed
        round's lists, pending joins, split masks and base maps are
        dropped when it commits, not kept through the consumption and
        measurement phases."""
        engine = TickEngine(SimulationConfig(
            strategy="neighbor_injection", n_nodes=60, n_tasks=3000, seed=7,
        ))
        for _ in range(60):
            engine.step()
            held = [
                name for name, value in vars(engine.view).items()
                if isinstance(value, (list, dict, set))
            ]
            assert held == []
        assert engine.counters["sybils_created"] > 0
        assert engine.counters["sybils_retired"] > 0

    def test_idle_rounds_open_no_overlay(self, monkeypatch):
        """A round with neither a read nor an action (induced churn's)
        opens no round; the first read of a round opens one, which every
        later read shares, and ending a round of reads alone commits
        nothing and leaves no round state on the view."""
        opened = []
        real = SimView._open_round

        def spy(self):
            opened.append(1)
            return real(self)

        monkeypatch.setattr(SimView, "_open_round", spy)
        TickEngine(SimulationConfig(
            strategy="churn", n_nodes=50, n_tasks=2000, churn_rate=0.01,
            seed=1,
        )).run()
        assert opened == []
        engine = TickEngine(SimulationConfig(
            strategy="smart_neighbor_injection", n_nodes=20, n_tasks=500,
            seed=1,
        ))
        view = engine.view
        view.begin_round()
        for slot in range(20):
            view.successor_window(slot, 4, counts=True)
            view.predecessor_window(slot, 4)
            view.slot_id(slot)
        for owner in range(20):
            view.main_slot(owner)
            view.heaviest_slot(owner)
            view.live_owner_load(owner)
        assert opened == [1]
        commits = []
        monkeypatch.setattr(
            engine.state, "commit_round", lambda *a, **k: commits.append(a)
        )
        view.end_round()
        assert commits == []
        assert view._ids is None
        assert [
            name for name, value in vars(view).items()
            if isinstance(value, (list, dict, set))
        ] == []


class TestCensus:
    """The round's Sybil census: Python lists taken on the first census
    read, written back to the registry when the round commits."""

    def engine(self, **overrides) -> TickEngine:
        engine = TickEngine(SimulationConfig(
            strategy="random_injection", n_nodes=40, n_tasks=2000, seed=11,
            **overrides,
        ))
        for _ in range(26):  # into the balancing phase
            engine.step()
        return engine

    def test_lazy_and_written_back_at_commit(self):
        engine = self.engine()
        view, owners = engine.view, engine.owners
        view.begin_round()
        assert view._census is None
        owner = next(
            o for o in owners.network_indices.tolist()
            if view.can_add_sybil(o)
        )
        assert view._census is not None
        before = int(owners.n_sybils[owner])
        view.create_sybil_random(owner)
        assert view.n_sybils(owner) == before + 1
        assert int(owners.n_sybils[owner]) == before  # not yet committed
        view.end_round()
        assert view._census is None
        assert int(owners.n_sybils[owner]) == before + 1
        owners.validate()

    @pytest.mark.parametrize("k", [3, 20])
    def test_writes_back_the_booked_owners(self, k):
        """A round that books k owners leaves the registry as writing
        back the whole census would.  Booking fewer than a quarter of
        the owners, it assigns no other owner's entry: a count changed
        behind the census survives the commit; booking more, it writes
        the whole census back."""
        engine = self.engine()
        view, owners = engine.view, engine.owners
        view.begin_round()
        net = owners.network_indices.tolist()
        booked = [o for o in net if view.can_add_sybil(o)][:k]
        assert len(booked) == k
        for owner in booked:
            view.create_sybil_random(owner)
        full = list(view._census[0])
        other = next(o for o in net if o not in booked)
        owners.n_sybils[other] += 7
        view.end_round()
        few = 4 * k < owners.n_total
        assert owners.n_sybils[other] == full[other] + (7 if few else 0)
        owners.n_sybils[other] = full[other]
        assert owners.n_sybils.tolist() == full
        assert all(full[o] > 0 for o in booked)
        owners.validate()

    def test_errors_match_the_registry(self):
        engine = self.engine(max_sybils=1)
        view, owners = engine.view, engine.owners
        view.begin_round()
        owner = int(owners.network_indices[0])
        while view.can_add_sybil(owner):
            view.create_sybil_random(owner)
        with pytest.raises(SimulationError) as deferred:
            view.create_sybil_random(owner)  # booked against the census
        with pytest.raises(SimulationError) as registry:
            owners.register_sybil(owner)
        assert str(deferred.value) == str(registry.value)
        with pytest.raises(SimulationError) as deferred:
            view._unregister_sybils(owner, 5)
        with pytest.raises(SimulationError) as registry:
            owners.unregister_sybils(owner, 5)
        assert str(deferred.value) == str(registry.value)

    def test_join_cost_reads_the_registry(self):
        engine = self.engine(adversary=AdversaryModel(join_cost=2))
        view = engine.view
        view.begin_round()
        for owner in engine.owners.network_indices.tolist():
            view.n_sybils(owner)
            view.can_add_sybil(owner)
        assert view._census is None

    def test_churn_rounds_take_no_census(self, monkeypatch):
        taken = []
        real = SimView._take_census

        def spy(self):
            taken.append(1)
            return real(self)

        monkeypatch.setattr(SimView, "_take_census", spy)
        TickEngine(SimulationConfig(
            strategy="churn", n_nodes=50, n_tasks=2000, churn_rate=0.01,
            seed=1,
        )).run()
        assert taken == []
