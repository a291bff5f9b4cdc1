"""Windowed neighbourhood reads: the only neighbourhood read a view offers.

``NetworkView.successor_window`` / ``predecessor_window`` return a
node's tracked neighbours with their owners (and gaps, and counts on
request) in one call.  ``SimView`` answers them by walking the open
round's successor/predecessor links (the first read of a round opens
it), before and after the round's actions: they must equal a reference
built from the ring the view walks (named by identifier, with the
round's per-slot owners and counts), across the wrap, for windows wider
than the ring, and on one- and two-slot rings.
A protocol host's ``ChordView`` reads its own nodes' successor and
predecessor lists and queries loads by RPC; its windows and the runs
built on them are pinned.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.chord.balance import ProtocolSimulation
from repro.chord.view import ChordView
from repro.config import SimulationConfig
from repro.core.strategy import NetworkView
from repro.sim.engine import TickEngine


def reference_windows(slots, ids, owner, counts, size: int, slot: int, k: int):
    """``(successor window with counts, predecessor window)`` of the slot
    handle ``slot`` on the ring given as parallel lists in ring order."""
    n = len(slots)
    i = slots.index(slot)
    m = min(k, n - 1)
    succ = [(i + j) % n for j in range(1, m + 1)]
    pred = [(i - j) % n for j in range(1, m + 1)]
    return (
        (
            [slots[p] for p in succ],
            [owner[p] for p in succ],
            [(ids[p] - ids[p - 1]) % size for p in succ],
            [counts[p] for p in succ],
        ),
        ([slots[p] for p in pred], [owner[p] for p in pred]),
    )


def ring_lists(view) -> tuple[list[int], ...]:
    """``(slots, ids, owners, counts)`` of the ring a view's windows
    read, in ring order from its lowest identifier.

    The slots are walked from a live slot by the view's widest window
    and named by ``slot_id``: the identifiers must be exactly the
    ring's — the round-start ids without the retired ones, plus the
    pending ones.  Owners and counts come from the round's per-slot
    lists."""
    start = view.main_slot(int(view.network_owners()[0]))
    slots = [start, *view.successor_window(start, 10**9)[0]]
    low = min(range(len(slots)), key=lambda i: view.slot_id(slots[i]))
    slots = slots[low:] + slots[:low]
    ids = [view.slot_id(s) for s in slots]
    state = view._state
    retired = {state.ids.item(p) for p in view._dropped}
    ring = sorted(set(state.ids.tolist()) - retired | set(view._pending))
    owner, counts = view._owner, view._counts
    assert ids == ring
    return slots, ids, [owner[s] for s in slots], [counts[s] for s in slots]


def assert_windows_match(view, slots) -> None:
    lists = ring_lists(view)
    n = len(lists[0])
    size = view._size
    for slot in slots:
        for k in sorted({1, 2, 5, max(n - 1, 1), n, n + 3, 10**9}):
            succ, pred = reference_windows(*lists, size, slot, k)
            assert view.successor_window(slot, k, counts=True) == succ
            assert view.successor_window(slot, k) == succ[:3]
            assert view.predecessor_window(slot, k) == pred


def sybil_engine(**overrides) -> TickEngine:
    overrides.setdefault("n_nodes", 30)
    overrides.setdefault("n_tasks", 1500)
    config = SimulationConfig(
        strategy="random_injection", seed=4, **overrides
    )
    engine = TickEngine(config)
    for _ in range(16):  # into the balancing phase: Sybils on the ring
        engine.step()
    return engine


class TestSimView:
    def test_closed_overlay_reads_the_ring(self):
        """Reads before any action: the round they open is the ring."""
        engine = sybil_engine()
        view = engine.view
        view.begin_round()
        n = engine.state.n_slots
        assert n > 30  # Sybils joined
        assert_windows_match(view, range(n))

    def test_open_overlay_reads_the_round(self):
        engine = sybil_engine()
        view = engine.view
        view.begin_round()
        script = np.random.default_rng(1)
        owners = engine.owners.network_indices.tolist()
        for owner in owners[:12]:
            view.retire_sybils(owner)
            if view.can_add_sybil(owner):
                view.create_sybil_random(owner)
        assert view._ids is not None  # still deferred
        live = ring_lists(view)[0]
        n = len(live)
        assert n != engine.state.n_slots  # the round changed the ring
        assert len(view.successor_window(live[0], 10**9)[0]) == n - 1
        picks = {0, n - 1, *script.integers(0, n, size=10).tolist()}
        assert_windows_match(view, [live[i] for i in sorted(picks)])

    def test_one_and_two_slot_rings(self):
        for n_nodes in (1, 2):
            engine = TickEngine(SimulationConfig(
                strategy="neighbor_injection", n_nodes=n_nodes, n_tasks=40,
                bits=16, seed=1,
            ))
            view = engine.view
            view.begin_round()
            assert_windows_match(view, range(n_nodes))
        # the two-slot ring: each slot's one neighbour, both ways
        _, ids, owner, counts = ring_lists(view)
        assert view.successor_window(0, 5, counts=True) == (
            [1], [owner[1]], [ids[1] - ids[0]], [counts[1]],
        )
        assert view.predecessor_window(1, 5) == ([0], [owner[0]])


def protocol_sim(strategy="neighbor_injection", **overrides):
    overrides.setdefault("n_nodes", 12)
    overrides.setdefault("n_tasks", 300)
    overrides.setdefault("seed", 3)
    return ProtocolSimulation(SimulationConfig(
        strategy=strategy, bits=32, **overrides
    ))


def host_windows(sim) -> list:
    """Each in-network host's windows of its own main slot, k in 1, 3
    and 20, read through the host's own view."""
    reads = []
    for host in sim.hosts:
        if not host.in_network:
            continue
        view, slot = host.view, host.main.id
        for k in (1, 3, 20):
            reads.append([
                slot, k, list(view.successor_window(slot, k, counts=True)),
                list(view.successor_window(slot, k)),
                list(view.predecessor_window(slot, k)),
            ])
    return reads


# Each host's windows of the 12-host seed-3 ring (``host_windows``), as
# sha256 of their JSON, with the first host's k=1 and k=20 windows
# spelled out, and the load queries the counted windows sent.  Re-pinned
# when each host got its own view: an owner is now interned per view
# (1, 2, ... in the order that view met the hosts), and a gap is the
# distance between consecutive ids of the successor list.  Re-pinned
# again when ``ChordRing.converge`` began to wait for complete successor
# lists: the first host's list now names 404279440, so 770692085's gap
# is its own arc, and the longer windows send more load queries.
WINDOWS_DIGEST = "beaef1e74897168f"
FIRST_HOST_WINDOWS = {
    1: (
        ([3733325604], [1], [247940140], [17]),
        ([3441447623], [2]),
    ),
    20: (
        (
            [3733325604, 169217806, 367860371, 404279440, 770692085],
            [1, 3, 4, 7, 8],
            [247940140, 730859498, 198642565, 36419069, 366412645],
            [17, 50, 14, 4, 22],
        ),
        (
            [3441447623, 2500366905, 1860266043, 1426794759, 1017093381],
            [2, 5, 6, 9, 10],
        ),
    ),
}
WINDOW_QUERIES = 108

# Whole results of short protocol runs (16 hosts, 400 tasks, seed 5):
# the result dict, whose network_messages is network.total_messages()
# at the end.  Re-pinned when every host began to decide through its
# own view, in a shuffled host order drawn from the simulation's rng;
# network_messages re-pinned when converge began to wait for complete
# successor lists (more maintenance rounds at build; no other field
# moved).
_RUN_COMMON = {
    "churn_joins": 0, "churn_leaves": 0, "invitations_sent": 0,
    "invitations_refused": 0, "relocations": 0, "ideal_ticks": 25.0,
    "completed": True, "termination_reason": None, "total_consumed": 400,
    "tasks_lost": 0, "network_drops": 0, "network_retries": 0,
    "network_fallbacks": 0,
}
PINNED_RUNS = {
    "neighbor_injection": {
        **_RUN_COMMON, "decision_rounds": 7, "sybils_created": 47,
        "sybils_retired": 31, "tasks_acquired": 166, "messages": 0,
        "actions_skipped": 0, "runtime_ticks": 39, "runtime_factor": 1.56,
        "strategy_messages": 0, "network_messages": 17283,
    },
    "smart_neighbor_injection": {
        **_RUN_COMMON, "decision_rounds": 7, "sybils_created": 23,
        "sybils_retired": 21, "tasks_acquired": 163, "messages": 185,
        "actions_skipped": 21, "runtime_ticks": 35, "runtime_factor": 1.4,
        "strategy_messages": 185, "network_messages": 14985,
    },
    "smart_neighbor_injection-avoid": {
        **_RUN_COMMON, "decision_rounds": 7, "sybils_created": 23,
        "sybils_retired": 21, "tasks_acquired": 163, "messages": 181,
        "actions_skipped": 21, "runtime_ticks": 35, "runtime_factor": 1.4,
        "strategy_messages": 181, "network_messages": 15038,
    },
    "invitation": {
        **_RUN_COMMON, "decision_rounds": 8, "sybils_created": 6,
        "sybils_retired": 0, "tasks_acquired": 103, "messages": 55,
        "invitations_sent": 11, "invitations_refused": 5,
        "actions_skipped": 0, "runtime_ticks": 43, "runtime_factor": 1.72,
        "strategy_messages": 55, "network_messages": 15843,
    },
}


class TestProtocolView:
    """``ChordView`` as the hosts of a protocol simulation run it."""

    def test_windows_are_the_only_neighbourhood_read(self):
        assert NetworkView.successor_window.__isabstractmethod__
        assert NetworkView.predecessor_window.__isabstractmethod__
        assert "successor_window" in vars(ChordView)
        assert "predecessor_window" in vars(ChordView)
        for gone in ("successor_slots", "predecessor_slots", "slot_owner",
                     "slot_count", "slot_gap", "join_budget_remaining"):
            assert not hasattr(NetworkView, gone)

    def test_windows_pinned(self):
        sim = protocol_sim()
        network = sim.ring.network
        before = network.total_messages()
        reads = host_windows(sim)
        assert network.total_messages() - before == WINDOW_QUERIES
        digest = hashlib.sha256(json.dumps(reads).encode()).hexdigest()
        assert digest[:16] == WINDOWS_DIGEST
        view, slot = sim.hosts[0].view, sim.hosts[0].main.id
        for k, (succ, pred) in FIRST_HOST_WINDOWS.items():
            assert view.successor_window(slot, k, counts=True) == succ
            assert view.predecessor_window(slot, k) == pred

    def test_converged_lists_skip_no_live_node(self):
        """A converged ring's successor lists name the next live ids:
        host 3485385464's once skipped 404279440, and its window then
        credited 770692085 with 402,831,714 ids instead of its arc."""
        sim = protocol_sim()
        ring = sim.ring
        assert ring.successor_lists_complete()
        alive = ring.network.alive_ids()
        for i, ident in enumerate(alive):
            node = ring.network.node(ident)
            assert node.successor_list == [
                alive[(i + k) % len(alive)]
                for k in range(1, min(node.n_successors, len(alive) - 1) + 1)
            ]
        host = sim.hosts[0]
        assert host.main.id == 3485385464
        slots, _, gaps = host.view.successor_window(host.main.id, 5)
        assert slots[3:] == [404279440, 770692085]
        assert gaps[4] == 770692085 - 404279440 == 366412645

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_runs_pinned(self, name):
        strategy, _, avoid = name.partition("-")
        sim = protocol_sim(
            strategy, n_nodes=16, n_tasks=400, seed=5,
            avoid_failed_ranges=bool(avoid),
        )
        assert sim.run() == PINNED_RUNS[name]
        assert sim.ring.network.total_messages() == (
            PINNED_RUNS[name]["network_messages"]
        )
        if avoid:  # the run marked dead-end ranges and skipped them
            assert any(h.view.strategy._failed_ranges for h in sim.hosts)
