"""Benchmarks of the protocol-level Chord stack.

Tracks lookup cost (the O(log N) claim), maintenance-round cost, the
cross-layer validation run (paper strategies over real protocol joins)
and the cross-layer band gate: each protocol host decides through the
same ``ChordView`` a live node runs, so the runtime factor the protocol
simulation reaches with consumption must track the tick simulator's.
"""

import numpy as np
import pytest

from repro.chord.balance import ProtocolSimulation
from repro.chord.ring import ChordRing
from repro.config import SimulationConfig
from repro.hashspace.idspace import IdSpace
from repro.sim.engine import run_simulation

SPACE = IdSpace(32)

#: the protocol median runtime factor lies within this fraction of the
#: tick simulator's median, over ``BAND_SEEDS`` (fixed before any run)
BAND = 0.15
BAND_SEEDS = range(10)


def test_lookup_hops(benchmark):
    ring = ChordRing.create(128, space=SPACE, seed=0)

    def lookups():
        return ring.lookup_hops_sample(100)

    hops = benchmark(lookups)
    # O(log n): 128 nodes -> log2 = 7
    assert hops.mean() < 7
    assert hops.max() <= 14


def test_maintenance_round(benchmark):
    ring = ChordRing.create(128, space=SPACE, seed=0)
    benchmark(ring.maintenance_round)
    ring.verify()


def test_protocol_balancing_run(benchmark):
    """Random injection over real Chord joins (cross-layer validation)."""

    def run():
        config = SimulationConfig(
            strategy="random_injection",
            n_nodes=40,
            n_tasks=1200,
            bits=32,
            seed=3,
            max_ticks=5000,
        )
        return ProtocolSimulation(config).run()

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("protocol random_injection:", {
        k: round(v, 3) if isinstance(v, float) else v
        for k, v in out.items()
    })
    assert out["completed"]
    assert out["sybils_created"] > 0


@pytest.mark.parametrize(
    "strategy",
    ["none", "random_injection", "neighbor_injection", "invitation"],
)
def test_factors_agree_across_layers(strategy):
    """40 hosts, 2,000 tasks, 32 bits, seeds 0-9: the protocol
    simulation's median runtime factor is within ``BAND`` of the tick
    simulator's."""
    protocol, tick = [], []
    for seed in BAND_SEEDS:
        config = SimulationConfig(
            strategy=strategy, n_nodes=40, n_tasks=2000, bits=32, seed=seed
        )
        protocol.append(ProtocolSimulation(config).run()["runtime_factor"])
        tick.append(run_simulation(config).runtime_factor)
    protocol_median, tick_median = np.median(protocol), np.median(tick)
    print(
        f"\n{strategy}: protocol median {protocol_median:.3f}, "
        f"tick median {tick_median:.3f}"
    )
    assert abs(protocol_median - tick_median) <= BAND * tick_median


def test_recursive_vs_iterative_lookup(benchmark):
    """Compare the two lookup modes' hop counts (Chord paper §4)."""
    import numpy as np

    ring = ChordRing.create(128, space=SPACE, seed=1)
    node = ring.network.node(ring.network.alive_ids()[0])
    rng = np.random.default_rng(2)
    keys = [int(k) for k in rng.integers(0, SPACE.size, size=100)]

    def recursive_lookups():
        return [node.find_successor_recursive(k) for k in keys]

    results = benchmark(recursive_lookups)
    rec_hops = np.mean([h for _, h in results])
    it_hops = np.mean([node.find_successor(k)[1] for k in keys])
    print(f"\nmean hops: recursive={rec_hops:.2f} iterative={it_hops:.2f}")
    for key in keys[:20]:
        assert (
            node.find_successor(key)[0]
            == node.find_successor_recursive(key)[0]
        )


def test_overlay_topology(benchmark):
    """Graph-theoretic check of the routing structure (needs networkx)."""
    pytest = __import__("pytest")
    pytest.importorskip("networkx")
    from repro.analysis.topology import analyze_topology

    ring = ChordRing.create(128, space=SPACE, seed=1)
    report = benchmark.pedantic(
        lambda: analyze_topology(ring), rounds=1, iterations=1
    )
    print(f"\n{report.as_dict()}")
    assert report.strongly_connected
