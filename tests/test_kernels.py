"""Property tests for the consumption kernels (repro.sim.kernels).

The vectorized grouped kernel must agree *bit for bit* with
``consume_grouped_reference`` — the historical per-tick lexsort
implementation — on the post-tick counts vector and the consumed total,
the same slab-vs-naive equivalence pattern the ring rewrite used.  A
partition-invariance property checks that running the kernel on
contiguous CSR chunks is indistinguishable from one sequential pass.
A whole-trial differential test runs seeded trials through
:class:`~repro.sim.engine.TickEngine` twice — once as shipped, once
with multi-slot consumption swapped for the reference — and requires
identical results and RNG stream positions.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AdversaryModel, FailureModel, SimulationConfig
from repro.obs.metrics import result_fingerprint
from repro.sim.engine import TickEngine
from repro.sim.kernels import (
    consume_fast,
    consume_grouped,
    consume_grouped_reference,
)

I64 = np.int64


def build_csr(owner: np.ndarray):
    """The engine-side CSR derivation (mirrors consumption_groups)."""
    gorder = np.argsort(owner, kind="stable").astype(I64)
    owners_sorted = owner[gorder]
    first = np.ones(gorder.size, dtype=bool)
    if gorder.size:
        first[1:] = owners_sorted[1:] != owners_sorted[:-1]
    starts = np.flatnonzero(first).astype(I64)
    sizes = np.diff(np.append(starts, gorder.size)).astype(I64)
    return gorder, starts, sizes, owners_sorted[starts]


def random_workload(rng, n_owners, max_group, max_count, max_rate):
    """Random slot->owner layout with interleaved groups (like a ring)."""
    sizes = rng.integers(1, max_group + 1, size=n_owners)
    owner = np.repeat(np.arange(n_owners, dtype=I64), sizes)
    rng.shuffle(owner)  # ring positions interleave owners
    counts = rng.integers(0, max_count + 1, size=owner.size, dtype=I64)
    rates = rng.integers(0, max_rate + 1, size=n_owners, dtype=I64)
    return counts, owner, rates


workload_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n_owners": st.integers(1, 60),
        "max_group": st.integers(1, 7),
        "max_count": st.integers(0, 40),
        # rates beyond any single slot's count force the residual path
        "max_rate": st.integers(0, 120),
    }
)


@settings(max_examples=80, deadline=None)
@given(params=workload_params)
def test_grouped_numpy_matches_reference(params):
    rng = np.random.default_rng(params["seed"])
    counts, owner, rates = random_workload(
        rng,
        params["n_owners"],
        params["max_group"],
        params["max_count"],
        params["max_rate"],
    )
    expected = counts.copy()
    expected_total = consume_grouped_reference(expected, owner, rates)

    got = counts.copy()
    gorder, starts, sizes, gowner = build_csr(owner)
    got_total = consume_grouped(got, rates, gorder, starts, sizes, gowner)

    assert got_total == expected_total
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(params=workload_params, n_chunks=st.integers(1, 6))
def test_grouped_kernel_is_partition_invariant(params, n_chunks):
    """Consuming CSR chunks independently == one sequential pass."""
    rng = np.random.default_rng(params["seed"])
    counts, owner, rates = random_workload(
        rng,
        params["n_owners"],
        params["max_group"],
        params["max_count"],
        params["max_rate"],
    )
    gorder, starts, sizes, gowner = build_csr(owner)

    expected = counts.copy()
    expected_total = consume_grouped(
        expected, rates, gorder, starts, sizes, gowner
    )

    got = counts.copy()
    got_total = 0
    n_groups = starts.size
    bounds = np.linspace(0, n_groups, n_chunks + 1).astype(int)
    ends = np.append(starts, gorder.size)
    for k in range(n_chunks):
        g_lo, g_hi = int(bounds[k]), int(bounds[k + 1])
        if g_hi <= g_lo:
            continue
        el_lo, el_hi = int(starts[g_lo]), int(ends[g_hi])
        got_total += consume_grouped(
            got,
            rates,
            gorder[el_lo:el_hi],
            starts[g_lo:g_hi] - el_lo,
            sizes[g_lo:g_hi],
            gowner[g_lo:g_hi],
        )

    assert got_total == expected_total
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 200),
    max_rate=st.integers(0, 30),
)
def test_fast_kernel_matches_reference_on_singletons(seed, n, max_rate):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=n, dtype=I64)
    owner = rng.permutation(n).astype(I64)  # one slot per owner
    rates = rng.integers(0, max_rate + 1, size=n, dtype=I64)

    expected = counts.copy()
    expected_total = consume_grouped_reference(expected, owner, rates)

    got = counts.copy()
    got_total = consume_fast(got, owner, rates)

    assert got_total == expected_total
    np.testing.assert_array_equal(got, expected)


def test_grouped_handles_empty_ring():
    empty = np.empty(0, dtype=I64)
    assert consume_grouped(empty, empty, empty, empty, empty, empty) == 0


# ----------------------------------------------------------------------
# whole trials: TickEngine vs the reference consumption oracle
# ----------------------------------------------------------------------
#: Invitation on a heterogeneous ring with strength-scaled work and
#: churn: Sybils, uneven rates and residual drains all reach the kernel.
SYBIL_CONFIG = SimulationConfig(
    strategy="invitation",
    n_nodes=50,
    n_tasks=3000,
    churn_rate=0.02,
    heterogeneous=True,
    work_measurement="strength",
    max_sybils=5,
    seed=424242,
)

#: The same ring under active attack with both defenses on: eclipse
#: joins, free-riders, budget refills, density evictions and targeted
#: crashes all reshape the ring between consumption phases.
ADVERSARIAL_CONFIG = SimulationConfig(
    strategy="invitation",
    n_nodes=50,
    n_tasks=3000,
    churn_rate=0.02,
    max_sybils=5,
    seed=424242,
    adversary=AdversaryModel(
        eclipse_sybils=12,
        eclipse_arc_fraction=0.01,
        free_riders=2,
        churn_amplification=0.05,
        attack_tick=5,
        join_cost=2,
        detection_interval=10,
    ),
    max_ticks=1500,
)

#: Random injection with streaming arrivals and crash-stop failures.
ARRIVALS_CRASHES_CONFIG = SimulationConfig(
    strategy="random_injection",
    n_nodes=40,
    n_tasks=1500,
    churn_rate=0.05,
    arrival_rate=30.0,
    arrival_until=20,
    max_sybils=4,
    failures=FailureModel(crash_fraction=0.3, replication_factor=1),
    seed=77,
)


def _reference_engine(config):
    """An engine whose multi-slot consumption is the lexsort oracle
    (the swap ``benchmarks/bench_core_ops.py`` times as ``reference``);
    ``calls`` counts how often the oracle ran."""
    engine = TickEngine(config)
    engine.calls = 0

    def _consume_reference(self):
        self.calls += 1
        state = self.state
        return consume_grouped_reference(
            state.counts, state.owner, self.owners.rate
        )

    engine._consume_multi_slot = types.MethodType(
        _consume_reference, engine
    )
    return engine


@pytest.mark.parametrize(
    "config",
    [SYBIL_CONFIG, ADVERSARIAL_CONFIG, ARRIVALS_CRASHES_CONFIG],
    ids=["sybil", "adversarial", "arrivals-crashes"],
)
def test_trial_matches_reference_consumption(config):
    engine = TickEngine(config)
    oracle = _reference_engine(config)
    # lockstep: every tick consumes the same tasks from the same slots
    while not (engine.finished or engine.terminated) and (
        engine.tick < config.max_ticks
    ):
        assert engine.step() == oracle.step()
        np.testing.assert_array_equal(
            engine.state.counts, oracle.state.counts
        )
    result = engine.run()
    expected = oracle.run()

    assert oracle.calls > 0  # the multi-slot path was exercised
    assert result_fingerprint(result) == result_fingerprint(expected)
    assert engine.rng.bit_generator.state == oracle.rng.bit_generator.state
