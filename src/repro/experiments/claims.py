"""The paper's checkable claims, declared once.

Each :class:`Claim` row names the registry experiment it reads (its
id's prefix), a ``measure(result) -> float`` over that experiment's
:class:`~repro.experiments.spec.ExperimentResult`, the :class:`Bound`
the measured value must fall in, and the paper's value.  Everything
else derives from :data:`CLAIMS`:

* ``make paper-check`` (``benchmarks/bench_paper.py``) runs every
  experiment that has rows at quick scale, seed 0, and asserts them;
* tier-1 (``tests/test_experiments.py``) checks the figure rows;
* ``repro report`` prints each row's measured value and verdict under
  its experiment's section;
* EXPERIMENTS.md's claims block is :func:`claims_markdown`.

A bound carries its tolerance (Table II's ``-0.15`` slack, T1's
``[1.36, 1.70]``).  Widening one to get a change through is not a fix:
a row that flips is reported as flipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.experiments.spec import ExperimentResult

Measure = Callable[[ExperimentResult], float]

__all__ = [
    "Bound",
    "Claim",
    "Verdict",
    "CLAIMS",
    "above",
    "at_least",
    "at_most",
    "below",
    "within",
    "check",
    "claimed_experiments",
    "claims_markdown",
    "verdicts_markdown",
]


@dataclass(frozen=True)
class Bound:
    """``lo <= value <= hi``, or ``lo < value < hi`` when ``strict``.

    A NaN measurement never holds.
    """

    lo: float = -math.inf
    hi: float = math.inf
    strict: bool = False

    def holds(self, value: float) -> bool:
        if self.strict:
            return self.lo < value < self.hi
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        if math.isinf(self.hi):
            return f"{'>' if self.strict else '≥'} {self.lo:g}"
        if math.isinf(self.lo):
            return f"{'<' if self.strict else '≤'} {self.hi:g}"
        left, right = "()" if self.strict else "[]"
        return f"in {left}{self.lo:g}, {self.hi:g}{right}"


def above(x: float) -> Bound:
    return Bound(lo=x, strict=True)


def at_least(x: float) -> Bound:
    return Bound(lo=x)


def below(x: float) -> Bound:
    return Bound(hi=x, strict=True)


def at_most(x: float) -> Bound:
    return Bound(hi=x)


def within(lo: float, hi: float) -> Bound:
    return Bound(lo=lo, hi=hi)


@dataclass(frozen=True)
class Claim:
    """One checkable shape: ``bound.holds(measure(result))``."""

    id: str
    quantity: str
    measure: Measure
    bound: Bound
    paper: str

    @property
    def experiment(self) -> str:
        return self.id.partition(".")[0]


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: float

    @property
    def holds(self) -> bool:
        return self.claim.bound.holds(self.value)

    def __str__(self) -> str:
        return (
            f"{self.claim.id}: {self.claim.quantity} = {self.value:.4g}, "
            f"bound {self.claim.bound} -> "
            f"{'holds' if self.holds else 'FAILS'}"
        )


# -- measures -----------------------------------------------------------


def _pair(result: ExperimentResult, tick: int, figure: str | None = None):
    """The (strategy, other network) histogram pair at ``tick``."""
    if figure is not None:
        result = result.data[figure]
    return result.data["histograms"][tick]


def _lower(stat: str, tick: int, figure: str | None = None) -> Measure:
    """Other network's ``stat`` minus the strategy's (> 0: strategy lower)."""

    def measure(result: ExperimentResult) -> float:
        ours, other = _pair(result, tick, figure)
        return float(getattr(other.stats, stat) - getattr(ours.stats, stat))

    return measure


def _row(label: str) -> Measure:
    """The value beside ``label`` in the result's rows."""
    return lambda r: float(next(row[1] for row in r.rows if row[0] == label))


def _diff(bigger: str, smaller: str) -> Measure:
    """``data[bigger] - data[smaller]`` (> 0: ``smaller`` is lower)."""
    return lambda r: float(r.data[bigger] - r.data[smaller])


def _measured(bigger: Hashable, smaller: Hashable) -> Measure:
    """``data['measured'][bigger] - data['measured'][smaller]``."""
    return lambda r: float(
        r.data["measured"][bigger] - r.data["measured"][smaller]
    )


def _setting(result: ExperimentResult, setting: str) -> float:
    return float(next(r[2] for r in result.rows if r[1] == setting))


def _ablation(worse: str, better: str) -> Measure:
    """Mean factor of setting ``worse`` minus setting ``better``."""
    return lambda r: _setting(r, worse) - _setting(r, better)


def _median_ratios(result: ExperimentResult) -> list[float]:
    """Table I's median / mean workload, per grid cell."""
    return [row[2] / (row[1] / row[0]) for row in result.rows]


def _table2_min_step(result: ExperimentResult) -> float:
    measured = result.data["measured"]
    rates = sorted(measured)
    return min(
        measured[a][net] - measured[b][net]
        for net in result.data["networks"]
        for a, b in zip(rates, rates[1:])
    )


def _churn_rise(field: str) -> Measure:
    """``field`` at the highest churn rate minus at the lowest."""

    def measure(result: ExperimentResult) -> float:
        measured = result.data["measured"]
        rates = sorted(measured)
        return float(measured[rates[-1]][field] - measured[rates[0]][field])

    return measure


def _arrivals(field: str) -> Measure:
    """``field`` of no strategy minus random injection."""
    return lambda r: float(
        r.data["measured"]["none"][field]
        - r.data["measured"]["random_injection"][field]
    )


# -- the table ----------------------------------------------------------

CLAIMS: list[Claim] = [
    # Table I
    Claim("table1.median-min", "min over grid cells of median / mean",
          lambda r: min(_median_ratios(r)), above(0.6), "ln 2 ≈ 0.693"),
    Claim("table1.median-max", "max over grid cells of median / mean",
          lambda r: max(_median_ratios(r)), below(0.8), "ln 2 ≈ 0.693"),
    # Table II
    Claim("table2.churn-falls",
          "min over columns and churn steps of factor(lower churn) - "
          "factor(higher churn)",
          _table2_min_step, at_least(-0.15), "falls in every column"),
    Claim("table2.task-gain", "churn 0.01 factor, 1000n/1e5t - 1000n/1e6t",
          lambda r: float(r.data["measured"][0.01][(1000, 100_000)]
                          - r.data["measured"][0.01][(1000, 1_000_000)]),
          above(0), "3.721 vs 2.104"),
    # Figure 1 (1000n/1e6t)
    Claim("fig01.median", "median workload", _row("median workload"),
          within(692 * 0.95, 692 * 1.05), "≈692"),
    Claim("fig01.bulk", "fraction of nodes below 1000 tasks",
          _row("fraction below 1000 tasks"), above(0.6),
          "\"the bulk of the nodes\""),
    Claim("fig01.tail", "fraction of nodes above 10000 tasks",
          _row("fraction above 10000 tasks"), above(0),
          "\"a few unfortunate nodes\""),
    Claim("fig01.max", "max workload", _row("max workload"), above(5000),
          "> 10000 visible"),
    Claim("fig01.zipf", "zipf tail exponent", _row("zipf tail exponent"),
          below(0), "heavy tail"),
    # Figures 2-3 (10n/100t)
    Claim("fig02_03.spread", "tasks-per-node std, hashed - evenly spaced",
          lambda r: float(r.data["hashed"].task_counts.std()
                          - r.data["even"].task_counts.std()),
          at_least(0), "even spacing helps"),
    Claim("fig02_03.even-max", "max tasks on one evenly spaced node",
          lambda r: float(r.data["even"].task_counts.max()), above(10),
          "tasks still cluster"),
    # Figures 4-6: churn 0.01 vs none (1000n/1e5t)
    Claim("fig04_06.start", "histogram bins that differ at tick 0",
          lambda r: float(np.count_nonzero(
              _pair(r, 0)[0].counts != _pair(r, 0)[1].counts)),
          at_most(0), "identical (Fig 4)"),
    Claim("fig04_06.idle", "idle fraction at tick 35, none - churn",
          _lower("idle_fraction", 35), above(0), "churn lower (Fig 6)"),
    Claim("fig04_06.gini", "Gini at tick 35, none - churn",
          _lower("gini", 35), above(0), "churn lower (Fig 6)"),
    # Figures 7-9: random injection (1000n/1e5t)
    Claim("fig07_09.idle-5", "idle fraction at tick 5, none - random",
          _lower("idle_fraction", 5, "fig07_08"), above(0),
          "random lower (Fig 7)"),
    Claim("fig07_09.idle-35", "idle fraction at tick 35, none - random",
          _lower("idle_fraction", 35, "fig07_08"), above(0),
          "random lower (Fig 8)"),
    Claim("fig07_09.idle-vs-churn", "idle fraction at tick 35, churn - random",
          _lower("idle_fraction", 35, "fig09"), above(0),
          "random lower (Fig 9)"),
    # Figure 10: heterogeneous (1000n/1e5t)
    Claim("fig10.idle", "idle fraction at tick 35, none - random",
          _lower("idle_fraction", 35), above(0), "random lower"),
    Claim("fig10.gini", "Gini at tick 35, none - random",
          _lower("gini", 35), above(0), "random lower"),
    # Figures 11-12: neighbor injection (1000n/1e5t)
    Claim("fig11_12.neighbor-max", "max load at tick 35, none - neighbor",
          _lower("max", 35, "fig11"), above(0), "≈650 vs ≈450"),
    Claim("fig11_12.smart-max", "max load at tick 35, none - smart neighbor",
          _lower("max", 35, "fig12"), above(0), "smart cuts the tail"),
    # Figures 13-14: invitation (1000n/1e5t)
    Claim("fig13_14.max", "max load at tick 35, none - invitation",
          _lower("max", 35, "fig13"), above(0), "≈650 vs ≈500"),
    # §VI text: mean runtime factors, 1000n/1e5t unless named
    Claim("text_claims.T1", "factor, random injection 1000n/1e5t",
          lambda r: float(r.data["random_1000n_1e5t"]), within(1.36, 1.70),
          "1.36..1.70"),
    Claim("text_claims.T2", "factor, random injection 1000n/1e6t",
          lambda r: float(r.data["random_1000n_1e6t"]), within(1.12, 1.25),
          "1.12..1.25"),
    Claim("text_claims.T2-tasks",
          "factor, random injection 1000n: 1e5t - 1e6t",
          _diff("random_1000n_1e5t", "random_1000n_1e6t"), above(0),
          "more tasks help"),
    Claim("text_claims.T3",
          "factor, random injection 1000n/1e6t - 100n/1e5t",
          _diff("random_1000n_1e6t", "random_100n_1e5t"), above(0),
          "Δ≈0.086"),
    Claim("text_claims.T4", "factor, none - neighbor",
          _diff("none_1000n_1e5t", "neighbor_1000n_1e5t"), above(0), "2.4"),
    Claim("text_claims.T5", "factor, neighbor - smart neighbor",
          _diff("neighbor_1000n_1e5t", "smart_1000n_1e5t"), above(0), "1.2"),
    Claim("text_claims.T6", "factor, invitation 1000n - 100n (1e5t)",
          _diff("invitation_1000n_1e5t", "invitation_100n_1e5t"), above(0),
          "5.673 vs 3.749"),
    Claim("text_claims.order-smart",
          "factor, smart neighbor - random injection",
          _diff("smart_1000n_1e5t", "random_1000n_1e5t"), above(0),
          "random < smart"),
    Claim("text_claims.order-invitation",
          "factor, invitation - neighbor",
          _diff("invitation_1000n_1e5t", "neighbor_1000n_1e5t"), above(0),
          "neighbor < invitation"),
    Claim("text_claims.invitation-vs-none", "factor, none - invitation",
          _diff("none_1000n_1e5t", "invitation_1000n_1e5t"), above(0),
          "invitation helps"),
    # Ablations (1000n/1e5t)
    Claim("ablations.A-homog", "factor, sybilThreshold 0 - 25 (homog)",
          _ablation("sybilThreshold=0 (homog)", "sybilThreshold=25 (homog)"),
          at_least(0.1), "≥ 0.1"),
    Claim("ablations.B-hetero",
          "factor, maxSybils 10 - 5 (hetero+strength)",
          _ablation("maxSybils=10 (hetero+strength)",
                    "maxSybils=5 (hetero+strength)"),
          above(0), "+0.3..1"),
    Claim("ablations.C", "factor, numSuccessors 5 - 10 (neighbor)",
          _ablation("numSuccessors=5 (neighbor)",
                    "numSuccessors=10 (neighbor)"),
          at_least(-0.1), "≈0.3"),
    Claim("ablations.E",
          "factor, random injection with churn 0.01 - without",
          _ablation("random injection + churn=0.01",
                    "random injection + churn=0.0"),
          at_least(-0.25), "+0.06 (no real effect)"),
    # Extensions: the paper has no value for them
    Claim("ext_skew.baseline", "factor, none: zipf / uniform keys",
          lambda r: float(r.data["measured"][("zipf", "none")]
                          / r.data["measured"][("uniform", "none")]),
          above(2), "-"),
    Claim("ext_skew.random-vs-neighbor",
          "factor, zipf keys: neighbor - random injection",
          _measured(("zipf", "neighbor_injection"),
                    ("zipf", "random_injection")),
          above(0), "-"),
    Claim("ext_skew.random-vs-invitation",
          "factor, zipf keys: invitation - random injection",
          _measured(("zipf", "invitation"), ("zipf", "random_injection")),
          above(0), "-"),
    Claim("ext_future_work.strength-invitation",
          "factor, hetero: none - strength invitation",
          _measured("none|hetero", "strength_invitation|hetero"),
          above(0), "-"),
    Claim("ext_future_work.proportional",
          "factor, hetero: none - proportional injection",
          _measured("none|hetero", "proportional_injection|hetero"),
          above(0), "-"),
    Claim("ext_future_work.relocation",
          "factor, homog: none - relocation",
          _measured("none|homog", "relocation|homog"), above(0), "-"),
    Claim("ext_future_work.proportional-homog",
          "factor, homog: abs(proportional - random injection)",
          lambda r: abs(_measured("proportional_injection|homog",
                                  "random_injection|homog")(r)),
          below(1e-9), "-"),
    Claim("ext_maintenance.factor", "factor, highest - lowest churn rate",
          _churn_rise("factor"), below(0), "-"),
    Claim("ext_maintenance.moved", "keys moved, highest - lowest churn rate",
          _churn_rise("keys_moved"), above(0), "-"),
    Claim("ext_maintenance.sybil",
          "factor, min over churn rates - random injection",
          lambda r: float(
              min(v["factor"] for v in r.data["measured"].values())
              - r.data["sybil_factor"]),
          above(0), "-"),
    Claim("ext_arrivals.drain",
          "drain ticks after arrivals, none - random injection",
          _arrivals("drain_after_arrivals"), above(0), "-"),
    Claim("ext_arrivals.factor", "factor, none - random injection",
          _arrivals("factor"), above(0), "-"),
]


def check(result: ExperimentResult) -> list[Verdict]:
    """Measure every row of ``result``'s experiment against its bound."""
    return [
        Verdict(claim, claim.measure(result))
        for claim in CLAIMS
        if claim.experiment == result.experiment_id
    ]


def claimed_experiments() -> list[str]:
    """The experiments that have rows, in table order."""
    return list(dict.fromkeys(claim.experiment for claim in CLAIMS))


def claims_markdown() -> str:
    """The table as EXPERIMENTS.md's claims block."""
    lines = ["| Claim | Quantity | Bound | Paper |", "|---|---|---|---|"]
    lines += [
        f"| `{c.id}` | {c.quantity} | {c.bound} | {c.paper} |" for c in CLAIMS
    ]
    return "\n".join(lines)


def verdicts_markdown(verdicts: list[Verdict]) -> str:
    """Measured value, bound and verdict per row, for ``repro report``."""
    lines = ["| Claim | Measured | Bound | Verdict |", "|---|---|---|---|"]
    lines += [
        f"| `{v.claim.id}` | {v.value:.4g} | {v.claim.bound} | "
        f"{'holds' if v.holds else '**FAILS**'} |"
        for v in verdicts
    ]
    return "\n".join(lines)
