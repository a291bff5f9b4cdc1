"""Simulation configuration — the paper's experimental variables (§V-B).

Every knob in the paper's "Experimental Variables" subsection appears here
with the paper's default value:

========================  =====================================  ========
Paper variable            Field                                  Default
========================  =====================================  ========
Strategy                  ``strategy``                           "none"
Homogeneity               ``heterogeneous``                      False
Work Measurement          ``work_measurement``                   "one"
Network Size              ``n_nodes``                            1000
Number of Tasks           ``n_tasks``                            100_000
Churn Rate                ``churn_rate``                         0.0
Max Sybils                ``max_sybils``                         5
Sybil Threshold           ``sybil_threshold``                    0
Successors                ``num_successors``                     5
========================  =====================================  ========

Additional fields capture details the paper fixes implicitly (the 5-tick
decision cadence for Sybil strategies, §IV-B) or leaves under-specified
(see DESIGN.md "Interpretation decisions").

Every field declared here must be *read* somewhere outside this module —
reprolint rule R005 (config-drift) fails the build on dead knobs, so a
refactor cannot silently disconnect a paper variable from the simulator
(see docs/static-analysis.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Literal

from repro.errors import ConfigError

__all__ = [
    "AdversaryModel",
    "FailureModel",
    "SimulationConfig",
    "STRATEGY_NAMES",
]

#: Strategy registry keys understood by :func:`repro.core.make_strategy`.
STRATEGY_NAMES = (
    "none",
    "churn",
    "random_injection",
    "neighbor_injection",
    "smart_neighbor_injection",
    "invitation",
    # extensions implementing the paper's §VII future work
    "strength_invitation",
    "proportional_injection",
    "relocation",
)

WorkMeasurement = Literal["one", "strength"]
Placement = Literal["random", "midpoint", "median"]
KeyDistribution = Literal["uniform", "clustered", "zipf"]


@dataclass(frozen=True)
class FailureModel:
    """Failure-injection knobs, default-off (the paper's §V idealization).

    The paper assumes every departure is graceful and backups are
    aggressive enough that "node death loses no data".  This group makes
    that assumption a parameter instead of a constant:

    ``crash_fraction``
        Fraction of churn departures that are crash-stop instead of
        graceful.  A crashed owner's tasks survive only where one of its
        ``replication_factor`` successors holds a backup.
    ``replication_factor``
        Number of successor backups ``r``.  ``None`` keeps the paper's
        perfect-backup idealization (every key is recoverable); ``0``
        means no backups at all.
    ``message_loss_rate``
        Protocol layer only: probability that any RPC is dropped in
        transit (:class:`repro.chord.network.SimNetwork`).
    ``crash_detection_ticks``
        Protocol layer only: how many network ticks a crash-stop node
        still *appears* alive to liveness probes before peers detect the
        failure.

    All defaults are inert: a default ``FailureModel`` changes neither
    RNG consumption nor results, so seeded runs stay bit-identical.
    """

    crash_fraction: float = 0.0
    replication_factor: int | None = None
    message_loss_rate: float = 0.0
    crash_detection_ticks: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ConfigError(
                f"crash_fraction must be in [0, 1], got {self.crash_fraction}"
            )
        if self.replication_factor is not None and self.replication_factor < 0:
            raise ConfigError(
                f"replication_factor must be >= 0 or None, "
                f"got {self.replication_factor}"
            )
        if not 0.0 <= self.message_loss_rate <= 1.0:
            raise ConfigError(
                f"message_loss_rate must be in [0, 1], "
                f"got {self.message_loss_rate}"
            )
        if self.crash_detection_ticks < 0:
            raise ConfigError(
                f"crash_detection_ticks must be >= 0, "
                f"got {self.crash_detection_ticks}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any knob departs from the paper's idealization."""
        return (
            self.crash_fraction > 0.0
            or self.replication_factor is not None
            or self.message_loss_rate > 0.0
            or self.crash_detection_ticks > 0
        )

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class AdversaryModel:
    """Adversarial-Sybil knobs, default-off (attack/defense plane).

    The paper's Sybils are benevolent; this group injects *hostile*
    ones so the balancing strategies can be stress-tested against the
    canonical DHT attacks (see docs/adversarial.md):

    ``eclipse_sybils``
        Number of coordinated Sybil slots one attacker concentrates in
        a victim arc at ``attack_tick`` to capture that arc's keys.
    ``eclipse_arc_fraction``
        Width of the eclipsed arc as a fraction of the id space.
    ``free_riders``
        Number of adversarial owners that join the ring, accept keys,
        and consume at rate 0 (tasks parked on them never finish).
    ``churn_amplification``
        Per-decision-round probability of a targeted crash against the
        heaviest honest in-network owner.
    ``attack_tick``
        Tick at which eclipse/free-rider injection happens.
    ``join_cost``
        SybilControl-style defense: joining/creating any Sybil slot
        costs this much budget, drawn from a per-owner account that
        starts full.  ``0`` disables the defense.
    ``join_budget_refill``
        Budget units refilled per tick (capped at ``join_cost``).
    ``detection_interval``
        Defense cadence: every this many ticks, per-arc Sybil-density
        detection runs and evicts flagged owners.  ``0`` disables it.
    ``density_threshold``
        Slots one owner must hold inside a single detection arc to be
        flagged (eclipse signature).

    All defaults are inert: a default ``AdversaryModel`` changes
    neither RNG consumption nor results, so seeded runs stay
    bit-identical (pinned in tests/test_adversary.py).
    """

    eclipse_sybils: int = 0
    eclipse_arc_fraction: float = 0.05
    free_riders: int = 0
    churn_amplification: float = 0.0
    attack_tick: int = 1
    join_cost: int = 0
    join_budget_refill: int = 1
    detection_interval: int = 0
    density_threshold: int = 4

    def __post_init__(self) -> None:
        if self.eclipse_sybils < 0:
            raise ConfigError(
                f"eclipse_sybils must be >= 0, got {self.eclipse_sybils}"
            )
        if not 0.0 < self.eclipse_arc_fraction <= 0.5:
            raise ConfigError(
                f"eclipse_arc_fraction must be in (0, 0.5], "
                f"got {self.eclipse_arc_fraction}"
            )
        if self.free_riders < 0:
            raise ConfigError(
                f"free_riders must be >= 0, got {self.free_riders}"
            )
        if not 0.0 <= self.churn_amplification <= 1.0:
            raise ConfigError(
                f"churn_amplification must be in [0, 1], "
                f"got {self.churn_amplification}"
            )
        if self.attack_tick < 1:
            raise ConfigError(
                f"attack_tick must be >= 1, got {self.attack_tick}"
            )
        if self.join_cost < 0:
            raise ConfigError(
                f"join_cost must be >= 0, got {self.join_cost}"
            )
        if self.join_budget_refill < 1:
            raise ConfigError(
                f"join_budget_refill must be >= 1, "
                f"got {self.join_budget_refill}"
            )
        if self.detection_interval < 0:
            raise ConfigError(
                f"detection_interval must be >= 0, "
                f"got {self.detection_interval}"
            )
        if self.density_threshold < 2:
            raise ConfigError(
                f"density_threshold must be >= 2, "
                f"got {self.density_threshold}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any attack or defense departs from the paper's model."""
        return (
            self.eclipse_sybils > 0
            or self.free_riders > 0
            or self.churn_amplification > 0.0
            or self.join_cost > 0
            or self.detection_interval > 0
        )

    @property
    def n_adversaries(self) -> int:
        """Adversarial owner slots to preallocate in the registry."""
        n = self.free_riders
        if self.eclipse_sybils > 0:
            n += 1  # the eclipse attacker is one coordinated owner
        return n

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SimulationConfig:
    """Full parameterization of one simulated computation.

    Instances are immutable; derive variants with :meth:`with_updates`.
    """

    # -- paper variables -------------------------------------------------
    strategy: str = "none"
    n_nodes: int = 1000
    n_tasks: int = 100_000
    heterogeneous: bool = False
    work_measurement: WorkMeasurement = "one"
    churn_rate: float = 0.0
    max_sybils: int = 5
    sybil_threshold: int = 0
    num_successors: int = 5

    # -- cadence and interpretation knobs (DESIGN.md) ---------------------
    decision_interval: int = 5
    invite_factor: float = 1.0
    placement: Placement = "random"
    avoid_failed_ranges: bool = False

    # -- workload-shape extensions (beyond the paper; defaults match it) --
    key_distribution: KeyDistribution = "uniform"
    n_clusters: int = 8
    cluster_spread: float = 0.01
    zipf_exponent: float = 1.2
    arrival_rate: float = 0.0
    arrival_until: int = 0

    # -- failure injection (default-off; see FailureModel) ----------------
    failures: FailureModel = field(default_factory=FailureModel)

    # -- adversarial Sybils (default-off; see AdversaryModel) -------------
    adversary: AdversaryModel = field(default_factory=AdversaryModel)

    # -- machinery --------------------------------------------------------
    seed: int | None = 0
    bits: int = 64
    max_ticks: int = 2_000_000
    snapshot_ticks: tuple[int, ...] = field(default=())
    collect_timeseries: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.failures, dict):
            # persistence round-trip: SimulationConfig(**as_dict())
            object.__setattr__(self, "failures", FailureModel(**self.failures))
        elif not isinstance(self.failures, FailureModel):
            raise ConfigError(
                f"failures must be a FailureModel or dict, "
                f"got {type(self.failures).__name__}"
            )
        if isinstance(self.adversary, dict):
            # persistence round-trip: SimulationConfig(**as_dict())
            object.__setattr__(
                self, "adversary", AdversaryModel(**self.adversary)
            )
        elif not isinstance(self.adversary, AdversaryModel):
            raise ConfigError(
                f"adversary must be an AdversaryModel or dict, "
                f"got {type(self.adversary).__name__}"
            )
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGY_NAMES}"
            )
        if self.n_nodes <= 0:
            raise ConfigError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_tasks < 0:
            raise ConfigError(f"n_tasks must be >= 0, got {self.n_tasks}")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigError(
                f"churn_rate must be in [0, 1], got {self.churn_rate}"
            )
        if self.max_sybils < 0:
            raise ConfigError(f"max_sybils must be >= 0, got {self.max_sybils}")
        if self.heterogeneous and self.max_sybils < 1:
            raise ConfigError(
                "heterogeneous networks need max_sybils >= 1 (strength range)"
            )
        if self.sybil_threshold < 0:
            raise ConfigError(
                f"sybil_threshold must be >= 0, got {self.sybil_threshold}"
            )
        if self.num_successors < 1:
            raise ConfigError(
                f"num_successors must be >= 1, got {self.num_successors}"
            )
        if self.decision_interval < 1:
            raise ConfigError(
                f"decision_interval must be >= 1, got {self.decision_interval}"
            )
        if self.work_measurement not in ("one", "strength"):
            raise ConfigError(
                f"work_measurement must be 'one' or 'strength', "
                f"got {self.work_measurement!r}"
            )
        if self.placement not in ("random", "midpoint", "median"):
            raise ConfigError(f"unknown placement {self.placement!r}")
        if self.bits < 8 or self.bits > 64:
            raise ConfigError(
                f"simulator id space must be 8..64 bits, got {self.bits}"
            )
        if self.max_ticks < 1:
            raise ConfigError(f"max_ticks must be >= 1, got {self.max_ticks}")
        if self.invite_factor <= 0:
            raise ConfigError(
                f"invite_factor must be positive, got {self.invite_factor}"
            )
        if self.key_distribution not in ("uniform", "clustered", "zipf"):
            raise ConfigError(
                f"unknown key_distribution {self.key_distribution!r}"
            )
        if self.n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if not 0.0 < self.cluster_spread <= 0.5:
            raise ConfigError(
                f"cluster_spread must be in (0, 0.5], got {self.cluster_spread}"
            )
        if self.zipf_exponent <= 1.0:
            raise ConfigError(
                f"zipf_exponent must be > 1, got {self.zipf_exponent}"
            )
        if self.arrival_rate < 0:
            raise ConfigError(
                f"arrival_rate must be >= 0, got {self.arrival_rate}"
            )
        if self.arrival_until < 0:
            raise ConfigError(
                f"arrival_until must be >= 0, got {self.arrival_until}"
            )

    # ------------------------------------------------------------------
    @property
    def tasks_per_node(self) -> float:
        """Mean initial tasks per node — the paper's load ratio."""
        return self.n_tasks / self.n_nodes

    @property
    def uses_sybils(self) -> bool:
        """Whether the configured strategy creates Sybil nodes."""
        return self.strategy in (
            "random_injection",
            "neighbor_injection",
            "smart_neighbor_injection",
            "invitation",
            "strength_invitation",
            "proportional_injection",
        )

    def with_updates(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form (for CSV/JSON export and result provenance)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["failures"] = self.failures.as_dict()
        data["adversary"] = self.adversary.as_dict()
        return data
