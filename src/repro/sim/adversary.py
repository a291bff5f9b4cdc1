"""Adversarial Sybil plane: seeded attack injection and defenses.

The paper uses Sybils *benevolently* — extra identities a node volunteers
to absorb load.  This module asks what the paper cannot: does Sybil-based
balancing survive a *hostile* Sybil attack?  Three attacker behaviors run
as an engine phase (between churn and arrivals), all default-off and all
drawing from the engine's seeded RNG stream so enabled scenarios stay
bit-identical from run to run:

* **eclipse** — one coordinated attacker concentrates
  ``eclipse_sybils`` identities inside a victim arc (the arc holding the
  most remaining keys at ``attack_tick``), capturing its tasks — the
  arc-targeted attack of the IPFS active-Sybil literature;
* **free-rider** — ``free_riders`` adversarial owners join at random
  identifiers, accept keys, and consume at rate 0, stranding whatever
  lands on them;
* **churn-amplifier** — targeted crash pressure: each decision round the
  heaviest honest owner crashes with probability
  ``churn_amplification``.

Two defenses (SybilControl-style), usable by every strategy through
:class:`~repro.core.strategy.NetworkView`:

* **join-cost budget** — creating any identity (benevolent Sybil or
  attack join) draws ``join_cost`` from a per-owner account refilled by
  ``join_budget_refill`` per tick, throttling identity-creation rate for
  honest and hostile nodes alike;
* **per-arc density detection** — every ``detection_interval`` ticks the
  ring is folded into 64 equal arcs; an owner holding
  ``density_threshold`` or more slots inside a single arc (the eclipse
  signature) is evicted wholesale.  Evicted adversaries are quarantined
  (they can never re-enter through the benign waiting pool); evicted
  honest owners are false positives and may rejoin under churn.

Metric definitions (also in docs/adversarial.md): *captured-key
fraction* is the share of remaining tasks held by adversarial slots;
*stranded tasks* are the keys still parked on adversarial slots when the
run ends (lost to free-riding); detection *precision* is tp/(tp+fp) over
evicted owners, *recall* the fraction of adversarial owners that ever
joined and were evicted.

Free-riders hold exactly one slot each, so they are *intentionally*
invisible to density detection — only the join-cost budget slows them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.owners import PROV_ADVERSARIAL
from repro.sim.workload import draw_new_node_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import TickEngine

__all__ = ["AdversaryPlane"]

#: detection folds the id space into 2**_BUCKET_BITS equal arcs
_BUCKET_BITS = 6
_N_BUCKETS = 1 << _BUCKET_BITS


class AdversaryPlane:
    """Per-run attack/defense driver (built only when the model is on).

    Holds no ring state of its own: it mutates the engine's
    ``RingState``/``OwnerRegistry`` through the same batched structural
    operations the churn phase uses, so seeded trajectories stay
    bit-identical from run to run.
    """

    def __init__(self, engine: "TickEngine"):
        self.engine = engine
        self.cfg = engine.config.adversary
        self.owners = engine.owners
        self.state = engine.state
        self.space = engine.space
        self.rng = engine.rng

        start = self.owners.adversary_start
        self._free_rider_owners = list(
            range(start, start + self.cfg.free_riders)
        )
        self._eclipse_owner = (
            start + self.cfg.free_riders
            if self.cfg.eclipse_sybils > 0
            else None
        )
        #: attack identities waiting on the join budget
        self._pending_free: list[int] = []
        self._pending_eclipse: list[int] = []
        #: membership-only sets (never iterated — order must not leak)
        self._joined_adv: set[int] = set()
        self._evicted_adv: set[int] = set()

        self.captured_final = 0
        self.captured_peak = 0
        self.captured_frac_peak = 0.0
        self.crash_recovered = 0

        counters = engine.counters
        counters["adversary.slots_joined"] = 0
        counters["adversary.crashes"] = 0
        counters["adversary.crash_tasks_lost"] = 0
        counters["adversary.evictions"] = 0
        counters["adversary.detection_tp"] = 0
        counters["adversary.detection_fp"] = 0

    # ------------------------------------------------------------------
    def run_tick(self, tick: int) -> None:
        """One adversary phase (engine calls this between churn and
        arrivals; never called when the model is disabled)."""
        cfg = self.cfg
        if cfg.join_cost > 0:
            self.owners.refill_join_budgets()
        if tick == cfg.attack_tick:
            self._plan_attack()
        if self._pending_free or self._pending_eclipse:
            self._drain_joins()
        if (
            cfg.churn_amplification > 0
            and tick % self.engine.config.decision_interval == 0
        ):
            self._amplify_churn()
        if cfg.detection_interval > 0 and tick % cfg.detection_interval == 0:
            self._run_detection()
        self._measure()

    # ------------------------------------------------------------------
    # attacks
    # ------------------------------------------------------------------
    def _plan_attack(self) -> None:
        cfg = self.cfg
        if cfg.free_riders > 0:
            self._pending_free = list(self._free_rider_owners)
        if cfg.eclipse_sybils > 0:
            # victim: the slot holding the most remaining keys right now
            # (deterministic first-max — no RNG)
            victim = int(np.argmax(self.state.counts))
            end = int(self.state.ids[victim])
            size = self.space.size
            k = cfg.eclipse_sybils
            arc_len = max(k + 1, int(cfg.eclipse_arc_fraction * size))
            # k identities evenly spaced inside (end - arc_len, end):
            # the highest sits just below the victim id, leaving it only
            # a sliver of its arc.  Pure-int arithmetic — id math stays
            # out of numpy here on purpose.
            base = (end - arc_len) % size
            step = max(1, arc_len // (k + 1))
            self._pending_eclipse = [
                (base + (j + 1) * step) % size for j in range(k)
            ]

    def _free_ident_near(self, ident: int) -> int | None:
        """Nudge an identifier forward past collisions (bounded)."""
        size = self.space.size
        for _ in range(64):
            if not self.state.id_exists(ident):
                return ident
            ident = (ident + 1) % size
        return None

    def _note_joined(self, owner: int) -> None:
        self.engine.counters["adversary.slots_joined"] += 1
        if owner not in self._joined_adv:
            self._joined_adv.add(owner)

    def _drain_joins(self) -> None:
        """Admit pending attack identities, throttled by the join budget.

        With the defense off every pending identity lands immediately at
        ``attack_tick``; with it on, each owner's account covers at most
        one join per refill period, so the eclipse arc fills as a
        trickle the detection defense can race.
        """
        owners = self.owners
        state = self.state
        while self._pending_free:
            owner = self._pending_free[0]
            if not owners.spend_join_budget(owner):
                break
            ident = draw_new_node_id(self.space, self.rng, state.id_exists)
            _, acquired = state.insert_slot(
                ident, owner, is_main=True, provenance=PROV_ADVERSARIAL
            )
            owners.join_network(owner, ident)
            self._pending_free.pop(0)
            self._note_joined(owner)
        owner = self._eclipse_owner
        while self._pending_eclipse and owner is not None:
            ident = self._free_ident_near(self._pending_eclipse[0])
            if ident is None:
                self._pending_eclipse.pop(0)
                continue
            if not owners.in_network[owner]:
                # first identity in is the attacker's main
                if not owners.spend_join_budget(owner):
                    break
                _, acquired = state.insert_slot(
                    ident, owner, is_main=True, provenance=PROV_ADVERSARIAL
                )
                owners.join_network(owner, ident)
            else:
                # can_add_sybil folds in the budget check
                if not owners.can_add_sybil(owner):
                    break
                owners.register_sybil(owner)
                _, acquired = state.insert_slot(
                    ident, owner, is_main=False, provenance=PROV_ADVERSARIAL
                )
            self._pending_eclipse.pop(0)
            self._note_joined(owner)

    def _amplify_churn(self) -> None:
        """Crash the heaviest honest owner with the configured probability."""
        engine = self.engine
        honest = self.owners.honest_network_indices
        if honest.size <= 1:
            return
        if self.rng.random() >= self.cfg.churn_amplification:
            return
        loads = self.state.owner_loads(self.owners.n_total)
        victim = int(honest[int(np.argmax(loads[honest]))])
        removal = self.state.begin_batch_removal([victim])
        res = removal.crash_owner_guarded(
            victim, engine.failures.replication_factor
        )
        if res is None:
            # removing the victim would empty the ring — attack fizzles
            return
        recovered, lost = res
        removal.commit()
        self.owners.leave_network(victim)
        self.crash_recovered += recovered
        engine.counters["adversary.crashes"] += 1
        engine.counters["adversary.crash_tasks_lost"] += lost
        engine.tasks_lost += lost

    # ------------------------------------------------------------------
    # defense: per-arc Sybil-density detection
    # ------------------------------------------------------------------
    def _run_detection(self) -> None:
        state = self.state
        owners = self.owners
        if state.n_slots == 0:
            return
        shift = np.uint64(self.space.bits - _BUCKET_BITS)
        buckets = (state.ids >> shift).astype(np.int64)
        cell = state.owner * _N_BUCKETS + buckets
        per_cell = np.bincount(cell)
        hot = np.flatnonzero(per_cell >= self.cfg.density_threshold)
        if hot.size == 0:
            return
        flagged = np.unique(hot // _N_BUCKETS)
        counters = self.engine.counters
        removal = state.begin_batch_removal(flagged)
        evicted: list[int] = []
        for owner in flagged.tolist():
            owner = int(owner)
            if not owners.in_network[owner]:
                continue
            moved = removal.remove_owner_guarded(owner)
            if moved is None:
                continue  # never empty the ring
            evicted.append(owner)
            counters["adversary.evictions"] += 1
            if owners.provenance[owner] == PROV_ADVERSARIAL:
                counters["adversary.detection_tp"] += 1
                if owner not in self._evicted_adv:
                    self._evicted_adv.add(owner)
            else:
                counters["adversary.detection_fp"] += 1
        removal.commit()
        for owner in evicted:
            # adversaries land in the waiting pool but are excluded from
            # the honest waiting view — quarantined for good; honest
            # false positives may rejoin under churn
            owners.leave_network(owner)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _measure(self) -> None:
        counts = self.state.counts
        captured = int(counts[self.state.provenance == PROV_ADVERSARIAL].sum())
        self.captured_final = captured
        if captured > self.captured_peak:
            self.captured_peak = captured
        if captured:
            remaining = int(counts.sum())
            frac = captured / remaining if remaining else 0.0
            if frac > self.captured_frac_peak:
                self.captured_frac_peak = frac

    def summary(self) -> dict:
        """The result's ``adversary`` block (JSON-safe scalars only)."""
        counters = self.engine.counters
        tp = counters["adversary.detection_tp"]
        fp = counters["adversary.detection_fp"]
        joined = len(self._joined_adv)
        detection_on = self.cfg.detection_interval > 0
        precision: float | None = None
        recall: float | None = None
        if detection_on:
            if tp + fp:
                precision = tp / (tp + fp)
            if joined:
                recall = len(self._evicted_adv) / joined
        return {
            "captured_keys_final": self.captured_final,
            "captured_keys_peak": self.captured_peak,
            "captured_fraction_peak": self.captured_frac_peak,
            "stranded_tasks": self.captured_final,
            "slots_joined": counters["adversary.slots_joined"],
            "owners_joined": joined,
            "owners_evicted": len(self._evicted_adv),
            "crashes": counters["adversary.crashes"],
            "crash_tasks_lost": counters["adversary.crash_tasks_lost"],
            "crash_tasks_recovered": self.crash_recovered,
            "evictions": counters["adversary.evictions"],
            "detection_tp": tp,
            "detection_fp": fp,
            "detection_precision": precision,
            "detection_recall": recall,
        }
