"""The fabric worker: lease, run, settle, repeat.

A worker is a plain synchronous pull loop against a broker's attach
socket — no state survives between iterations, which is exactly why a
worker can join a sweep mid-grid or die mid-trial without hurting
anything: the broker's lease timeout returns its in-flight unit to the
queue, and every trial it *did* settle is already in the cache.  The
same loop serves ``repro fabric worker`` on any host and the local
processes a broker with ``n_jobs > 1`` spawns for itself.

Workers use :func:`repro.net.transport.request` (retry policy, backoff
and error taxonomy included), so transient broker hiccups are absorbed;
a broker that stays unreachable after first contact is treated as "the
sweep is over" rather than an error — the broker exits the moment its
queue settles, and racing workers are expected to outlive it briefly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import TransientNetworkError
from repro.fabric.protocol import (
    OP_LEASE,
    OP_SETTLE,
    result_to_wire,
    unit_from_wire,
)
from repro.fabric.queue import execute_unit
from repro.net.transport import Address, RetryPolicy, request

__all__ = ["WorkerSummary", "run_worker"]

#: Lease/settle exchanges are small and the broker answers from memory;
#: short timeouts keep a dead broker from stalling the worker loop.
DEFAULT_WORKER_POLICY = RetryPolicy(timeout=5.0, retries=2, backoff=0.1)


@dataclass
class WorkerSummary:
    """What one worker loop did before exiting."""

    units_ok: int = 0
    units_err: int = 0
    clean_shutdown: bool = False
    broker_lost: bool = False

    @property
    def units_total(self) -> int:
        return self.units_ok + self.units_err

    def summary_line(self) -> str:
        parts = [f"{self.units_total} unit(s)", f"{self.units_ok} ok"]
        if self.units_err:
            parts.append(f"{self.units_err} err")
        if self.clean_shutdown:
            parts.append("clean shutdown")
        if self.broker_lost:
            parts.append("broker lost")
        return ", ".join(parts)


def run_worker(
    addr: Address,
    *,
    name: str | None = None,
    trial_fn: Callable | None = None,
    policy: RetryPolicy = DEFAULT_WORKER_POLICY,
    poll_interval: float = 0.5,
    max_units: int | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> WorkerSummary:
    """Drain work from the broker at ``addr`` until told to shut down.

    ``name`` identifies this worker in broker status and lease ownership
    (default ``worker-<pid>``).  ``trial_fn`` mirrors
    :func:`repro.sim.trials.run_trials` — it replaces
    :func:`~repro.sim.trials.run_trial` for fault-injection tests and
    custom engines.  ``poll_interval`` is the wait after an empty lease;
    a broker's own local workers poll at its ``poll_interval``.
    ``max_units`` bounds how many units this worker settles (testing
    hook).  ``sleep`` is injectable so empty-queue polling is
    unit-testable without real waits.

    Raises :class:`~repro.errors.TransientNetworkError` only when the
    broker was *never* reachable; once first contact succeeds, a vanished
    broker ends the loop with ``broker_lost=True`` instead.
    """
    worker_name = name or f"worker-{os.getpid()}"
    summary = WorkerSummary()
    contacted = False
    while True:
        if max_units is not None and summary.units_total >= max_units:
            return summary
        try:
            lease = request(
                addr, {"op": OP_LEASE, "worker": worker_name}, policy=policy
            )
        except TransientNetworkError:
            if contacted:
                summary.broker_lost = True
                return summary
            raise
        contacted = True
        wire_unit = lease.get("unit")
        if wire_unit is None:
            if lease.get("shutdown"):
                summary.clean_shutdown = True
                return summary
            sleep(poll_interval)
            continue

        uid, config, seed_seq = unit_from_wire(wire_unit)
        status, payload, seconds = execute_unit(trial_fn, config, seed_seq)
        settle: dict = {
            "op": OP_SETTLE,
            "worker": worker_name,
            "uid": uid,
            "status": status,
            "seconds": seconds,
        }
        if status == "ok":
            settle["result"] = result_to_wire(payload)  # type: ignore[arg-type]
        else:
            settle["error"] = str(payload)
        try:
            reply = request(addr, settle, policy=policy)
        except TransientNetworkError:
            summary.broker_lost = True
            return summary
        if status == "ok":
            summary.units_ok += 1
        else:
            summary.units_err += 1
        if reply.get("shutdown"):
            summary.clean_shutdown = True
            return summary
