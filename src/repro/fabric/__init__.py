"""The distributed trial fabric: a resumable work-queue broker.

``repro.fabric`` turns the multi-trial runner into a small distributed
system with exact-reproducibility guarantees: a :class:`~.broker.Broker`
flattens a sweep grid into a deterministic :class:`~.queue.TrialQueue`,
drains it with workers that lease units over :mod:`repro.net.transport`
— local processes it starts itself and, optionally, remote
``repro fabric worker`` processes — and streams every settled result
into the content-addressed trial cache, which is also the resume story.
See ``docs/fabric.md``.

:func:`repro.sim.trials.run_trials` delegates here, so every experiment
uses the fabric without knowing it; ``repro sweep`` runs one broker over
:func:`repro.sim.trials.sweep_grid`.
"""

from repro.fabric.broker import STATUS_FORMAT, Broker
from repro.fabric.queue import GridPoint, TrialQueue, WorkUnit, execute_unit
from repro.fabric.worker import WorkerSummary, run_worker

__all__ = [
    "Broker",
    "GridPoint",
    "STATUS_FORMAT",
    "TrialQueue",
    "WorkUnit",
    "WorkerSummary",
    "execute_unit",
    "run_worker",
]
