"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "IdSpaceError",
    "RingError",
    "ProtocolError",
    "TransientNetworkError",
    "SimulationError",
    "RingEmptyError",
    "StrategyError",
    "TrialError",
    "ExperimentError",
    "PersistenceError",
    "LintError",
    "SanitizeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid or inconsistent."""


class IdSpaceError(ReproError, ValueError):
    """An identifier or interval does not fit the identifier space."""


class RingError(ReproError):
    """The ring state is invalid (empty ring, unknown slot, broken order)."""


class ProtocolError(ReproError):
    """A protocol-level Chord operation failed (dead node, bad RPC)."""


class TransientNetworkError(ProtocolError):
    """An RPC was lost in transit (injected drop), not a dead endpoint.

    Raised by :class:`repro.chord.network.SimNetwork` when a message is
    dropped by the fault plane.  Callers may retry: unlike a crash-stop
    failure, the target is still alive and a re-send can succeed.

    ``transport_failure`` marks errors originating in the fabric itself
    (drops and dead endpoints) as opposed to application-level protocol
    errors raised by the callee; node-level fallback logic keys on it.
    """

    transport_failure = True


class SimulationError(ReproError):
    """The tick simulation reached an invalid state."""


class RingEmptyError(SimulationError):
    """Churn removed the last slot from the ring.

    Carries the context needed to understand the collapse without a
    debugger: the tick it happened on, the active strategy, and the
    churn parameters that drove the ring to zero.  The tick engine
    converts this into a structured terminated result (``finished=False``,
    ``termination_reason="ring_empty"``) rather than failing the run.
    """

    def __init__(
        self,
        message: str,
        *,
        tick: int = -1,
        strategy: str = "",
        churn_rate: float = 0.0,
        crash_fraction: float = 0.0,
    ):
        super().__init__(message)
        self.tick = tick
        self.strategy = strategy
        self.churn_rate = churn_rate
        self.crash_fraction = crash_fraction


class StrategyError(ReproError):
    """A load-balancing strategy was misused or misconfigured."""


class TrialError(SimulationError):
    """One or more trials of a multi-trial run failed after retries.

    Unlike a bare worker traceback, this names every failed trial: the
    ``failures`` attribute holds :class:`repro.sim.trials.TrialFailure`
    records ``(trial_index, seed_entropy, spawn_key, attempts, error)``,
    and ``n_completed`` counts the sibling trials that did finish (their
    results are preserved in the trial cache, so a re-run only redoes
    the failures).
    """

    def __init__(self, message: str, failures: tuple = (), n_completed: int = 0):
        super().__init__(message)
        self.failures = tuple(failures)
        self.n_completed = n_completed


class ExperimentError(ReproError):
    """An experiment specification cannot be satisfied."""


class PersistenceError(ReproError, ValueError):
    """A persisted document is malformed or has an unknown format tag.

    Subclasses ``ValueError`` so callers that historically caught
    ``ValueError`` around :mod:`repro.sim.persistence` loads keep
    working.
    """


class LintError(ReproError):
    """The static-analysis subsystem was misused (bad path, unknown rule)."""


class SanitizeError(ReproError):
    """The runtime determinism sanitizer observed a violated invariant.

    Raised only under ``REPRO_SANITIZE=1`` (see :mod:`repro.sanitize`):
    one generator claimed by two concurrent consumers.  The same
    condition in an unsanitized run would not crash — it would silently
    break bit-reproducibility, which is worse.
    """
