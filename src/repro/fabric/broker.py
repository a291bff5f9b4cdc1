"""The trial-fabric broker: one work queue, many workers, exact results.

The broker owns a :class:`~repro.fabric.queue.TrialQueue` (a flattened
sweep grid) and drains it with one worker protocol: ``open_listener()``
binds a TCP port speaking :mod:`repro.net.transport` frames, and
workers lease units over it, run them, and settle results mid-sweep.

* ``n_jobs > 1`` binds the attach socket (the ``listen`` address, else a
  private ``127.0.0.1:0`` that serves none but the broker's own workers)
  and starts up to ``n_jobs`` spawn-context processes running
  :func:`~repro.fabric.worker.run_worker` against it;
* ``n_jobs=1`` runs trials in-process (so unpicklable ``trial_fn``\\ s
  keep working) while the listener, if one was asked for, still serves
  attached workers;
* any number of ``repro fabric worker`` processes — on this host or
  others — may attach to a ``listen`` address either way.

Determinism is structural, not cooperative: every unit's seed is fixed
at queue-build time (``SeedSequence(entropy, spawn_key)``) and results
are assembled by unit index, so the output is bit-identical whether the
grid ran serially, on eight local processes, or half-remote.  Settled
results stream into the :class:`~repro.sim.cache.TrialCache` as they
arrive, which is the whole resume story: SIGKILL the broker anywhere and
a re-run recomputes only the missing units.

Failure handling (all under one lock, all through ``_settle_locked``):

* an erroring trial is requeued until its attempt budget (``retries + 1``)
  is spent, then marked failed;
* an attached worker that stops renewing its lease — dead, hung or
  stalled — has its unit settled as a timeout after ``lease_timeout``
  (and usually requeued), so one bad worker loses at most its in-flight
  unit; local workers are held to an explicit ``lease_timeout`` too, and
  one whose lease expired is then killed and replaced;
* a local worker that exits has its leased unit settled as "worker
  died" at once, and a replacement starts while live units remain;
* duplicate settles (a "dead" worker's result racing its own lease
  expiry) are dropped or harmlessly accepted — trials are pure functions
  of ``(config, seed path)``, so any settle for a unit is *the* answer.

Wall-clock time in this module is scheduling metadata — lease deadlines,
ETA estimates, status-file rate limiting.  It never touches simulation
state, which is why the module sits on the reprolint wall-clock
allowlist.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing as mp
import os
import secrets
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, Callable, Literal, Mapping, Sequence

from repro.errors import ConfigError, ProtocolError, TrialError
from repro.fabric.protocol import (
    OP_LEASE,
    OP_SETTLE,
    OP_STATUS,
    result_from_wire,
    unit_to_wire,
)
from repro.fabric.queue import (
    CACHED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SETTLED_STATES,
    GridPoint,
    TrialQueue,
    execute_unit,
)
from repro.fabric.worker import run_worker
from repro.net.transport import (
    Address,
    format_address,
    read_frame_sync,
    write_frame_sync,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache import TrialCache, get_cache
from repro.sim.results import SimulationResult, TrialSet

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "STATUS_FORMAT",
    "Broker",
    "fabric_metrics",
    "merge_fabric_metrics",
    "reset_fabric_metrics",
    "trial_summary",
]

STATUS_FORMAT = "repro.fabric_status.v1"

#: Seconds an attached worker may hold a unit when ``lease_timeout`` is
#: not given.
DEFAULT_LEASE_TIMEOUT = 120.0

#: How long after its last lease/settle a remote worker still counts as
#: "active" in status snapshots and ETA parallelism estimates.
_WORKER_ACTIVE_WINDOW = 10.0


class Broker:
    """Run a trial grid to completion across local and remote workers.

    Parameters mirror :func:`repro.sim.trials.run_trials` where they
    overlap (``n_jobs``, ``cache``, ``retries``, ``trial_fn``,
    ``progress``); the fabric-only knobs are:

    listen:
        ``(host, port)`` to accept remote workers on (port 0 = ephemeral;
        :meth:`open_listener` returns the bound address).  ``None``
        (default) accepts none; ``n_jobs > 1`` then binds a private
        loopback port that refuses every request not from its own
        workers, whose names carry a random secret.
    lease_timeout:
        Seconds a worker may hold a unit without settling it before the
        broker settles the unit as timed out (and kills the worker, if
        it started it).  ``None`` (default) holds attached workers to
        :data:`DEFAULT_LEASE_TIMEOUT` and the broker's own workers to
        no deadline: a local worker's death shows at once through its
        process, and one trial may run for minutes.
    poll_interval:
        Dispatch-loop tick, and the local workers' empty-queue poll;
        bounds how quickly lease expiry and status updates are noticed.
    status_path:
        If set, a JSON status document (format
        :data:`STATUS_FORMAT`) is atomically rewritten about twice a
        second — ``repro fabric status`` reads it without touching the
        broker.

    The broker books every trial outcome once, as ``fabric.*`` counters
    in its own :attr:`metrics` registry, and merges that registry into
    the module collector (:func:`fabric_metrics`) when :meth:`run`
    ends.
    """

    def __init__(
        self,
        grid: Sequence[GridPoint],
        *,
        n_jobs: int = 1,
        cache: TrialCache | Literal[False] | None = None,
        retries: int = 1,
        trial_fn: Callable | None = None,
        progress: Callable[[dict], None] | None = None,
        listen: Address | None = None,
        lease_timeout: float | None = None,
        poll_interval: float = 0.05,
        status_path: Path | str | None = None,
    ):
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if lease_timeout is not None and lease_timeout <= 0:
            raise ConfigError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if n_jobs == 0:
            from repro.sim.trials import default_n_jobs

            n_jobs = default_n_jobs()
        if n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 0, got {n_jobs}")

        grid = list(grid)
        # seedless configs are never cached
        if cache is None and any(p.config.seed is not None for p in grid):
            cache = get_cache()
        self._cache = cache if cache is not False else None
        self._queue = TrialQueue(grid, keyed=self._cache is not None)
        self._n_jobs = n_jobs
        self._retries = retries
        self._trial_fn = trial_fn
        self._progress = progress
        self._metrics = MetricsRegistry()
        self._listen = listen
        self._lease_timeout = lease_timeout
        self._poll = poll_interval
        self._status_path = Path(status_path) if status_path else None

        self._lock = threading.Lock()
        # progress callbacks arrive from connection threads too; this
        # keeps them from ever running concurrently
        self._emit_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._lsock: socket.socket | None = None
        self._listener: threading.Thread | None = None
        self._bound: Address | None = None
        # bound for local workers only: serves no other name
        self._private = False
        self._workers_seen: dict[str, float] = {}
        # local workers: the live processes, and every name ever started
        # (a killed worker's in-flight settle must still count as local)
        self._workers: dict[str, BaseProcess] = {}
        self._local_names: set[str] = set()
        self._started: float | None = None
        self._last_status_write = 0.0
        self._run_seconds = 0.0

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def queue(self) -> TrialQueue:
        return self._queue

    def open_listener(self) -> Address:
        """Bind the attach socket and start serving workers; idempotent."""
        if self._listen is None:
            raise ConfigError("broker was constructed without listen=")
        return self._bind(self._listen)

    def _bind(self, addr: Address) -> Address:
        if self._bound is not None:
            return self._bound
        sock = socket.create_server(addr)
        sock.settimeout(self._poll * 4)
        self._lsock = sock
        self._bound = sock.getsockname()[:2]
        self._listener = threading.Thread(
            target=self._serve, name="fabric-broker-listener", daemon=True
        )
        self._listener.start()
        return self._bound

    def status(self) -> dict[str, Any]:
        """Live status snapshot (the ``repro fabric status`` document)."""
        with self._lock:
            return self._snapshot_locked()

    def run(self) -> list[TrialSet]:
        """Drain the queue; return one :class:`TrialSet` per grid point.

        Raises :class:`~repro.errors.TrialError` when any unit is still
        failed after its retry budget — with every completed sibling
        already settled into the cache, exactly like the old per-point
        runner.
        """
        self._started = time.perf_counter()
        self._probe_cache()
        if self._listen is not None:
            self.open_listener()
        try:
            with self._lock:
                parallel = self._n_jobs > 1 and self._queue.n_live() > 1
                self._private = parallel and self._listen is None
            self._dispatch(self._bind(("127.0.0.1", 0)) if parallel else None)
        finally:
            self._shutdown.set()
            self._close_listener()
            self._write_status(force=True)
            merge_fabric_metrics(self._metrics)
        return self._finish()

    # ------------------------------------------------------------------
    # cache probe
    # ------------------------------------------------------------------
    def _probe_cache(self) -> None:
        """Settle every unit whose result is already cached.

        Probed in deterministic unit order, so progress events and stats
        are reproducible run to run.
        """
        if self._cache is None:
            return
        events = []
        for unit in self._queue.units:
            if unit.key is None:
                continue
            cached = self._cache.load(unit.key)
            if cached is None:
                continue
            with self._lock:
                st = self._queue.state[unit.uid]
                st.status = CACHED
                st.result = cached
                self._metrics.inc("fabric.cached")
                self._book_outcome_locked(cached)
                events.append(
                    {
                        "trial": unit.trial,
                        "point": unit.point,
                        "status": "cached",
                        "seconds": 0.0,
                    }
                )
        for event in events:
            self._emit(event)
        self._write_status(force=True)

    # ------------------------------------------------------------------
    # settlement (the single state machine)
    # ------------------------------------------------------------------
    def _settle(
        self, uid: int, status: str, payload: object, seconds: float, source: str
    ) -> bool:
        with self._lock:
            event = self._settle_locked(uid, status, payload, seconds, source)
        if event is not None:
            self._emit(event)
        return event is not None

    def _settle_locked(
        self, uid: int, status: str, payload: object, seconds: float, source: str
    ) -> dict | None:
        """Apply one settle; returns the progress event or None if stale.

        Caller holds the broker lock.  ``"ok"`` settles are accepted for
        any unsettled unit (a late result from an expired lease is still
        the exact answer); ``"err"`` settles are only accepted from the
        unit's current owner, so a requeued unit is not double-penalized
        by its previous owner's post-mortem.
        """
        st = self._queue.state[uid]
        unit = self._queue.units[uid]
        if st.status in SETTLED_STATES:
            return None

        if status == "ok":
            assert isinstance(payload, SimulationResult)
            st.status = DONE
            st.result = payload
            st.seconds = seconds
            st.attempts += 1
            st.owner = source
            st.deadline = None
            # fabric.run_ms tracks the rounded running total, so per-trial
            # rounding never accumulates
            run_ms = round(self._run_seconds * 1000)
            self._run_seconds += seconds
            self._metrics.inc(
                "fabric.run_ms", round(self._run_seconds * 1000) - run_ms
            )
            self._metrics.inc("fabric.done")
            if self._is_remote(source):
                self._metrics.inc("fabric.remote_settled")
            self._book_outcome_locked(payload)
            if self._cache is not None and unit.key is not None:
                self._cache.store(unit.key, payload)
            return {
                "trial": unit.trial,
                "point": unit.point,
                "status": "ok",
                "seconds": seconds,
            }

        if st.status != RUNNING or st.owner != source:
            return None
        st.attempts += 1
        st.error = str(payload)
        if st.attempts > self._retries:
            st.status = FAILED
            st.owner = None
            st.deadline = None
            self._metrics.inc("fabric.failed")
        else:
            self._queue.requeue(uid)
            self._metrics.inc("fabric.retries")
        return {
            "trial": unit.trial,
            "point": unit.point,
            "status": "err",
            "seconds": seconds,
        }

    def _book_outcome_locked(self, result: SimulationResult) -> None:
        """Count a settled trial's ending: a cut-off run, lost tasks."""
        if result.truncated:
            self._metrics.inc("fabric.truncated")
        if result.lost_data:
            self._metrics.inc("fabric.data_loss")

    def _is_remote(self, source: str) -> bool:
        """Whether ``source`` is an attached worker, not one of ours."""
        return source != "local" and source not in self._local_names

    def _lease_for(self, worker: str) -> float | None:
        """How long ``worker`` may hold a unit; None is no deadline."""
        if self._lease_timeout is None and self._is_remote(worker):
            return DEFAULT_LEASE_TIMEOUT
        return self._lease_timeout

    def _emit(self, event: dict) -> None:
        if self._progress is not None:
            with self._emit_lock:
                self._progress(event)

    def _expire_leases_locked(self, now: float) -> list[dict]:
        """Settle units whose lease lapsed as timeouts; returns progress
        events.

        A local holder is killed only after its unit is settled, so the
        kill books as a timeout, never as a worker death.
        """
        events = []
        for uid in self._queue.expired(now):
            owner = self._queue.state[uid].owner or "?"
            self._metrics.inc("fabric.lease_expired")
            event = self._settle_locked(
                uid,
                "err",
                f"trial timed out: lease expired after "
                f"{self._lease_for(owner)}s (worker {owner!r} stopped "
                f"responding)",
                0.0,
                source=owner,
            )
            if event is not None:
                events.append(event)
            proc = self._workers.get(owner)
            if proc is not None:
                proc.kill()
        return events

    # ------------------------------------------------------------------
    # local execution
    # ------------------------------------------------------------------
    def _dispatch(self, addr: Address | None) -> None:
        """The dispatch loop: run until every unit settles.

        With ``addr`` None, units run in-process, one per pass.  Else
        up to ``n_jobs`` spawned :func:`~repro.fabric.worker.run_worker`
        processes lease over ``addr`` like attached workers; one that
        exits has its leased unit settled as an error at once, and is
        replaced while live units remain.  Either way attached workers
        may drain the queue alongside, and every local worker is killed
        and reaped before this returns or raises.
        """
        try:
            while True:
                unit = None
                with self._lock:
                    events = self._expire_leases_locked(time.perf_counter())
                    for name, proc in list(self._workers.items()):
                        if not proc.is_alive():
                            del self._workers[name]
                            events += self._worker_exited_locked(
                                name, proc.exitcode
                            )
                    live = self._queue.n_live()
                    if addr is None:
                        unit = self._queue.lease("local", None)
                    # spawned under the lock, so each worker is known as
                    # local before its first request is served
                    want = 0 if addr is None else min(self._n_jobs, live)
                    while len(self._workers) < want:
                        # the secret keeps any other process from leasing
                        # or settling as this worker
                        name = (
                            f"local-{os.getpid()}-{len(self._local_names)}"
                            f"-{secrets.token_hex(8)}"
                        )
                        proc = mp.get_context("spawn").Process(
                            target=run_worker,
                            args=(addr,),
                            kwargs={"name": name, "trial_fn": self._trial_fn,
                                    "poll_interval": self._poll},
                            name=name,
                            daemon=True,
                        )
                        proc.start()
                        self._workers[name] = proc
                        self._local_names.add(name)
                    sentinels = [p.sentinel for p in self._workers.values()]
                for event in events:
                    self._emit(event)
                if not live:
                    return
                if unit is not None:
                    status, payload, seconds = execute_unit(
                        self._trial_fn,
                        self._queue.config_for(unit),
                        unit.seed_seq(),
                    )
                    self._settle(unit.uid, status, payload, seconds, "local")
                else:
                    # wait out a poll, or less if a local worker exits
                    wait(sentinels, timeout=self._poll)
                self._write_status()
        finally:
            self._stop_workers()

    def _worker_exited_locked(
        self, name: str, exitcode: int | None
    ) -> list[dict]:
        """Settle the unit an exited local worker held as an error."""
        held = [
            uid
            for uid, st in enumerate(self._queue.state)
            if st.status == RUNNING and st.owner == name
        ]
        if not held and exitcode is not None and exitcode > 0:
            # it raised outside any trial (say, it could not reach the
            # broker); a replacement would do the same, forever
            raise TrialError(
                f"local fabric worker {name!r} exited with code "
                f"{exitcode} outside a trial"
            )
        events = []
        for uid in held:
            event = self._settle_locked(
                uid, "err", f"worker died (exit code {exitcode})", 0.0, name
            )
            if event is not None:
                events.append(event)
        return events

    def _stop_workers(self) -> None:
        """Kill and join every local worker.  Every unit is settled, or
        the run is failing, so no worker holds anything worth waiting
        for: results live in the broker and its cache, never in one."""
        with self._lock:
            procs = list(self._workers.values())
            self._workers.clear()
        for proc in procs:
            proc.kill()
            proc.join()

    # ------------------------------------------------------------------
    # remote workers (listener thread)
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        sock = self._lsock
        assert sock is not None
        # a peer that connects and sends nothing holds one pool thread
        # for the read timeout, not every other lease, settle and status
        pool = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-broker-conn"
        )
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _peer = sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                pool.submit(self._serve_connection, conn)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            try:
                conn.settimeout(2.0)
                request = read_frame_sync(conn)
                if request is not None:
                    write_frame_sync(conn, self._handle_request(request))
            # one bad/dying worker connection must never take the broker
            # down; the unit it held comes back via lease expiry
            except ProtocolError:
                with self._lock:
                    self._metrics.inc("fabric.bad_frames")
            except (OSError, ValueError):
                pass

    def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        now = time.perf_counter()
        worker = str(request.get("worker", "?"))
        with self._lock:
            foreign = self._private and worker not in self._local_names
        if foreign:
            return {
                "ok": False,
                "kind": "app",
                "error": "this port serves only the broker's own workers",
            }
        if op == OP_LEASE:
            with self._lock:
                events = self._expire_leases_locked(now)
                remote = self._is_remote(worker)
                if remote:
                    self._workers_seen[worker] = now
                if not self._queue.n_live() or self._shutdown.is_set():
                    value: dict[str, Any] = {"unit": None, "shutdown": True}
                else:
                    lease = self._lease_for(worker)
                    unit = self._queue.lease(
                        worker, None if lease is None else now + lease
                    )
                    if unit is None:
                        value = {"unit": None, "shutdown": False}
                    else:
                        if remote:
                            self._metrics.inc("fabric.remote_leases")
                        value = {
                            "unit": unit_to_wire(
                                unit, self._queue.config_for(unit)
                            ),
                            "shutdown": False,
                        }
            for event in events:
                self._emit(event)
            return {"ok": True, "value": value}
        if op == OP_SETTLE:
            try:
                uid = int(request["uid"])
                status = str(request["status"])
                seconds = float(request.get("seconds", 0.0))
                if not 0 <= uid < len(self._queue):
                    raise ValueError(f"unknown uid {uid}")
                payload: object
                if status == "ok":
                    payload = result_from_wire(request["result"])
                else:
                    payload = str(request.get("error", "remote error"))
            except (KeyError, TypeError, ValueError, ProtocolError) as exc:
                return {"ok": False, "kind": "app", "error": str(exc)}
            with self._lock:
                if self._is_remote(worker):
                    self._workers_seen[worker] = now
            accepted = self._settle(uid, status, payload, seconds, worker)
            with self._lock:
                settled = not self._queue.n_live()
            return {
                "ok": True,
                "value": {"accepted": accepted, "shutdown": settled},
            }
        if op == OP_STATUS:
            with self._lock:
                snapshot = self._snapshot_locked()
            return {"ok": True, "value": snapshot}
        return {"ok": False, "kind": "app", "error": f"unknown op {op!r}"}

    def _close_listener(self) -> None:
        if self._lsock is not None:
            # shutting down first wakes the listener's blocked accept()
            # now, not at its next timeout; both calls are best-effort
            with contextlib.suppress(OSError):
                self._lsock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self._lsock.close()
        if self._listener is not None:
            self._listener.join(timeout=2.0)

    # ------------------------------------------------------------------
    # status / metrics
    # ------------------------------------------------------------------
    def _snapshot_locked(self) -> dict[str, Any]:
        now = time.perf_counter()
        counts = self._queue.counts()
        remaining = counts[QUEUED] + counts[RUNNING]
        avg = self._run_seconds / counts[DONE] if counts[DONE] else 0.0
        active = sorted(
            name
            for name, seen in self._workers_seen.items()
            if now - seen <= _WORKER_ACTIVE_WINDOW
        )
        slots = max(1, self._n_jobs + len(active))
        eta = remaining * avg / slots if avg else None

        points = []
        for p, point in enumerate(self._queue.points):
            settled = sum(
                1
                for unit, st in zip(self._queue.units, self._queue.state)
                if unit.point == p and st.status in SETTLED_STATES
            )
            failed = sum(
                1
                for unit, st in zip(self._queue.units, self._queue.state)
                if unit.point == p and st.status == FAILED
            )
            left = point.n_trials - settled
            points.append(
                {
                    "point": p,
                    "n_trials": point.n_trials,
                    "settled": settled,
                    "failed": failed,
                    "eta_seconds": round(left * avg / slots, 2) if avg else None,
                }
            )

        return {
            "format": STATUS_FORMAT,
            "total": len(self._queue),
            "queued": counts[QUEUED],
            "running": counts[RUNNING],
            "done": counts[DONE],
            "cached": counts[CACHED],
            "failed": counts[FAILED],
            "avg_trial_seconds": round(avg, 4),
            "eta_seconds": round(eta, 2) if eta is not None else None,
            "elapsed_seconds": (
                round(now - self._started, 2) if self._started else 0.0
            ),
            "local_slots": self._n_jobs,
            "remote_workers": active,
            "listen": (
                format_address(self._bound) if self._bound else None
            ),
            "metrics": self._metrics.as_dict(),
        }

    def _write_status(self, force: bool = False) -> None:
        if self._status_path is None:
            return
        now = time.perf_counter()
        if not force and now - self._last_status_write < 0.5:
            return
        self._last_status_write = now
        with self._lock:
            snapshot = self._snapshot_locked()
        payload = json.dumps(snapshot, sort_keys=True)
        self._status_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self._status_path.parent, prefix=".tmp-status-"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self._status_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _finish(self) -> list[TrialSet]:
        from repro.sim.trials import TrialFailure

        failed = self._queue.failed_units()
        n_completed = sum(
            1 for st in self._queue.state if st.status in (DONE, CACHED)
        )
        if failed:
            failures = tuple(
                TrialFailure(
                    trial_index=unit.trial,
                    seed_entropy=unit.entropy,
                    spawn_key=unit.spawn_key,
                    attempts=st.attempts,
                    error=st.error or "unknown error",
                )
                for unit, st in failed
            )
            lines = "\n".join(f"  - {f}" for f in failures)
            raise TrialError(
                f"{len(failures)}/{len(self._queue)} trial(s) failed after "
                f"{self._retries} retr{'y' if self._retries == 1 else 'ies'} "
                f"({n_completed} completed and preserved):\n{lines}",
                failures=failures,
                n_completed=n_completed,
            )
        out: list[TrialSet] = []
        for p, point in enumerate(self._queue.points):
            results: list[SimulationResult] = [None] * point.n_trials  # type: ignore[list-item]
            for unit, st in zip(self._queue.units, self._queue.state):
                if unit.point == p:
                    assert st.result is not None
                    results[unit.trial] = st.result
            out.append(TrialSet(config=point.config, results=results))
        return out


# ----------------------------------------------------------------------
# the run's trial accounting
# ----------------------------------------------------------------------
# Every finished broker merges its ``fabric.*`` registry into this one
# collector, so an experiment's manifest can report every broker the
# experiment started without threading a registry through each
# experiment signature.  Brokers finish on whichever thread ran them,
# so every touch goes through the lock.
_FABRIC_METRICS = MetricsRegistry()
_FABRIC_LOCK = threading.Lock()


def reset_fabric_metrics() -> None:
    """Zero the collector (call before an experiment)."""
    global _FABRIC_METRICS
    with _FABRIC_LOCK:
        _FABRIC_METRICS = MetricsRegistry()


def fabric_metrics() -> MetricsRegistry:
    """A copy of the collector: every broker finished since the reset."""
    snapshot = MetricsRegistry()
    with _FABRIC_LOCK:
        snapshot.merge(_FABRIC_METRICS)
    return snapshot


def merge_fabric_metrics(registry: MetricsRegistry) -> None:
    """Fold one broker's registry into the collector (thread-safe)."""
    with _FABRIC_LOCK:
        _FABRIC_METRICS.merge(registry)


def trial_summary(counters: Mapping[str, int], wall_s: float) -> str:
    """One line of trial accounting read off the ``fabric.*`` counters.

    ``repro run``, ``repro report`` and ``repro sweep`` all print it,
    e.g. ``12 trials, 3 cached, 9 run, 0.041s/trial, 1.2s wall``; the
    smoke table's resume rows parse the ``<N> cached`` phrase.
    """
    done = counters.get("fabric.done", 0)
    cached = counters.get("fabric.cached", 0)
    parts = [f"{done + cached} trials", f"{cached} cached", f"{done} run"]
    for name, label in (
        ("fabric.remote_settled", "remote"),
        ("fabric.retries", "retried"),
        ("fabric.failed", "FAILED"),
        ("fabric.truncated", "TRUNCATED"),
        ("fabric.data_loss", "with data loss"),
    ):
        if counters.get(name):
            parts.append(f"{counters[name]} {label}")
    if done:
        avg = counters.get("fabric.run_ms", 0) / done / 1000
        parts.append(f"{avg:.3f}s/trial")
    parts.append(f"{wall_s:.1f}s wall")
    return ", ".join(parts)
