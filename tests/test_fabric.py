"""Tests for the trial fabric: queue, broker, protocol, remote workers.

The fabric's contract is exact: whatever mixture of local and remote
workers drains the queue, the assembled TrialSets are bit-identical to
a serial run.  These tests exercise the dispatch state machine directly
(lease/settle/expiry), the wire codecs, the broker's own spawned
workers, an in-thread remote worker against a live broker socket, and
the thread-safety of the run-wide metrics collector.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    ProtocolError,
    TransientNetworkError,
    TrialError,
)
from repro.fabric import (
    Broker,
    GridPoint,
    STATUS_FORMAT,
    TrialQueue,
    run_worker,
)
from repro.fabric import broker as broker_mod
from repro.fabric.broker import (
    fabric_metrics,
    merge_fabric_metrics,
    reset_fabric_metrics,
)
from repro.fabric.protocol import (
    OP_LEASE,
    OP_SETTLE,
    OP_STATUS,
    config_from_wire,
    config_to_wire,
    result_from_wire,
    result_to_wire,
    unit_from_wire,
    unit_to_wire,
)
from repro.fabric.queue import DONE, QUEUED, RUNNING
from repro.net.transport import RetryPolicy, request
from repro.sim.cache import TrialCache
from repro.sim.trials import run_trial, run_trials, sweep_grid

WORKER_POLICY = RetryPolicy(timeout=2.0, retries=1, backoff=0.01)


def _grid(config, n_trials=4):
    return [GridPoint(config=config, n_trials=n_trials)]


def _slow_trial(config, seed_seq):
    time.sleep(0.1)
    return run_trial(config, seed_seq)


def _long_trial(config, seed_seq):
    time.sleep(0.8)
    return run_trial(config, seed_seq)


def _failing_trial(config, seed_seq):
    if seed_seq.spawn_key[-1] == 1:
        raise RuntimeError("injected failure")
    return run_trial(config, seed_seq)


def _refuse_to_unpickle():
    raise RuntimeError("trial_fn cannot be rebuilt in a worker")


class _UnshippableTrial:
    """Pickles in the broker, raises when a worker unpickles it: the
    worker dies at start-up, before it could lease anything."""

    def __call__(self, config, seed_seq):  # pragma: no cover
        return run_trial(config, seed_seq)

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


# ----------------------------------------------------------------------
# queue
# ----------------------------------------------------------------------
class TestTrialQueue:
    def test_flattening_reuses_serial_seed_derivation(self, tiny_config):
        queue = TrialQueue(_grid(tiny_config, 3))
        children = np.random.SeedSequence(tiny_config.seed).spawn(3)
        for unit, child in zip(queue.units, children):
            assert unit.entropy == child.entropy
            assert unit.spawn_key == tuple(int(k) for k in child.spawn_key)
            rebuilt = unit.seed_seq()
            assert rebuilt.generate_state(4).tolist() == (
                child.generate_state(4).tolist()
            )

    def test_uids_are_point_major(self, tiny_config):
        grid = [
            GridPoint(config=tiny_config, n_trials=2),
            GridPoint(config=tiny_config.with_updates(seed=9), n_trials=3),
        ]
        queue = TrialQueue(grid)
        assert [(u.point, u.trial) for u in queue.units] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
        ]
        assert [u.uid for u in queue.units] == list(range(5))

    def test_keys_only_when_keyed_and_seeded(self, tiny_config):
        seedless = tiny_config.with_updates(seed=None)
        keyed = TrialQueue(
            [GridPoint(tiny_config, 1), GridPoint(seedless, 1)], keyed=True
        )
        assert keyed.units[0].key is not None
        assert keyed.units[1].key is None
        unkeyed = TrialQueue(_grid(tiny_config, 1))
        assert unkeyed.units[0].key is None

    def test_lease_requeue_cycle(self, tiny_config):
        queue = TrialQueue(_grid(tiny_config, 2))
        a = queue.lease("w", None)
        assert a.uid == 0 and queue.state[0].status == RUNNING
        queue.requeue(0)
        assert queue.state[0].status == QUEUED
        # requeued unit goes to the tail
        assert queue.lease("w", None).uid == 1
        assert queue.lease("w", None).uid == 0
        assert queue.lease("w", None) is None

    def test_expired_leases(self, tiny_config):
        queue = TrialQueue(_grid(tiny_config, 2))
        queue.lease("w1", deadline=10.0)
        queue.lease("w2", deadline=None)  # local: never expires
        assert queue.expired(now=5.0) == []
        assert queue.expired(now=11.0) == [0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            TrialQueue([])

    def test_zero_trials_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            GridPoint(config=tiny_config, n_trials=0)


# ----------------------------------------------------------------------
# protocol codecs
# ----------------------------------------------------------------------
class TestProtocol:
    def test_config_round_trip(self, tiny_config):
        config = tiny_config.with_updates(snapshot_ticks=(5, 10))
        assert config_from_wire(config_to_wire(config)) == config

    def test_config_junk_raises(self):
        with pytest.raises(ProtocolError):
            config_from_wire({"definitely": "not a config"})

    def test_unit_round_trip_wide_entropy(self, tiny_config):
        seedless = tiny_config.with_updates(seed=None)
        queue = TrialQueue(_grid(seedless, 2))
        unit = queue.units[1]
        assert unit.entropy.bit_length() > 64  # seedless roots draw 128-bit
        wire = unit_to_wire(unit, seedless)
        assert isinstance(wire["entropy"], str)
        uid, config, seed_seq = unit_from_wire(wire)
        assert uid == 1
        assert config == seedless
        assert seed_seq.entropy == unit.entropy
        assert tuple(seed_seq.spawn_key) == unit.spawn_key

    def test_unit_junk_raises(self):
        with pytest.raises(ProtocolError):
            unit_from_wire({"uid": "nope"})

    def test_result_round_trip_is_cache_exact(self, tiny_config):
        result = run_trial(
            tiny_config, np.random.SeedSequence(tiny_config.seed)
        )
        wire = result_to_wire(result)
        # pre-serialized: transport's sort_keys canonicalization must not
        # be able to re-order counters and break byte-identity
        assert isinstance(wire, str)
        back = result_from_wire(wire)
        assert back.runtime_factor == result.runtime_factor
        assert list(back.counters) == list(result.counters)  # exact order
        assert np.array_equal(back.final_loads, result.final_loads)

    def test_result_junk_raises(self):
        with pytest.raises(ProtocolError):
            result_from_wire("{broken json")
        with pytest.raises(ProtocolError):
            result_from_wire({"format": "bogus"})


# ----------------------------------------------------------------------
# broker: local dispatch
# ----------------------------------------------------------------------
class TestBrokerLocal:
    def test_pool_matches_serial_bitwise(self, tiny_config):
        serial = run_trials(tiny_config, 4, n_jobs=1, cache=False)
        sets = Broker(_grid(tiny_config, 4), n_jobs=2, cache=False).run()
        assert len(sets) == 1
        assert np.array_equal(sets[0].factors, serial.factors)

    def test_one_broker_runs_whole_grid(self, tiny_config):
        grid = sweep_grid(tiny_config, "churn_rate", [0.0, 0.01], 2)
        sets = Broker(grid, cache=False).run()
        direct = [
            run_trials(point.config, point.n_trials, cache=False)
            for point in grid
        ]
        for got, want in zip(sets, direct):
            assert got.config == want.config
            assert np.array_equal(got.factors, want.factors)

    def test_resume_runs_only_missing_units(self, tiny_config, tmp_path):
        cache = TrialCache(tmp_path)
        run_trials(tiny_config, 2, cache=cache)  # pre-populate 2 of 5
        assert cache.stores == 2
        reset_fabric_metrics()
        broker = Broker(_grid(tiny_config, 5), cache=cache)
        sets = broker.run()
        collected = fabric_metrics()
        assert collected.counter("fabric.cached") == 2
        assert collected.counter("fabric.done") == 3
        assert broker.metrics.counter("fabric.cached") == 2
        assert broker.metrics.counter("fabric.done") == 3
        serial = run_trials(tiny_config, 5, cache=False)
        assert np.array_equal(sets[0].factors, serial.factors)

    def test_failure_surfaces_like_old_runner(self, tiny_config):
        def boom(config, seed_seq):
            if seed_seq.spawn_key[-1] == 1:
                raise RuntimeError("injected failure")
            return run_trial(config, seed_seq)

        broker = Broker(
            _grid(tiny_config, 3), cache=False, trial_fn=boom, retries=0
        )
        with pytest.raises(TrialError) as excinfo:
            broker.run()
        err = excinfo.value
        assert len(err.failures) == 1
        assert err.failures[0].trial_index == 1
        assert err.n_completed == 2
        assert broker.metrics.counter("fabric.failed") == 1

    def test_status_file_written_atomically(self, tiny_config, tmp_path):
        status_path = tmp_path / "deep" / "status.json"
        Broker(
            _grid(tiny_config, 2), cache=False, status_path=status_path
        ).run()
        doc = json.loads(status_path.read_text())
        assert doc["format"] == STATUS_FORMAT
        assert doc["total"] == 2
        assert doc["done"] == 2
        assert doc["queued"] == doc["running"] == 0
        assert not list(status_path.parent.glob(".tmp-status-*"))

    @pytest.mark.slow
    def test_run_reaps_its_workers(self, tiny_config):
        """Every local worker is reaped before run() returns or raises."""
        Broker(_grid(tiny_config, 4), n_jobs=2, cache=False).run()
        assert multiprocessing.active_children() == []
        broker = Broker(
            _grid(tiny_config, 3), n_jobs=2, cache=False,
            trial_fn=_failing_trial, retries=0,
        )
        with pytest.raises(TrialError):
            broker.run()
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_worker_that_cannot_start_fails_the_run(self, tiny_config):
        """A worker exiting with an error outside any trial would do so
        again on every replacement: the run stops instead of respawning
        forever."""
        broker = Broker(
            _grid(tiny_config, 2), n_jobs=2, cache=False,
            trial_fn=_UnshippableTrial(),
        )
        with pytest.raises(TrialError, match="outside a trial"):
            broker.run()
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_local_workers_are_not_remote(self, tiny_config):
        broker = Broker(_grid(tiny_config, 4), n_jobs=2, cache=False)
        broker.run()
        assert broker.metrics.counter("fabric.remote_leases") == 0
        assert broker.metrics.counter("fabric.remote_settled") == 0
        assert broker.metrics.counter("fabric.done") == 4
        status = broker.status()
        assert status["remote_workers"] == []
        assert status["local_slots"] == 2

    @pytest.mark.slow
    def test_private_port_serves_only_its_own_workers(self, tiny_config):
        """Without ``listen`` the loopback port is the broker's own: a
        foreign lease, settle or status request is refused, and a forged
        result never reaches the run."""
        serial = run_trials(tiny_config, 4, n_jobs=1, cache=False)
        forged = result_to_wire(serial.results[1])
        broker = Broker(
            _grid(tiny_config, 4), n_jobs=2, cache=False, trial_fn=_slow_trial
        )
        out = {}
        thread = threading.Thread(
            target=lambda: out.setdefault("sets", broker.run()), daemon=True
        )
        thread.start()
        deadline = time.perf_counter() + 30
        while broker.status()["listen"] is None:
            assert time.perf_counter() < deadline, "no private port bound"
            time.sleep(0.01)
        host, port = broker.status()["listen"].rsplit(":", 1)
        addr = (host, int(port))
        for frame in (
            {"op": OP_LEASE, "worker": "intruder"},
            {"op": OP_SETTLE, "worker": "local", "uid": 0, "status": "ok",
             "seconds": 0.01, "result": forged},
            {"op": OP_STATUS},
        ):
            with pytest.raises(ProtocolError, match="own workers"):
                request(addr, frame, policy=WORKER_POLICY)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert np.array_equal(out["sets"][0].factors, serial.factors)
        assert broker.metrics.counter("fabric.done") == 4
        assert broker.metrics.counter("fabric.remote_leases") == 0

    @pytest.mark.slow
    def test_local_trial_may_outlast_the_attached_lease(
        self, tiny_config, monkeypatch
    ):
        """With no ``lease_timeout`` given, an attached worker's lease
        lapses at the default while the broker's own live workers run
        trials longer than that to the end."""
        monkeypatch.setattr(broker_mod, "DEFAULT_LEASE_TIMEOUT", 0.2)
        serial = run_trials(tiny_config, 3, n_jobs=1, cache=False)
        broker = Broker(
            _grid(tiny_config, 3), n_jobs=2, cache=False,
            trial_fn=_long_trial, listen=("127.0.0.1", 0),
        )
        addr = broker.open_listener()
        # a zombie attached worker: leases one unit, never settles it
        lease = request(
            addr, {"op": OP_LEASE, "worker": "zombie"}, policy=WORKER_POLICY
        )
        assert lease["unit"] is not None
        sets = broker.run()
        assert np.array_equal(sets[0].factors, serial.factors)
        assert broker.metrics.counter("fabric.lease_expired") == 1
        assert broker.metrics.counter("fabric.retries") == 1
        assert broker.metrics.counter("fabric.done") == 3

    def test_snapshot_counts_and_eta(self, tiny_config):
        broker = Broker(_grid(tiny_config, 3), cache=False)
        before = broker.status()
        assert before["queued"] == 3 and before["done"] == 0
        assert before["eta_seconds"] is None  # no settled runs yet
        broker.run()
        after = broker.status()
        assert after["done"] == 3
        assert after["avg_trial_seconds"] > 0
        assert after["metrics"]["counters"]["fabric.done"] == 3


# ----------------------------------------------------------------------
# broker: remote workers over the attach socket
# ----------------------------------------------------------------------
class TestBrokerRemote:
    def _start(self, broker):
        addr = broker.open_listener()
        out = {}

        def drive():
            out["sets"] = broker.run()

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        return addr, thread, out

    def test_worker_attaches_and_results_stay_bitwise(self, tiny_config):
        serial = run_trials(tiny_config, 6, n_jobs=1, cache=False)
        broker = Broker(
            _grid(tiny_config, 6),
            cache=False,
            trial_fn=_slow_trial,  # local path slowed: worker must win units
            listen=("127.0.0.1", 0),
        )
        addr, thread, out = self._start(broker)
        summary = run_worker(
            addr, name="t-worker", policy=WORKER_POLICY, poll_interval=0.01
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert summary.units_ok >= 1
        assert summary.units_err == 0
        assert summary.clean_shutdown or summary.broker_lost
        assert (
            broker.metrics.counter("fabric.remote_settled")
            == summary.units_ok
        )
        assert np.array_equal(out["sets"][0].factors, serial.factors)

    def test_dead_worker_loses_only_its_unit(self, tiny_config):
        """A worker that leases a unit and vanishes costs exactly one
        lease expiry; the broker retries the unit and still completes."""
        serial = run_trials(tiny_config, 4, n_jobs=1, cache=False)
        broker = Broker(
            _grid(tiny_config, 4),
            cache=False,
            trial_fn=_slow_trial,
            listen=("127.0.0.1", 0),
            lease_timeout=0.3,
            retries=1,
        )
        addr, thread, out = self._start(broker)
        # zombie worker: lease one unit, never settle it
        lease = request(
            addr, {"op": OP_LEASE, "worker": "zombie"}, policy=WORKER_POLICY
        )
        assert lease["unit"] is not None
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert broker.metrics.counter("fabric.lease_expired") == 1
        assert broker.metrics.counter("fabric.retries") == 1
        assert np.array_equal(out["sets"][0].factors, serial.factors)

    def test_status_op_serves_snapshot(self, tiny_config):
        broker = Broker(
            _grid(tiny_config, 2),
            cache=False,
            trial_fn=_slow_trial,
            listen=("127.0.0.1", 0),
        )
        addr, thread, _out = self._start(broker)
        snapshot = request(addr, {"op": OP_STATUS}, policy=WORKER_POLICY)
        assert snapshot["format"] == STATUS_FORMAT
        assert snapshot["total"] == 2
        thread.join(timeout=30)

    def test_bad_frames_are_counted_and_survived(self, tiny_config):
        """Garbage on the attach socket drops that connection, bumps
        ``fabric.bad_frames`` and leaves the broker serving."""
        broker = Broker(
            _grid(tiny_config, 2),
            cache=False,
            trial_fn=_slow_trial,
            listen=("127.0.0.1", 0),
        )
        addr, thread, _out = self._start(broker)
        bad = [
            b"\x00\x00\x00\x08abc",  # truncated body
            b"\x00\x00\x00\x03\xff\xfe\xfd",  # not UTF-8
            b"\x00\x00\x00\x04nope",  # not JSON
        ]
        for data in bad:
            with socket.create_connection(addr, timeout=5) as sock:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1) == b""  # dropped, no reply
        snapshot = request(addr, {"op": OP_STATUS}, policy=WORKER_POLICY)
        assert snapshot["metrics"]["counters"]["fabric.bad_frames"] == 3
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_idle_connection_does_not_stall_status(self, tiny_config):
        """A peer that connects and sends nothing costs one connection
        thread its read timeout; other requests are served meanwhile."""
        broker = Broker(
            _grid(tiny_config, 2),
            cache=False,
            trial_fn=_slow_trial,
            listen=("127.0.0.1", 0),
        )
        addr, thread, _out = self._start(broker)
        with socket.create_connection(addr, timeout=5):
            time.sleep(0.05)  # the listener has accepted it by now
            t0 = time.perf_counter()
            snapshot = request(addr, {"op": OP_STATUS}, policy=WORKER_POLICY)
            elapsed = time.perf_counter() - t0
        assert snapshot["format"] == STATUS_FORMAT
        assert elapsed < 0.5, elapsed
        thread.join(timeout=30)

    def test_worker_without_broker_raises(self):
        with pytest.raises(TransientNetworkError):
            run_worker(
                ("127.0.0.1", 1),  # reserved port, nothing listening
                policy=RetryPolicy(timeout=0.2, retries=0, backoff=0.01),
            )

    def test_worker_max_units(self, tiny_config):
        broker = Broker(
            _grid(tiny_config, 4),
            cache=False,
            trial_fn=_slow_trial,
            listen=("127.0.0.1", 0),
        )
        addr, thread, _out = self._start(broker)
        summary = run_worker(
            addr, policy=WORKER_POLICY, poll_interval=0.01, max_units=1
        )
        assert summary.units_total == 1
        thread.join(timeout=30)


# ----------------------------------------------------------------------
# settle state machine (the single source of truth)
# ----------------------------------------------------------------------
class TestSettleStateMachine:
    def _result(self, config):
        return run_trial(config, np.random.SeedSequence(config.seed))

    def test_duplicate_ok_settle_rejected(self, tiny_config):
        broker = Broker(_grid(tiny_config, 1), cache=False)
        result = self._result(tiny_config)
        broker._queue.lease("w1", None)
        assert broker._settle(0, "ok", result, 0.01, "w1") is True
        assert broker._settle(0, "ok", result, 0.01, "w2") is False
        assert broker._queue.state[0].attempts == 1

    def test_late_ok_settle_after_expiry_is_accepted(self, tiny_config):
        """An expired worker's result is still *the* answer — trials are
        pure functions of (config, seed path)."""
        broker = Broker(
            _grid(tiny_config, 1), cache=False, lease_timeout=0.01
        )
        result = self._result(tiny_config)
        with broker._lock:
            broker._queue.lease("w1", deadline=0.0)
            broker._expire_leases_locked(now=1.0)  # w1 declared dead
        assert broker._queue.state[0].status == QUEUED
        assert broker._settle(0, "ok", result, 0.01, "w1") is True
        assert broker._queue.state[0].status == DONE

    def test_stale_err_settle_from_old_owner_rejected(self, tiny_config):
        """After a lease expires and the unit is released, the old
        owner's error report must not double-penalize the attempt count."""
        broker = Broker(_grid(tiny_config, 1), cache=False, retries=5)
        with broker._lock:
            broker._queue.lease("w1", deadline=0.0)
            broker._expire_leases_locked(now=1.0)  # attempt 1 spent
        assert broker._queue.state[0].attempts == 1
        assert broker._settle(0, "err", "late crash report", 0.0, "w1") is False
        assert broker._queue.state[0].attempts == 1

    def test_remote_settle_via_protocol_handler(self, tiny_config):
        broker = Broker(_grid(tiny_config, 1), cache=False)
        lease = broker._handle_request({"op": OP_LEASE, "worker": "w1"})
        wire_unit = lease["value"]["unit"]
        assert wire_unit["uid"] == 0
        result = self._result(tiny_config)
        reply = broker._handle_request(
            {
                "op": OP_SETTLE,
                "worker": "w1",
                "uid": 0,
                "status": "ok",
                "seconds": 0.01,
                "result": result_to_wire(result),
            }
        )
        assert reply["value"] == {"accepted": True, "shutdown": True}
        dup = broker._handle_request(
            {
                "op": OP_SETTLE,
                "worker": "w2",
                "uid": 0,
                "status": "ok",
                "seconds": 0.01,
                "result": result_to_wire(result),
            }
        )
        assert dup["value"]["accepted"] is False

    def test_bad_settle_uid_is_an_app_error(self, tiny_config):
        broker = Broker(_grid(tiny_config, 1), cache=False)
        reply = broker._handle_request(
            {"op": OP_SETTLE, "worker": "w", "uid": 99, "status": "err",
             "error": "x"}
        )
        assert reply["ok"] is False
        unknown = broker._handle_request({"op": "bogus"})
        assert unknown["ok"] is False


# ----------------------------------------------------------------------
# regression: the run-wide collector is shared across threads
# ----------------------------------------------------------------------
class TestDispatchRaces:
    def test_fabric_collector_merges_are_thread_safe(self, tiny_config):
        """Brokers finish on whichever thread ran them, and
        each merges its ``fabric.*`` registry into the one module
        collector; concurrent merges must not lose counts."""
        broker = Broker(_grid(tiny_config, 2), cache=False)
        broker.run()
        one = broker.metrics.as_dict()["counters"]
        assert one["fabric.done"] == 2
        reset_fabric_metrics()
        n_threads, per_thread = 8, 200

        def hammer():
            for _ in range(per_thread):
                merge_fabric_metrics(broker.metrics)

        # switch threads often enough that an unlocked merge loses counts
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(switch_interval)
        merges = n_threads * per_thread
        assert fabric_metrics().as_dict()["counters"] == {
            name: merges * count for name, count in one.items()
        }


# ----------------------------------------------------------------------
# sweep_grid (the seed-derivation seam run_trials/sweep now share)
# ----------------------------------------------------------------------
class TestSweepGrid:
    def test_points_get_derived_seeds(self, tiny_config):
        grid = sweep_grid(tiny_config, "churn_rate", [0.0, 0.01], 2)
        assert [p.config.churn_rate for p in grid] == [0.0, 0.01]
        assert grid[0].config.seed != grid[1].config.seed
        again = sweep_grid(tiny_config, "churn_rate", [0.0, 0.01], 2)
        assert [p.config.seed for p in grid] == [p.config.seed for p in again]

    def test_crn_and_seed_field_keep_seeds(self, tiny_config):
        crn = sweep_grid(
            tiny_config, "max_ticks", [10, 20], 1, common_random_numbers=True
        )
        assert all(p.config.seed == tiny_config.seed for p in crn)
        by_seed = sweep_grid(tiny_config, "seed", [1, 2], 1)
        assert [p.config.seed for p in by_seed] == [1, 2]
