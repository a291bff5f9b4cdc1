"""The smoke-scenario table: every end-to-end gate as one declared row.

Run it with ``make smoke`` (``pytest scripts/smoke.py``).  Each row of
``ROWS`` is *(scenario, leg A, leg B, invariant)*: the runner calls both
legs with a per-row :class:`Ctx`, hands their results to the invariant,
which asserts the row's properties and returns the row's fingerprint.
Leg A is the reference (a plain run, the serial baseline) or ``None``
when a row checks one leg against fixed expectations.

Rows marked ``sanitize`` run a second time with ``REPRO_SANITIZE=1``
set in-process after ``sanitize.reset()``: the sanitized run must leave
zero reports and reproduce the bare run's fingerprint.  Serve children
inherit the flag and exit non-zero on a violation, which the
clean-shutdown check then fails.

The sweep and fabric rows compare against one session-scoped serial
sweep, byte for byte.  The module sits outside ``testpaths``, so the
tier-1 suite does not collect it; pick rows with ``-k <scenario>`` and
keep every leg's files with ``--basetemp <dir>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro import sanitize
from repro.cli import FABRIC_READY_PREFIX
from repro.config import AdversaryModel, SimulationConfig
from repro.fabric.protocol import OP_STATUS
from repro.net.cluster import LocalCluster
from repro.net.stress import StressConfig, run_stress_sync
from repro.net.transport import MAX_FRAME_BYTES, RetryPolicy, request
from repro.obs import (
    JsonlTraceSink,
    PhaseProfiler,
    read_trace_jsonl,
    result_fingerprint,
)
from repro.sim.cache import TrialCache
from repro.sim.engine import TickEngine
from repro.sim.trials import run_trial

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

SIM_ARGS = ["--strategy", "invitation", "--nodes", "60", "--churn", "0.02",
            "--seed", "11"]
OBS = SimulationConfig(
    strategy="invitation", n_nodes=60, n_tasks=2000, churn_rate=0.02, seed=11
)
ADV = dict(
    strategy="invitation",
    n_nodes=60,
    n_tasks=3000,
    churn_rate=0.02,
    max_sybils=5,
    seed=11,
)
ECLIPSE = dict(eclipse_sybils=12, eclipse_arc_fraction=0.01, attack_tick=5)
#: the seeded ADV run's fingerprint, pinned: the config's default
#: adversary *is* ``AdversaryModel()``, so only a pin can show that the
#: default model leaves results unchanged; re-pin only on a deliberate
#: result-schema change
ADV_PINNED = "7ba4c9dab12da00f"

#: the sweep every sweep/fabric row runs: 3 points x 4 trials
GRID = ["--field", "churn_rate", "--values", "0,0.001,0.01", "--nodes", "60",
        "--tasks", "3000", "--trials", "4", "--seed", "11"]
N_TRIALS = 12
#: per-trial delay that keeps a killed or stalled run mid-grid long
#: enough to observe
DELAY_MS = 300

RING = 4
SEED = 2021
STOP_TIMEOUT = 15.0
POLICY = RetryPolicy(timeout=5.0, retries=2, backoff=0.05)


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


#: one connection each; every one must be dropped and counted
HOSTILE_FRAMES = [
    b"\x00\x00",  # truncated header
    b"\x00\x00\x00\x08abc",  # truncated body
    (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),  # oversized length
    _framed(b"\xff\xfe\xfd"),  # not UTF-8
    _framed(b"not json"),  # not JSON
    _framed(b"[1, 2]"),  # not a JSON object
]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def child_env(cache: Path | None = None, delay_ms: int = 0) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_TRIAL_DELAY_MS", None)
    if cache is not None:
        env.update(REPRO_CACHE="1", REPRO_CACHE_DIR=str(cache))
    if delay_ms:
        env["REPRO_TRIAL_DELAY_MS"] = str(delay_ms)
    return env


def cli(*args: object) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def run_cli(*args: object, env: dict[str, str] | None = None) -> str:
    proc = subprocess.run(
        cli(*args), env=env or child_env(), capture_output=True, text=True,
        timeout=300, cwd=REPO,
    )
    assert proc.returncode == 0, (
        f"repro {args[0]} exited {proc.returncode}:\n{proc.stderr}"
    )
    return proc.stdout


def wait_for(
    predicate: Callable[[], Any],
    what: str,
    *,
    alive: subprocess.Popen | None = None,
    timeout: float = 120.0,
) -> Any:
    deadline = time.monotonic() + timeout
    while not (value := predicate()):
        assert alive is None or alive.poll() is None, (
            f"process exited before {what}"
        )
        assert time.monotonic() < deadline, f"no {what} within {timeout}s"
        time.sleep(0.05)
    return value


def cached_trials(cache: Path) -> int:
    return len(TrialCache(cache).entries())


def send_hostile(addr: tuple[str, int]) -> int:
    """Send each hostile frame on its own connection; none may be answered."""
    for data in HOSTILE_FRAMES:
        with socket.create_connection(addr, timeout=5) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b"", f"peer answered {data[:8]!r}"
    return len(HOSTILE_FRAMES)


def digest(doc: bytes) -> str:
    return hashlib.sha256(doc).hexdigest()[:16]


@dataclass
class Ctx:
    """What a leg may use: its own directory and the session baseline."""

    tmp: Path
    request: pytest.FixtureRequest

    @property
    def baseline(self) -> bytes:
        return self.request.getfixturevalue("serial_baseline")


Leg = Callable[[Ctx], Any]


@dataclass(frozen=True)
class Row:
    scenario: str
    leg_a: Leg | None
    leg_b: Leg
    invariant: Callable[[Any, Any], str]
    sanitize: bool = False


# ----------------------------------------------------------------------
# obs: observability is a pure side channel
# ----------------------------------------------------------------------
def obs_plain(ctx: Ctx) -> Any:
    return run_trial(OBS)


def obs_traced(ctx: Ctx) -> tuple[Any, Path, int, PhaseProfiler]:
    path, profiler = ctx.tmp / "trace.jsonl", PhaseProfiler()
    with JsonlTraceSink(path, buffer_events=32) as sink:
        result = run_trial(OBS, trace=sink, profiler=profiler)
    return result, path, sink.n_written, profiler


def trace_is_side_channel(plain: Any, traced: tuple) -> str:
    result, path, n_written, profiler = traced
    lines = [line for line in path.read_text().splitlines() if line]
    for line in lines:
        json.loads(line)
    assert len(lines) == len(list(read_trace_jsonl(path))) == n_written
    missing = {"strategy", "churn", "consumption", "measurement"} - set(
        profiler.calls
    )
    assert not missing, f"profiler missed phase(s) {sorted(missing)}"
    assert result_fingerprint(result) == result_fingerprint(plain)
    assert np.array_equal(result.final_loads, plain.final_loads)
    return result_fingerprint(plain)


def obs_cli(ctx: Ctx) -> tuple[dict, dict]:
    trace = run_cli("trace", *SIM_ARGS, "--tasks", 2000, "--json",
                    "--out", ctx.tmp / "cli_trace.jsonl")
    profile = run_cli("profile", *SIM_ARGS, "--tasks", 2000, "--json")
    return json.loads(trace), json.loads(profile)


def cli_agrees(plain: Any, outputs: tuple[dict, dict]) -> str:
    trace, profile = outputs
    assert trace["fingerprint"] == result_fingerprint(plain)
    assert profile["profile"]["phases"], "repro profile reported no phases"
    return trace["fingerprint"]


# ----------------------------------------------------------------------
# adv: the adversarial plane's headline invariants
# ----------------------------------------------------------------------
def adv_run(adversary: AdversaryModel, **overrides: Any) -> Leg:
    config = SimulationConfig(**{**ADV, **overrides}, adversary=adversary)
    return lambda ctx: TickEngine(config).run()


def default_is_off(pinned: str, defaulted: Any) -> str:
    assert result_fingerprint(defaulted) == pinned
    assert defaulted.adversary is None
    return pinned


def eclipse_captures(_: None, run: Any) -> str:
    assert run.adversary["slots_joined"] == 12
    assert run.adversary["captured_fraction_peak"] > 0
    return result_fingerprint(run)


def detection_is_exact(_: None, run: Any) -> str:
    assert run.adversary["detection_precision"] == 1.0
    assert run.adversary["detection_recall"] == 1.0
    assert run.completed
    return result_fingerprint(run)


def free_riders_strand(_: None, run: Any) -> str:
    assert run.termination_reason == "max_ticks"
    assert run.adversary["stranded_tasks"] > 0
    return result_fingerprint(run)


def adv_cli(ctx: Ctx) -> str:
    return run_cli(
        "simulate", *SIM_ARGS, "--tasks", 3000, "--trials", 1,
        "--adv-eclipse-sybils", 12, "--adv-eclipse-arc", 0.01,
        "--adv-attack-tick", 5, "--adv-detection-interval", 10,
    )


def cli_reports_attack(_: None, stdout: str) -> str:
    assert "adv captured fraction" in stdout, stdout
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("wall")
    )


# ----------------------------------------------------------------------
# net: a live `repro serve` ring
# ----------------------------------------------------------------------
def on_ring(n: int, act: Callable[[LocalCluster], Any], **kwargs: Any) -> dict:
    """Boot ``n`` serve processes, ``act`` on them, SIGTERM them."""
    cluster = LocalCluster(n, seed=SEED, maintenance_interval=0.1, **kwargs)
    cluster.start()
    try:
        value = act(cluster)
    finally:
        clean = cluster.stop(timeout=STOP_TIMEOUT)
    return {
        "value": value,
        "addrs": cluster.addrs(),
        "ids": [node.node_id for node in cluster.nodes],
        "clean": clean,
        "tails": {node.index: node.tail[-5:] for node in cluster.nodes},
    }


def stress(strategy: str, sybil_threshold: int = 0) -> Leg:
    def leg(ctx: Ctx) -> dict:
        def act(cluster: LocalCluster) -> dict:
            config = StressConfig(
                targets=tuple(cluster.addrs()),
                duration=5.0,
                concurrency=6,
                seed=SEED,
                prefill=3,
                key_pool=128,
                poll_interval=0.5,
                policy=RetryPolicy(timeout=2.0, retries=1),
            )
            with JsonlTraceSink(ctx.tmp / "stress.jsonl") as trace:
                summary = run_stress_sync(config, trace=trace)
            summary["counters"] = [
                request(addr, {"op": "stats"}, policy=POLICY)["metrics"][
                    "counters"
                ]
                for addr in cluster.addrs()
            ]
            return summary

        return on_ring(RING, act, strategy=strategy,
                       sybil_threshold=sybil_threshold, max_sybils=3)

    return leg


def ring_served(_: None, ring: dict) -> str:
    summary = ring["value"]
    assert len(ring["addrs"]) == RING and all(p for _h, p in ring["addrs"])
    assert summary["schema"] == "repro.stress.v1"
    assert summary["requests"]["success"] > 0
    assert summary["latency_ms"]["p50"] is not None
    assert ring["clean"], f"unclean SIGTERM stop; tails: {ring['tails']}"
    # live latencies vary run to run; the seeded ring layout does not
    return ",".join(map(str, ring["ids"]))


def invites_crossed(_: None, ring: dict) -> str:
    """The ring served, and some host took an ``invite`` op from another
    process: under invitation, only an accepted invite makes a Sybil."""
    counters = ring["value"]["counters"]
    assert sum(c.get("net.sybils_created", 0) for c in counters), counters
    return ring_served(None, ring)


def hostile_node(ctx: Ctx) -> dict:
    def act(cluster: LocalCluster) -> tuple[int, dict]:
        sent = send_hostile(cluster.addrs()[0])
        return sent, request(cluster.addrs()[0], {"op": "stats"}, policy=POLICY)

    return on_ring(1, act)


def node_counts_bad_frames(_: None, ring: dict) -> str:
    sent, stats = ring["value"]
    assert stats["metrics"]["counters"].get("net.bad_frames") == sent
    assert ring["clean"], f"unclean SIGTERM stop; tails: {ring['tails']}"
    return str(sent)


# ----------------------------------------------------------------------
# sweep and fabric: byte-identical to the serial baseline
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def serial_baseline(tmp_path_factory: pytest.TempPathFactory) -> bytes:
    tmp = tmp_path_factory.mktemp("baseline")
    run_cli("sweep", *GRID, "--jobs", 1, "--out", tmp / "baseline.json",
            env=child_env(tmp / "cache"))
    assert cached_trials(tmp / "cache") == N_TRIALS
    return (tmp / "baseline.json").read_bytes()


def baseline(ctx: Ctx) -> bytes:
    return ctx.baseline


def killed_then_resumed(*command: str) -> Leg:
    """SIGKILL ``repro <command>`` once part of the grid is cached, then
    rerun it on that cache: the resume."""

    def leg(ctx: Ctx) -> tuple[bytes, int, int]:
        cache = ctx.tmp / "cache"
        # own session: the kill must take the pool workers too
        proc = subprocess.Popen(
            cli(*command, *GRID, "--out", ctx.tmp / "killed.json"),
            env=child_env(cache, DELAY_MS), cwd=REPO, start_new_session=True,
        )
        try:
            wait_for(lambda: cached_trials(cache) >= N_TRIALS // 4,
                     "trials cached before the kill", alive=proc)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        partial = cached_trials(cache)
        out = ctx.tmp / "resumed.json"
        stdout = run_cli(*command, *GRID, "--out", out, env=child_env(cache))
        reused = int(re.search(r"(\d+) cached", stdout)[1])
        return out.read_bytes(), partial, reused

    return leg


def resume_is_identical(base: bytes, resumed: tuple[bytes, int, int]) -> str:
    doc, partial, reused = resumed
    assert 0 < partial < N_TRIALS, f"kill not midway ({partial}/{N_TRIALS})"
    assert reused == partial, f"resume reused {reused}/{partial} cached"
    assert doc == base, "resumed sweep differs from the serial baseline"
    return digest(doc)


def broker_counters(addr: tuple[str, int]) -> dict[str, int]:
    return request(addr, {"op": OP_STATUS}, policy=POLICY)["metrics"]["counters"]


def with_listener(act: Callable[[Ctx, tuple[str, int]], Any]) -> Leg:
    """``repro sweep --listen`` with ``act`` on its attach socket."""

    def leg(ctx: Ctx) -> tuple[bytes, dict, Any]:
        out, status = ctx.tmp / "fabric.json", ctx.tmp / "status.json"
        broker = subprocess.Popen(
            cli("sweep", *GRID, "--jobs", 2, "--listen", "127.0.0.1:0",
                "--lease-timeout", 2, "--status-file", status, "--out", out),
            env=child_env(ctx.tmp / "cache", DELAY_MS), cwd=REPO,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert broker.stdout is not None
            line = broker.stdout.readline()
            assert line.startswith(FABRIC_READY_PREFIX), line
            ready = json.loads(line[len(FABRIC_READY_PREFIX):])
            value = act(ctx, (ready["host"], ready["port"]))
            assert broker.wait(timeout=300) == 0, "broker failed"
        finally:
            if broker.poll() is None:
                broker.kill()
                broker.wait()
        counters = json.loads(status.read_text())["metrics"]["counters"]
        return out.read_bytes(), counters, value

    return leg


def leased_worker(ctx: Ctx, addr: tuple[str, int]) -> subprocess.Popen:
    """A ``repro fabric worker``, returned the moment it holds a lease."""
    worker = subprocess.Popen(
        cli("fabric", "worker", "--connect", f"{addr[0]}:{addr[1]}",
            "--name", "smoke"),
        env=child_env(ctx.tmp / "cache", DELAY_MS), cwd=REPO,
    )
    try:
        wait_for(lambda: broker_counters(addr).get("fabric.remote_leases"),
                 "remote lease", alive=worker)
    except BaseException:
        worker.kill()
        worker.wait()
        raise
    return worker


def kill_worker(ctx: Ctx, addr: tuple[str, int]) -> None:
    worker = leased_worker(ctx, addr)
    worker.kill()
    worker.wait(timeout=30)


def stalled_worker(ctx: Ctx) -> tuple[bytes, dict, int]:
    """SIGSTOP a leased worker until the broker is done, then SIGCONT it."""
    stalled: list[subprocess.Popen] = []

    def act(ctx: Ctx, addr: tuple[str, int]) -> None:
        stalled.append(leased_worker(ctx, addr))
        stalled[0].send_signal(signal.SIGSTOP)

    try:
        doc, counters, _ = with_listener(act)(ctx)
    finally:
        for worker in stalled:
            worker.send_signal(signal.SIGCONT)
            worker.wait(timeout=60)
    return doc, counters, stalled[0].returncode


def worker_loss_absorbed(base: bytes, run: tuple[bytes, dict, Any]) -> str:
    doc, counters, _ = run
    assert counters.get("fabric.remote_leases", 0) >= 1, counters
    assert doc == base, "listening sweep differs from the serial baseline"
    return digest(doc)


def lease_expired(base: bytes, run: tuple[bytes, dict, int]) -> str:
    doc, counters, worker_rc = run
    assert counters.get("fabric.lease_expired", 0) >= 1, counters
    assert worker_rc == 0, f"resumed worker exited {worker_rc}"
    assert doc == base, "listening sweep differs from the serial baseline"
    return digest(doc)


def hostile_broker(ctx: Ctx, addr: tuple[str, int]) -> tuple[int, dict]:
    return send_hostile(addr), broker_counters(addr)


def broker_counts_bad_frames(base: bytes, run: tuple[bytes, dict, Any]) -> str:
    doc, final, (sent, live) = run
    assert live.get("fabric.bad_frames") == sent, live
    assert final.get("fabric.bad_frames") == sent, final
    assert doc == base, "listening sweep differs from the serial baseline"
    return digest(doc)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
ROWS = [
    Row("obs-trace", obs_plain, obs_traced, trace_is_side_channel,
        sanitize=True),
    Row("obs-cli", obs_plain, obs_cli, cli_agrees, sanitize=True),
    Row("adv-default-off", lambda ctx: ADV_PINNED, adv_run(AdversaryModel()),
        default_is_off, sanitize=True),
    Row("adv-eclipse", None,
        adv_run(AdversaryModel(**ECLIPSE), max_ticks=1500),
        eclipse_captures, sanitize=True),
    Row("adv-detection", None,
        adv_run(AdversaryModel(**ECLIPSE, detection_interval=10),
                max_ticks=1500),
        detection_is_exact, sanitize=True),
    Row("adv-free-riders", None,
        adv_run(AdversaryModel(free_riders=3, attack_tick=2),
                churn_rate=0.0, max_ticks=120),
        free_riders_strand, sanitize=True),
    Row("adv-free-riders-join-cost", None,
        adv_run(AdversaryModel(free_riders=3, attack_tick=2, join_cost=3),
                churn_rate=0.0, max_ticks=120),
        free_riders_strand, sanitize=True),
    Row("adv-cli", None, adv_cli, cli_reports_attack, sanitize=True),
    Row("net-none", None, stress("none"), ring_served, sanitize=True),
    Row("net-random_injection", None, stress("random_injection"),
        ring_served, sanitize=True),
    # helpers at or below 64 keys qualify, so invite ops really cross
    Row("net-invitation", None, stress("invitation", sybil_threshold=64),
        invites_crossed, sanitize=True),
    Row("net-hostile-frames", None, hostile_node, node_counts_bad_frames),
    Row("sweep-kill-resume", baseline, killed_then_resumed("sweep"),
        resume_is_identical),
    Row("fabric-worker-kill", baseline, with_listener(kill_worker),
        worker_loss_absorbed),
    Row("fabric-broker-kill-resume", baseline,
        killed_then_resumed("sweep", "--jobs", "2"),
        resume_is_identical),
    Row("fabric-hostile-frames", baseline, with_listener(hostile_broker),
        broker_counts_bad_frames),
    Row("fabric-worker-stall", baseline, stalled_worker, lease_expired),
]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
_BARE: dict[str, str] = {}


def run_row(row: Row, ctx: Ctx) -> str:
    a = row.leg_a(ctx) if row.leg_a is not None else None
    return row.invariant(a, row.leg_b(ctx))


@pytest.fixture
def ctx(tmp_path: Path, request: pytest.FixtureRequest) -> Ctx:
    return Ctx(tmp_path, request)


@pytest.mark.parametrize("row", ROWS, ids=[r.scenario for r in ROWS])
def test_row(row: Row, ctx: Ctx, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
    _BARE[row.scenario] = run_row(row, ctx)


SANITIZED = [r for r in ROWS if r.sanitize]


@pytest.mark.parametrize("row", SANITIZED, ids=[r.scenario for r in SANITIZED])
def test_sanitized(row: Row, ctx: Ctx, monkeypatch: pytest.MonkeyPatch) -> None:
    if row.scenario not in _BARE:  # selected without its bare row
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        (ctx.tmp / "bare").mkdir()
        _BARE[row.scenario] = run_row(row, Ctx(ctx.tmp / "bare", ctx.request))
    sanitize.reset()
    monkeypatch.setenv(sanitize.ENV_FLAG, "1")
    fingerprint = run_row(row, ctx)
    assert sanitize.report_count() == 0, sanitize.reports()
    assert fingerprint == _BARE[row.scenario], "the sanitizer perturbed the run"
