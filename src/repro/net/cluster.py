"""Local multi-process ring launcher (``repro serve --ring N``).

Spawns ``N`` ``repro serve`` subprocesses on ephemeral loopback ports:
the first node creates the ring, the rest join it sequentially through
node 0.  Node identities are drawn from a generator seeded by the
cluster seed, so the same seed always builds the same ring layout.

Each child announces itself by printing one machine-readable line::

    REPRO-SERVE-READY {"id": ..., "host": "...", "port": ...}

A reader thread per child watches stdout for that line (and keeps
draining output afterwards so the pipe never fills), which is how the
launcher learns the ephemeral ports.  :meth:`LocalCluster.stop` sends
SIGTERM and reports whether every node exited cleanly within the
timeout — the ``net-*`` rows of ``make smoke`` assert on that bool.
:meth:`kill` SIGKILLs one node mid-run for the failover tests.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import repro
from repro.errors import ProtocolError
from repro.hashspace.idspace import IdSpace
from repro.net.transport import Address
from repro.util.rng import make_rng

__all__ = ["ClusterNode", "LocalCluster", "READY_PREFIX"]

READY_PREFIX = "REPRO-SERVE-READY "

#: stdout lines kept per child for post-mortem debugging
_TAIL_LINES = 200


@dataclass
class ClusterNode:
    """One spawned ``repro serve`` process."""

    index: int
    node_id: int
    proc: subprocess.Popen
    host: str = "127.0.0.1"
    port: int = 0
    ready: threading.Event = field(default_factory=threading.Event)
    tail: list[str] = field(default_factory=list)

    @property
    def addr(self) -> Address:
        return (self.host, self.port)

    def alive(self) -> bool:
        return self.proc.poll() is None


class LocalCluster:
    """Spawn, address, and tear down a local ring of serve processes."""

    def __init__(
        self,
        n: int,
        *,
        seed: int = 0,
        strategy: str = "none",
        bits: int = 64,
        sybil_threshold: int = 0,
        max_sybils: int = 5,
        maintenance_interval: float = 0.2,
        host: str = "127.0.0.1",
        startup_timeout: float = 20.0,
        extra_args: Sequence[str] = (),
    ) -> None:
        if n < 1:
            raise ProtocolError(f"ring size must be >= 1, got {n}")
        self.n = n
        self.seed = seed
        self.strategy = strategy
        self.bits = bits
        self.sybil_threshold = sybil_threshold
        self.max_sybils = max_sybils
        self.maintenance_interval = maintenance_interval
        self.host = host
        self.startup_timeout = startup_timeout
        self.extra_args = list(extra_args)
        self.nodes: list[ClusterNode] = []
        self._readers: list[threading.Thread] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the ring; returns once every node has printed READY."""
        space = IdSpace(self.bits)
        rng = make_rng(self.seed)
        ids: list[int] = []
        while len(ids) < self.n:
            candidate = space.random_id(rng)
            if candidate not in ids:
                ids.append(candidate)
        try:
            for index, node_id in enumerate(ids):
                bootstrap = self.nodes[0].addr if index > 0 else None
                node = self._spawn(index, node_id, bootstrap)
                self.nodes.append(node)
                self._await_ready(node)
        except Exception:
            self.stop(timeout=5.0)
            raise

    def _spawn(
        self, index: int, node_id: int, bootstrap: Address | None
    ) -> ClusterNode:
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host", self.host,
            "--port", "0",
            "--id", str(node_id),
            "--seed", str(self.seed + index),
            "--bits", str(self.bits),
            "--strategy", self.strategy,
            "--sybil-threshold", str(self.sybil_threshold),
            "--max-sybils", str(self.max_sybils),
            "--maintenance-interval", str(self.maintenance_interval),
        ]
        if bootstrap is not None:
            cmd += ["--join", f"{bootstrap[0]}:{bootstrap[1]}"]
        cmd += self.extra_args
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        node = ClusterNode(index=index, node_id=node_id, proc=proc, host=self.host)
        assert proc.stdout is not None
        reader = threading.Thread(
            target=self._read_output,
            args=(node, proc.stdout),
            name=f"repro-cluster-{index}",
            daemon=True,
        )
        reader.start()
        self._readers.append(reader)
        return node

    @staticmethod
    def _read_output(node: ClusterNode, stream: IO[str]) -> None:
        for line in stream:
            line = line.rstrip("\n")
            node.tail.append(line)
            del node.tail[:-_TAIL_LINES]
            if line.startswith(READY_PREFIX) and not node.ready.is_set():
                try:
                    info = json.loads(line[len(READY_PREFIX):])
                    node.host = str(info["host"])
                    node.port = int(info["port"])
                    node.node_id = int(info["id"])
                except (ValueError, KeyError):
                    continue  # malformed banner; keep waiting
                node.ready.set()
        stream.close()

    def _await_ready(self, node: ClusterNode) -> None:
        deadline = time.monotonic() + self.startup_timeout
        while not node.ready.wait(timeout=0.1):
            if not node.alive():
                raise ProtocolError(
                    f"serve process {node.index} exited with "
                    f"{node.proc.returncode} before READY; tail:\n"
                    + "\n".join(node.tail[-20:])
                )
            if time.monotonic() > deadline:
                raise ProtocolError(
                    f"serve process {node.index} not READY after "
                    f"{self.startup_timeout}s; tail:\n"
                    + "\n".join(node.tail[-20:])
                )

    # ------------------------------------------------------------------
    def addrs(self) -> list[Address]:
        return [node.addr for node in self.nodes]

    def kill(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Abruptly kill one node (failover testing)."""
        node = self.nodes[index]
        if node.alive():
            node.proc.send_signal(sig)
            node.proc.wait(timeout=10)

    def stop(self, timeout: float = 10.0) -> bool:
        """SIGTERM everyone; True iff all exited cleanly in time.

        A node that needs SIGKILL (or already died with a non-zero /
        signal status *other than our own SIGTERM/SIGKILL*) makes this
        return False.
        """
        clean = True
        for node in self.nodes:
            if node.alive():
                node.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for node in self.nodes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                node.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                node.proc.kill()
                node.proc.wait()
                clean = False
            rc = node.proc.returncode
            # 0 = graceful; -SIGTERM = died before its handler engaged;
            # -SIGKILL only ever comes from kill()/the timeout path above
            if rc not in (0, -signal.SIGTERM, -signal.SIGKILL):
                clean = False
        for reader in self._readers:
            reader.join(timeout=2)
        return clean

    # ------------------------------------------------------------------
    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
