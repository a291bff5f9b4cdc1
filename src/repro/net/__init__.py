"""Live networked deployment of the protocol layer (ROADMAP item 1).

The simulator (:mod:`repro.sim`) and the in-memory protocol twin
(:mod:`repro.chord`) measure everything in *ticks*.  This package runs
the very same :class:`~repro.chord.node.ChordNode` logic on real TCP
sockets under real client traffic, so tail latency and rebalance
convergence can be measured in wall-clock time:

* :mod:`repro.net.transport` — length-prefixed JSON frames with
  per-message timeout, bounded retries and exponential backoff, raising
  the same :class:`~repro.errors.TransientNetworkError` /
  :class:`~repro.errors.ProtocolError` split as the in-memory fabric;
* :mod:`repro.net.node` — an asyncio node (``repro serve``) hosting one
  main Chord identity plus any strategy-spawned Sybils, with
  stabilize / fix-fingers / heartbeat as seeded-jitter asyncio tasks;
* :mod:`repro.net.stress` — a seeded concurrent get/put load generator
  (``repro stress``) reusing :mod:`repro.sim.keydist` key skew and
  recording wall-clock latency through the
  :class:`~repro.obs.MetricsRegistry` and JSONL trace sink;
* :mod:`repro.net.cluster` — a local multi-process ring launcher
  (``repro serve --ring N``) used by tests and the ``net-*`` rows of
  ``make smoke``.

The live layer is strictly additive: nothing here is imported by the
simulation path, so seeded simulation fingerprints stay bit-identical
(enforced by the ``obs-*`` rows of ``make smoke``).
"""

from __future__ import annotations

from repro.net.transport import (
    Address,
    RetryPolicy,
    async_request,
    decode_payload,
    encode_frame,
    encode_payload,
    parse_address,
    request,
)

__all__ = [
    "Address",
    "RetryPolicy",
    "async_request",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "parse_address",
    "request",
]
