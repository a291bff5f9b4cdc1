"""Protocol-level Chord: the substrate the paper's network model assumes.

This layer implements the actual Chord protocol (successor lists, finger
tables, stabilization, iterative lookup) plus the ChordReduce-style
active-backup replication the paper's simulation abstracts away.  The
tick simulator (:mod:`repro.sim`) encodes the same semantics at a level
where million-task experiments are feasible; this package exists to
validate those semantics and to support protocol-level demos.
"""

from repro.chord.balance import ProtocolSimulation
from repro.chord.fingers import FingerTable
from repro.chord.latency import LatencyModel, lookup_latency_ms
from repro.chord.network import SimNetwork
from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.chord.stats import RingStats, collect_ring_stats, finger_accuracy
from repro.chord.storage import NodeStore
from repro.chord.view import ChordView

__all__ = [
    "SimNetwork",
    "ChordNode",
    "ChordRing",
    "ChordView",
    "FingerTable",
    "NodeStore",
    "ProtocolSimulation",
    "RingStats",
    "collect_ring_stats",
    "finger_accuracy",
    "LatencyModel",
    "lookup_latency_ms",
]
