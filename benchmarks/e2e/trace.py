"""In-memory span recorder for the traced benchmark runs.

A traced run wraps the public methods of each layer's objects *from
outside* (instance attributes only — no class or module is patched) and
records one frame per wrapped call.  Frames nest on a stack, so every
call knows its parent and how much of its interval its children cover:

* ``self`` time = duration minus the time covered by child frames;
* per-name totals (``calls``, ``total_s``, ``self_s``) are what the
  per-layer metrics read.

Coarse boundaries (a trial, a strategy round, a batch commit) are kept
as span records ``{trace, span, parent, name, start, end, self}``; hot
leaf calls (one ``insert_slot`` per Sybil, tens of thousands per trial)
are folded into the totals only, which keeps a traced run's memory and
JSONL output small while leaving the self-time arithmetic exact.

An untraced run never builds a recorder, so nothing is installed and no
span is recorded.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Stack-based span recorder; single-threaded by design.

    ``clock`` is injectable so tests can drive it deterministically.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: kept spans as tuples (trace, span, parent, name, start, end, self)
        self.spans: list[tuple[int, int, int | None, str, float, float, float]] = []
        #: name -> [calls, total_s, self_s], over kept and folded frames
        self.totals: dict[str, list[float]] = {}
        #: free-form event counts (e.g. Sybils that acquired work)
        self.counts: dict[str, int] = {}
        self.trace = 0
        self._stack: list[list[Any]] = []
        self._next_span = 0

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def enter(self, name: str, keep: bool = True) -> None:
        """Open a frame; ``keep=False`` folds it into the totals only."""
        span_id = -1
        if keep:
            span_id = self._next_span
            self._next_span += 1
        # [name, start, child_time, span_id]
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> float:
        """Close the innermost frame; returns its duration."""
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self_time = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += duration
        tot[2] += self_time
        if span_id >= 0:
            self.spans.append(
                (self.trace, span_id, self._parent_span(), name, start, end,
                 self_time)
            )
        return duration

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return None

    def new_trace(self) -> int:
        """Start a new trace id (one per trial, pass or request)."""
        self.trace += 1
        return self.trace

    def add_span(
        self, name: str, start: float, end: float, trace: int | None = None
    ) -> None:
        """Record a finished root span measured elsewhere (no children)."""
        span_id = self._next_span
        self._next_span += 1
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += end - start
        tot[2] += end - start
        self.spans.append(
            (self.trace if trace is None else trace, span_id, None, name,
             start, end, end - start)
        )

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        *,
        keep: bool = False,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``obj.method`` (on this instance only) with a timed twin."""
        fn = getattr(obj, method)
        enter, exit_ = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(out)
            return out

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def span_dicts(self) -> list[dict[str, Any]]:
        keys = ("trace", "span", "parent", "name", "start", "end", "self")
        return [dict(zip(keys, s)) for s in self.spans]

    def write_jsonl(self, path: Path) -> None:
        """Write every kept span, one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.span_dicts():
                fh.write(json.dumps(span) + "\n")
