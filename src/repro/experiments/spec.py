"""Experiment result containers and scale presets.

Every reproduced table/figure is a function ``run(scale=..., seed=...,
n_jobs=...) -> ExperimentResult``.  Results carry both the rendered rows
(the same layout the paper prints) and the raw artifacts (histograms,
per-trial factors) for tests, plots and CSV export.

Scales
------
``quick``
    CI-sized: the same parameter grid but few trials (and, for the very
    largest cells, reduced sizes).  Benchmarks default to this.
``full``
    Paper-sized: 100 trials at the paper's node/task counts.  Select it
    with ``scale="full"`` or the environment variable ``REPRO_SCALE=full``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ExperimentError
from repro.util.tables import format_table

__all__ = ["ExperimentResult", "Scale", "resolve_scale", "trials_for"]

Scale = str
_SCALES = ("quick", "full")


def resolve_scale(scale: Scale | None) -> Scale:
    """Normalize the scale argument, honouring ``REPRO_SCALE``."""
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "quick")
    if scale not in _SCALES:
        raise ExperimentError(
            f"unknown scale {scale!r}; expected one of {_SCALES}"
        )
    return scale


def trials_for(scale: Scale, quick: int = 5, full: int = 100) -> int:
    """Trial count for a scale (the paper averages 100 trials)."""
    return full if resolve_scale(scale) == "full" else quick


@dataclass
class ExperimentResult:
    """One reproduced table or figure.

    Attributes
    ----------
    experiment_id:
        Stable id, e.g. ``"table2"`` or ``"fig08"``.
    title:
        Human description (mirrors the paper's caption).
    headers / rows:
        The tabular payload, printed in the paper's layout.
    paper_expected:
        The values the paper reports, keyed like our rows, for
        side-by-side comparison in EXPERIMENTS.md.
    data:
        Raw artifacts (histogram objects, factor arrays, layouts).
    notes:
        Reading guidance / deviations.
    meta:
        Execution metadata attached by the registry — the ``fabric.*``
        trial accounting (run/cached/failed/retried counts, fresh-run
        milliseconds) and wall-clock; feeds the run manifest.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    paper_expected: dict[str, Any] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    scale: str = "quick"
    meta: dict[str, Any] = field(default_factory=dict)

    def render(self, digits: int = 3) -> str:
        out = format_table(
            self.headers,
            self.rows,
            digits=digits,
            title=f"[{self.experiment_id}] {self.title} (scale={self.scale})",
        )
        if self.notes:
            out += "\n" + self.notes
        return out

    def row_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.headers, row)) for row in self.rows]


RunFn = Callable[..., ExperimentResult]
