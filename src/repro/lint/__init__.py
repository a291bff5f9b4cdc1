"""reprolint — determinism-and-correctness static analysis for this repo.

The reproduction's headline guarantee (seeded runs are bit-identical and
fingerprint-pinned) rests on conventions: all randomness flows through
:mod:`repro.util.rng`, id math stays in uint64, error types come from
:mod:`repro.errors`, and result-schema changes bump the on-disk format
version.  ``reprolint`` machine-checks those conventions with custom AST
rules so a stray ``np.random.default_rng()`` or float-promoted id
subtraction fails CI instead of silently breaking reproducibility.

Since v2 the engine is *project-aware*: one deterministic pass
(:mod:`repro.lint.projectmodel`) builds the module/import graph, symbol
table, and a call-graph approximation, and every :class:`ProjectRule`
receives that model — which is what lets R007–R009 reason about code
that runs concurrently (worker entry points, asyncio tasks) and about
values flowing across function boundaries.  The static rules have a
runtime counterpart in :mod:`repro.sanitize` (``REPRO_SANITIZE=1``).

Run it as ``repro lint [paths]`` (or ``make lint``).  Rules:

=====  ======================  ===========================================
ID     Name                    Invariant
=====  ======================  ===========================================
R001   rng-discipline          randomness only via ``repro.util.rng``
R002   nondeterminism-hazard   no wall clock / uuid / set-order in logic
R003   uint64-arithmetic       id math stays unsigned (NEP 50 hazards)
R004   error-discipline        no broad excepts; core raises repro.errors
R005   config-drift            every config knob is read somewhere
R006   schema-versioning       result field changes bump RESULT_FORMAT
R007   async-discipline        net/ coroutines never block or drop tasks
R008   shared-state-hazard     no shared mutable writes from workers
R009   rng-stream-aliasing     one Generator, one concurrent consumer
=====  ======================  ===========================================

Suppressions: trailing ``# reprolint: disable=R001[,R002...]`` on the
offending line, or a whole-file ``# reprolint: disable-file=R002`` comment
(see :mod:`repro.lint.suppress`).

Reports render as human text or, with ``--json``, as the byte-stable
``repro.lint_report.v1`` document.
"""

from __future__ import annotations

from repro.lint.base import FileContext, ProjectRule, Rule, all_rules
from repro.lint.engine import LintReport, lint_paths, render_human, render_json
from repro.lint.findings import Finding, Severity
from repro.lint.projectmodel import ProjectModel, build_project_model

# Importing the rule modules registers every rule with the registry.
from repro.lint import rules_rng as _rules_rng  # noqa: F401
from repro.lint import rules_numeric as _rules_numeric  # noqa: F401
from repro.lint import rules_errors as _rules_errors  # noqa: F401
from repro.lint import rules_project as _rules_project  # noqa: F401
from repro.lint import rules_async as _rules_async  # noqa: F401
from repro.lint import rules_shared as _rules_shared  # noqa: F401

__all__ = [
    "Finding",
    "Severity",
    "FileContext",
    "Rule",
    "ProjectRule",
    "ProjectModel",
    "build_project_model",
    "all_rules",
    "LintReport",
    "lint_paths",
    "render_human",
    "render_json",
]
