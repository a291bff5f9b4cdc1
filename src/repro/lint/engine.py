"""Lint driver: collect files, run rules, render reports.

Everything here is deterministic by construction: files are walked in
sorted order, findings are sorted before rendering, and the JSON report
contains no timestamps, absolute paths, or machine identifiers — two
runs over the same tree produce byte-identical output (CI archives and
diffs the artifact).
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.errors import LintError
from repro.lint.base import FileContext, ProjectRule, Rule, resolve_rules
from repro.lint.findings import Finding, Severity
from repro.lint.suppress import parse_suppressions

__all__ = ["LintReport", "lint_paths", "render_human", "render_json"]

#: Directories never descended into.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".mypy_cache",
    ".pytest_cache",
    ".ruff_cache",
    ".venv",
    "build",
    "dist",
}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    n_files: int
    n_suppressed: int
    rules_run: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _collect_files(paths: Sequence[Union[str, Path]]) -> list[Path]:
    """Every ``.py`` file under the given paths, sorted, deduplicated."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"lint path does not exist: {path}")
        if path.is_file():
            if path.suffix == ".py":
                out.add(path.resolve())
            continue
        for candidate in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                out.add(candidate.resolve())
    return sorted(out)


def _relative_label(file: Path, root: Path) -> str:
    """Posix-style path relative to the lint root (stable across hosts).

    Files outside the root keep explicit ``..`` segments: collapsing to
    the bare filename would strip the directory parts that scope rules
    like R002/R003 and could collide in the per-file suppression table
    when two linted files share a basename.
    """
    try:
        return Path(os.path.relpath(file, root)).as_posix()
    except ValueError:
        # No relative route (e.g. different drives): fall back to the
        # full path, which is still unique and keeps directory parts.
        return file.as_posix()


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    select: Union[Iterable[str], None] = None,
    root: Union[str, Path, None] = None,
) -> LintReport:
    """Lint every python file under ``paths`` with the selected rules.

    ``root`` anchors the relative paths in findings (defaults to the
    current working directory); suppression comments are honored before
    findings reach the report.
    """
    rules = resolve_rules(select)
    root_path = Path(root).resolve() if root is not None else Path.cwd()
    files = _collect_files(paths)

    ctxs: list[FileContext] = []
    findings: list[Finding] = []
    for file in files:
        label = _relative_label(file, root_path)
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=label)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="R000",
                    severity=Severity.ERROR,
                    path=label,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        ctxs.append(FileContext(path=label, source=source, tree=tree))

    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    raw: list[Finding] = []
    for ctx in ctxs:
        for rule in file_rules:
            raw.extend(rule.check(ctx))
    if project_rules:
        from repro.lint.projectmodel import build_project_model

        model = build_project_model(ctxs)
        for rule in project_rules:
            raw.extend(rule.check_project(model))

    suppressions = {
        ctx.path: parse_suppressions(ctx.source) for ctx in ctxs
    }
    n_suppressed = 0
    for finding in raw:
        supp = suppressions.get(finding.path)
        if supp is not None and supp.is_suppressed(
            finding.rule, finding.line
        ):
            n_suppressed += 1
            continue
        findings.append(finding)

    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=findings,
        n_files=len(files),
        n_suppressed=n_suppressed,
        rules_run=[r.rule_id for r in rules],
    )


def render_human(report: LintReport) -> str:
    """Terminal report: one line per finding plus a summary line."""
    lines = [f.render() for f in report.findings]
    n_err = len(report.errors)
    n_warn = len(report.findings) - n_err
    summary = (
        f"checked {report.n_files} file(s) "
        f"[{', '.join(report.rules_run)}]: "
        f"{n_err} error(s), {n_warn} warning(s)"
    )
    if report.n_suppressed:
        summary += f", {report.n_suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Deterministic JSON artifact (sorted findings, no timestamps)."""
    payload = {
        "format": "repro.lint_report.v1",
        "rules": report.rules_run,
        "n_files": report.n_files,
        "n_suppressed": report.n_suppressed,
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
