"""Compare two directories of end-to-end run JSONs.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py BASE_DIR CHANGE_DIR [--same]

Both directories hold the ``<workload>-seed<N>-trace<T>-<ns>.json``
files ``run.py --out`` writes.  Only untraced runs are read, and only
the ``end_to_end`` metrics of ``BENCHMARK.json``, with their bounds.
Every (workload, metric) pair gets its own row with each side's median
and quartiles.

``--same``: both directories come from one commit.  A row passes when
the medians differ by at most the metric's bound.

Default (parent vs change): runs are paired in time order.  A row is
*decided* when it has at least 10 pairs, alternating which side ran
first, and the medians differ by more than the parent's interquartile
range.  It is

* ``improved`` — decided, and the change wins at least 90% of the pairs
  (ties count for neither);
* ``regressed`` — decided, and the change loses at least 90% of the
  pairs; or the change's median is worse by more than the bound;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every change run beats every parent run;
* ``unchanged`` — otherwise.

The pair rule sees through host drift that moves both sides alike, so
it flags a consistent slowdown smaller than the bound; the bound alone
judges unpaired runs.

The exit code is 1 when any row fails (``--same``) or regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
MIN_WIN_RATE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced runs per workload, in the order they were started."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        run = json.loads(path.read_text())
        if run.get("trace"):
            continue
        runs.setdefault(run["workload"], []).append(run)
    for items in runs.values():
        items.sort(key=lambda r: int(r["stem"].rsplit("-", 1)[1]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _worse(rel: float, better: str) -> float:
    """How much worse a relative change is (positive = worse)."""
    return -rel if better == "higher" else rel


def compare_pair(
    base: list[dict], change: list[dict], metric: dict, same: bool
) -> dict[str, Any]:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = [r["metrics"][name] for r in base]
    b = [r["metrics"][name] for r in change]
    qa, qb = quartiles(a), quartiles(b)
    rel = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    row: dict[str, Any] = {
        "metric": name, "base": qa, "change": qb, "delta": rel,
        "n": (len(a), len(b)),
    }
    if same:
        row["verdict"] = "agree" if abs(rel) <= bound else "DISAGREE"
        return row

    pairs = list(zip(base, change))
    sign = 1 if better == "higher" else -1
    gains = [sign * (rb["metrics"][name] - ra["metrics"][name])
             for ra, rb in pairs]
    wins = sum(1 for g in gains if g > 0)
    losses = sum(1 for g in gains if g < 0)
    firsts = [
        int(ra["stem"].rsplit("-", 1)[1]) < int(rb["stem"].rsplit("-", 1)[1])
        for ra, rb in pairs
    ]
    alternating = all(x != y for x, y in zip(firsts, firsts[1:]))
    spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    row.update(wins=wins, pairs=len(pairs), alternating=alternating)
    decided = (
        len(pairs) >= MIN_PAIRS
        and alternating
        and abs(qb[1] - qa[1]) > qa[2] - qa[0]
    )
    if decided and wins >= MIN_WIN_RATE * len(pairs):
        row["verdict"] = "improved"
    elif decided and losses >= MIN_WIN_RATE * len(pairs):
        row["verdict"] = "REGRESSED"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif _worse(rel, better) > bound:
        row["verdict"] = "REGRESSED"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(
    base_dir: Path, change_dir: Path, same: bool, bench: dict
) -> list[tuple[str, dict[str, Any]]]:
    base, change = load_runs(base_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            rows.append((workload, {"metric": "*", "verdict": "MISSING"}))
            continue
        for metric in bench["end_to_end"]:
            rows.append(
                (workload,
                 compare_pair(base[workload], change[workload], metric, same))
            )
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--same", action="store_true",
                   help="both directories come from one commit")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.base, args.change, args.same, bench)
    failed = False
    for workload, row in rows:
        if "base" not in row:
            print(f"{workload:14s} {row['metric']:18s} {row['verdict']}")
            failed = True
            continue
        pairs = "" if args.same else (
            f" wins {row['wins']}/{row['pairs']}"
            f"{'' if row['alternating'] else ' (not alternating)'}"
        )
        print(
            f"{workload:14s} {row['metric']:18s} "
            f"base {_fmt(row['base'])} n={row['n'][0]}  "
            f"change {_fmt(row['change'])} n={row['n'][1]}  "
            f"{row['delta']:+.2%}{pairs}  {row['verdict']}"
        )
        failed = failed or row["verdict"] in ("DISAGREE", "REGRESSED")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
