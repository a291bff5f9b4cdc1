"""Compare two pytest-benchmark JSON files and flag regressions.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json \
        [--threshold 0.20] [--stat median]

Benchmarks are matched by ``fullname``.  Any benchmark whose chosen
statistic slowed down by more than ``--threshold`` (default 20%) versus
the baseline fails the check; the script exits non-zero so CI (or
``make bench-check``) can gate on it.  Benchmarks present in only one
file are reported but never fail the check — adding or retiring a
benchmark is not a regression.

When the current file holds the 10k-slot slab churn storm, its
slab-vs-naive speedup (the median of per-round ratios against naive
storms run in the same rounds, see ``bench_core_ops.py``) is printed
and gated: below ``MIN_STORM_SPEEDUP`` (the >=5x DESIGN.md §5 claims)
the check fails.  The round commit gets the same treatment: when the
current file holds ``test_round_commit``, its speedup over replaying
the same strategy round one slot at a time is printed and gated at
``MIN_ROUND_COMMIT_SPEEDUP``.  Like the tick-engine speedup below these
are within-run ratios, so they hold on a runner whose clock differs
from the baseline's.  Every ratio is printed before the check fails,
and the failure lists every gate that failed.

The tick-engine suite gets the same treatment: when the current file
holds ``test_tick_engine[...]`` results, the reference-vs-numpy kernel
speedup is printed per ring size, and ``--require-tick-speedup X``
turns it into a gate — the speedup is a within-run ratio, so unlike the
absolute baseline comparison it is meaningful even on a shared CI
runner whose clock differs from the baseline machine's.
"""

from __future__ import annotations

import argparse
import json
import sys

#: slab-vs-naive churn-storm speedup at 10k slots that DESIGN.md §5 claims
MIN_STORM_SPEEDUP = 5.0
#: round-commit speedup over the per-slot replay of the same round: half
#: the 27-28x measured on a shared 2-vCPU host
MIN_ROUND_COMMIT_SPEEDUP = 13.0


def load_stats(path: str, stat: str) -> dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    return {
        b["fullname"]: float(b["stats"][stat]) for b in data["benchmarks"]
    }


def recorded_speedup(path: str, bench: str, key: str) -> float | None:
    """The paired speedup ``extra_info[key]`` of benchmark ``bench``
    recorded in ``path``."""
    with open(path) as fh:
        data = json.load(fh)
    for b in data["benchmarks"]:
        if b["fullname"].endswith(f"::{bench}"):
            speedup = b.get("extra_info", {}).get(key)
            return None if speedup is None else float(speedup)
    return None


#: (label, benchmark, extra_info key, required minimum) per gated
#: within-run speedup
PAIRED_SPEEDUPS = [
    ("churn-storm slab speedup vs naive (10k slots)",
     "test_churn_storm_slab[10000]", "speedup_vs_naive", MIN_STORM_SPEEDUP),
    ("round-commit speedup vs per-slot replay",
     "test_round_commit", "speedup_vs_sequential", MIN_ROUND_COMMIT_SPEEDUP),
]


def _tick_engine_times(stats: dict[str, float]) -> dict[tuple[str, int], float]:
    """``(variant, n_slots) -> time`` for every tick-engine benchmark."""
    out: dict[tuple[str, int], float] = {}
    for name, value in stats.items():
        marker = "test_tick_engine["
        start = name.find(marker)
        if start < 0:
            continue
        params = name[start + len(marker):].rstrip("]").split("-")
        variant = next(
            (p for p in params if not p.isdigit()), None
        )
        size = next((int(p) for p in params if p.isdigit()), None)
        if variant is not None and size is not None:
            out[(variant, size)] = value
    return out


def tick_engine_speedups(stats: dict[str, float]) -> dict[int, float]:
    """Reference-vs-numpy kernel speedup per ring size."""
    times = _tick_engine_times(stats)
    sizes = sorted({n for _, n in times})
    return {
        n: times[("reference", n)] / times[("numpy", n)]
        for n in sizes
        if ("reference", n) in times and ("numpy", n) in times
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline pytest-benchmark JSON")
    parser.add_argument("current", help="current pytest-benchmark JSON")
    parser.add_argument(
        "--threshold",
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional slowdown before failing (default 0.20); "
        "--tolerance is an alias",
    )
    parser.add_argument(
        "--require-tick-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the current file's tick-engine reference-vs-"
        "numpy speedup is at least X at the largest ring size present "
        "(a within-run ratio: robust to machine differences)",
    )
    parser.add_argument(
        "--stat",
        default="median",
        choices=["min", "median", "mean"],
        help="which statistic to compare (default median; median is the "
        "most robust of the three on shared machines)",
    )
    args = parser.parse_args(argv)

    base = load_stats(args.baseline, args.stat)
    cur = load_stats(args.current, args.stat)

    regressions: list[tuple[str, float]] = []
    width = max((len(n) for n in base), default=0)
    for name in sorted(base):
        if name not in cur:
            print(f"~ {name}: only in baseline (skipped)")
            continue
        ratio = cur[name] / base[name]
        marker = " "
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
            marker = "!"
        print(f"{marker} {name:<{width}}  {ratio:6.2f}x baseline")
    for name in sorted(set(cur) - set(base)):
        print(f"+ {name}: new benchmark (skipped)")

    # every ratio is printed before any gate fails the check
    failures: list[str] = []
    for label, bench, key, required in PAIRED_SPEEDUPS:
        speedup = recorded_speedup(args.current, bench, key)
        if speedup is None:
            continue
        print(f"\n{label}: {speedup:.2f}x")
        if speedup < required:
            failures.append(
                f"{label} {speedup:.2f}x < required {required:.2f}x"
            )

    tick = tick_engine_speedups(cur)
    for n_slots, ratio in tick.items():
        print(
            f"tick-engine kernel speedup vs reference "
            f"({n_slots} slots): {ratio:.2f}x"
        )
    if args.require_tick_speedup is not None:
        if not tick:
            failures.append(
                "--require-tick-speedup given but the current file has no "
                "tick-engine reference/numpy pair"
            )
        else:
            largest = max(tick)
            if tick[largest] < args.require_tick_speedup:
                failures.append(
                    f"tick-engine speedup at {largest} slots is "
                    f"{tick[largest]:.2f}x < required "
                    f"{args.require_tick_speedup:.2f}x"
                )

    if regressions:
        failures.append(
            f"{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} ({args.stat}):"
            + "".join(
                f"\n  {name}: {ratio:.2f}x baseline"
                for name, ratio in regressions
            )
        )
    if failures:
        for failure in failures:
            print(f"\nFAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
