"""Observability smoke check (CI gate, also `make obs-smoke`).

Runs one small seeded simulation three ways — plain, traced+profiled,
and via the ``repro trace`` / ``repro profile`` CLI — and requires:

1. the JSONL trace parses line by line and round-trips through
   ``read_trace_jsonl`` with the event counts the sink reported;
2. the profiler saw every phase the run exercised;
3. **non-interference**: the traced+profiled result is bit-identical to
   the plain run (same fingerprint, same final loads) — observability
   must never perturb simulation state or RNG streams.

Under ``REPRO_SANITIZE=1`` (the CI ``sanitize-smoke`` job) the runtime
determinism sanitizer is live for every leg; the script then also
requires zero sanitizer reports and that an *unsanitized* rerun
fingerprints identically — instrumentation must be invisible.

Exits non-zero with a message on the first violated property.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SimulationConfig  # noqa: E402
from repro.obs import (  # noqa: E402
    JsonlTraceSink,
    PhaseProfiler,
    read_trace_jsonl,
    result_fingerprint,
)
from repro import sanitize  # noqa: E402
from repro.sim.trials import run_trial  # noqa: E402

CONFIG = SimulationConfig(
    strategy="invitation",
    n_nodes=60,
    n_tasks=2000,
    churn_rate=0.02,
    seed=11,
)
SIM_ARGS = [
    "--strategy", "invitation", "--nodes", "60", "--tasks", "2000",
    "--churn", "0.02", "--seed", "11",
]


def fail(msg: str) -> None:
    print(f"obs-smoke: FAIL — {msg}")
    sys.exit(1)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="obs_smoke_"))
    trace_path = workdir / "trace.jsonl"

    plain = run_trial(CONFIG)
    profiler = PhaseProfiler()
    with JsonlTraceSink(trace_path, buffer_events=32) as sink:
        observed = run_trial(CONFIG, trace=sink, profiler=profiler)

    # 1. the trace parses and round-trips
    lines = [l for l in trace_path.read_text().splitlines() if l]
    for line in lines:
        json.loads(line)
    events = list(read_trace_jsonl(trace_path))
    if len(events) != sink.n_written or len(lines) != sink.n_written:
        fail(
            f"event count mismatch: {len(lines)} lines, "
            f"{len(events)} parsed, sink reported {sink.n_written}"
        )

    # 2. the profiler saw the run's phases
    missing = {"strategy", "churn", "consumption", "measurement"} - set(
        profiler.calls
    )
    if missing:
        fail(f"profiler missed phase(s): {sorted(missing)}")

    # 3. non-interference: identical fingerprints with or without obs
    fp_plain = result_fingerprint(plain)
    fp_observed = result_fingerprint(observed)
    if fp_plain != fp_observed:
        fail(f"fingerprint diverged: {fp_plain} != {fp_observed}")
    if not np.array_equal(plain.final_loads, observed.final_loads):
        fail("final_loads diverged between plain and observed runs")

    # 4. sanitizer: every leg above ran instrumented when the flag is
    #    set — require a clean report list, then prove the sanitizer
    #    itself does not perturb results by rerunning without it.
    if sanitize.enabled():
        if sanitize.report_count():
            fail(f"sanitizer violations: {sanitize.reports()}")
        flag = os.environ.pop(sanitize.ENV_FLAG)
        try:
            fp_bare = result_fingerprint(run_trial(CONFIG))
        finally:
            os.environ[sanitize.ENV_FLAG] = flag
        if fp_bare != fp_plain:
            fail(
                f"sanitizer perturbed the run: {fp_plain} (sanitized) "
                f"!= {fp_bare} (bare)"
            )
        print("obs-smoke: sanitizer live — zero reports, bit-identical")

    # 5. the CLI subcommands agree with the library fingerprint
    cli_trace = subprocess.run(
        [sys.executable, "-m", "repro", "trace", *SIM_ARGS,
         "--out", str(workdir / "cli_trace.jsonl"), "--json"],
        capture_output=True, text=True, check=True,
    )
    summary = json.loads(cli_trace.stdout)
    if summary["fingerprint"] != fp_plain:
        fail(
            f"CLI trace fingerprint {summary['fingerprint']} != {fp_plain}"
        )
    cli_profile = subprocess.run(
        [sys.executable, "-m", "repro", "profile", *SIM_ARGS, "--json"],
        capture_output=True, text=True, check=True,
    )
    payload = json.loads(cli_profile.stdout)
    if not payload["profile"]["phases"]:
        fail("CLI profile reported no phases")

    print(
        f"obs-smoke: OK — {sink.n_written} events traced, "
        f"{len(profiler.calls)} phases profiled, fingerprint {fp_plain} "
        "identical with observability on/off"
    )


if __name__ == "__main__":
    main()
