#!/usr/bin/env python
"""Kill a sweep midway, resume it, and demand bit-identical results.

The checkpoint/resume contract of the trial layer (``make
sweep-resume-check``, wired alongside ``make bench-check``):

1. run a quick-scale ``repro sweep`` uninterrupted against a fresh
   cache → ``baseline.json``;
2. start the *same* sweep against a second fresh cache with an injected
   per-trial delay (``REPRO_TRIAL_DELAY_MS``) and SIGKILL the process
   once part of the work is cached — a real mid-run crash, no cleanup;
3. re-run the same command against the interrupted cache (this *is* the
   resume: completed trials are cache hits, missing ones are computed)
   → ``resumed.json``;
4. assert ``resumed.json`` is byte-identical to ``baseline.json`` and
   that the resume actually reused cached trials.

The same kill/resume contract through the fabric broker (``repro fabric
run --jobs 2``) is leg 3 of ``scripts/fabric_smoke.py``.

Exit status 0 on success; non-zero with a diagnostic otherwise.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SWEEP_ARGS = [
    "sweep",
    "--field", "churn_rate",
    "--values", "0,0.001,0.01",
    "--nodes", "60",
    "--tasks", "3000",
    "--trials", "4",
    "--seed", "11",
]


def sweep_cmd(out: Path) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *SWEEP_ARGS, "--out", str(out)]


def env_for(cache_dir: Path, delay_ms: int = 0) -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_CACHE"] = "1"
    if delay_ms:
        env["REPRO_TRIAL_DELAY_MS"] = str(delay_ms)
    else:
        env.pop("REPRO_TRIAL_DELAY_MS", None)
    return env


def cached_trials(cache_dir: Path) -> int:
    # exclude .tmp-* staging files: a SIGKILL mid-store leaves one
    # behind, and it is not a committed (resumable) trial
    return len(
        [
            p
            for p in (cache_dir / "trials").glob("*/*.json")
            if not p.name.startswith(".tmp-")
        ]
    )


def kill_midway(cmd: list[str], cache_dir: Path, total: int) -> int:
    """Start ``cmd``, SIGKILL it once part of the grid is cached.

    Returns the number of trials the kill preserved, or -1 on failure
    (with a diagnostic printed).  The victim runs in its own session so
    the kill takes its whole process group, including any worker
    processes it started.
    """
    proc = subprocess.Popen(
        cmd, env=env_for(cache_dir, delay_ms=150), cwd=REPO,
        start_new_session=True,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        done = cached_trials(cache_dir)
        if done >= max(2, total // 4):
            break
        if proc.poll() is not None:
            print("FAIL: delayed run finished before the kill; "
                  "raise the trial count or delay")
            return -1
        time.sleep(0.05)
    else:
        os.killpg(proc.pid, signal.SIGKILL)
        print("FAIL: no trials cached before the deadline")
        return -1
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    partial = cached_trials(cache_dir)
    print(f"      killed with {partial}/{total} trials cached")
    if not 0 < partial < total:
        print(f"FAIL: kill did not land midway ({partial}/{total} cached)")
        return -1
    return partial


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-resume-") as tmp:
        tmp_path = Path(tmp)
        cache_a = tmp_path / "cache_uninterrupted"
        cache_b = tmp_path / "cache_killed"
        baseline = tmp_path / "baseline.json"
        resumed = tmp_path / "resumed.json"

        print("[1/4] uninterrupted sweep ...")
        subprocess.run(
            sweep_cmd(baseline), env=env_for(cache_a), check=True,
            cwd=REPO, timeout=300,
        )
        total = cached_trials(cache_a)

        print("[2/4] starting sweep, will SIGKILL midway ...")
        partial = kill_midway(
            sweep_cmd(tmp_path / "ignored.json"), cache_b, total
        )
        if partial < 0:
            return 1

        print("[3/4] resuming the killed sweep ...")
        subprocess.run(
            sweep_cmd(resumed), env=env_for(cache_b), check=True,
            cwd=REPO, timeout=300,
        )

        print("[4/4] comparing results ...")
        base_bytes = baseline.read_bytes()
        res_bytes = resumed.read_bytes()
        if base_bytes != res_bytes:
            print("FAIL: resumed sweep is not bit-identical to the "
                  "uninterrupted run")
            return 1
        print(
            f"OK: resumed sweep bit-identical to the uninterrupted run "
            f"({len(base_bytes)} bytes, {partial} trials reused from the "
            f"interrupted cache)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
