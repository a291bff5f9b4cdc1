PYTHON ?= python
export PYTHONPATH := src

# committed references produced by `make bench-baseline` / `make
# bench-tick-baseline`
BENCH_BASELINE := benchmarks/BENCH_core_ops_slab.json
BENCH_CURRENT  := benchmarks/.bench_current.json
BENCH_TICK_BASELINE := benchmarks/BENCH_tick_engine.json
BENCH_TICK_CURRENT  := benchmarks/.bench_tick_current.json

# the paper's table/figure/claim benchmarks: 20 shape assertions
PAPER_BENCHES := benchmarks/bench_table1.py benchmarks/bench_table2.py \
	benchmarks/bench_fig*.py benchmarks/bench_text_claims.py \
	benchmarks/bench_ablations.py benchmarks/bench_extensions.py \
	benchmarks/bench_protocol.py

.PHONY: test lint typecheck paper-check bench bench-baseline bench-check \
	bench-tick bench-tick-baseline bench-tick-check \
	sweep-resume-check fabric-smoke obs-smoke net-smoke adv-smoke \
	sanitize-smoke check figures

test:
	$(PYTHON) -m pytest -x -q

# reprolint: determinism/correctness AST rules (R001-R009, including
# the cross-module concurrency pass); exits non-zero on any
# error-severity finding
lint:
	$(PYTHON) -m repro.cli lint src

# baseline-aware mypy (skips with a notice when mypy is not installed;
# CI installs the pinned version from the `dev` extra)
typecheck:
	$(PYTHON) scripts/typecheck.py

# regenerate every paper table, figure and text claim at quick scale
# and fail if any reproduced shape (e.g. Table II factors falling with
# churn) no longer holds; timing is off, only the assertions gate
paper-check:
	$(PYTHON) -m pytest $(PAPER_BENCHES) -q --benchmark-disable

bench:
	$(PYTHON) -m pytest benchmarks/bench_core_ops.py -k "not tick_engine" \
		--benchmark-only --benchmark-json=$(BENCH_CURRENT)

bench-baseline:
	$(PYTHON) -m pytest benchmarks/bench_core_ops.py -k "not tick_engine" \
		--benchmark-only --benchmark-json=$(BENCH_BASELINE)

# re-run the benchmarks and fail on a >20% median regression versus the
# committed baseline (see benchmarks/compare_bench.py)
bench-check: bench
	$(PYTHON) benchmarks/compare_bench.py $(BENCH_BASELINE) $(BENCH_CURRENT)

# tick-engine suite: multi-slot consumption, the engine's grouped-CSR
# kernel against the lexsort reference.  The hard gate is the
# within-run reference-vs-numpy kernel speedup (>=3x at the largest
# ring size) — a machine-independent ratio.  The absolute baseline
# comparison uses a loose tolerance: absolute medians jitter with host
# load.
bench-tick:
	$(PYTHON) -m pytest benchmarks/bench_core_ops.py -k tick_engine \
		--benchmark-only --benchmark-json=$(BENCH_TICK_CURRENT)

bench-tick-baseline:
	$(PYTHON) -m pytest benchmarks/bench_core_ops.py -k tick_engine \
		--benchmark-only --benchmark-json=$(BENCH_TICK_BASELINE)

bench-tick-check: bench-tick
	$(PYTHON) benchmarks/compare_bench.py $(BENCH_TICK_BASELINE) \
		$(BENCH_TICK_CURRENT) --tolerance 1.0 --require-tick-speedup 3.0

# kill a quick-scale sweep midway (SIGKILL), resume it from the trial
# cache, and require the merged TrialSet to be bit-identical to an
# uninterrupted run (see scripts/sweep_resume_check.py)
sweep-resume-check:
	$(PYTHON) scripts/sweep_resume_check.py

# distributed trial fabric end-to-end: serial baseline vs `repro fabric
# run` with a socket-attached worker SIGKILLed mid-lease, plus a broker
# SIGKILL + resume — both byte-identical (see scripts/fabric_smoke.py)
fabric-smoke:
	$(PYTHON) scripts/fabric_smoke.py

# run a tiny traced+profiled simulation, assert the JSONL parses and
# that results are bit-identical with observability on or off
obs-smoke:
	$(PYTHON) scripts/obs_smoke.py

# boot a 4-node `repro serve` ring, run a ~5s seeded stress workload
# per strategy (none + random_injection), require non-zero successes
# and a clean SIGTERM shutdown (see scripts/net_smoke.py)
net-smoke:
	$(PYTHON) scripts/net_smoke.py

# seeded adversarial-plane invariants: default-off bit identity,
# eclipse capture + clean detection, free-rider stranding, and the
# `repro simulate --adv-*` surface (see scripts/adv_smoke.py and
# docs/adversarial.md)
adv-smoke:
	$(PYTHON) scripts/adv_smoke.py

# rerun the three smoke gates with the runtime determinism sanitizer
# live (REPRO_SANITIZE=1): zero sanitizer reports and fingerprints
# bit-identical to unsanitized runs (see src/repro/sanitize.py)
sanitize-smoke:
	REPRO_SANITIZE=1 $(PYTHON) scripts/obs_smoke.py
	REPRO_SANITIZE=1 $(PYTHON) scripts/adv_smoke.py
	REPRO_SANITIZE=1 $(PYTHON) scripts/net_smoke.py

# the full tier-1 gate: static analysis, unit/property tests, paper
# claims, perf regression, resume, trial fabric, observability, live
# serving, adversary plane, sanitized smokes
check: lint typecheck test paper-check bench-check bench-tick-check \
	sweep-resume-check fabric-smoke obs-smoke net-smoke adv-smoke \
	sanitize-smoke

figures:
	$(PYTHON) -m repro.cli figures --out figures/
