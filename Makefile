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
	bench-tick bench-tick-baseline bench-tick-check smoke check figures

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

# the smoke-scenario table (scripts/smoke.py): one pytest row per
# end-to-end invariant, each sanitizable row rerun under REPRO_SANITIZE=1
smoke:
	$(PYTHON) -m pytest scripts/smoke.py

# the full tier-1 gate: static analysis, unit/property tests, paper
# claims, perf regression, the smoke table
check: lint typecheck test paper-check bench-check bench-tick-check smoke

figures:
	$(PYTHON) -m repro.cli figures --out figures/
