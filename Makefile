# Convenience targets for the DVM reproduction.

PYTHON ?= python

.PHONY: install test chaos sweep-smoke fuzz-smoke fuzz-matrix dvmbench-smoke bench bench-smoke bench-figures lint analyze analyze-sarif experiments examples clean

# Seed matrix for the chaos battery (comma-separated injector seeds).
REPRO_CHAOS_SEEDS ?= 0,1,2,3

# Base seed for the fuzz matrix (nightly CI rotates it).
REPRO_FUZZ_BASE_SEED ?= 0

install:
	pip install -e . || \
	echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro.pth"

test:
	$(PYTHON) -m pytest tests/

# Fault-injection battery: full sweeps under seeded worker crashes,
# cache corruption, compile failures and allocator OOM, asserting
# bit-identical metrics (tests/chaos/).  Widen REPRO_CHAOS_SEEDS for a
# longer soak; every test carries a REPRO_TEST_TIMEOUT watchdog.
# Chaos-seeded sweeps intentionally run on the scalar loops: a
# configured REPRO_FAULTS injector makes the fast engine refuse every
# batch (counted as fastpath.refused.chaos), because perturbing
# injections void the batch replay's reasoning.  See docs/fuzzing.md
# and docs/configuration.md.
chaos:
	REPRO_CHAOS_SEEDS=$(REPRO_CHAOS_SEEDS) $(PYTHON) -m pytest tests/chaos/ -q

# Sweep-service chaos gate: a fault-free probe-sweep reference, then one
# sweep per scheduler fault site (hangs, exits, crashes, torn journal
# appends, lost heartbeats, supervisor stalls) plus a
# combined all-sites round; fails unless every run merges bit-identical
# to the reference and hang detection beats the pair timeout by 5x.
# Blocking in CI; see docs/sweep.md.
sweep-smoke:
	PYTHONPATH=src $(PYTHON) -m repro sweep --chaos-smoke

# Differential fuzz smoke: 64 fixed-seed constrained-random scenarios
# through all 7 configs, scalar vs fastpath (repro/gen, docs/fuzzing.md).
# Blocking in CI; any mismatch shrinks and prints a --repro command.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --smoke

# The full fuzz matrix (224 scenarios); nightly CI rotates the base
# seed so coverage accumulates across nights.
fuzz-matrix:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed-matrix \
		--base-seed $(REPRO_FUZZ_BASE_SEED)

# Benchmark smoke: the tiny dvmbench run checks the fig8-large, faults
# and sweep-bench rows against the scalar-engine digests in
# benchmarks/dvmbench/reference.json and runs the fuzz oracle, so a src/
# change that moves any simulated row fails; then the benchmark's own
# tests.  Blocking in CI; see benchmarks/dvmbench/README.md.
dvmbench-smoke:
	$(PYTHON) benchmarks/dvmbench/dvmbench.py --tiny
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/dvmbench/tests -q

# Timing-engine benchmark: full Figure 8 sweep under both engines,
# recorded in BENCH_timing.json at the repo root.
bench:
	$(PYTHON) benchmarks/perf_timing.py

# Perf smoke: time the first full-profile pair under both engines —
# fault-free and fault-enabled (demand faulting + reclaim swap-in) —
# and fail if any fastpath speedup regresses >30% against
# BENCH_timing.json or the aggregate fault-enabled speedup drops
# below 8x.
bench-smoke:
	$(PYTHON) benchmarks/perf_timing.py --pairs 1 --fault-pairs 1 \
		--min-fault-speedup 8 \
		--check BENCH_timing.json --output build/bench_smoke.json

bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# General Python hygiene (ruff, pinned in the dev extra).  A missing
# ruff is a broken dev environment, not a pass: fail loudly.
lint:
	@command -v ruff >/dev/null 2>&1 \
	|| { echo "error: ruff not installed (pip install -e '.[dev]')" >&2; exit 1; }
	ruff check src tests benchmarks examples

# Repo-specific invariants (dvmlint): determinism, fault-path protocol,
# obs guards, env discipline, worker-state shipping, plus the
# whole-program families (DET1xx taint, RACE0xx fork-boundary state,
# EXN0xx never-raise contracts; the call graph covers src/ only).  An
# unchanged tree replays the one cached result under build/; any edit
# reruns everything.  See docs/static-analysis.md.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.analysis

# SARIF 2.1.0 report for code-scanning upload (build/dvmlint.sarif).
analyze-sarif:
	mkdir -p build
	PYTHONPATH=src $(PYTHON) -m repro.analysis --format sarif \
		> build/dvmlint.sarif

experiments:
	$(PYTHON) -m repro all

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/graph_accelerator.py
	$(PYTHON) examples/cpu_cdvm.py
	$(PYTHON) examples/fragmentation_study.py
	$(PYTHON) examples/virtualization.py
	$(PYTHON) examples/trace_diagnostics.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis benchmarks/.benchmarks build
