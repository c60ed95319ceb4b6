# Convenience targets for the reproduction workflow.

PY ?= python
REFS ?= 120000
# Worker processes for the parallel experiment engine: 0 = all cores,
# 1 = deterministic sequential fallback.  Output is bit-identical either way.
JOBS ?= 0

.PHONY: install test test-fast bench-floors serve-smoke cluster-smoke warm-traces replay examples clean-traces clean-results all

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Fast inner-loop run: unit/integration tests only (skips benchmarks/),
# fail-fast and quiet.
test-fast:
	$(PY) -m pytest tests/ -x -q

# In-run speedup floors (fast path vs its reference, both timed in the same
# process, so they hold on any host): trace generation (bulk vs scalar, and
# generation cost following the ref_limit cut), trace store, result store,
# engine kernels, sweep batching, policy kernels, aux replay, engine
# worker-pool reuse across grids, cluster scaling.  Absolute times are the end-to-end benchmark's business
# (BENCHMARK.json, benchmarks/e2e/).
bench-floors:
	$(PY) -m pytest benchmarks/ --ignore=benchmarks/e2e -q

# Boot a real `repro-cache serve` daemon as a subprocess and exercise the
# serving contract end to end: warm-cache resubmission, single-flight
# coalescing, overloaded backpressure, stats, clean shutdown.
serve-smoke:
	PYTHONPATH=src $(PY) scripts/serve_smoke.py

# Boot a real two-worker cluster (two `serve` daemons sharing one shared
# result store behind a `route` daemon) and exercise the clustering
# contract: ring-split sweeps, bit-identical routed results, SIGKILL
# failover mid-burst, exactly-once via the shared store, clean shutdown.
cluster-smoke:
	PYTHONPATH=src $(PY) scripts/cluster_smoke.py

# Prefetch every trace the experiment suite needs, in parallel, before a
# replay — turns the cold-start cost into one concurrent generation pass.
warm-traces:
	PYTHONPATH=src $(PY) -m repro.cli trace warm --refs $(REFS) --jobs $(JOBS)

replay:
	$(PY) examples/replay_paper.py --refs $(REFS) --jobs $(JOBS) --out results_full.md

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/application_tuning.py 30000
	$(PY) examples/smt_cache_design.py
	$(PY) examples/custom_workload.py
	$(PY) examples/instruction_placement.py

# Removes traces AND the per-cell result cache nested under it.
clean-traces:
	rm -rf .trace_cache

# Drop only the memoized per-cell simulation results (keep traces).
clean-results:
	rm -rf .trace_cache/results

all: test bench-floors replay
