# Convenience targets for the reproduction repository.

PYTHON ?= python

# Single source of truth for the chaos seed sweep — the CI matrix loads
# the same file, so `make chaos` and the chaos job cannot drift.
CHAOS_SEED_FILE := .github/chaos-seeds.json

# Likewise for the fusion fuzz sweep (CI fusion-fuzz job).
FUSION_FUZZ_SEED_FILE := .github/fusion-fuzz-seeds.json

.PHONY: install test test-reverse lint chaos fusion-fuzz bench bench-smoke \
        bench-regression ab12 serve-load fixed-cost e2e-smoke gates figures \
        examples clean

install:
	pip install -e .[test] || pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Mirrors the CI test-reverse job: tier-1 with the test files in reverse
# order, so a test that passes only after another one has run (state
# leaking between tests) fails here.
test-reverse:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q $$(ls tests/test_*.py | sort -r)

# Mirrors the CI lint job (ruff from requirements-lint.txt).
lint:
	ruff check src tests
	ruff format --check src tests

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

chaos:
	@for seed in $$($(PYTHON) -c "import json; \
	    print(' '.join(str(s) for s in json.load(open('$(CHAOS_SEED_FILE)'))))"); do \
	    echo "== chaos seed $$seed =="; \
	    CHAOS_SEEDS=$$seed PYTHONPATH=src $(PYTHON) -m pytest \
	        tests/test_faults.py tests/test_failure_injection.py -q || exit 1; \
	done

# Mirrors the CI fusion-fuzz job: the pipeline-fuzz vocabulary (counted
# kernels, zip, barriers) replayed under each pinned hypothesis seed.
fusion-fuzz:
	@for seed in $$($(PYTHON) -c "import json; \
	    print(' '.join(str(s) for s in json.load(open('$(FUSION_FUZZ_SEED_FILE)'))))"); do \
	    echo "== fusion fuzz seed $$seed =="; \
	    FUSION_FUZZ_SEED=$$seed PYTHONPATH=src $(PYTHON) -m pytest \
	        tests/test_pipeline_fuzz.py -q || exit 1; \
	done

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab9_bulk_path.py --smoke \
	    --out benchmarks/results/ab9_bulk_path_smoke.json

# Mirrors the CI bench-regression job: parity-gated AB9 + AB10 + AB11
# + AB12 smoke sweeps, then the speedup-ratio gate against the committed
# baselines.
bench-regression:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab9_bulk_path.py --smoke \
	    --out benchmarks/results/ab9_bulk_path_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab10_fusion.py --smoke \
	    --out benchmarks/results/ab10_fusion_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab11_process_backend.py --smoke \
	    --out benchmarks/results/ab11_process_backend_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab12_adaptive.py --smoke \
	    --out benchmarks/results/ab12_adaptive_smoke.json
	$(PYTHON) benchmarks/check_regression.py \
	    --baseline benchmarks/results/BENCH_bulk_path.json \
	    --fresh benchmarks/results/ab9_bulk_path_smoke.json
	$(PYTHON) benchmarks/check_regression.py \
	    --baseline benchmarks/results/BENCH_fusion.json \
	    --fresh benchmarks/results/ab10_fusion_smoke.json
	$(PYTHON) benchmarks/check_regression.py \
	    --baseline benchmarks/results/BENCH_process_backend.json \
	    --fresh benchmarks/results/ab11_process_backend_smoke.json
	$(PYTHON) benchmarks/check_regression.py \
	    --baseline benchmarks/results/BENCH_adaptive.json \
	    --fresh benchmarks/results/ab12_adaptive_smoke.json
	PYTHONPATH=src $(PYTHON) benchmarks/check_regression.py --overhead
	PYTHONPATH=src $(PYTHON) examples/profile_report.py \
	    --out-profile benchmarks/results/profile_report.json \
	    --out-trace benchmarks/results/profile_trace.json

# The full AB12 sweep: auto timed next to each fixed grid point in
# AB12_ROUNDS alternating rounds at 2^16 (a few minutes on 2 cores).
# Not a gate; copy the report over benchmarks/results/BENCH_adaptive.json
# to re-record the baseline.
AB12_ROUNDS ?= 10
ab12:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab12_adaptive.py \
	    --rounds $(AB12_ROUNDS) --out benchmarks/results/ab12_adaptive_full.json

# Mirrors the CI serve-load job: AB13's fairness/rejection/chaos gates
# in smoke mode, with the worker-kill leg seeded from the chaos file.
serve-load:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ab13_serve.py --smoke \
	    --chaos-seed $$($(PYTHON) -c "import json; \
	        print(json.load(open('$(CHAOS_SEED_FILE)'))[0])") \
	    --out benchmarks/results/ab13_serve_smoke.json

# Per-terminal fixed cost: p50 µs of the four serve_mix tenant shapes and a lone filter
# and their hand loops on 8-element inputs, alternating.  Not a gate.
fixed-cost:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fixed_cost.py

# Mirrors the CI e2e-smoke job: one short run of each gated end-to-end
# workload, plus a traced run of each so the per-layer ledger's wrappers
# meet the engine functions they patch (only etl_process scatters, so
# only it reaches the wrappers that pickle process payloads).  run.py
# exits non-zero on a result mismatch or too few samples; timings are
# printed but not gated.  etl_process needs ~30 s to collect its 100
# samples on a 2-core host.
e2e-smoke:
	$(PYTHON) e2ebench/run.py --workload serve_mix --seed 1 --seconds 4 --trace 0
	$(PYTHON) e2ebench/run.py --workload serve_mix --seed 1 --seconds 4 --trace 1
	$(PYTHON) e2ebench/run.py --workload etl_process --seed 1 --seconds 30 --trace 0
	$(PYTHON) e2ebench/run.py --workload etl_process --seed 1 --seconds 20 --trace 1

# Every gate the CI jobs run, one after another, stopping at the first
# failure: tier-1, then the targets above.
gates: export PYTHONPATH := src
gates:
	$(PYTHON) -m pytest -x -q
	$(MAKE) test-reverse fusion-fuzz chaos bench-regression serve-load \
	    examples e2e-smoke

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

figures:
	$(PYTHON) -m repro.bench --out benchmarks/results

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results/*.txt \
	       $$(find . -name __pycache__ -type d)
