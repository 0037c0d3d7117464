# Convenience targets; see README.md for the full story.

PYTHON ?= python
# Extra flags for bench-sharded, e.g. "--gate-exchange 0.10"
BENCH_SHARDED_FLAGS ?=
# Extra flags for bench-serve, e.g. "--gate-speedup 3.0 --gate-p99 0.5"
BENCH_SERVE_FLAGS ?=

.PHONY: install test lint bench bench-full bench-faultsim bench-sharded bench-serve bench-obs bench-check obs-report examples report serve-smoke faultsim-smoke clean-cache

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) scripts/check_no_print.py
	$(PYTHON) scripts/check_api_boundaries.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

report:
	$(PYTHON) -m repro report

bench-faultsim:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fault_sim.py

bench-sharded:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sharded_inference.py $(BENCH_SHARDED_FLAGS)

bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py $(BENCH_SERVE_FLAGS)

bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_obs_overhead.py

bench-check:
	$(PYTHON) scripts/bench_trend.py --check

obs-report:
	PYTHONPATH=src $(PYTHON) -m repro obs-report

serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

faultsim-smoke:
	PYTHONPATH=src $(PYTHON) scripts/faultsim_smoke.py

clean-cache:
	rm -rf ~/.cache/repro-gcn-test results
