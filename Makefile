# Development targets for rfid-ctg.

PYTHON ?= python

.PHONY: install test lint typecheck check bench bench-paper bench-parallel bench-faults bench-engine bench-queries bench-kernels bench-store bench-streaming report examples loc clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static gates.  repro.lint (rules L001-L010, see docs/lint.md) is
# stdlib-only and always runs; ruff/mypy run when installed
# (pip install -e .[lint]) and are skipped with a notice otherwise, so
# the targets work in minimal containers too.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src tools
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed -- skipping (pip install -e .[lint])"; \
	fi

typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy -p repro.analysis; \
	else \
		echo "mypy not installed -- skipping (pip install -e .[lint])"; \
	fi

check: lint typecheck test

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Multi-object batch runtime: sequential vs parallel cleaning of one
# workload, output-identity check, BENCH_parallel.json with the speedup.
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py --out BENCH_parallel.json
	$(PYTHON) benchmarks/bench_parallel.py --check BENCH_parallel.json

# Fault-tolerance smoke: inject a worker-killing object and a
# deadline-busting object, assert both are quarantined while the real
# workload stays identical to sequential.  BENCH_faults.json is a
# diagnostic artifact, not a tracked baseline.
bench-faults:
	$(PYTHON) benchmarks/bench_parallel.py --smoke --inject-crash \
		--inject-timeout --out BENCH_faults.json
	$(PYTHON) benchmarks/bench_parallel.py --check BENCH_faults.json

# Reference vs compact single-object engine: bit-identity check plus the
# cold/warm speedup sweep, BENCH_engine.json with the headline number.
bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --out BENCH_engine.json
	$(PYTHON) benchmarks/bench_engine.py --check BENCH_engine.json

# Node graph (CTNode materialisation + to_flat) vs straight-to-flat
# cleaning, both answered by QuerySession: identical-answers check plus
# the many-queries-per-graph speedup sweep, BENCH_queries.json with the
# headline number.
bench-queries:
	$(PYTHON) benchmarks/bench_queries.py --out BENCH_queries.json
	$(PYTHON) benchmarks/bench_queries.py --check BENCH_queries.json

# Vectorized level-sweep kernels (needs the numpy extra): the wide
# kernel workload of both benches, parity-gated against the python
# oracle, refreshing the kernel_speedup blocks of both BENCH files.
bench-kernels:
	$(PYTHON) benchmarks/bench_engine.py --backend numpy --out BENCH_engine.json
	$(PYTHON) benchmarks/bench_engine.py --check BENCH_engine.json
	$(PYTHON) benchmarks/bench_queries.py --backend numpy --out BENCH_queries.json
	$(PYTHON) benchmarks/bench_queries.py --check BENCH_queries.json

# Binary graph store vs pickle (needs the numpy extra for the direct
# ndarray write path): engine -> .ctg direct write vs pickle, cold mmap
# load (>= 5x gate), warm mmap-served query parity, BENCH_store.json.
bench-store:
	$(PYTHON) benchmarks/bench_store.py --backend numpy --out BENCH_store.json
	$(PYTHON) benchmarks/bench_store.py --check BENCH_store.json

# Bounded-memory streaming: 100k-step stream with window=64, eviction
# and resume bit-equality gates plus the memory bounds, the vectorized
# frontier-kernel parity + speedup (>= 4x gate, needs the numpy extra;
# records available:false and skips the speedup gate without it) and
# the 2-shard merged-output identity.  BENCH_streaming.json carries the
# kernel and shard blocks.
bench-streaming:
	$(PYTHON) benchmarks/bench_streaming.py --backend numpy --out BENCH_streaming.json
	$(PYTHON) benchmarks/bench_streaming.py --check BENCH_streaming.json

report:
	$(PYTHON) -m repro.cli report --both --scale small --out evaluation_report.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
