# Development targets for rfid-ctg.

PYTHON ?= python

.PHONY: install test lint typecheck check bench bench-paper bench-store bench-streaming report examples loc clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static gates.  repro.lint (rules L001-L010, see docs/lint.md) is
# stdlib-only and always runs; ruff/mypy run when installed
# (pip install -e .[lint]) and are skipped with a notice otherwise, so
# the targets work in minimal containers too.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src
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

# The JSON benches (benchmarks/harness.py): each writes its record,
# then checks it against its own gates.

# Binary graph store vs pickle on a 96-wide, 1,600-step graph (14.7M
# edges; gigabytes of RSS): engine -> .ctg write vs engine -> pickle and
# the warm mmap-over-memory query penalty (both reported), cold mmap
# load (>= 5x gate) and mmap-served query parity (==).
bench-store:
	$(PYTHON) benchmarks/bench_store.py --out BENCH_store.json
	$(PYTHON) benchmarks/bench_store.py --check BENCH_store.json

# Bounded-memory streaming: 100k-step stream with window=64, eviction
# and resume bit-equality gates plus the memory bounds and the lean
# checkpoint size; the memoised-row advance against the python oracle on
# that stream and on a 12 x 90 SYN1 fleet (estimates equal at every
# step, >= 4x and >= 1.3x ingest gates; the SYN1 simulation needs the
# numpy extra) and the 2-shard merged-output identity with its spawn
# and per-reading times.
bench-streaming:
	$(PYTHON) benchmarks/bench_streaming.py --out BENCH_streaming.json
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
