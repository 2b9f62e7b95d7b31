# Convenience targets for the tier-1 suite, benchmarks, and linting.
# Everything runs from the repo root with src/ on PYTHONPATH, so no install
# step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test coverage bench-smoke bench \
	bench-columnar bench-columnar-smoke \
	bench-obs bench-obs-smoke \
	bench-planner bench-planner-smoke \
	bench-persistence bench-persistence-smoke bench-e2e bench-e2e-smoke \
	bench-all bench-all-smoke check-regression update-baselines-dry lint \
	typecheck docs clean

test:
	$(PYTHON) -m pytest -x -q

# Coverage needs pytest-cov (in requirements-dev.txt); skip gracefully when
# the local environment lacks it so `make test` stays dependency-light.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=src/repro --cov-report=term \
			--cov-report=html --cov-fail-under=80; \
	else \
		echo "pytest-cov not installed; run: pip install pytest-cov"; \
		exit 1; \
	fi

bench-smoke:
	$(PYTHON) benchmarks/run_all.py --quick

bench:
	$(PYTHON) benchmarks/run_all.py

bench-columnar-smoke:
	$(PYTHON) benchmarks/bench_columnar.py --quick --json BENCH_columnar.json

bench-columnar:
	$(PYTHON) benchmarks/bench_columnar.py --json BENCH_columnar.json

bench-obs-smoke:
	$(PYTHON) benchmarks/bench_obs.py --quick

bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

bench-planner-smoke:
	$(PYTHON) benchmarks/bench_planner.py --quick --json BENCH_planner.json

bench-planner:
	$(PYTHON) benchmarks/bench_planner.py --json BENCH_planner.json

bench-persistence-smoke:
	$(PYTHON) benchmarks/bench_persistence.py --quick --json BENCH_persistence.json

bench-persistence:
	$(PYTHON) benchmarks/bench_persistence.py --json BENCH_persistence.json

# The end-to-end benchmark of BENCHMARK.json (benchmarks/e2e/README.md): four
# workloads through the whole stack, every answer checked against an oracle.
# It puts src/ on its own path and writes under .e2e_work/.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# The unified runner: one schema-versioned BENCH_<name>.json per bench.
bench-all:
	$(PYTHON) benchmarks/run_all.py

bench-all-smoke:
	$(PYTHON) benchmarks/run_all.py --quick
	$(PYTHON) benchmarks/check_regression.py --results-dir .

check-regression:
	$(PYTHON) benchmarks/check_regression.py --results-dir .

update-baselines-dry:
	$(PYTHON) benchmarks/update_baselines.py --dry-run --results-dir .

# HTML API reference into docs/api/ — pdoc when installed (CI), a stdlib
# fallback renderer otherwise, so the target builds cleanly everywhere.
docs:
	$(PYTHON) docs/build_api.py --out docs/api
	$(PYTHON) docs/check_links.py

clean:
	rm -rf .pytest_cache .ruff_cache .hypothesis .benchmarks htmlcov docs/api \
		.coverage BENCH_*.json example-data/ .e2e_work/
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	find . -name "*.wal" -not -path "./.git/*" -delete
	find . -type d -name snapshots -not -path "./.git/*" -prune -exec rm -rf {} +

lint:
	$(PYTHON) -m compileall -q src benchmarks examples tests
	$(PYTHON) -c "import importlib, pkgutil, repro; names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.') if m.name.rpartition('.')[2] != '__main__']; [importlib.import_module(name) for name in names]; print('import ok:', len(names), 'modules, repro', repro.__version__)"
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src benchmarks examples tests; \
	else \
		echo "ruff not installed; skipping ruff check"; \
	fi

# Static analysis: strict on the query language / planner (see mypy.ini),
# permissive elsewhere.  mypy comes from requirements-dev.txt (CI installs
# it); skip gracefully when the local environment lacks it.
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -r requirements-dev.txt)"; \
	fi
