"""The serving tree stays on one side of ``repro.reference``, in one process.

Reference implementations live in :mod:`repro.reference`; only that package
and :mod:`repro.experiments` (which plots the paper's baselines) may import
it.  The first-generation band extractor there is the package's only scipy
user, so a serving process must come up without loading scipy at all.

Every query runs in the caller's process: no module under ``repro`` may
import :mod:`multiprocessing` or a process pool.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
ALLOWED = {"reference", "experiments"}
SERVING = [
    "repro",
    "repro.engine",
    "repro.service",
    "repro.streaming",
    "repro.parallel",
    "repro.query_language",
    "repro.persistence",
]


def _imported_modules(path: Path, root: Path = SRC):
    """Absolute dotted names of everything ``path`` imports, relative imports resolved."""
    package = list(path.relative_to(root).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            yield stem
            for alias in node.names:
                yield f"{stem}.{alias.name}"


def test_only_reference_and_experiments_import_repro_reference():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] in ALLOWED:
            continue
        for name in _imported_modules(path):
            if name == "repro.reference" or name.startswith("repro.reference."):
                offenders.append(f"{path.relative_to(SRC)} imports {name}")
    assert not offenders, (
        "the serving tree must not import reference implementations: "
        f"{offenders}"
    )


def _process_imports(package: Path = PACKAGE):
    """``module imports name`` for every multiprocessing or process-pool import."""
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for name in _imported_modules(path, package.parent):
            if (
                name == "multiprocessing"
                or name.startswith("multiprocessing.")
                or name == "concurrent.futures.ProcessPoolExecutor"
            ):
                offenders.append(f"{path.relative_to(package.parent)} imports {name}")
    return offenders


def test_no_module_imports_multiprocessing():
    offenders = _process_imports()
    assert not offenders, f"queries run in the caller's process: {offenders}"


def test_the_process_guard_sees_the_imports_it_forbids(tmp_path):
    fake = tmp_path / "repro"
    (fake / "parallel").mkdir(parents=True)
    (fake / "parallel" / "pool.py").write_text(
        "import multiprocessing\n"
        "from multiprocessing import shared_memory\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
    )
    assert _process_imports(fake) == [
        "repro/parallel/pool.py imports multiprocessing",
        "repro/parallel/pool.py imports multiprocessing",
        "repro/parallel/pool.py imports multiprocessing.shared_memory",
        "repro/parallel/pool.py imports concurrent.futures.ProcessPoolExecutor",
    ]


def test_serving_packages_load_without_scipy():
    script = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in SERVING)
        + "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(len(loaded), *loaded[:5])\n"
    )
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC),
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert result.stdout.split()[0] == "0", (
        f"importing the serving packages loaded scipy modules: {result.stdout}"
    )
