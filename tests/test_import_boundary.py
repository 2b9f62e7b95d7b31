"""The serving tree stays on one side of ``repro.reference``.

Reference implementations live in :mod:`repro.reference`; only that package
and :mod:`repro.experiments` (which plots the paper's baselines) may import
it.  The first-generation band extractor there is the package's only scipy
user, so a serving process — and every spawned shard worker — must come up
without loading scipy at all.
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


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports, relative imports resolved."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
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
