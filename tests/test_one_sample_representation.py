"""A trajectory owns its columns and is the one judge of what it extends.

:class:`~repro.trajectories.trajectory.Trajectory` holds its samples in the
form it was built from and derives the other once; an ``extended()``
trajectory records its base, and :meth:`~repro.trajectories.trajectory
.Trajectory.extends` is the one extension rule.  This check keeps a second
rule or a second column source from growing back: outside
``trajectories/trajectory.py``, no module may test sample identity
(``operator.is_``, ``map(is_, ...)``) or define a ``columns_for`` hook.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
TRAJECTORY = Path("trajectories") / "trajectory.py"


def _uses(tree: ast.AST):
    """``(what, line)`` of every sample-identity test and ``columns_for`` definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(alias.name == "is_" for alias in node.names):
                yield "imports operator.is_", node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "is_":
            yield "uses .is_", node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
            if any(getattr(argument, "id", None) == "is_" for argument in node.args):
                yield "calls map(is_", node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "columns_for":
                yield "defines columns_for", node.lineno


def _offenders(package: Path = PACKAGE):
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if relative == TRAJECTORY:
            continue
        for what, line in sorted(_uses(ast.parse(path.read_text())), key=lambda use: use[1]):
            offenders.append(f"{relative}:{line} {what}")
    return offenders


def test_only_the_trajectory_decides_what_extends_what():
    offenders = _offenders()
    assert not offenders, (
        "ask trajectory.extends(base) and read trajectory.columns instead of "
        f"comparing sample objects or borrowing columns by identity: {offenders}"
    )


def test_the_guard_sees_the_code_it_forbids(tmp_path):
    # The check must not pass vacuously: each forbidden form is caught,
    # and the trajectory module itself is exempt.
    fake = tmp_path / "repro"
    (fake / "persistence").mkdir(parents=True)
    (fake / "persistence" / "log.py").write_text(
        "import operator\n"
        "from operator import attrgetter, is_\n"
        "def extends(new, old):\n"
        "    return all(map(is_, old.samples, new.samples))\n"
        "def same(a, b):\n"
        "    return operator.is_(a, b)\n"
        "class Snapshot:\n"
        "    def columns_for(self, trajectory):\n"
        "        return None\n"
    )
    (fake / "trajectories").mkdir()
    (fake / "trajectories" / "trajectory.py").write_text(
        "from operator import is_\n"
        "def columns_for(trajectory):\n"
        "    return all(map(is_, trajectory.samples, trajectory.samples))\n"
    )
    assert _offenders(fake) == [
        "persistence/log.py:2 imports operator.is_",
        "persistence/log.py:4 calls map(is_",
        "persistence/log.py:6 uses .is_",
        "persistence/log.py:8 defines columns_for",
    ]
