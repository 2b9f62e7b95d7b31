"""Every caller runs its queries as a plan: no hand-written prepare-and-answer loop.

:mod:`repro.query_language.planner` holds the one grouping rule
(:func:`~repro.query_language.planner.plan_statements`) and the one
evaluator (:meth:`~repro.query_language.planner.QueryPlan.execute`).  The
service pool, the streaming monitor and the sharded engine build statements
and run a plan; none of them prepares contexts or extracts answers itself.
This check keeps it that way: outside ``repro/engine/`` and the planner, no
module may call ``.prepare_batch(`` or ``.prepare(``, and ``answer_of(`` is
called only by the planner and the from-scratch oracle
``streaming.reference_answer``.  A cold, unindexed ``from_mod(`` context is
built only by the two from-scratch oracles, ``streaming.reference_answer``
and the planner's ``execute_query_naive``.

A statement's identity and its grouping rule live on
:class:`~repro.query_language.planner.PlannedStatement` alone: no module
outside the planner may define a ``group_key`` or a ``fingerprint`` (in
any case, so a ``Fingerprint`` type counts too).
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
PLANNER = Path("query_language") / "planner.py"
PREPARE_METHODS = {"prepare_batch", "prepare"}
#: ``(module, enclosing function)`` pairs allowed to call ``answer_of``.
ANSWER_OF_ORACLES = {(Path("streaming") / "monitor.py", "reference_answer")}
#: ``(module, enclosing function)`` pairs allowed to call ``from_mod``.
FROM_MOD_ORACLES = ANSWER_OF_ORACLES | {
    (Path("query_language") / "executor.py", "execute_query_naive")
}
#: Names of a statement's identity and grouping rule (compared lower-cased).
IDENTITY_NAMES = {"group_key", "fingerprint"}


def _calls(tree: ast.AST):
    """``(name, is a method call, enclosing top-level def, line)`` of every call."""
    for top in ast.iter_child_nodes(tree):
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                yield node.func.attr, True, owner, node.lineno
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                yield node.func.id, False, owner, node.lineno


def _offenders(package: Path = PACKAGE):
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        planned = relative.parts[0] == "engine" or relative == PLANNER
        for name, method, owner, line in _calls(ast.parse(path.read_text())):
            if planned and name != "from_mod":
                continue
            if method and name in PREPARE_METHODS:
                offenders.append(f"{relative}:{line} calls .{name}(")
            elif name == "answer_of" and (relative, owner) not in ANSWER_OF_ORACLES:
                offenders.append(f"{relative}:{line} calls answer_of(")
            elif name == "from_mod" and (relative, owner) not in FROM_MOD_ORACLES:
                offenders.append(f"{relative}:{line} calls from_mod(")
    return offenders


def _definitions(tree: ast.AST):
    """``(name, line)`` of every def, class and assignment target."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.lineno
                    elif isinstance(name, ast.Attribute):
                        yield name.attr, name.lineno


def _identity_offenders(package: Path = PACKAGE):
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if relative == PLANNER:
            continue
        for name, line in _definitions(ast.parse(path.read_text())):
            if name.lower() in IDENTITY_NAMES:
                offenders.append(f"{relative}:{line} defines {name}")
    return offenders


def test_only_the_plan_prepares_and_extracts_answers():
    offenders = _offenders()
    assert not offenders, (
        "build PlannedStatements and run plan_statements(...).execute(engine) "
        f"instead of preparing, building contexts or extracting answers by hand: {offenders}"
    )


def test_the_guard_sees_the_calls_it_forbids(tmp_path):
    # The check must not pass vacuously: a module with a hand-written loop
    # is caught, call by call.
    fake = tmp_path / "repro"
    (fake / "service").mkdir(parents=True)
    (fake / "service" / "loop.py").write_text(
        "def serve(engine, ids):\n"
        "    batch = engine.prepare_batch(ids, 0.0, 1.0)\n"
        "    one = engine.prepare(ids[0], 0.0, 1.0)\n"
        "    return [answer_of(p.context, 'sometime') for p in batch], one\n"
        "def cold(mod, ids):\n"
        "    return [QueryContext.from_mod(mod, i, 0.0, 1.0) for i in ids]\n"
    )
    (fake / "streaming").mkdir()
    (fake / "streaming" / "monitor.py").write_text(
        "def reference_answer(mod, i):\n"
        "    return answer_of(QueryContext.from_mod(mod, i, 0.0, 1.0), 'sometime')\n"
    )
    (fake / "engine").mkdir()
    (fake / "engine" / "engine.py").write_text(
        "def build(mod, i):\n"
        "    return QueryContext.from_mod(mod, i, 0.0, 1.0)\n"
    )
    assert _offenders(fake) == [
        "engine/engine.py:2 calls from_mod(",
        "service/loop.py:2 calls .prepare_batch(",
        "service/loop.py:3 calls .prepare(",
        "service/loop.py:4 calls answer_of(",
        "service/loop.py:6 calls from_mod(",
    ]


def test_only_the_planner_defines_a_statement_identity():
    offenders = _identity_offenders()
    assert not offenders, (
        "a statement is its own identity and PlannedStatement.group_key the "
        f"one grouping rule; do not define another: {offenders}"
    )


def test_the_identity_guard_sees_the_definitions_it_forbids(tmp_path):
    # A second request type with its own identity and grouping rule is
    # caught, definition by definition; the planner's own are allowed.
    fake = tmp_path / "repro"
    (fake / "service").mkdir(parents=True)
    (fake / "service" / "requests.py").write_text(
        "Fingerprint = tuple\n"
        "class Request:\n"
        "    def group_key(self):\n"
        "        return ()\n"
        "    @property\n"
        "    def fingerprint(self):\n"
        "        return ()\n"
        "def coalesce(pending):\n"
        "    pending.group_key = ()\n"
    )
    (fake / "query_language").mkdir()
    (fake / "query_language" / "planner.py").write_text(
        "class PlannedStatement:\n"
        "    def group_key(self):\n"
        "        return ()\n"
    )
    assert _identity_offenders(fake) == [
        "service/requests.py:1 defines Fingerprint",
        "service/requests.py:3 defines group_key",
        "service/requests.py:6 defines fingerprint",
        "service/requests.py:9 defines group_key",
    ]
