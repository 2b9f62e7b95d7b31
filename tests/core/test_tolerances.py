"""Guards for the hoisted tolerance module.

``repro.core.tolerances`` is the single source of the numeric tolerances the
scalar oracles and the vectorized kernels must share — a re-duplicated
``TIME_TOLERANCE = 1e-9`` in some module would let the two sides drift and
silently void the bit-identity contract of the differential suite.  These
tests grep the source tree to keep the constants hoisted.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.core import tolerances

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: A numeric (re-)definition of a tolerance constant, e.g.
#: ``TIME_TOLERANCE = 1e-9`` or ``_COEFF_EPSILON = 0.000001``.
_REDEFINITION = re.compile(
    r"^\s*_?(TIME_TOLERANCE|COEFF_EPSILON)\s*=\s*[0-9.]", re.MULTILINE
)


#: A bare time-tolerance literal (``1e-9``, ``1.0e-09``, ...) in code.
_BARE_TIME_TOLERANCE = re.compile(r"\b1(\.0*)?e-0*9\b")

#: A numeric (re-)definition of the coverage slack under either of its names.
_SLACK_REDEFINITION = re.compile(
    r"^\s*_?(FULL_WINDOW_SLACK|FULL_COVERAGE_SLACK)\s*=\s*[0-9.]", re.MULTILINE
)


def test_values_are_the_documented_ones():
    assert tolerances.TIME_TOLERANCE == 1e-9
    assert tolerances.COEFF_EPSILON == 1e-12
    assert tolerances.FULL_WINDOW_SLACK == 1e-6
    assert tolerances.RELATIVE_JUMP == 1e-9


def test_corridor_kernel_compares_times_with_the_shared_tolerance():
    # corridor_probe_bulk decides window coverage and in-window samples by
    # time comparisons; a bare 1e-9 there would drift from TIME_TOLERANCE.
    source = (SRC / "engine" / "filtering.py").read_text()
    code = "\n".join(line.split("#", 1)[0] for line in source.splitlines())
    assert not _BARE_TIME_TOLERANCE.search(code), (
        "engine/filtering.py must compare times with "
        "repro.core.tolerances.TIME_TOLERANCE, not a bare 1e-9"
    )
    assert "TIME_TOLERANCE" in code


def test_index_maintenance_compares_times_with_the_shared_tolerance():
    # The box table's patch decides which boxes a divergence time retires; no
    # index module may use its own bare tolerance for it.
    for path in sorted((SRC / "index").glob("*.py")):
        code = "\n".join(
            line.split("#", 1)[0] for line in path.read_text().splitlines()
        )
        assert not _BARE_TIME_TOLERANCE.search(code), (
            f"index/{path.name} must compare times with "
            "repro.core.tolerances.TIME_TOLERANCE, not a bare 1e-9"
        )
    assert "TIME_TOLERANCE" in (SRC / "index" / "table.py").read_text()


def test_envelope_modules_compare_times_with_the_shared_tolerance():
    # The scalar envelope algorithms and the kinetic front must agree on
    # which critical times coincide; a bare 1e-9 in one of them could drift.
    for path in sorted((SRC / "geometry" / "envelope").glob("*.py")):
        code = "\n".join(
            line.split("#", 1)[0] for line in path.read_text().splitlines()
        )
        assert not _BARE_TIME_TOLERANCE.search(code), (
            f"geometry/envelope/{path.name} must compare times with "
            "repro.core.tolerances.TIME_TOLERANCE, not a bare 1e-9"
        )
    assert "TIME_TOLERANCE" in (SRC / "geometry" / "envelope" / "hyperbola.py").read_text()


def test_the_coverage_slack_is_defined_once():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "core" / "tolerances.py"
        and _SLACK_REDEFINITION.search(path.read_text())
    ]
    assert not offenders, (
        "FULL_WINDOW_SLACK must be imported from repro.core.tolerances, "
        f"not re-defined; offenders: {offenders}"
    )


def test_no_module_redefines_the_tolerances():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "tolerances.py" and path.parent.name == "core":
            continue
        if _REDEFINITION.search(path.read_text()):
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, (
        "tolerance constants must be imported from repro.core.tolerances, "
        f"not re-defined; offenders: {offenders}"
    )


def test_tolerances_module_stays_a_pure_leaf():
    # Any import would risk a cycle: repro.core.__init__ pulls in geometry
    # and trajectories, both of which import this module.
    source = (SRC / "core" / "tolerances.py").read_text()
    tree = ast.parse(source)
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, "repro.core.tolerances must not import anything"


def test_every_tolerance_user_imports_from_the_hoisted_module():
    # Modules mentioning the constants must get them from
    # repro.core.tolerances (directly or via a relative path to it).
    pattern = re.compile(r"\b(TIME_TOLERANCE|COEFF_EPSILON)\b")
    importer = re.compile(r"from\s+[.\w]*\btolerances\s+import")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "tolerances.py" and path.parent.name == "core":
            continue
        text = path.read_text()
        if pattern.search(text) and not importer.search(text):
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, (
        "modules using tolerance constants must import them from "
        f"repro.core.tolerances; offenders: {offenders}"
    )
