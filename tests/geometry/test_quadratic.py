"""The piece quadratic has one owner, and its two root forms agree.

``repro.geometry.envelope.quadratic`` solves a crossing twice over: the
scalar ``crossing_roots`` behind ``crossing_times``, which the scalar
envelope algorithms use, and the vector ``roots`` behind the kinetic
front's batched solve.  The differential suites compare the front with the
scalar recursion, so the two forms must give the same roots bit for bit,
degenerate cases included.  The guards below grep the source tree (in the
style of ``tests/core/test_tolerances.py``) so that no other module decides
again how a quadratic is represented or solved.
"""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.tolerances import COEFF_EPSILON
from repro.geometry.envelope import quadratic

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "geometry" / "envelope" / "quadratic.py"


def _vector(da, db, dc):
    """Per triple, the vector form's roots with the NaN placeholders dropped."""
    times = quadratic.roots(
        np.asarray(da, dtype=float), np.asarray(db, dtype=float), np.asarray(dc, dtype=float)
    )[0]
    return [[root for root in column if not math.isnan(root)] for column in times.T.tolist()]


def _scalar(da, db, dc):
    return [quadratic.crossing_roots(*triple) for triple in zip(da, db, dc)]


below, above = np.nextafter(COEFF_EPSILON, 0.0), np.nextafter(COEFF_EPSILON, 1.0)
coefficient = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
degenerate = st.sampled_from(
    [0.0, COEFF_EPSILON, -COEFF_EPSILON, below, -below, above, -above]
)


@given(triples=st.lists(st.tuples(coefficient, coefficient, coefficient), min_size=1))
def test_the_two_root_forms_agree_on_random_triples(triples):
    da, db, dc = zip(*triples)
    assert _vector(da, db, dc) == _scalar(da, db, dc)


@given(
    triples=st.lists(
        st.tuples(degenerate, st.one_of(degenerate, coefficient), coefficient), min_size=1
    )
)
def test_the_two_root_forms_agree_at_the_linear_rule(triples):
    # |da| at, just below and just above COEFF_EPSILON, with db that is
    # itself degenerate or not.
    da, db, dc = zip(*triples)
    assert _vector(da, db, dc) == _scalar(da, db, dc)


@pytest.mark.parametrize(
    "da,db,dc",
    [
        (0.0, 0.0, 0.0),  # equal curves
        (0.0, 0.0, 3.0),  # parallel curves
        (1.0, 0.0, -4.0),  # db = 0, two roots
        (1.0, 0.0, 4.0),  # db = 0, none
        (1.0, 0.0, 0.0),  # db = 0, tangent at 0
        (1.0, -10.0, 25.0),  # tangent: (t - 5)²
        (2.0, 12.0, 18.0),  # tangent: 2 (t + 3)²
        (0.25, -3.0, 9.0),  # tangent: (t / 2 - 3)²
        (COEFF_EPSILON, 1.0, -2.0),
        (below, 1.0, -2.0),
        (above, 1.0, -2.0),
        (below, below, 1.0),
    ],
)
def test_the_two_root_forms_agree_on_degenerate_families(da, db, dc):
    assert _vector([da], [db], [dc]) == _scalar([da], [db], [dc])


def test_a_tangent_pair_has_one_double_root():
    assert quadratic.crossing_roots(1.0, -10.0, 25.0) == [5.0, 5.0]


def test_coefficients_from_relative_motion_at_an_offset_reference_time():
    # At t = 2 the relative point is at (1, -3) and moves with (0.5, 2).
    a, b, c = quadratic.from_relative_motion(1.0, -3.0, 0.5, 2.0, 2.0)
    for t in np.linspace(2.0, 7.0, 11):
        expected = (1.0 + 0.5 * (t - 2.0)) ** 2 + (-3.0 + 2.0 * (t - 2.0)) ** 2
        assert quadratic.value(a, b, c, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# One owner: no other module under src/repro/ knows the representation.
# ----------------------------------------------------------------------

#: ``db * db - 4.0 * da * dc`` and its spellings, as ``ast.unparse`` prints them.
_DISCRIMINANT = re.compile(r"^(\w+) \* \1 - 4(\.0*)? \* \w+ \* \w+$")

#: The shift of a quadratic from local to absolute time:
#: ``b_local - 2.0 * a * t_ref`` and ``c_local - b_local * t_ref + a * t_ref * t_ref``.
_SHIFT = re.compile(r" - 2(\.0*)? \* \w+ \* \w+$| - \w+ \* (\w+) \+ \w+ \* \2 \* \2$")


def _expressions(path: Path):
    """Every binary expression of a module, as ``ast.unparse`` prints it."""
    tree = ast.parse(path.read_text())
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.BinOp)]


def _others():
    return [path for path in sorted(SRC.rglob("*.py")) if path != OWNER]


def test_only_the_quadratic_module_reads_the_coefficient_epsilon():
    pattern = re.compile(r"\bCOEFF_EPSILON\b")
    offenders = [
        str(path.relative_to(SRC))
        for path in _others()
        if path != SRC / "core" / "tolerances.py"
        and pattern.search(
            "\n".join(line.split("#", 1)[0] for line in path.read_text().splitlines())
        )
    ]
    assert not offenders, (
        "COEFF_EPSILON decides when a crossing is linear; only "
        f"geometry/envelope/quadratic.py may use it; offenders: {offenders}"
    )


def test_no_other_module_computes_a_discriminant():
    offenders = [
        f"{path.relative_to(SRC)}: {expression}"
        for path in _others()
        for expression in _expressions(path)
        if _DISCRIMINANT.search(expression)
    ]
    assert not offenders, (
        f"solve quadratics with repro.geometry.envelope.quadratic; offenders: {offenders}"
    )


def test_no_other_module_shifts_coefficients_by_a_reference_time():
    offenders = [
        f"{path.relative_to(SRC)}: {expression}"
        for path in _others()
        for expression in _expressions(path)
        if _SHIFT.search(expression)
    ]
    assert not offenders, (
        "build coefficients with quadratic.from_relative_motion; "
        f"offenders: {offenders}"
    )


def test_the_guards_see_what_they_forbid():
    # The patterns match the module's own expressions, so a copy elsewhere
    # cannot pass them by spelling.
    expressions = _expressions(OWNER)
    assert any(_DISCRIMINANT.search(expression) for expression in expressions)
    assert sum(bool(_SHIFT.search(expression)) for expression in expressions) == 2
