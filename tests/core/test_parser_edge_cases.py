"""Parser error paths and edge cases the grammar promises to enforce.

The parser had no dedicated negative coverage — only a handful of
malformed strings in ``test_query_language.py``.  This module pins every
rule: quantifier variants, token-level failures, targeted (Category 1/2)
vs open (Category 3/4) forms, and band-width override plumbing through
the planner down to the prepared group.
"""

import pytest

from repro.query_language import (
    QueryExecutor,
    QueryLanguageError,
    Quantifier,
    compile_queries,
    execute_query_naive,
    parse_query,
    tokenize,
)
from repro.trajectories.mod import MovingObjectsDatabase

from ..conftest import straight_trajectory

OPEN_PROBABILITY = (
    "SELECT T FROM MOD WHERE {quantifier} "
    "AND PROBABILITY_NN(T, 'q', TIME) > 0"
)


class TestQuantifierVariants:
    @pytest.mark.parametrize(
        "clause, quantifier, fraction",
        [
            ("EXISTS TIME IN [0, 60]", Quantifier.EXISTS, None),
            ("FORALL TIME IN [0, 60]", Quantifier.FORALL, None),
            ("FRACTION TIME IN [0, 60] >= 0.5", Quantifier.FRACTION, 0.5),
            ("fraction time in [0, 60] >= 0", Quantifier.FRACTION, 0.0),
            ("FRACTION TIME IN [0, 60] >= 1", Quantifier.FRACTION, 1.0),
            ("FRACTION TIME IN [0, 60] >= 2.5e-1", Quantifier.FRACTION, 0.25),
        ],
    )
    def test_quantifier_forms_parse(self, clause, quantifier, fraction):
        ast = parse_query(OPEN_PROBABILITY.format(quantifier=clause))
        assert ast.quantifier is quantifier
        if fraction is None:
            assert ast.min_fraction is None
        else:
            assert ast.min_fraction == pytest.approx(fraction)

    def test_fraction_without_bound_rejected(self):
        with pytest.raises(QueryLanguageError):
            parse_query(OPEN_PROBABILITY.format(quantifier="FRACTION TIME IN [0, 60]"))

    def test_exists_with_stray_bound_rejected(self):
        with pytest.raises(QueryLanguageError):
            parse_query(
                OPEN_PROBABILITY.format(quantifier="EXISTS TIME IN [0, 60] >= 0.5")
            )

    def test_unknown_quantifier_rejected(self):
        with pytest.raises(QueryLanguageError):
            parse_query(OPEN_PROBABILITY.format(quantifier="SOMETIMES TIME IN [0, 60]"))


class TestMalformedTokens:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "SELECT",
            "SELECT T FROM MOD",
            "SELECT T FROM MOD WHERE",
            "SELECT T FROM MOD WHERE EXISTS TIME IN 0, 60 "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) >= 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0.1",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) <= 1.5",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) <= -2",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) > 2",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND NEAREST(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN('q', TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, [], TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = ",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T 'a'",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'a' extra",
        ],
    )
    def test_rejected_with_query_language_error(self, text):
        with pytest.raises(QueryLanguageError):
            parse_query(text)

    def test_reversed_window_rejected_at_parse_time(self):
        with pytest.raises(QueryLanguageError):
            parse_query(
                "SELECT T FROM MOD WHERE EXISTS TIME IN [60, 0] "
                "AND PROBABILITY_NN(T, 'q', TIME) > 0"
            )

    def test_lexical_errors_carry_positions(self):
        with pytest.raises(QueryLanguageError) as excinfo:
            tokenize("SELECT ? FROM MOD")
        assert "position" in str(excinfo.value)

    def test_parse_errors_carry_positions(self):
        with pytest.raises(QueryLanguageError) as excinfo:
            parse_query("SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] OR x")
        assert "position" in str(excinfo.value)


class TestTargetedVersusOpenForms:
    def test_open_probability_forms_are_category_3(self):
        for clause in (
            "EXISTS TIME IN [0, 60]",
            "FORALL TIME IN [0, 60]",
            "FRACTION TIME IN [0, 60] >= 0.5",
        ):
            ast = parse_query(OPEN_PROBABILITY.format(quantifier=clause))
            assert ast.category == 3
            assert ast.target_object is None

    def test_open_rank_forms_are_category_4(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) <= 2"
        )
        assert ast.category == 4

    def test_targeted_probability_is_category_1(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'a'"
        )
        assert ast.category == 1
        assert ast.target_object == "a"

    def test_targeted_rank_is_category_2(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) <= 2 AND T = 42"
        )
        assert ast.category == 2
        assert ast.target_object == 42

    def test_quoted_and_bare_target_literals(self):
        quoted = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            'AND PROBABILITY_NN(T, "q", TIME) > 0 AND T = "veh-3"'
        )
        bare = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, q7, TIME) > 0 AND T = other_id"
        )
        assert quoted.target_object == "veh-3"
        assert quoted.predicate.query_object == "q"
        assert bare.predicate.query_object == "q7"
        assert bare.target_object == "other_id"


class TestBandWidthPlumbing:
    @pytest.fixture
    def mod(self) -> MovingObjectsDatabase:
        return MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("near", (0.0, 2.0), (30.0, 2.0)),
                straight_trajectory("mid", (0.0, 8.0), (30.0, 8.0)),
                straight_trajectory("far", (0.0, 30.0), (30.0, 30.0)),
            ]
        )

    TEXT = (
        "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
        "AND PROBABILITY_NN(T, 'q', TIME) > 0"
    )

    def test_override_reaches_the_plan_group(self, mod):
        plan = compile_queries([parse_query(self.TEXT)], mod, band_width=3.5)
        assert plan.groups[0].band_width == 3.5
        assert "3.5" in plan.explain()

    def test_default_band_renders_as_4r(self, mod):
        plan = compile_queries([parse_query(self.TEXT)], mod)
        assert plan.groups[0].band_width is None
        assert "default(4r)" in plan.explain()

    def test_band_width_changes_the_answer_set_consistently(self, mod):
        executor = QueryExecutor(mod)
        narrow = executor.execute(self.TEXT, band_width=0.5)
        wide = executor.execute(self.TEXT, band_width=12.0)
        assert set(narrow.object_ids) <= set(wide.object_ids)
        assert "mid" in wide.object_ids
        for band in (0.5, 12.0):
            planned = executor.execute(self.TEXT, band_width=band)
            oracle = execute_query_naive(self.TEXT, mod, band_width=band)
            assert planned.object_ids == oracle.object_ids
