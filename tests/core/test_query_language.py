"""Tests for the SQL-style query language front-end."""

import pytest

from repro.query_language import (
    ContinuousNNQueryAST,
    NNPredicate,
    Quantifier,
    QueryExecutor,
    QueryLanguageError,
    TimeWindow,
    parse_query,
    tokenize,
)
from repro.trajectories.mod import MovingObjectsDatabase

from ..conftest import straight_trajectory


class TestTokenizer:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select t from mod where exists time in [0, 1]")
        kinds = [token.kind for token in tokens]
        assert kinds[:5] == ["SELECT", "T", "FROM", "MOD", "WHERE"]

    def test_numbers_and_strings(self):
        tokens = tokenize("[0.5, 12] 'query-7' obj_3")
        kinds = [token.kind for token in tokens]
        assert kinds == ["LBRACKET", "NUMBER", "COMMA", "NUMBER", "RBRACKET", "STRING", "IDENT"]
        assert tokens[5].text == "query-7"

    def test_two_character_operators(self):
        tokens = tokenize(">= <= > <")
        assert [token.kind for token in tokens] == ["GE", "LE", "GT", "LT"]

    def test_unterminated_string_rejected(self):
        with pytest.raises(QueryLanguageError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_rejected(self):
        with pytest.raises(QueryLanguageError):
            tokenize("SELECT @ FROM MOD")


class TestParser:
    def test_category3_existential(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0"
        )
        assert ast.quantifier is Quantifier.EXISTS
        assert ast.window == TimeWindow(0.0, 60.0)
        assert ast.predicate == NNPredicate("q")
        assert ast.target_object is None
        assert ast.category == 3

    def test_category1_with_target(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE FORALL TIME IN [10, 20] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'a'"
        )
        assert ast.quantifier is Quantifier.FORALL
        assert ast.target_object == "a"
        assert ast.category == 1

    def test_category4_rank_fraction(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 60] >= 0.5 "
            "AND RANK_NN(T, 'q', TIME) <= 2"
        )
        assert ast.quantifier is Quantifier.FRACTION
        assert ast.min_fraction == pytest.approx(0.5)
        assert ast.predicate.max_rank == 2
        assert ast.category == 4

    def test_category2(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) <= 3 AND T = 'b'"
        )
        assert ast.category == 2

    def test_numeric_object_ids_are_coerced(self):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 7, TIME) > 0"
        )
        assert ast.predicate.query_object == 7

    def test_malformed_queries_rejected(self):
        bad_queries = [
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [60, 0] AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE SOMETIMES TIME IN [0, 60] AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROBABILITY_NN(T, 'q', TIME) > 0.5",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] AND RANK_NN(T, 'q', TIME) <= 0",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] AND RANK_NN(T, 'q', TIME) <= 2 trailing",
            "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 60] AND PROBABILITY_NN(T, 'q', TIME) > 0",
        ]
        for text in bad_queries:
            with pytest.raises(QueryLanguageError):
                parse_query(text)

    def test_fraction_bound_validation(self):
        with pytest.raises((QueryLanguageError, ValueError)):
            parse_query(
                "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 60] >= 1.5 "
                "AND PROBABILITY_NN(T, 'q', TIME) > 0"
            )


class TestExecutor:
    @pytest.fixture
    def mod(self) -> MovingObjectsDatabase:
        return MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("near", (0.0, 2.0), (30.0, 2.0)),
                straight_trajectory("crossing", (15.0, -20.0), (15.0, 20.0)),
                straight_trajectory("far", (0.0, 30.0), (30.0, 30.0)),
            ]
        )

    def test_category3_exists(self, mod):
        result = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
        )
        assert set(result.object_ids) == {"near", "crossing"}

    def test_category3_forall(self, mod):
        result = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE FORALL TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
        )
        assert result.object_ids == ["near"]

    def test_category1_target(self, mod):
        holds = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'crossing'",
        )
        fails = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE FORALL TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'crossing'",
        )
        assert holds.holds
        assert not fails.holds

    def test_category4_rank(self, mod):
        result = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND RANK_NN(T, 'q', TIME) <= 2",
        )
        assert "near" in result.object_ids and "crossing" in result.object_ids

    def test_fraction_quantifier(self, mod):
        result = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 60] >= 0.9 "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
        )
        assert result.object_ids == ["near"]

    def test_numeric_id_resolution(self):
        from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

        mod = MovingObjectsDatabase(
            generate_trajectories(RandomWaypointConfig(num_objects=8, seed=3))
        )
        result = QueryExecutor(mod).execute(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 0, TIME) > 0",
        )
        assert result.object_ids  # somebody can always be the NN

    def test_unknown_query_object_raises(self, mod):
        with pytest.raises(KeyError):
            QueryExecutor(mod).execute(
                "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
                "AND PROBABILITY_NN(T, 'ghost', TIME) > 0",
            )

    def test_executing_a_pre_parsed_ast(self, mod):
        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0"
        )
        assert isinstance(ast, ContinuousNNQueryAST)
        result = QueryExecutor(mod).execute(ast)
        assert set(result.object_ids) == {"near", "crossing"}
