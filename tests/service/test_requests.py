"""Validation and identity of the service's request: the planned statement."""

import pytest

from repro.query_language import PlannedStatement
from repro.service import QueryRequest


class TestStatementValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty query window"):
            PlannedStatement("q", 10.0, 5.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            PlannedStatement("q", 0.0, 10.0, variant="often")

    def test_fraction_requires_fraction_variant(self):
        with pytest.raises(ValueError, match="only meaningful"):
            PlannedStatement("q", 0.0, 10.0, variant="sometime", fraction=0.5)

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError, match="fraction"):
            PlannedStatement("q", 0.0, 10.0, variant="fraction", fraction=1.5)

    def test_nonpositive_band_width_rejected(self):
        with pytest.raises(ValueError, match="band_width"):
            PlannedStatement("q", 0.0, 10.0, band_width=0.0)

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            PlannedStatement("q", 0.0, 10.0, rank=0)

    def test_zero_length_window_allowed(self):
        statement = PlannedStatement("q", 5.0, 5.0)
        assert statement.t_start == statement.t_end == 5.0


class TestIdentity:
    def test_the_statement_is_its_own_cache_key(self):
        base = PlannedStatement("q", 0.0, 10.0)
        assert base == PlannedStatement("q", 0.0, 10.0)
        assert hash(base) == hash(PlannedStatement("q", 0.0, 10.0))
        different = [
            PlannedStatement("p", 0.0, 10.0),
            PlannedStatement("q", 1.0, 10.0),
            PlannedStatement("q", 0.0, 9.0),
            PlannedStatement("q", 0.0, 10.0, variant="always"),
            PlannedStatement("q", 0.0, 10.0, variant="fraction", fraction=0.5),
            PlannedStatement("q", 0.0, 10.0, band_width=2.0),
            PlannedStatement("q", 0.0, 10.0, rank=2),
            PlannedStatement("q", 0.0, 10.0, target="p"),
        ]
        assert len({base, *different}) == len(different) + 1

    def test_the_parsed_ast_takes_no_part_in_identity(self):
        from repro.query_language import parse_query

        ast = parse_query(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 10] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0"
        )
        with_ast = PlannedStatement("q", 0.0, 10.0, ast=ast)
        assert with_ast == PlannedStatement("q", 0.0, 10.0)
        assert hash(with_ast) == hash(PlannedStatement("q", 0.0, 10.0))

    def test_group_key_is_the_window_and_band_width(self):
        key = PlannedStatement("a", 0.0, 10.0).group_key
        assert key == (0.0, 10.0, None)
        for statement in [
            PlannedStatement("b", 0.0, 10.0),
            PlannedStatement("a", 0.0, 10.0, variant="always"),
            PlannedStatement("a", 0.0, 10.0, variant="fraction", fraction=0.5),
            PlannedStatement("a", 0.0, 10.0, rank=3, target="b"),
        ]:
            assert statement.group_key == key
        assert PlannedStatement("a", 0.0, 9.0).group_key != key
        assert PlannedStatement("a", 0.0, 10.0, band_width=2.0).group_key != key


def test_the_bench_factory_builds_a_uq3x_statement():
    request = QueryRequest("q", 0.0, 10.0, "fraction", 0.5, 2.0)
    assert request == PlannedStatement(
        "q", 0.0, 10.0, band_width=2.0, variant="fraction", fraction=0.5
    )
    assert request.fingerprint is request
    assert request.query_object == request.query_id == "q"
