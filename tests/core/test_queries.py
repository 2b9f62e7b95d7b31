"""Tests for the Category 1–4 query variants on the QueryContext."""

import numpy as np
import pytest

from repro.core.queries import QueryContext
from repro.reference.naive import naive_uq11_sometime, naive_uq13_fraction
from repro.trajectories.mod import MovingObjectsDatabase
from repro.uncertainty.nn_probability import monte_carlo_nn_probabilities
from repro.uncertainty.within_distance import effective_pruning_radius

from ..conftest import make_linear_function, random_functions, straight_trajectory

BAND = 2.0


@pytest.fixture
def context():
    """Known scenario over [0, 10] with band width 2:

    * ``leader``   — constant distance 1 (owns the envelope throughout);
    * ``runnerup`` — constant distance 2 (always within the band, rank 2);
    * ``dipping``  — swoops from far away to distance ~2.5 at t=5 and back;
    * ``hopeless`` — constant distance 50 (never relevant).
    """
    functions = [
        make_linear_function("leader", 1.0, 0.0, 0.0, 0.0),
        make_linear_function("runnerup", 2.0, 0.0, 0.0, 0.0),
        make_linear_function("dipping", -10.0, 2.5, 2.0, 0.0),
        make_linear_function("hopeless", 50.0, 0.0, 0.0, 0.0),
    ]
    return QueryContext.build(functions, "query", 0.0, 10.0, BAND)


class TestContextConstruction:
    def test_validation(self):
        functions = [make_linear_function("a", 1.0, 0.0, 0.0, 0.0)]
        with pytest.raises(ValueError):
            QueryContext.build([], "q", 0.0, 10.0, BAND)
        with pytest.raises(ValueError):
            QueryContext.build(functions, "q", 10.0, 0.0, BAND)
        with pytest.raises(ValueError):
            QueryContext.build(functions, "q", 0.0, 10.0, -1.0)

    def test_duplicate_ids_rejected(self):
        functions = [
            make_linear_function("a", 1.0, 0.0, 0.0, 0.0),
            make_linear_function("a", 2.0, 0.0, 0.0, 0.0),
        ]
        with pytest.raises(ValueError):
            QueryContext.build(functions, "q", 0.0, 10.0, BAND)

    def test_unknown_candidate_raises(self, context):
        with pytest.raises(KeyError):
            context.uq11_sometime("unknown")

    def test_query_itself_is_not_a_candidate(self, context):
        with pytest.raises(KeyError):
            context.uq11_sometime("query")


class TestCategory1:
    def test_uq11_sometime(self, context):
        assert context.uq11_sometime("leader")
        assert context.uq11_sometime("runnerup")
        assert context.uq11_sometime("dipping")
        assert not context.uq11_sometime("hopeless")

    def test_uq12_always(self, context):
        assert context.uq12_always("leader")
        assert context.uq12_always("runnerup")
        assert not context.uq12_always("dipping")
        assert not context.uq12_always("hopeless")

    def test_uq12_implies_uq11(self, rng):
        functions = random_functions(12, rng)
        context = QueryContext.build(functions, "q", 0.0, 10.0, BAND)
        for function in functions:
            if context.uq12_always(function.object_id):
                assert context.uq11_sometime(function.object_id)

    def test_uq13_fraction_bounds_and_values(self, context):
        assert context.uq13_fraction("leader") == pytest.approx(1.0, abs=1e-6)
        assert context.uq13_fraction("hopeless") == 0.0
        fraction = context.uq13_fraction("dipping")
        assert 0.0 < fraction < 1.0

    def test_uq13_at_least(self, context):
        assert context.uq13_at_least("leader", 0.99)
        assert not context.uq13_at_least("hopeless", 0.01)
        assert context.uq13_at_least("dipping", 0.05)
        with pytest.raises(ValueError):
            context.uq13_at_least("leader", 1.5)

    def test_nonzero_probability_intervals(self, context):
        intervals = context.nonzero_probability_intervals("dipping")
        assert intervals
        assert all(0.0 <= start <= end <= 10.0 for start, end in intervals)
        assert context.nonzero_probability_intervals("hopeless") == []


class TestCategory2:
    def test_rank1_is_the_envelope_owner(self, context):
        assert context.uq21_rank_sometime("leader", 1)
        assert context.uq22_rank_always("leader", 1)
        assert not context.uq21_rank_sometime("runnerup", 1)

    def test_rank2_includes_runnerup(self, context):
        assert context.uq21_rank_sometime("runnerup", 2)
        assert context.uq22_rank_always("runnerup", 2)

    def test_rank_k_monotone_in_k(self, context):
        for object_id in ("leader", "runnerup", "dipping"):
            for k in (1, 2, 3):
                if context.uq21_rank_sometime(object_id, k):
                    assert context.uq21_rank_sometime(object_id, k + 1)

    def test_rank_fraction_bounds(self, context):
        assert context.uq23_rank_fraction("leader", 1) == pytest.approx(1.0, abs=1e-6)
        fraction = context.uq23_rank_fraction("dipping", 3)
        assert 0.0 <= fraction <= 1.0

    def test_uq23_at_least(self, context):
        assert context.uq23_rank_at_least("runnerup", 2, 0.9)
        with pytest.raises(ValueError):
            context.uq23_rank_at_least("runnerup", 2, -0.5)

    def test_rank_validation(self, context):
        with pytest.raises(ValueError):
            context.uq21_rank_sometime("leader", 0)
        with pytest.raises(KeyError):
            context.uq21_rank_sometime("query", 1)


class TestCategory3:
    def test_uq31_equals_band_survivors(self, context):
        assert set(context.uq31_all_sometime()) == {"leader", "runnerup", "dipping"}

    def test_uq32_subset_of_uq31(self, context):
        always = set(context.uq32_all_always())
        sometime = set(context.uq31_all_sometime())
        assert always <= sometime
        assert always == {"leader", "runnerup"}

    def test_uq33_interpolates_between_them(self, context):
        strict = set(context.uq33_all_at_least(0.999))
        loose = set(context.uq33_all_at_least(0.0))
        assert strict == set(context.uq32_all_always())
        assert loose == set(context.uq31_all_sometime())
        middle = set(context.uq33_all_at_least(0.3))
        assert strict <= middle <= loose

    def test_uq33_validation(self, context):
        with pytest.raises(ValueError):
            context.uq33_all_at_least(2.0)


class TestCategory4:
    def test_uq41_rank1_is_envelope_owner_set(self, context):
        assert set(context.uq41_all_rank_sometime(1)) == {"leader"}

    def test_uq41_rank2(self, context):
        assert set(context.uq41_all_rank_sometime(2)) == {"leader", "runnerup"}

    def test_uq42_always(self, context):
        assert set(context.uq42_all_rank_always(2)) == {"leader", "runnerup"}

    def test_uq43_at_least(self, context):
        assert set(context.uq43_all_rank_at_least(2, 0.5)) == {"leader", "runnerup"}

    def test_rank_validation(self, context):
        with pytest.raises(ValueError):
            context.uq41_all_rank_sometime(0)


class TestFixedTimeVariants:
    def test_candidates_at(self, context):
        at_five = context.candidates_at(5.0)
        assert "leader" in at_five and "runnerup" in at_five
        assert "hopeless" not in at_five
        assert "dipping" in at_five  # its dip reaches within the band at t=5

    def test_candidates_at_start(self, context):
        at_zero = context.candidates_at(0.0)
        assert "dipping" not in at_zero

    def test_ranking_at(self, context):
        assert context.ranking_at(5.0, 2) == ["leader", "runnerup"]

    def test_time_outside_window_rejected(self, context):
        with pytest.raises(ValueError):
            context.candidates_at(11.0)
        with pytest.raises(ValueError):
            context.ranking_at(-1.0, 2)


class TestContextArtefacts:
    def test_pruning_statistics(self, context):
        stats = context.pruning_statistics()
        assert stats.total_candidates == 4
        assert stats.surviving_candidates == 3

    def test_ipac_tree_cached_and_consistent(self, context):
        tree = context.ipac_tree()
        assert tree is context.ipac_tree()
        assert tree.ranking_at(5.0)[0] == "leader"
        bounded = context.ipac_tree(max_levels=1)
        assert bounded.depth() <= 1

    def test_level_envelopes_deepening(self, context):
        shallow = context.level_envelopes(1)
        deep = context.level_envelopes(3)
        assert len(deep) >= len(shallow)


class TestNaiveBaselines:
    def test_naive_matches_envelope_based_uq11(self, rng):
        functions = random_functions(10, rng)
        context = QueryContext.build(functions, "q", 0.0, 10.0, BAND)
        for function in functions:
            assert naive_uq11_sometime(
                functions, function.object_id, 0.0, 10.0, BAND
            ) == context.uq11_sometime(function.object_id)

    def test_naive_matches_envelope_based_uq13(self, rng):
        functions = random_functions(8, rng)
        context = QueryContext.build(functions, "q", 0.0, 10.0, BAND)
        for function in functions[:4]:
            naive = naive_uq13_fraction(functions, function.object_id, 0.0, 10.0, BAND)
            fast = context.uq13_fraction(function.object_id)
            assert naive == pytest.approx(fast, abs=1e-3)

    def test_naive_unknown_target_raises(self, crossing_functions):
        with pytest.raises(KeyError):
            naive_uq11_sometime(crossing_functions, "missing", 0.0, 10.0, BAND)


class TestMixedRadii:
    """The store's default band serves candidates of different radii.

    A wide envelope owner (r = 5, 10 away) leaves room for a narrow object
    11 away to be nearer in many draws: the farthest a competitor can be is
    bounded by the owner's reach, not by the smallest reach in the store,
    so a band of ``reach_i + min_j reach_j`` would prune it.
    """

    @pytest.fixture
    def mod(self):
        return MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0), radius=0.01),
                straight_trajectory("owner", (0.0, 10.0), (30.0, 10.0), radius=5.0),
                straight_trajectory("near", (0.0, -11.0), (30.0, -11.0), radius=0.1),
                straight_trajectory("far", (0.0, -12.0), (30.0, -12.0), radius=0.1),
            ]
        )

    def test_uq31_keeps_every_monte_carlo_winner(self, mod):
        answer = set(QueryContext.from_mod(mod, "q", 0.0, 60.0).uq31_all_sometime())
        winners = _monte_carlo_winners(mod, "q", 30.0)
        assert "near" in winners
        assert winners <= answer

    def test_default_band_covers_the_widest_pdf_pair(self, mod):
        query_pdf = mod.get("q").pdf
        widest = max(
            effective_pruning_radius(trajectory.pdf, query_pdf)
            for trajectory in mod
            if trajectory.object_id != "q"
        )
        assert mod.default_band_width("q") == pytest.approx(2.0 * (5.0 + 0.01))
        assert mod.default_band_width("q") == pytest.approx(widest)
        assert QueryContext.from_mod(mod, "q", 0.0, 60.0).band_width == pytest.approx(widest)

    def test_equal_radii_reduce_to_4r(self):
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("a", (0.0, 1.0), (30.0, 1.0)),
                straight_trajectory("b", (0.0, -3.5), (30.0, -3.5)),
            ]
        )
        assert mod.default_band_width("q") == pytest.approx(4 * 0.5)

    def test_a_wide_radius_rescues_a_borderline_candidate(self):
        # With everyone at r = 0.25 the candidate 3.5 away is pruned: its
        # nearest possible position, 3.0 away, cannot beat the leader's
        # farthest, 1.5.  A large radius lets its disk reach inside the
        # leader's ring, and the default band widens with it.
        def world(loose_radius):
            return MovingObjectsDatabase(
                [
                    straight_trajectory("q", (0.0, 0.0), (30.0, 0.0), radius=0.25),
                    straight_trajectory("tight", (0.0, 1.0), (30.0, 1.0), radius=0.25),
                    straight_trajectory(
                        "loose", (0.0, -3.5), (30.0, -3.5), radius=loose_radius
                    ),
                    straight_trajectory("distant", (0.0, 8.0), (30.0, 8.0), radius=0.25),
                ]
            )

        narrow = QueryContext.from_mod(world(0.25), "q", 0.0, 60.0)
        assert not narrow.uq11_sometime("loose")
        wide = QueryContext.from_mod(world(2.25), "q", 0.0, 60.0)
        assert wide.uq11_sometime("loose")
        assert wide.uq12_always("loose")
        assert "distant" not in wide.uq31_all_sometime()

    def test_category3_variants_nest(self, mod):
        context = QueryContext.from_mod(mod, "q", 0.0, 60.0)
        sometime = set(context.uq31_all_sometime())
        always = set(context.uq32_all_always())
        half = set(context.uq33_all_at_least(0.5))
        assert always <= half <= sometime
        stats = context.pruning_statistics()
        assert stats.total_candidates == 3
        assert stats.surviving_candidates == len(sometime)
        with pytest.raises(ValueError):
            context.uq33_all_at_least(1.5)

    def test_an_object_beyond_the_band_is_pruned_and_never_wins(self, mod):
        # 25 away, the remote object is 15 beyond the owner: wider than the
        # 10.02 band and than the owner's farthest possible distance.
        mod.add(straight_trajectory("remote", (0.0, -25.0), (30.0, -25.0), radius=0.1))
        assert "remote" not in QueryContext.from_mod(mod, "q", 0.0, 60.0).uq31_all_sometime()
        assert "remote" not in _monte_carlo_winners(mod, "q", 30.0)


def _monte_carlo_winners(mod, query_id, t):
    """Ids that win at least one of 20k seeded draws at time ``t``."""
    query = mod.get(query_id)
    others = [trajectory for trajectory in mod if trajectory.object_id != query_id]
    won = monte_carlo_nn_probabilities(
        [trajectory.object_id for trajectory in others],
        np.array([trajectory.position_at(t).as_tuple() for trajectory in others]),
        [trajectory.pdf for trajectory in others],
        np.array(query.position_at(t).as_tuple()),
        query.pdf,
        samples=20_000,
        rng=np.random.default_rng(48),
    )
    return {object_id for object_id, share in won.items() if share > 0.0}
