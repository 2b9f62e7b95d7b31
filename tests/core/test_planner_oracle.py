"""Oracle discipline: planned answers are byte-identical to the naive interpreter.

Every statement the planner serves — fused, cached, or index-filtered —
must return exactly the ids the pinned per-query interpreter
(:func:`~repro.query_language.execute_query_naive`) returns, in the same
(canonical) order.  So must every UQ3x batch of the stand-alone
:class:`~repro.parallel.ShardedEngine`, under each of its three backend
labels; the CI perf job runs this module before timing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import ShardedEngine
from repro.query_language import QueryExecutor, execute_query_naive
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from repro.workloads.scenarios import multi_query_fleet


def _statements(query_ids, t_start, t_end):
    """One statement of every AST shape over a shared window."""
    q0, q1, q2 = (str(query_ids[i % len(query_ids)]) for i in range(3))
    window = f"TIME IN [{t_start}, {t_end}]"
    return [
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND PROBABILITY_NN(T, '{q0}', TIME) > 0",
        f"SELECT T FROM MOD WHERE FORALL {window} "
        f"AND PROBABILITY_NN(T, '{q1}', TIME) > 0",
        f"SELECT T FROM MOD WHERE FRACTION {window} >= 0.25 "
        f"AND PROBABILITY_NN(T, '{q2}', TIME) > 0",
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND RANK_NN(T, '{q0}', TIME) <= 3",
        f"SELECT T FROM MOD WHERE FORALL {window} "
        f"AND RANK_NN(T, '{q1}', TIME) <= 2",
        f"SELECT T FROM MOD WHERE FRACTION {window} >= 0.3 "
        f"AND RANK_NN(T, '{q2}', TIME) <= 4",
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND PROBABILITY_NN(T, '{q0}', TIME) > 0 AND T = '{q1}'",
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND RANK_NN(T, '{q0}', TIME) <= 2 AND T = '{q2}'",
    ]


def _assert_equal_to_oracle(executor, mod, texts):
    planned = executor.execute_many(texts)
    for position, text in enumerate(texts):
        oracle = execute_query_naive(text, mod)
        assert planned[position].object_ids == oracle.object_ids, (
            f"statement {position} diverged from the naive oracle:\n{text}\n"
            f"planned={planned[position].object_ids}\n"
            f"oracle ={oracle.object_ids}"
        )


class TestSingleEngineOracle:
    @pytest.fixture(scope="class")
    def fleet(self):
        return multi_query_fleet(num_vehicles=30, num_queries=6, seed=11)

    def test_all_categories_match_the_oracle(self, fleet):
        mod, query_ids = fleet
        t_lo, t_hi = mod.common_time_span()
        executor = QueryExecutor(mod)
        _assert_equal_to_oracle(executor, mod, _statements(query_ids, t_lo, t_hi))

    def test_equality_survives_cache_reuse(self, fleet):
        mod, query_ids = fleet
        t_lo, t_hi = mod.common_time_span()
        executor = QueryExecutor(mod)
        texts = _statements(query_ids, t_lo, t_hi)
        _assert_equal_to_oracle(executor, mod, texts)
        # Second pass serves contexts from the LRU cache; answers must not move.
        _assert_equal_to_oracle(executor, mod, texts)
        assert executor.cache_info().hits > 0

    def test_equality_with_band_width_override(self, fleet):
        mod, query_ids = fleet
        t_lo, t_hi = mod.common_time_span()
        executor = QueryExecutor(mod)
        text = (
            f"SELECT T FROM MOD WHERE EXISTS TIME IN [{t_lo}, {t_hi}] "
            f"AND PROBABILITY_NN(T, '{query_ids[0]}', TIME) > 0"
        )
        for band in (0.5, 2.0, 8.0):
            planned = executor.execute(text, band_width=band)
            oracle = execute_query_naive(text, mod, band_width=band)
            assert planned.object_ids == oracle.object_ids

    def test_equality_on_partial_windows(self, fleet):
        mod, query_ids = fleet
        t_lo, t_hi = mod.common_time_span()
        executor = QueryExecutor(mod)
        quarter = (t_hi - t_lo) / 4
        for start in (t_lo, t_lo + quarter, t_lo + 2 * quarter):
            texts = _statements(query_ids, start, start + quarter)
            _assert_equal_to_oracle(executor, mod, texts)


class TestShardedOracle:
    SHAPES = {
        ("sometime", 0.0): "EXISTS",
        ("always", 0.0): "FORALL",
        ("fraction", 0.25): "FRACTION",
    }

    @pytest.fixture(scope="class")
    def world(self):
        """The fleet, its window and every UQ3x answer of the naive oracle."""
        mod, query_ids = multi_query_fleet(num_vehicles=24, num_queries=6, seed=17)
        t_lo, t_hi = mod.common_time_span()
        window = f"TIME IN [{t_lo}, {t_hi}]"
        oracle = {}
        for (variant, fraction), quantifier in self.SHAPES.items():
            bound = f" >= {fraction}" if variant == "fraction" else ""
            for query_id in query_ids:
                text = (
                    f"SELECT T FROM MOD WHERE {quantifier} {window}{bound} "
                    f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0"
                )
                oracle[variant, query_id] = execute_query_naive(text, mod).object_ids
        return mod, query_ids, (t_lo, t_hi), oracle

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sharded_batches_match_the_oracle(self, world, backend):
        mod, query_ids, (t_lo, t_hi), oracle = world
        with ShardedEngine(mod, num_shards=2, backend=backend) as sharded:
            for variant, fraction in self.SHAPES:
                answers = sharded.answer_batch(
                    query_ids, t_lo, t_hi, variant=variant, fraction=fraction
                ).answers
                for query_id in query_ids:
                    assert sorted(answers[query_id], key=str) == oracle[
                        variant, query_id
                    ], (backend, variant, query_id)


coordinate = st.floats(
    min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False
)

SAMPLE_TIMES = (0.0, 4.0, 10.0)


@st.composite
def fleets(draw, min_size=4, max_size=8):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    radius = draw(st.sampled_from([0.1, 0.3]))
    pdf = UniformDiskPDF(radius)
    trajectories = []
    for index in range(count):
        samples = [
            TrajectorySample(draw(coordinate), draw(coordinate), t)
            for t in SAMPLE_TIMES
        ]
        trajectories.append(
            UncertainTrajectory(f"o{index}", samples, radius, pdf)
        )
    return MovingObjectsDatabase(trajectories)


class TestPlannerInvariance:
    @settings(max_examples=10, deadline=None)
    @given(
        mod=fleets(),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=4.0),
            st.floats(min_value=5.0, max_value=10.0),
        ),
        rank=st.integers(min_value=1, max_value=4),
        fraction=st.sampled_from([0.0, 0.25, 0.5]),
    )
    def test_planned_answers_equal_naive_answers(
        self, mod, window, rank, fraction
    ):
        t_start, t_end = window
        query_ids = list(mod.object_ids)[:3]
        texts = []
        for query_id in query_ids:
            texts.append(
                f"SELECT T FROM MOD WHERE EXISTS TIME IN [{t_start}, {t_end}] "
                f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0"
            )
            texts.append(
                f"SELECT T FROM MOD WHERE FRACTION TIME IN [{t_start}, {t_end}] "
                f">= {fraction} AND PROBABILITY_NN(T, '{query_id}', TIME) > 0"
            )
            texts.append(
                f"SELECT T FROM MOD WHERE EXISTS TIME IN [{t_start}, {t_end}] "
                f"AND RANK_NN(T, '{query_id}', TIME) <= {rank}"
            )
        # Tiny stores filter through the store's box table too, so this runs
        # the corridor filter against the unfiltered oracle.
        executor = QueryExecutor(mod)
        _assert_equal_to_oracle(executor, mod, texts)
