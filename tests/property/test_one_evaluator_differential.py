"""Every caller of the one evaluator answers like the definitions.

The query service, the service pool, the query executor, the streaming
monitor and the sharded engine all run their queries as a
:class:`~repro.query_language.planner.QueryPlan`.  Random mixed batches —
several windows, explicit and default band widths, all three UQ3x
variants, ranks 1-3, targets, duplicate ids — go through each of them, and
every answer must ``==`` the from-scratch oracles: ``reference_answer``
(an unfiltered context per query) for UQ3x answers, and
``execute_query_naive`` (one ``QueryContext.from_mod`` per statement) for
every statement, all twelve UQ1x-UQ4x operators.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict

from hypothesis import example, given, strategies as st

from repro.engine.answers import VARIANTS
from repro.parallel import ShardedEngine
from repro.query_language import PlannedStatement, QueryExecutor, execute_query_naive
from repro.service import QueryService
from repro.service.pool import EnginePool
from repro.streaming import ContinuousMonitor, reference_answer
from repro.workloads.scenarios import multi_query_fleet

MOD, _ = multi_query_fleet(num_vehicles=10, num_queries=3, seed=5)
LO, HI = MOD.common_time_span()
WINDOWS = [
    (LO, HI),
    (LO, (LO + HI) / 2),
    (LO + (HI - LO) / 4, LO + 3 * (HI - LO) / 4),
    ((LO + HI) / 2, HI),
]
#: A few query ids, so batches repeat them.
QUERY_IDS = MOD.object_ids[:4]
QUANTIFIER = {"sometime": "EXISTS", "always": "FORALL", "fraction": "FRACTION"}


@st.composite
def statements(draw):
    variant = draw(st.sampled_from(VARIANTS))
    return {
        "query_id": draw(st.sampled_from(QUERY_IDS)),
        "window": draw(st.sampled_from(WINDOWS)),
        "band_width": draw(st.sampled_from([None, None, 1.5, 6.0])),
        "variant": variant,
        "fraction": draw(st.sampled_from([0.0, 0.3, 0.8])) if variant == "fraction" else 0.0,
        "rank": draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3))),
        "target": draw(st.one_of(st.none(), st.sampled_from(MOD.object_ids))),
    }


def text(statement) -> str:
    lo, hi = statement["window"]
    window = f"{QUANTIFIER[statement['variant']]} TIME IN [{lo!r}, {hi!r}]"
    if statement["variant"] == "fraction":
        window += f" >= {statement['fraction']!r}"
    query = statement["query_id"]
    if statement["rank"] is None:
        predicate = f"PROBABILITY_NN(T, '{query}', TIME) > 0"
    else:
        predicate = f"RANK_NN(T, '{query}', TIME) <= {statement['rank']}"
    target = "" if statement["target"] is None else f" AND T = '{statement['target']}'"
    return f"SELECT T FROM MOD WHERE {window} AND {predicate}{target}"


def expected_uq3x(statement):
    return reference_answer(
        MOD, statement["query_id"], *statement["window"], statement["variant"],
        statement["fraction"], band_width=statement["band_width"],
    )


#: The twelve operators once each: 3 variants x probability/rank x open/targeted.
#: The target is a neighbour at some time but not throughout, so targeted
#: answers are neither all empty nor all full.
TWELVE = [
    {"query_id": QUERY_IDS[0], "window": WINDOWS[0], "band_width": None,
     "variant": variant, "fraction": 0.3 if variant == "fraction" else 0.0,
     "rank": rank, "target": target}
    for variant in VARIANTS
    for rank in (None, 2)
    for target in (None, MOD.object_ids[7])
]


def planned(statement) -> PlannedStatement:
    return PlannedStatement(
        statement["query_id"], *statement["window"],
        band_width=statement["band_width"], variant=statement["variant"],
        fraction=statement["fraction"], rank=statement["rank"],
        target=statement["target"],
    )


async def served(batch):
    async with QueryService(MOD) as service:
        return await service.submit_all([planned(statement) for statement in batch])


@example(batch=TWELVE)
@given(batch=st.lists(statements(), min_size=1, max_size=8))
def test_every_caller_answers_like_the_oracles(batch):
    naive = [
        execute_query_naive(text(statement), MOD, band_width=statement["band_width"])
        for statement in batch
    ]
    # The query language: every statement shape, targets included.
    results = QueryExecutor(MOD).execute_many(
        [text(statement) for statement in batch],
        band_width=[statement["band_width"] for statement in batch],
    )
    for statement, result, expected in zip(batch, results, naive):
        assert result.object_ids == expected.object_ids, text(statement)

    # The service, on every statement as one drained batch: the member
    # ids of each answer, and a probability answer's intervals too.
    for statement, response, expected in zip(batch, asyncio.run(served(batch)), naive):
        assert sorted(response.answer, key=str) == expected.object_ids, text(statement)
        if statement["rank"] is None:
            intervals = expected_uq3x(statement)
            assert response.answer == {m: intervals[m] for m in expected.object_ids}

    # The UQ3x callers, on the batch's probability statements: one
    # coalesced group per (window, band, variant, fraction), duplicates kept.
    uq3x = [statement for statement in batch if statement["rank"] is None]
    groups = defaultdict(list)
    for statement in uq3x:
        key = (statement["window"], statement["band_width"], statement["variant"], statement["fraction"])
        groups[key].append(statement["query_id"])
    with EnginePool(MOD) as pool, ShardedEngine(MOD, 2, backend="serial") as sharded:
        for ((lo, hi), band_width, variant, fraction), query_ids in groups.items():
            options = dict(variant=variant, fraction=fraction, band_width=band_width)
            pooled = pool.answer_group(query_ids, lo, hi, **options).answers
            batched = sharded.answer_batch(query_ids, lo, hi, **options)
            assert [item.query_id for item in batched] == query_ids
            for query_id, item in zip(query_ids, batched):
                expected = reference_answer(
                    MOD, query_id, lo, hi, variant, fraction, band_width=band_width
                )
                assert pooled[query_id] == expected
                assert item.answer == expected

    # The monitor, holding the same statements as standing queries.
    monitor = ContinuousMonitor(MOD)
    for statement in uq3x:
        standing = monitor.register(
            statement["query_id"],
            window=statement["window"],
            variant=statement["variant"],
            fraction=statement["fraction"] if statement["variant"] == "fraction" else None,
            band_width=statement["band_width"],
        )
        assert monitor.answers(standing.key) == expected_uq3x(statement)
    # A batch that changes nothing re-serves every answer unchanged.
    report = monitor.apply()
    assert report.events == ()
    for standing, statement in zip(monitor.standing_queries, uq3x):
        assert monitor.answers(standing.key) == expected_uq3x(statement)
