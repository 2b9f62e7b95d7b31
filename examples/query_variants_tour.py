"""A tour of all query variants of Section 4 on a convoy scenario.

The convoy scenario makes rank-k queries interesting: several vehicles stay
within a fraction of a mile of each other for the whole hour, so many of them
have non-zero probability of being the nearest neighbor simultaneously.  The
script walks through Categories 1-4, the fixed-time variants, and the
threshold extension, printing each question and its answer.

Run with::

    python examples/query_variants_tour.py
"""

from __future__ import annotations

from _support import scaled
from repro import QueryContext
from repro.core.thresholds import continuous_threshold_nn_query
from repro.workloads.scenarios import convoy_with_stragglers


def show(question: str, answer: object) -> None:
    print(f"  {question}\n    -> {answer}")


def main() -> None:
    mod = convoy_with_stragglers(convoy_size=5, straggler_count=scaled(6, 3))
    query_vehicle = "convoy-2"  # the middle of the formation
    context = QueryContext.from_mod(mod, query_vehicle, 0.0, 60.0)
    target = "convoy-1"
    print(f"convoy of 5 plus 6 stragglers; query vehicle: {query_vehicle}\n")

    print("Category 1 — one trajectory, non-zero NN probability (UQ11/UQ12/UQ13):")
    show(
        f"can {target} ever be the nearest neighbor?",
        context.uq11_sometime(target),
    )
    show(
        f"can {target} be the nearest neighbor at every instant?",
        context.uq12_always(target),
    )
    show(
        f"for what fraction of the hour is {target} a candidate?",
        f"{context.uq13_fraction(target):.2f}",
    )
    show(
        f"is {target} a candidate at least 50% of the time?",
        context.uq13_at_least(target, 0.5),
    )

    print("\nCategory 2 — one trajectory, rank-k (UQ21/UQ22/UQ23):")
    show(
        f"is {target} ever among the top-2 candidates?",
        context.uq21_rank_sometime(target, 2),
    )
    show(
        f"is {target} always among the top-3 candidates?",
        context.uq22_rank_always(target, 3),
    )
    show(
        f"what fraction of the hour is {target} in the top-2?",
        f"{context.uq23_rank_fraction(target, 2):.2f}",
    )

    print("\nCategory 3 — whole database, non-zero NN probability (UQ31/UQ32/UQ33):")
    show("who can ever be the nearest neighbor?", context.uq31_all_sometime())
    show("who is a candidate at every instant?", context.uq32_all_always())
    show(
        "who is a candidate at least 80% of the time?",
        context.uq33_all_at_least(0.8),
    )

    print("\nCategory 4 — whole database, rank-k:")
    show("who ever makes the top-2?", context.uq41_all_rank_sometime(2))
    show("who is always in the top-3?", context.uq42_all_rank_always(3))
    show("who is in the top-2 at least half the time?", context.uq43_all_rank_at_least(2, 0.5))

    print("\nFixed-time variants:")
    show("candidates at t = 30 min", context.candidates_at(30.0))
    show("top-3 ranking at t = 30 min", context.ranking_at(30.0, 3))

    print("\nThe answer structure (IPAC-NN tree):")
    tree = context.ipac_tree(max_levels=3)
    show("number of nodes / depth", f"{tree.size()} / {tree.depth()}")
    show("ranking encoded by the tree at t = 30", tree.ranking_at(30.0)[:3])

    print("\nExtension (paper's future work) — continuous threshold query:")
    results = continuous_threshold_nn_query(
        context, mod, probability_threshold=0.3, min_time_fraction=0.5, time_samples=5
    )
    show(
        "who has > 30% NN probability at least half the time?",
        [result.object_id for result in results],
    )


if __name__ == "__main__":
    main()
