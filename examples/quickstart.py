"""Quickstart: continuous probabilistic NN queries in a few lines.

Generates the paper's random-waypoint workload, runs a continuous
probabilistic NN query for one of the moving objects over the full hour, and
prints the pieces of the answer: who can be the nearest neighbor and when,
the IPAC-NN tree, and the rank-k / fixed-time variants.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from _support import scaled
from repro import QueryContext, RandomWaypointConfig, generate_mod


def main() -> None:
    # 1. Build a Moving Objects Database with the paper's synthetic workload:
    #    a 40x40-mile region, speeds of 15-60 mph, one hour of motion, and an
    #    uncertainty radius of half a mile around every expected location.
    config = RandomWaypointConfig(
        num_objects=scaled(60, 12), uncertainty_radius=0.5, seed=11
    )
    mod = generate_mod(config)
    print(f"MOD holds {len(mod)} uncertain trajectories over {config.duration_minutes} minutes")

    # 2. Pose the continuous probabilistic NN query for object 0 over the hour.
    context = QueryContext.from_mod(mod, query_id=0, t_start=0.0, t_end=60.0)
    print(f"pruning band width (4r): {context.band_width:.2f} miles")

    # 3. Category 3 (whole-database) answers.
    sometime = context.uq31_all_sometime()
    always = context.uq32_all_always()
    half_time = context.uq33_all_at_least(0.5)
    print(f"objects with non-zero NN probability at some time : {len(sometime)}")
    print(f"objects with non-zero NN probability all the time  : {always}")
    print(f"objects with non-zero NN probability >= 50% of time: {half_time}")

    stats = context.pruning_statistics()
    print(
        f"band pruning removed {stats.pruned_candidates}/{stats.total_candidates} "
        f"candidates ({stats.pruning_ratio:.0%})"
    )

    # 4. Category 1 / 2 answers for a single candidate.
    candidate = sometime[0]
    print(f"\ncandidate {candidate}:")
    print(f"  non-zero NN probability sometime : {context.uq11_sometime(candidate)}")
    print(f"  non-zero NN probability always   : {context.uq12_always(candidate)}")
    print(f"  fraction of time with probability: {context.uq13_fraction(candidate):.2f}")
    print(f"  within the top-2 ranking sometime: {context.uq21_rank_sometime(candidate, 2)}")

    # 5. The IPAC-NN tree: the time-parameterized, ranked answer.
    tree = context.ipac_tree(max_levels=3)
    print(f"\nIPAC-NN tree: {tree.size()} nodes, depth {tree.depth()}")
    print("level-1 intervals (who is the most-probable NN, and when):")
    for node in tree.nodes_at_level(1):
        print(f"  [{node.t_start:5.1f}, {node.t_end:5.1f}] min -> object {node.object_id}")

    # 6. Fixed-time variants.
    print(f"\ntop-3 ranking at t = 30 min: {context.ranking_at(30.0, 3)}")
    print(f"candidates at t = 30 min   : {context.candidates_at(30.0)}")


if __name__ == "__main__":
    main()
