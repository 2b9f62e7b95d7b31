"""Fleet monitoring: which vans can come nearest to a given van, and when.

Scenario (the paper's motivating LBS setting): a delivery fleet leaves a
depot, visits stops, and returns.  Dispatch wants to know, for one van of
interest, which other vans could be its nearest neighbor at any point of the
shift — e.g. to plan package hand-offs or to reason about coverage — while
accounting for GPS uncertainty.

**Batch vs streaming.**  Everything here is *batch* analysis: the shift's
trajectories are already recorded, queries are prepared once, and a
dashboard refresh at most re-reads a cache.  When the fleet is still on the
road — positions arriving as update streams, standing queries that must stay
current — use the streaming layer instead: ``repro.streaming``'s
``ContinuousMonitor`` extends trajectories in place, patches the index
incrementally, re-evaluates only the queries a change can affect, and pushes
answer *deltas* to subscribers.  See ``examples/live_dispatch.py`` for that
walkthrough over the same kind of fleet.

Run with::

    python examples/fleet_monitoring.py
"""

from __future__ import annotations

from _support import scaled
from repro import QueryContext, QueryEngine
from repro.core.thresholds import probability_timeline
from repro.workloads.scenarios import delivery_fleet, multi_query_fleet


def main() -> None:
    # A 12-van fleet with 4 stops each over a 2-hour shift; GPS uncertainty
    # of 0.3 miles around every reported position.
    mod = delivery_fleet(
        num_vans=scaled(12, 6), num_stops=4, shift_minutes=120.0,
        uncertainty_radius=0.3,
    )
    van_of_interest = "van-3"
    window = mod.common_time_span()
    print(f"fleet of {len(mod)} vans, shift {window[0]:.0f}-{window[1]:.0f} minutes")
    print(f"query van: {van_of_interest}\n")

    context = QueryContext.from_mod(mod, van_of_interest, window[0], window[1])

    # Which vans can ever be the nearest neighbor (non-zero probability)?
    candidates = context.uq31_all_sometime()
    print(f"vans that can be the nearest neighbor at some point: {candidates}")
    stats = context.pruning_statistics()
    print(
        f"({stats.pruned_candidates} of {stats.total_candidates} vans pruned outright "
        f"by the 4r band)\n"
    )

    # When is each candidate relevant?  The exact sub-intervals follow from
    # the band intersection, i.e. the UQ11/UQ13 machinery of the paper.
    print("relevance windows (minutes into the shift):")
    for van in candidates:
        intervals = context.nonzero_probability_intervals(van)
        pretty = ", ".join(f"[{start:5.1f}, {end:5.1f}]" for start, end in intervals)
        fraction = context.uq13_fraction(van)
        print(f"  {van:8s}  {fraction:5.1%} of the shift  {pretty}")

    # Who is the most probable nearest neighbor over time (level 1 of the
    # IPAC-NN tree), and who is the backup (level 2)?
    tree = context.ipac_tree(max_levels=2)
    print("\nmost probable nearest neighbor over time (IPAC-NN level 1):")
    for node in tree.nodes_at_level(1):
        print(f"  [{node.t_start:6.1f}, {node.t_end:6.1f}] min -> {node.object_id}")

    print("\nbackup candidates (IPAC-NN level 2):")
    for node in tree.nodes_at_level(2)[:8]:
        print(f"  [{node.t_start:6.1f}, {node.t_end:6.1f}] min -> {node.object_id}")

    # For the two most relevant candidates, sample the actual NN probability
    # over the shift (the descriptor information of the paper's answer tree).
    top_two = candidates[:2]
    series = probability_timeline(context, mod, top_two, time_samples=9, grid_size=96)
    print("\nsampled NN probability across the shift:")
    header = "minute  " + "  ".join(f"{van:>10s}" for van in top_two)
    print(header)
    duration = window[1] - window[0]
    for index in range(9):
        t = window[0] + duration * index / 8
        row = f"{t:6.0f}  " + "  ".join(f"{series[van][index]:10.3f}" for van in top_two)
        print(row)

    # ------------------------------------------------------------------
    # Dispatch at city scale: many vehicles, many monitored queries.
    # The QueryEngine bulk-loads one R-tree, pre-filters each query's
    # candidates with a safe corridor probe, and prepares the whole batch
    # in one pass; re-running the batch hits the context cache.
    # ------------------------------------------------------------------
    print("\n--- batched dispatch (QueryEngine) ---")
    city_mod, monitored = multi_query_fleet(
        num_vehicles=scaled(60, 20), num_queries=scaled(8, 4)
    )
    city_window = city_mod.common_time_span()
    engine = QueryEngine(city_mod)
    batch = engine.prepare_batch(monitored, city_window[0], city_window[1])
    print(
        f"prepared {len(batch)} continuous queries over {len(city_mod)} vehicles "
        f"in {batch.total_seconds:.2f}s "
        f"(index filtered away {batch.mean_filter_ratio:.0%} of candidates on average)"
    )
    for prepared in batch:
        neighbors = prepared.context.uq31_all_sometime()
        print(
            f"  {str(prepared.query_id):8s} {prepared.candidate_count:3d} candidates "
            f"-> {len(neighbors):3d} possible NNs  "
            f"({prepared.prepare_seconds * 1000.0:5.1f} ms)"
        )
    refreshed = engine.prepare_batch(monitored, city_window[0], city_window[1])
    info = engine.cache_info()
    print(
        f"dashboard refresh: {refreshed.total_seconds * 1000.0:.1f} ms "
        f"(cache {info.hits} hits / {info.misses} misses)"
    )


if __name__ == "__main__":
    main()
