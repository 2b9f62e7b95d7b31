"""Ride hailing: probabilistic nearest-driver matching for a moving rider.

Scenario: a rider is walking toward a pickup corner while two dozen drivers
cruise the downtown grid.  Dispatch wants the drivers that could plausibly be
the nearest one over the next 20 minutes — continuously, not just at the
moment the request is opened — and a short ranked list to pre-notify.
Location reports are uncertain (urban-canyon GPS), which is exactly the
setting of the paper's probabilistic NN queries.

Run with::

    python examples/ride_hailing.py
"""

from __future__ import annotations

from repro import QueryContext, QueryEngine, UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from _support import scaled
from repro.workloads.scenarios import ride_hailing_snapshot


def main() -> None:
    horizon = 20.0
    mod = ride_hailing_snapshot(
        num_drivers=scaled(25, 10), horizon_minutes=horizon,
        uncertainty_radius=0.2,
    )

    # The rider walks from a cafe to the pickup corner over the horizon.
    rider = UncertainTrajectory(
        "rider",
        [(6.0, 6.0, 0.0), (7.5, 7.5, horizon)],
        radius=0.2,
        pdf=UniformDiskPDF(0.2),
    )
    mod.add(rider)
    print(f"{len(mod) - 1} drivers cruising, matching for rider over {horizon:.0f} minutes\n")

    # The engine filters drivers through the store's R-tree with a provably
    # safe corridor before the envelope machinery runs: drivers across town
    # never matter.
    prepared = QueryEngine(mod).prepare("rider", 0.0, horizon)
    print(
        f"corridor filter: {prepared.candidate_count} of "
        f"{prepared.total_candidates} drivers enter the envelope"
    )
    context = QueryContext.from_mod(mod, "rider", 0.0, horizon)

    relevant = context.uq31_all_sometime()
    print(f"drivers with non-zero probability of being nearest: {len(relevant)}")
    stats = context.pruning_statistics()
    print(f"  (band pruning kept {stats.surviving_candidates} of {stats.total_candidates} candidates)\n")

    # The dispatch shortlist: drivers that are in the top-2 at least 30% of
    # the horizon (a Category 2/4 query from Section 4 of the paper).
    shortlist = context.uq43_all_rank_at_least(2, 0.3)
    print(f"shortlist (top-2 at least 30% of the time): {shortlist}\n")

    # Continuous answer: who is the most probable nearest driver, and when.
    tree = context.ipac_tree(max_levels=2)
    print("most probable nearest driver over the horizon:")
    for node in tree.nodes_at_level(1):
        print(f"  minutes [{node.t_start:5.1f}, {node.t_end:5.1f}] -> {node.object_id}")

    # Instantaneous double-check at request time (t = 0) and at pickup time.
    print(f"\nranking now       : {context.ranking_at(0.0, 3)}")
    print(f"ranking at pickup : {context.ranking_at(horizon, 3)}")

    # Existential question dispatch actually asks per driver (UQ11/UQ13).
    best_now = context.ranking_at(0.0, 1)[0]
    fraction = context.uq13_fraction(best_now)
    print(
        f"\ndriver {best_now} can be the nearest {fraction:.0%} of the horizon; "
        f"always a candidate: {context.uq12_always(best_now)}"
    )


if __name__ == "__main__":
    main()
