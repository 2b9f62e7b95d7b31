"""SQL front-end and persistence: query a saved workload with query text.

Section 4 of the paper sketches an SQL-style surface syntax for the
probabilistic NN predicates.  This example saves a generated workload to
JSON, reloads it (as a downstream application would), and answers several
queries written in that surface syntax, including reverse-NN post-processing.

Run with::

    python examples/sql_frontend.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from _support import scaled
from repro import RandomWaypointConfig, generate_mod
from repro.core.reverse import reverse_nn_query
from repro.query_language import QueryExecutor, parse_query
from repro.trajectories.io import load_json, save_json


def main() -> None:
    # Generate, persist, and reload a workload — the round trip a real
    # deployment would do between ingestion and query time.
    mod = generate_mod(
        RandomWaypointConfig(
            num_objects=scaled(40, 16), uncertainty_radius=0.5, seed=29
        )
    )
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "workload.json"
        save_json(mod, path)
        mod, report = load_json(path)
        print(f"reloaded {report.trajectories} trajectories ({report.samples} samples) from {path.name}\n")

    queries = [
        # Category 3: everything that can ever be the NN of object 5.
        "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROBABILITY_NN(T, 5, TIME) > 0",
        # Category 3 (∀t): candidates for the whole hour.
        "SELECT T FROM MOD WHERE FORALL TIME IN [0, 60] AND PROBABILITY_NN(T, 5, TIME) > 0",
        # Category 4: top-2 candidates for at least half of the hour.
        "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 60] >= 0.5 AND RANK_NN(T, 5, TIME) <= 2",
        # Category 1: a specific object, existentially quantified.
        "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROBABILITY_NN(T, 5, TIME) > 0 AND T = 12",
    ]
    executor = QueryExecutor(mod)
    for text in queries:
        ast = parse_query(text)
        result = executor.execute(ast)
        print(f"Category {ast.category} | {text}")
        print(f"  -> {result.object_ids if result.object_ids else '[] (does not hold)'}\n")

    # Reverse view (paper's future-work variant): who could have object 5 as
    # *their* nearest neighbor, and for what share of the hour?
    print("reverse NN of object 5 (who might consider 5 their nearest neighbor):")
    for entry in reverse_nn_query(mod, 5, 0.0, 60.0)[:5]:
        print(
            f"  object {entry.object_id}: {entry.fraction:5.1%} of the hour"
            f"{' (always)' if entry.always else ''}"
        )


if __name__ == "__main__":
    main()
