"""Reference implementations: the oracles the serving stack is tested against.

The serving tree holds one production implementation per algorithm (plus its
per-candidate or degenerate-input fallback).  Whatever computes the same
thing a second way lives here, and nothing outside this package and
:mod:`repro.experiments` imports it — ``tests/test_import_boundary.py``
enforces that, and that the serving packages load no scipy:

* :mod:`~repro.reference.band` — the Brent's-method band extractor, and the
  per-candidate row loop :func:`repro.core.pruning.band_intervals_batch` is
  bit-identical to;
* :mod:`~repro.reference.boxes` — the scalar per-segment box loop (and
  its ``Box3D``/``IndexEntry`` objects) the columnar leg kernel behind the
  segment box table's rows and corridor probes is pinned to;
* :mod:`~repro.reference.corridor` — the per-query scalar corridor radius
  behind :func:`repro.engine.filtering.corridor_probe_bulk`;
* :mod:`~repro.reference.envelope` — the paper's plain ``LE_Alg``
  recursion and the exclusion cascade over it: the oracle of the kinetic
  front, of the production ``le_alg`` that skips buried subtrees, and of
  the cascade the front runs on dirty slabs, and what Figures 11 and 13
  time;
* :mod:`~repro.reference.front` — the kinetic front's per-piece crossing
  solve, the oracle of its one-pass solve over every contender piece;
* :mod:`~repro.reference.ipacnn` — the paper's recursive Algorithm 3, one
  lower envelope per node: the oracle of the IPAC-NN tree read off the
  level envelopes;
* :mod:`~repro.reference.naive` — the paper's quadratic comparison
  baselines (Figures 11 and 12);
* :mod:`~repro.reference.definition` — the query semantics evaluated
  straight from their definitions on dense time samples, and the expected
  location and distance of a difference object at one instant (the oracle
  of the difference functions).

One reference *is* a production fallback and stays where production calls
it: the per-candidate
:func:`repro.trajectories.difference.difference_distance_function`.
:func:`repro.query_language.execute_query_naive` is the one oracle kept
outside this package: the end-to-end benchmark imports it from there.
"""
