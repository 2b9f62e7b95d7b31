"""Shared numeric tolerances of the envelope/band machinery.

Every envelope algorithm, the band-interval extraction, and the trajectory
alignment code agree on one time tolerance: two instants closer than
``TIME_TOLERANCE`` are the same critical time, and intervals shorter than it
are slivers to be dropped.  The constant used to be re-defined per module;
it is hoisted here so the scalar oracles and the vectorized kernels can
never drift apart (``tests/core/test_tolerances.py`` greps the tree to keep
it that way).

This module must stay a pure leaf — no imports — so that any module in the
package (including :mod:`repro.geometry` and :mod:`repro.trajectories`,
which :mod:`repro.core`'s own ``__init__`` imports) can import it without
creating a cycle.
"""

#: Two time instants closer than this are considered identical.
TIME_TOLERANCE = 1e-9

#: Quadratic coefficients smaller than this are treated as zero when solving
#: for hyperbola intersections (the linear/constant degenerate cases).
COEFF_EPSILON = 1e-12

#: A piecewise distance function jumps at a breakpoint where its two pieces'
#: squared values there differ by more than this share of their terms'
#: magnitude: far above the rounding of one evaluation (a few ulps of it),
#: far below a real jump.  A relative threshold, not a time tolerance.
RELATIVE_JUMP = 1e-9

#: Absolute slack when testing whole-window coverage (UQ12/UQ22/UQ32) and
#: fraction thresholds (UQ13/UQ23/UQ33): interval extraction leaves gaps of
#: this order at merged boundaries.
FULL_WINDOW_SLACK = 1e-6
