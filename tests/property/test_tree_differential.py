"""Differential oracle: the IPAC-NN tree read off the levels is the recursion's.

Production :func:`repro.core.ipacnn.build_ipac_tree` and
:meth:`QueryContext.ipac_tree` read the tree off the context's level
envelopes; :func:`repro.reference.ipacnn.build_ipac_tree` is the paper's
recursion, one lower envelope per node.  Given the candidates in canonical
(``str``-sorted) order, the two are ``==``: the same nodes with the same
float bounds, levels and children, compared without a tolerance.  The
properties drive them with the adversarial families of the envelope
differential suite (exact ties, tangencies, coincident functions, slivers,
convoys), at every depth cap, and on city-fleet contexts; and they check
that a candidate identical to another leaves the production tree the same
in every candidate order.

One difference is by design.  The production roots are level 1 over the
band survivors; the recursion's roots are the envelope over every
candidate.  The two part only where ``LE_Alg``'s tolerance merges see the
pruned candidates: a sliver whose owner a zero-width band drops, or
crossings of curves around 1e-9 apart.  There the properties check the
production roots against ``LE_Alg`` over the survivors instead.  And where
the front's levels themselves part from the cascade (a known defect below
the solver's epsilon, pinned as a strict xfail beside the front's guards),
there is nothing to compare.

The order of the candidates is free only where it leaves the context's
level-1 envelope, which is built in input order, the same curves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.ipacnn import build_ipac_tree
from repro.core.pruning import prune_by_band
from repro.core.queries import QueryContext
from repro.geometry.envelope.hyperbola import DistanceFunction
from repro.geometry.envelope.klevel import k_level_envelopes
from repro.reference import ipacnn as reference
from repro.reference.envelope import exclusion_cascade, le_alg
from repro.workloads.scenarios import multi_query_fleet

from .test_envelope_differential import T_HI, T_LO, _canonical, adversarial_functions

band_widths = st.sampled_from([0.0, 0.5, 1.0, 2.5, 8.0, 1e3])


def shape(tree):
    """Every node as ``(owner, start, end, level, children)``, roots in order."""

    def node(item):
        return (
            item.object_id,
            item.t_start,
            item.t_end,
            item.level,
            tuple(node(child) for child in item.children),
        )

    return (tree.query_id, tree.t_start, tree.t_end, tuple(node(root) for root in tree.roots))


def reference_shape(functions, query_id, t_lo, t_hi, band, max_levels):
    return shape(
        reference.build_ipac_tree(_canonical(functions), query_id, t_lo, t_hi, band, max_levels)
    )


def pieces(envelope):
    return [(p.object_id, p.t_start, p.t_end) for p in envelope.pieces]


def assert_is_the_recursion(tree, functions, band, max_levels):
    """``tree`` is the recursion's tree wherever the recursion's roots are
    level 1 over the band survivors; elsewhere its roots are that level.

    Where the front's levels part from the cascade (pairs whose ``t²``
    coefficients differ by less than ``COEFF_EPSILON``, the strict xfail of
    ``tests/geometry/test_front_guards.py``) the tree follows the front and
    nothing is compared."""
    canonical = _canonical(functions)
    expected = reference.build_ipac_tree(canonical, "q", T_LO, T_HI, band, max_levels)
    envelope = le_alg(canonical, T_LO, T_HI)
    survivors, _ = prune_by_band(canonical, envelope, band, T_LO, T_HI)
    depth = len(survivors) if max_levels is None else max(max_levels, 1)
    front = k_level_envelopes(survivors, T_LO, T_HI, depth)
    if [pieces(level) for level in front.levels] != [
        pieces(level) for level in exclusion_cascade(survivors, T_LO, T_HI, depth).levels
    ]:
        return
    level_one = pieces(front.level(1))
    if [(node.object_id, node.t_start, node.t_end) for node in expected.roots] == level_one:
        assert shape(tree) == shape(expected)
    else:
        assert [(node.object_id, node.t_start, node.t_end) for node in tree.roots] == level_one


@pytest.mark.parametrize("max_levels", [None, 1, 2, 3])
@given(functions=adversarial_functions(), band=band_widths)
def test_build_ipac_tree_equals_the_recursion(functions, band, max_levels):
    tree = build_ipac_tree(_canonical(functions), "q", T_LO, T_HI, band, max_levels)
    assert_is_the_recursion(tree, functions, band, max_levels)


@pytest.mark.parametrize("max_levels", [None, 1, 2, 3])
@given(functions=adversarial_functions(), band=band_widths)
def test_context_tree_equals_the_recursion(functions, band, max_levels):
    context = QueryContext.build(_canonical(functions), "q", T_LO, T_HI, band)
    assert_is_the_recursion(context.ipac_tree(max_levels), functions, band, max_levels)


@given(functions=adversarial_functions(), band=band_widths, data=st.data())
def test_identical_candidates_give_one_tree_in_every_order(functions, band, data):
    twin = DistanceFunction("twin", list(data.draw(st.sampled_from(functions)).pieces))
    candidates = functions + [twin]
    first = QueryContext.build(candidates, "q", T_LO, T_HI, band)
    ordered = data.draw(st.permutations(candidates))
    context = QueryContext.build(ordered, "q", T_LO, T_HI, band)
    tree = context.ipac_tree()
    if curves(context.envelope) == curves(first.envelope):
        assert shape(tree) == shape(first.ipac_tree())
    depth = tree.depth()
    for t in np.linspace(T_LO + 0.013, T_HI - 0.017, 11):
        ranking = tree.ranking_at(float(t))
        # Pruned paths end early; where none does, the tree ranks the levels.
        if len(ranking) == depth == len(context.level_envelopes(depth)):
            assert ranking == context.ranking_at(float(t), depth)


def curves(envelope):
    return [(p.t_start, p.t_end, p.function.pieces) for p in envelope.pieces]


@pytest.fixture(scope="module")
def city():
    return multi_query_fleet(num_vehicles=120, num_queries=8, seed=41)


@pytest.mark.parametrize("length", [4.0, 9.0])
@pytest.mark.parametrize("position", range(8))
def test_city_fleet_trees_equal_the_recursion(city, position, length):
    mod, query_ids = city
    query_id = query_ids[position]
    start = 6.0 + 2.7 * position
    context = QueryContext.from_mod(mod, query_id, start, start + length)
    expected = reference_shape(
        list(context.pack), query_id, start, start + length, context.band_width, None
    )
    assert shape(context.ipac_tree()) == expected
    assert shape(context.ipac_tree(2)) == reference_shape(
        list(context.pack), query_id, start, start + length, context.band_width, 2
    )
