"""Tests for Env2, Merge_LE, the divide-and-conquer and naive envelope constructions."""

import numpy as np
import pytest

from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.geometry.envelope.env2 import pairwise_envelope
from repro.geometry.envelope.hyperbola import DistanceFunction
from repro.geometry.envelope.merge import merge_envelopes
from repro.reference.naive import naive_lower_envelope
from repro.geometry.envelope.pieces import Envelope, EnvelopePiece
from ..helpers.validation import (
    envelope_matches_pointwise_minimum,
    envelopes_equal_pointwise,
)

from ..conftest import make_linear_function, random_functions


class TestPairwiseEnvelope:
    def test_non_crossing_functions_single_piece(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 5.0, 0.0, 0.0, 0.0)
        envelope = pairwise_envelope(near, far, 0.0, 10.0)
        assert len(envelope) == 1
        assert envelope.owner_at(5.0) == "near"

    def test_single_crossing_two_pieces(self):
        receding = make_linear_function("receding", 1.0, 0.0, 1.0, 0.0)
        approaching = make_linear_function("approaching", 9.0, 0.0, -1.0, 0.0)
        envelope = pairwise_envelope(receding, approaching, 0.0, 10.0)
        assert envelope.owner_at(0.5) == "receding"
        assert envelope.owner_at(9.5) == "approaching"
        assert envelope_matches_pointwise_minimum(
            envelope, [receding, approaching], 0.0, 10.0
        )

    def test_two_crossings_three_pieces(self):
        # "swooping" dives below the constant function and comes back out.
        swooping = make_linear_function("swooping", -6.0, 0.5, 1.2, 0.0)
        constant = make_linear_function("constant", 3.0, 0.0, 0.0, 0.0)
        envelope = pairwise_envelope(swooping, constant, 0.0, 10.0)
        owners = envelope.owner_ids
        assert owners[0] == "constant"
        assert "swooping" in owners
        assert owners[-1] == "constant"
        assert envelope_matches_pointwise_minimum(
            envelope, [swooping, constant], 0.0, 10.0
        )

    def test_degenerate_zero_length_window(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 5.0, 0.0, 0.0, 0.0)
        envelope = pairwise_envelope(near, far, 4.0, 4.0)
        assert envelope.owner_at(4.0) == "near"

    def test_empty_window_rejected(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 5.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            pairwise_envelope(near, far, 5.0, 4.0)


class TestMergeEnvelopes:
    def test_merge_matches_pointwise_minimum(self, rng):
        functions = random_functions(8, rng)
        left = lower_envelope(functions[:4], 0.0, 10.0)
        right = lower_envelope(functions[4:], 0.0, 10.0)
        merged = merge_envelopes(left, right)
        assert envelope_matches_pointwise_minimum(merged, functions, 0.0, 10.0)

    def test_merge_is_commutative_pointwise(self, rng):
        functions = random_functions(6, rng)
        left = lower_envelope(functions[:3], 0.0, 10.0)
        right = lower_envelope(functions[3:], 0.0, 10.0)
        assert envelopes_equal_pointwise(
            merge_envelopes(left, right), merge_envelopes(right, left)
        )

    def test_merge_rejects_mismatched_windows(self):
        a = make_linear_function("a", 1.0, 0.0, 0.0, 0.0, 0.0, 10.0)
        b = make_linear_function("b", 2.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        env_a = Envelope([EnvelopePiece(a, 0.0, 10.0)])
        env_b = Envelope([EnvelopePiece(b, 0.0, 5.0)])
        with pytest.raises(ValueError):
            merge_envelopes(env_a, env_b)

    def test_merging_identical_owners_coalesces(self):
        a = make_linear_function("a", 1.0, 0.0, 0.0, 0.0)
        env = Envelope([EnvelopePiece(a, 0.0, 10.0)])
        merged = merge_envelopes(env, env)
        assert len(merged) == 1


class TestLowerEnvelopeConstruction:
    def test_single_function(self):
        only = make_linear_function("only", 2.0, 0.0, 0.0, 0.0)
        envelope = lower_envelope([only], 0.0, 10.0)
        assert len(envelope) == 1
        assert envelope.owner_at(5.0) == "only"

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            lower_envelope([], 0.0, 10.0)
        with pytest.raises(ValueError):
            naive_lower_envelope([], 0.0, 10.0)

    def test_known_scenario_owners(self, crossing_functions):
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        # "a" starts nearest (distance 1), "b" ends nearest (distance 1 at t=10).
        assert envelope.owner_at(0.1) == "a"
        assert envelope.owner_at(9.9) == "b"

    def test_matches_pointwise_minimum_random(self, rng):
        functions = random_functions(20, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        assert envelope_matches_pointwise_minimum(envelope, functions, 0.0, 10.0)

    def test_divide_and_conquer_equals_naive(self, rng):
        functions = random_functions(15, rng)
        fast = lower_envelope(functions, 0.0, 10.0)
        slow = naive_lower_envelope(functions, 0.0, 10.0)
        assert envelopes_equal_pointwise(fast, slow)

    def test_envelope_covers_whole_window(self, rng):
        functions = random_functions(12, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        assert envelope.t_start == pytest.approx(0.0)
        assert envelope.t_end == pytest.approx(10.0)
        assert envelope.is_contiguous

    def test_envelope_piece_count_is_linear(self, rng):
        # Davenport–Schinzel λ₂(N) = 2N − 1 for curves crossing at most twice.
        functions = random_functions(25, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        assert len(envelope) <= 2 * len(functions) - 1

    def test_naive_handles_zero_length_window(self, rng):
        functions = random_functions(5, rng)
        envelope = naive_lower_envelope(functions, 3.0, 3.0)
        expected = min(functions, key=lambda f: f.value(3.0)).object_id
        assert envelope.owner_at(3.0) == expected

    def test_multisegment_functions(self, rng):
        # Functions whose trajectories have a breakpoint mid-window.
        from repro.geometry.envelope.hyperbola import Hyperbola, HyperbolaPiece

        def two_piece(object_id, d0, d1):
            first = Hyperbola.from_relative_motion(d0, 0.0, 0.0, 0.0, 0.0)
            second = Hyperbola.from_relative_motion(d1, 0.0, 0.0, 0.0, 5.0)
            return DistanceFunction(
                object_id,
                [HyperbolaPiece(0.0, 5.0, first), HyperbolaPiece(5.0, 10.0, second)],
            )

        functions = [two_piece("x", 1.0, 4.0), two_piece("y", 3.0, 2.0)]
        envelope = lower_envelope(functions, 0.0, 10.0)
        assert envelope.owner_at(2.0) == "x"
        assert envelope.owner_at(8.0) == "y"
        assert envelope_matches_pointwise_minimum(envelope, functions, 0.0, 10.0)

    def test_sampled_agreement_with_numpy_minimum(self, rng):
        functions = random_functions(10, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        times = np.linspace(0.0, 10.0, 101)
        stacked = np.array([[f.value(float(t)) for t in times] for f in functions])
        minima = stacked.min(axis=0)
        values = np.array([envelope.value(float(t)) for t in times])
        np.testing.assert_allclose(values, minima, rtol=1e-9, atol=1e-9)
