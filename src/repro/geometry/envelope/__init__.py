"""Lower-envelope machinery for hyperbolic distance functions (Section 3.2)."""

from .bulk import DegenerateArrangement, FunctionPack, k_level_envelopes_bulk
from .divide_conquer import le_alg, lower_envelope
from .env2 import pairwise_envelope
from .hyperbola import DistanceFunction, Hyperbola, HyperbolaPiece
from .klevel import LevelEnvelopes, exclusion_cascade, k_level_envelopes
from .merge import merge_envelopes
from .pieces import Envelope, EnvelopePiece

__all__ = [
    "DegenerateArrangement",
    "DistanceFunction",
    "Envelope",
    "EnvelopePiece",
    "FunctionPack",
    "Hyperbola",
    "HyperbolaPiece",
    "LevelEnvelopes",
    "exclusion_cascade",
    "k_level_envelopes",
    "k_level_envelopes_bulk",
    "le_alg",
    "lower_envelope",
    "merge_envelopes",
    "pairwise_envelope",
]
