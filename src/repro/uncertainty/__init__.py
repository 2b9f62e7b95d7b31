"""Location uncertainty: radial pdfs, convolution, within-distance and NN probabilities."""

from .cone import ConePDF
from .convolution import (
    convolve_radial_pdfs,
    difference_pdf,
    uniform_difference_pdf,
)
from .gaussian import TruncatedGaussianPDF
from .nn_probability import (
    NNProbabilityResult,
    monte_carlo_nn_probabilities,
    nn_probabilities,
    probability_mass_deficit,
)
from .pdf import CrispPDF, RadialPDF, TabulatedRadialPDF
from .uniform import UniformDiskPDF
from .within_distance import (
    WithinDistanceProfile,
    effective_pruning_radius,
    integration_bounds,
    prune_candidates,
    within_distance_matrix,
    within_distance_probability_uncertain_pair,
)

__all__ = [
    "ConePDF",
    "CrispPDF",
    "NNProbabilityResult",
    "RadialPDF",
    "TabulatedRadialPDF",
    "TruncatedGaussianPDF",
    "UniformDiskPDF",
    "WithinDistanceProfile",
    "convolve_radial_pdfs",
    "difference_pdf",
    "effective_pruning_radius",
    "integration_bounds",
    "monte_carlo_nn_probabilities",
    "nn_probabilities",
    "probability_mass_deficit",
    "prune_candidates",
    "uniform_difference_pdf",
    "within_distance_matrix",
    "within_distance_probability_uncertain_pair",
]
