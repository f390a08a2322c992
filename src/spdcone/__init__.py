"""Thompson and Hilbert geometry of the SPD cone.

Distances, geodesics, and an inductive matrix mean that consume only the
extreme generalized eigenvalues of matrix pencils, so the core
operations stay matrix-free and sparsity-preserving at scale.
"""

from .core import (
    CholeskyFactor,
    DEFAULT_DENSE_CEILING,
    SpdMatrix,
    arithmetic_mean,
    combine,
    random_sparse_spd,
    random_spd,
    spectrum_dense,
    whiten,
)
from .eigen import (
    EigenOptions,
    EigenStats,
    PencilExtremes,
    extreme_pair,
    pencil_residual,
)
from .geodesics import (
    coefficient_derivatives,
    diamond_geodesic,
    geodesic_coefficients,
    riemannian_geodesic,
    star_geodesic,
)
from .mean import (
    MeanOptions,
    MeanProblem,
    MeanResult,
    contraction_factor,
    inductive_mean,
    inductive_step,
    residual,
)
from .metrics import (
    GaugeParameter,
    hilbert_distance,
    phi_distance,
    riemannian_distance,
    thompson_distance,
)
from .mmio import read_matrix, read_spd, write_matrix, write_symmetric
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CholeskyFactor",
    "DEFAULT_DENSE_CEILING",
    "EigenOptions",
    "EigenStats",
    "GaugeParameter",
    "MeanOptions",
    "MeanProblem",
    "MeanResult",
    "PencilExtremes",
    "SpdMatrix",
    "arithmetic_mean",
    "coefficient_derivatives",
    "combine",
    "contraction_factor",
    "diamond_geodesic",
    "errors",
    "extreme_pair",
    "geodesic_coefficients",
    "hilbert_distance",
    "inductive_mean",
    "inductive_step",
    "pencil_residual",
    "phi_distance",
    "random_sparse_spd",
    "random_spd",
    "read_matrix",
    "read_spd",
    "residual",
    "riemannian_distance",
    "riemannian_geodesic",
    "spectrum_dense",
    "star_geodesic",
    "thompson_distance",
    "whiten",
    "write_matrix",
    "write_symmetric",
]
