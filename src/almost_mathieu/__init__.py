"""Spectral computations for the almost Mathieu operator near critical coupling."""

from .core import (
    Mat2,
    OperatorSpec,
    ReducedRational,
    chambers_residual,
    eigenvector,
    monodromy_scaled,
    potential_array,
    reduce_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "Mat2",
    "OperatorSpec",
    "ReducedRational",
    "chambers_residual",
    "eigenvector",
    "monodromy_scaled",
    "potential_array",
    "reduce_fraction",
    "__version__",
]
