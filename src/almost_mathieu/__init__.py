"""Spectral computations for the almost Mathieu operator near critical coupling."""

from .core import (
    Mat2,
    OperatorSpec,
    ReducedRational,
    chambers_residual,
    delta,
    discriminant,
    monodromy,
    monodromy_scaled,
    potential_eval,
    reduce_fraction,
    transfer_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Mat2",
    "OperatorSpec",
    "ReducedRational",
    "chambers_residual",
    "delta",
    "discriminant",
    "monodromy",
    "monodromy_scaled",
    "potential_eval",
    "reduce_fraction",
    "transfer_matrix",
    "__version__",
]
