"""Sketch-guided object localization on a synthetic shape corpus."""

from .tensor import (
    NonFiniteError,
    PrecisionError,
    ShapeError,
    Tensor,
    backward,
    finite_difference_check,
    precision,
)

__all__ = [
    "NonFiniteError",
    "PrecisionError",
    "ShapeError",
    "Tensor",
    "backward",
    "finite_difference_check",
    "precision",
]

__version__ = "0.1.0"
