"""Numerical failures of the engines, as one hierarchy.

Every error here is a ``NumericsError``: the run could not produce a
trustworthy result from valid input (overflow, divergence, non-convergence).
The CLI maps the whole hierarchy to exit code 3; invalid input raises
``ValueError`` instead (exit code 2).
"""

from __future__ import annotations

__all__ = [
    "NumericsError",
    "ContractionError",
    "NewtonDivergenceError",
    "LinearizedBlowupError",
    "QuadratureError",
]


class NumericsError(RuntimeError):
    """A simulation left the finite range (overflow / NaN); the run aborts."""


class ContractionError(NumericsError):
    """Picard iterates diverged; the time horizon is past the contraction regime."""


class NewtonDivergenceError(NumericsError):
    """Correction norms grew for consecutive iterations; shrink T or amplitude."""


class LinearizedBlowupError(NumericsError):
    """Newton's linearized solve grew past its a-priori bound."""


class QuadratureError(NumericsError):
    """Oscillatory quadrature failed to converge to the requested tolerance."""
