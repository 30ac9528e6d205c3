"""The one numerical-abort type of the engines.

A ``NumericsError`` says the run could not produce a trustworthy result from
valid input: overflow, Picard or Newton divergence, linearized-solve blow-up,
quadrature non-convergence; its message says which.  The CLI maps it to exit
code 3; invalid input raises ``ValueError`` instead (exit code 2).
"""

__all__ = ["NumericsError"]


class NumericsError(RuntimeError):
    """A run left its trustworthy range (overflow, divergence, non-convergence)."""
