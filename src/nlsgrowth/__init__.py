"""Lattice and continuum NLS with bounded data: propagators, growth
diagnostics, local conservation laws, and a Newton scheme for analytic data.

The API is imported from the modules (``nlsgrowth.lattice``,
``nlsgrowth.continuum``, ...); each module's ``__all__`` is its public
surface.
"""

__version__ = "0.1.0"
