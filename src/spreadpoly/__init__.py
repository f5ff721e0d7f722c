"""Exact-arithmetic spread, Fibonacci, and Lucas polynomials.

Every family is constructible by several algebraically independent routes
(recurrences, closed forms, square-root substitutions, generating functions,
quadratic-surd closed forms), and the package's verification suites confirm
that all routes agree exactly.  No floating point is involved anywhere except
the explicitly float-based trigonometric spot checks.
"""

from . import gf, identities, poly, sequences, surd
from .gf import *
from .identities import *
from .poly import *
from .sequences import *
from .surd import *

__version__ = "0.1.0"

__all__ = poly.__all__ + surd.__all__ + sequences.__all__ + gf.__all__ + identities.__all__
