"""Exact verification of invariant almost contact B-metric models carrying
a radical screen transversal half lightlike submanifold.

Everything is computed over the exact scalar field of rational functions
in one parameter, so every reported residual is an exact zero or an exact
nonzero value, never a floating point approximation.
"""

from .builtin import example_model
from .model import load_model
from .suite import run_suite

__version__ = "1.0.0"

__all__ = ["example_model", "load_model", "run_suite"]
