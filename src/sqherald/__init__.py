"""Heralded single-photon statistics from superpositions of oppositely
squeezed vacuum states: closed-form sources, a balanced beam splitter,
cross-Kerr heralding, click detection, and the analysis tools that
reproduce the published tables.

The names below are the production API.  The independent reference paths
that `verify` checks it against live in `sqherald.reference`, which no
production kernel imports; the oracles that only the tests run live in
tests/oracles.py."""

__version__ = "0.1.0"

from .fockspace import NumericalFailureError, TruncationError
from .sources import cat_norm, herald_probability
from .optics import ZeroHeraldError
from .kerr import FitDegenerateError, QuadratureConvergenceError, fit_lambda
from .detect import ZeroClickError, ZeroMeanError
from .analysis import (
    ConvergenceError,
    NoCrossingError,
    SweepSpec,
    SweepResult,
    find_crossing,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
