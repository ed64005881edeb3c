"""Heralded single-photon statistics from superpositions of oppositely
squeezed vacuum states: closed-form sources, a balanced beam splitter,
cross-Kerr heralding, click detection, and the analysis tools that
reproduce the published tables.

The names below are the production API.  The independent reference paths
that `verify` and the tests check it against live in `sqherald.reference`,
which this package does not import."""

__version__ = "0.1.0"

from .fockspace import NumericalFailureError, TruncationError
from .sources import cat_norm, herald_probability, squeezing_db
from .optics import ZeroHeraldError
from .kerr import FitDegenerateError, QuadratureConvergenceError, fit_lambda
from .detect import (
    DetectorModel,
    ZeroClickError,
    ZeroMeanError,
)
from .analysis import (
    ConvergenceError,
    MaximizeResult,
    NoCrossingError,
    SweepSpec,
    SweepResult,
    find_crossing,
    maximize_1d,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
