"""Fock cutoffs and the numerical rules shared by every layer.

A :class:`Truncation` keeps photon-number levels ``0 .. dim-1`` and bounds
the probability mass a state may leave above them; a :class:`CutoffColumn`
gives each point of a parameter column its own cutoff.  The module
also holds the squeezing domain, the errors for lost mass and lost
digits, and the smallest normal float below which a probability counts
as vanished.  Everything in it is immutable and side-effect free.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np

# Probability mass allowed above the cutoff when constructing states.
DEFAULT_TAIL_TOL = 1e-3

# Squeezing parameters beyond this are outside the validated regime.
SQUEEZE_LIMIT = 3.0


class TruncationError(Exception):
    """Probability mass beyond the Fock cutoff exceeds the allowed tolerance."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(f"{message} (tail mass {tail_mass:.6e})")
        self.tail_mass = tail_mass


class NumericalFailureError(RuntimeError):
    """A numerical kernel produced non-finite output, or a value that has
    lost its digits."""


# Below the smallest normal float a probability or a squared mean has lost
# its digits, so it counts as vanished.
TINY = sys.float_info.min


@dataclasses.dataclass(frozen=True)
class Truncation:
    """Fock cutoff.

    Levels ``0 .. dim-1`` are kept; constructors reject states whose
    probability mass above the cutoff exceeds ``tail_tol``.
    """

    dim: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not 0.0 <= self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in [0, 1), got {self.tail_tol}")

    def scaled(self, factor: float) -> "Truncation":
        """Same tolerance with the cutoff enlarged by ``factor``.

        Used for convergence checks: a converged quantity must not move
        when recomputed at 1.5x the cutoff.
        """
        return Truncation(dim=math.ceil(self.dim * factor), tail_tol=self.tail_tol)


@dataclasses.dataclass(frozen=True)
class CutoffColumn:
    """One Fock cutoff per point of a parameter column: ``dims[i]`` levels
    at point i, every point with the same ``tail_tol``, each checked as a
    ``Truncation`` is.

    ``dims`` is a tuple, so columns compare and hash by value;
    ``dims_array`` is the same dims as one read-only integer array, built
    once, on which ``take`` and ``scaled`` work.  ``dim`` is the largest
    dim, and ``scaled`` enlarges every dim as ``Truncation.scaled`` does.
    """

    dims: tuple[int, ...]
    tail_tol: float

    def __post_init__(self):
        # every cutoff passes the checks of a Truncation
        Truncation(min(self.dims, default=2), self.tail_tol)

    @classmethod
    def from_array(cls, dims: np.ndarray, tail_tol: float) -> "CutoffColumn":
        """The column of the integer array dims, which it keeps as its
        dims_array."""
        dims = np.asarray(dims).astype(np.intp)
        dims.setflags(write=False)
        column = cls(tuple(dims.tolist()), tail_tol)
        column.__dict__["dims_array"] = dims
        return column

    @functools.cached_property
    def dims_array(self) -> np.ndarray:
        dims = np.array(self.dims, dtype=np.intp)
        dims.setflags(write=False)
        return dims

    @property
    def dim(self) -> int:
        return max(self.dims)

    def scaled(self, factor: float) -> "CutoffColumn":
        return CutoffColumn.from_array(np.ceil(self.dims_array * factor), self.tail_tol)

    def take(self, points) -> "CutoffColumn":
        """The cutoffs of the points at the integer indices `points`."""
        return CutoffColumn.from_array(self.dims_array[np.asarray(points)], self.tail_tol)


def cutoff_column(cutoff: "Truncation | CutoffColumn", size: int) -> CutoffColumn:
    """cutoff as a CutoffColumn over size points; a Truncation holds at
    every point."""
    if isinstance(cutoff, Truncation):
        return CutoffColumn.from_array(np.full(size, cutoff.dim), cutoff.tail_tol)
    if len(cutoff.dims) != size:
        raise ValueError(f"{len(cutoff.dims)} cutoffs for {size} points")
    return cutoff
