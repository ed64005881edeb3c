"""Fock cutoffs and the numerical rules shared by every layer.

A :class:`Truncation` keeps photon-number levels ``0 .. dim-1`` and bounds
the probability mass a state may leave above them; a :class:`CutoffColumn`
gives each point of a parameter column its own cutoff; and
`default_dims` picks the matrix cutoff for each squeezing r.  The
module also holds the squeezing domain, the errors for lost mass and lost
digits, the smallest normal float below which a probability counts as
vanished, and the cached log-factorial table.  Everything in it is
immutable and side-effect free.
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

    ``dim`` is the largest dim, and ``scaled`` enlarges every dim as
    ``Truncation.scaled`` does.
    """

    dims: tuple[int, ...]
    tail_tol: float

    def __post_init__(self):
        # every cutoff passes the checks of a Truncation
        Truncation(min(self.dims, default=2), self.tail_tol)

    @property
    def dim(self) -> int:
        return max(self.dims)

    def scaled(self, factor: float) -> "CutoffColumn":
        up = {d: math.ceil(d * factor) for d in set(self.dims)}
        return CutoffColumn(tuple(up[d] for d in self.dims), self.tail_tol)

    def take(self, points) -> "CutoffColumn":
        """The cutoffs of the points at the integer indices `points`."""
        return CutoffColumn(tuple(map(self.dims.__getitem__, np.asarray(points).tolist())),
                            self.tail_tol)


def cutoff_column(cutoff: "Truncation | CutoffColumn", size: int) -> CutoffColumn:
    """cutoff as a CutoffColumn over size points; a Truncation holds at
    every point."""
    if isinstance(cutoff, Truncation):
        return CutoffColumn((cutoff.dim,) * size, cutoff.tail_tol)
    if len(cutoff.dims) != size:
        raise ValueError(f"{len(cutoff.dims)} cutoffs for {size} points")
    return cutoff


@functools.lru_cache(maxsize=64)
def log_factorials(count: int) -> np.ndarray:
    """Read-only table of log k! = lgamma(k + 1) for k < count, cached per
    count."""
    table = np.array([math.lgamma(k + 1.0) for k in range(count)])
    table.setflags(write=False)
    return table


def default_dims(r) -> np.ndarray:
    """Matrix cutoff dim at each |r| of an array r.

    64 levels hold tails below ~1e-9 up to r = 1.2; 160 levels hold them
    below ~7e-4 up to r = 2.  Beyond r = 2 there is no default: a
    ValueError, naming the first such r, asks for an explicit cutoff.
    """
    r = np.abs(np.asarray(r, dtype=float))
    over = ~(r <= 2.0)
    if np.any(over):
        raise ValueError(
            f"no default cutoff for r = {float(r[over][0])}: the defaults cover r <= 2, so "
            "give a cutoff (--dim on the command line)"
        )
    return np.where(r <= 1.2, 64, 160)


def default_truncation(r: float = 0.0, tail_tol: float = DEFAULT_TAIL_TOL) -> Truncation:
    """Cutoff adequate for squeezed-state work at squeezing |r|: the
    default_dims of one r."""
    return Truncation(int(default_dims(r)), tail_tol)
