"""Fock cutoffs and the numerical rules shared by every layer.

A :class:`CutoffColumn` gives each point of a parameter column its own
Fock cutoff, the one cutoff type production takes: the Kerr label series
is the only truncated sum left there.  The module also holds the
squeezing domain, the errors for lost mass and lost digits, and the
smallest normal float below which a probability counts as vanished.
Everything in it is immutable and side-effect free.
"""
from __future__ import annotations

import dataclasses
import sys

import numpy as np

# Squeezing parameters beyond this are outside the validated regime.
SQUEEZE_LIMIT = 3.0


class NumericalFailureError(RuntimeError):
    """A numerical kernel produced non-finite output, or a value that has
    lost its digits; the base of every numerical refusal, which ``cli.main``
    maps to exit 2."""


class TruncationError(NumericalFailureError):
    """Probability mass beyond the Fock cutoff exceeds the allowed
    tolerance; a NumericalFailureError (exit 2 from ``cli.main``)."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(f"{message} (tail mass {tail_mass:.6e})")
        self.tail_mass = tail_mass


# Below the smallest normal float a probability or a squared mean has lost
# its digits, so it counts as vanished.
TINY = sys.float_info.min


@dataclasses.dataclass(frozen=True, eq=False)
class CutoffColumn:
    """One Fock cutoff per point of a parameter column: levels ``0 ..
    dims[i]-1`` kept at point i, and at most ``tail_tol`` of a state's
    probability mass allowed above them, the same at every point.

    ``dims`` is kept as one read-only ``np.intp`` array, a copy of the
    integers given, each at least 2, with ``tail_tol`` in [0, 1).
    ``dim`` is the largest dim, ``take`` picks points and ``scaled``
    enlarges every dim, rounding up, for the 1.5x convergence recheck; a
    product past the largest ``np.intp`` is a ValueError.
    Columns compare by identity.
    """

    dims: np.ndarray
    tail_tol: float

    def __post_init__(self):
        dims = np.array(self.dims, dtype=np.intp)
        if dims.min(initial=2) < 2:
            raise ValueError(f"dim must be at least 2, got {int(dims.min())}")
        if not 0.0 <= self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in [0, 1), got {self.tail_tol}")
        dims.setflags(write=False)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return int(self.dims.max())

    def scaled(self, factor: float) -> "CutoffColumn":
        if self.dims.max(initial=0) * factor >= np.iinfo(np.intp).max:  # the cast would wrap it
            raise ValueError(f"dim {self.dim} is too large for its {factor:g}x recheck: "
                             f"dims stop at {np.iinfo(np.intp).max}")
        return CutoffColumn(np.ceil(self.dims * factor), self.tail_tol)

    def take(self, points) -> "CutoffColumn":
        """The cutoffs of the points at the integer indices `points`."""
        return CutoffColumn(self.dims[np.asarray(points)], self.tail_tol)
