"""Truncated Fock-space primitives for one and two bosonic modes.

States are bare complex amplitude vectors over photon-number levels
``0 .. dim-1`` carried together with the :class:`Truncation` that produced
them.  Everything in this module is immutable and side-effect free;
sources, interferometers and detector models are layered on top.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Union

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


class TruncationMismatchError(ValueError):
    """Operands were constructed with different truncations."""


class NumericalFailureError(RuntimeError):
    """A numerical kernel produced non-finite output."""


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


@functools.lru_cache(maxsize=64)
def log_factorials(count: int) -> np.ndarray:
    """Read-only table of log k! = lgamma(k + 1) for k < count, cached per
    count."""
    table = np.array([math.lgamma(k + 1.0) for k in range(count)])
    table.setflags(write=False)
    return table


def expm_antisymmetric(gen: np.ndarray) -> np.ndarray:
    """exp(gen) of a real antisymmetric matrix, an orthogonal matrix.

    i gen is Hermitian with eigendecomposition V diag(w) V^H, so
    exp(gen) = V diag(e^{-i w}) V^H, whose imaginary part is round-off.
    """
    if not np.all(np.isfinite(gen)):
        raise NumericalFailureError("matrix exponential of a non-finite generator")
    w, v = np.linalg.eigh(1j * gen)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def default_truncation(r: float = 0.0, tail_tol: float = DEFAULT_TAIL_TOL) -> Truncation:
    """Cutoff adequate for squeezed-state work at squeezing |r|.

    64 levels hold tails below ~1e-9 up to r = 1.2; 160 levels hold them
    below ~7e-4 up to r = 2.  Beyond r = 2 pick a cutoff explicitly.
    """
    r = abs(r)
    if r <= 1.2:
        return Truncation(64, tail_tol)
    if r <= 2.0:
        return Truncation(160, tail_tol)
    raise ValueError(f"no default cutoff for r = {r}; supply a Truncation")


def _frozen_array(obj, name: str, values: np.ndarray) -> None:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclasses.dataclass(frozen=True)
class SingleModeState:
    """Amplitudes over photon numbers 0..dim-1 for one mode."""

    amps: np.ndarray
    truncation: Truncation

    def __post_init__(self):
        if np.ndim(self.amps) != 1 or len(self.amps) != self.truncation.dim:
            raise ValueError("amps must be a vector of length truncation.dim")
        _frozen_array(self, "amps", self.amps)

    @property
    def dim(self) -> int:
        return self.truncation.dim

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def photon_distribution(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclasses.dataclass(frozen=True)
class TwoModeState:
    """Amplitudes amps[n_a, n_b] over a dim x dim photon-number grid."""

    amps: np.ndarray
    truncation: Truncation

    def __post_init__(self):
        d = self.truncation.dim
        if np.shape(self.amps) != (d, d):
            raise ValueError("amps must be a dim x dim matrix")
        _frozen_array(self, "amps", self.amps)

    @property
    def dim(self) -> int:
        return self.truncation.dim

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def joint_distribution(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


State = Union[SingleModeState, TwoModeState]


@dataclasses.dataclass(frozen=True)
class ModeOperator:
    """A dim x dim matrix acting on a single mode."""

    matrix: np.ndarray
    truncation: Truncation

    def __post_init__(self):
        d = self.truncation.dim
        if np.shape(self.matrix) != (d, d):
            raise ValueError("matrix must be dim x dim")
        _frozen_array(self, "matrix", self.matrix)


def _require_same_truncation(u, v) -> None:
    if u.truncation != v.truncation:
        raise TruncationMismatchError(
            f"truncations differ: {u.truncation} vs {v.truncation}"
        )


def vacuum_state(trunc: Truncation) -> SingleModeState:
    """|0> in the truncated space."""
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[0] = 1.0
    return SingleModeState(amps, trunc)


def fock_state(n: int, trunc: Truncation) -> SingleModeState:
    """|n>; n must lie below the cutoff."""
    if not 0 <= n < trunc.dim:
        raise ValueError(f"level {n} outside 0..{trunc.dim - 1}")
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[n] = 1.0
    return SingleModeState(amps, trunc)


def coherent_amplitudes(alpha: complex, trunc: Truncation) -> SingleModeState:
    """Coherent state |alpha>: amps[n] = exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    Magnitudes are accumulated in log space so large |alpha| does not
    overflow intermediate factorials.  Raises TruncationError when the
    mass above the cutoff exceeds the tolerance.  Oracle only, and it
    needs scipy (the test extra): gammaln's rounding is what keeps the
    computed |<alpha|-alpha>|^2 at alpha = 10 near 1e-30.
    """
    from scipy.special import gammaln

    n = np.arange(trunc.dim)
    a = abs(alpha)
    if a == 0.0:
        return vacuum_state(trunc)
    logmag = -0.5 * a * a + n * math.log(a) - 0.5 * gammaln(n + 1.0)
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(logmag) * phase
    tail = 1.0 - float(np.sum(np.exp(2.0 * logmag)))
    if tail > trunc.tail_tol:
        raise TruncationError(
            f"coherent state with |alpha| = {a} does not fit in dim = {trunc.dim}",
            tail,
        )
    return SingleModeState(amps, trunc)


def annihilation(trunc: Truncation) -> ModeOperator:
    """Lowering operator a: a|n> = sqrt(n)|n-1>."""
    d = trunc.dim
    m = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    return ModeOperator(m, trunc)


def creation(trunc: Truncation) -> ModeOperator:
    """Raising operator a^dag; top level is annihilated by the cutoff."""
    return ModeOperator(annihilation(trunc).matrix.conj().T, trunc)


def number_operator(trunc: Truncation) -> ModeOperator:
    """diag(0, 1, ..., dim-1)."""
    return ModeOperator(np.diag(np.arange(trunc.dim, dtype=float)), trunc)


def squeeze_matrix(r: float, trunc: Truncation) -> ModeOperator:
    """Single-mode squeezer S(r) = exp[(r/2)(a^2 - a^dag^2)] on the cutoff space.

    The generator is real antisymmetric, so expm_antisymmetric gives an
    orthogonal matrix: inverse pairs compose to the identity and
    unitarity holds on the whole space to machine precision.  The price is a boundary
    reflection: amplitude that the untruncated operator would push past
    the cutoff folds back, perturbing the vacuum column at the
    ~0.3 * tanh(r)**(dim/2) scale.  Size dim so that this is below the
    accuracy you need (dim >= 80 gives < 1e-8 for r <= 0.725).
    """
    if abs(r) > SQUEEZE_LIMIT:
        raise ValueError(f"|r| must not exceed {SQUEEZE_LIMIT}, got {r}")
    a = annihilation(trunc).matrix.real
    gen = 0.5 * r * (a @ a - a.T @ a.T)
    return ModeOperator(expm_antisymmetric(gen), trunc)


def apply_operator(op: ModeOperator, state: SingleModeState) -> SingleModeState:
    _require_same_truncation(op, state)
    return SingleModeState(op.matrix @ state.amps, state.truncation)


def inner_product(u: State, v: State) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    if type(u) is not type(v):
        raise TypeError("inner product needs two states of the same kind")
    _require_same_truncation(u, v)
    return complex(np.vdot(u.amps, v.amps))


def tensor(a: SingleModeState, b: SingleModeState) -> TwoModeState:
    """Product state with amps[n_a, n_b] = a[n_a] * b[n_b]."""
    _require_same_truncation(a, b)
    return TwoModeState(np.outer(a.amps, b.amps), a.truncation)


def partial_trace_keep_b(state: TwoModeState, weights_a: np.ndarray) -> np.ndarray:
    """Unnormalized distribution over n_b after weighting mode a:

        q[n_b] = sum_{n_a} weights_a[n_a] |amps[n_a, n_b]|^2

    weights_a must have one entry per level of mode a.
    """
    w = np.asarray(weights_a, dtype=float)
    if w.shape != (state.dim,):
        raise ValueError("weights_a must have one entry per mode-a level")
    return w @ state.joint_distribution()
