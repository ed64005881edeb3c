"""Balanced beam splitter on truncated two-mode states and the photon-pair
statistics it induces.

Convention: U = exp[theta (a^dag b - a b^dag)] with theta = pi/4, so
U a^dag U^dag = (a^dag - b^dag)/sqrt(2) and a single photon pair splits as

    |2, 0>  ->  (1/2)|2, 0> - (1/sqrt 2)|1, 1> + (1/2)|0, 2>.

With vacuum in port b only the columns |N, 0> of U are needed, and they
have a closed form (Campos, Saleh & Teich, PRA 40, 1371 (1989)):

    U |N, 0> = sum_k (-1)^(N-k) sqrt(C(N, k) / 2^N) |k, N-k>.

Squaring them, P(n_a, n_b) = C(N, n_a) 2^-N p_N with N = n_a + n_b, so
every production statistic is a contraction over the source's
photon-number distribution p_N (photon_numbers): the herald row P(1, n_b)
(herald_row) and the herald-weighted signal row (weighted_row).

split() gathers the amplitudes into a dense two-mode table built once per
cutoff, and joint_probability() squares it; together they are the dense
oracle that the tests and `verify` check the kernels against.
apply_beam_splitter() acts on arbitrary two-mode states through the
orthogonal per-total-N blocks exp(theta G_N); it is the independent
reference for split().  two_mode_squeeze_apply() is the reference
two-mode squeezer, one exponentiated block per diagonal n_a - n_b.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import sources
from .fockspace import (
    SingleModeState,
    Truncation,
    TruncationError,
    TwoModeState,
    expm_antisymmetric,
    fock_state,
    log_factorials,
)

BALANCED_ANGLE = math.pi / 4.0


class ZeroHeraldError(ZeroDivisionError):
    """Conditioning on a herald outcome that has zero probability."""


@functools.lru_cache(maxsize=16)
def _blocks(dim: int, theta: float) -> tuple[np.ndarray, ...]:
    """Orthogonal beam-splitter blocks, one per total photon number N < dim.

    Block N acts on the basis |k, N-k>, k = 0..N, with generator
    G[k+1, k] = theta sqrt((k+1)(N-k)) and G[k-1, k] = -theta sqrt(k(N-k+1)).
    The generator is real antisymmetric, so each block is orthogonal.
    """
    out = []
    for total in range(dim):
        k = np.arange(total)
        lower = theta * np.sqrt((k + 1.0) * (total - k))
        block = expm_antisymmetric(np.diag(lower, k=-1) - np.diag(lower, k=1))
        block.setflags(write=False)
        out.append(block)
    return tuple(out)


def apply_beam_splitter(state: TwoModeState, theta: float = BALANCED_ANGLE) -> TwoModeState:
    """Apply the beam splitter to an arbitrary two-mode state.

    Reference path: split() is checked against it, and production never
    calls it.  Anti-diagonals with total photon number >= dim cannot be represented
    and are dropped; the lost mass shows up as a norm deficit on the
    output, mirroring how the cutoff treats every other operation.
    """
    d = state.dim
    blocks = _blocks(d, theta)
    rows = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    for total in range(d):
        k = rows[: total + 1]
        out[k, total - k] = blocks[total] @ state.amps[k, total - k]
    return TwoModeState(out, state.truncation)


@functools.lru_cache(maxsize=16)
def _balanced_columns(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form balanced-splitter image of every |N, 0>, N < dim.

    Returns (coeff, totals): coeff[n_a, n_b] is the amplitude that |N, 0>
    with N = n_a + n_b sends to |n_a, n_b>, and totals[n_a, n_b] = N,
    except that totals >= dim, which the cutoff cannot hold, all point at
    index dim (a zero pad slot in split()).
    """
    n = np.arange(dim)
    totals = np.add.outer(n, n)
    log_fact = log_factorials(2 * dim - 1)
    # the grouped sum keeps |coeff| exactly symmetric under n_a <-> n_b
    log_coeff = 0.5 * (
        log_fact[totals] - np.add.outer(log_fact[:dim], log_fact[:dim]) - totals * math.log(2.0)
    )
    coeff = np.where(n % 2 == 0, 1.0, -1.0) * np.exp(log_coeff)
    totals = np.minimum(totals, dim)
    coeff.setflags(write=False)
    totals.setflags(write=False)
    return coeff, totals


def split(state: SingleModeState) -> TwoModeState:
    """Send `state` into port a of the balanced splitter with vacuum in
    port b: out[n_a, n_b] = coeff[n_a, n_b] * amps[n_a + n_b].

    Totals n_a + n_b >= dim are dropped, as in apply_beam_splitter.
    """
    norm = state.norm_sq()
    if norm > 1.0 + 1e-9 or 1.0 - norm > state.truncation.tail_tol:
        raise ValueError(f"input must be normalized up to the tail tolerance, |psi|^2 = {norm}")
    coeff, totals = _balanced_columns(state.dim)
    return TwoModeState(coeff * np.append(state.amps, 0.0)[totals], state.truncation)


@dataclasses.dataclass(frozen=True)
class JointDistribution:
    """Joint photon-number probabilities p[n_a, n_b] plus truncation deficit.

    deficit = 1 - sum(p); constructors guarantee it stays below the
    truncation's tail tolerance.
    """

    p: np.ndarray
    deficit: float
    truncation: Truncation

    def __post_init__(self):
        d = self.truncation.dim
        if np.shape(self.p) != (d, d):
            raise ValueError("p must be dim x dim")
        arr = np.array(self.p, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)
        if self.deficit > self.truncation.tail_tol:
            raise TruncationError("joint distribution lost too much mass", self.deficit)


def joint_probability(state: TwoModeState) -> JointDistribution:
    p = state.joint_distribution()
    deficit = 1.0 - float(np.sum(p))
    return JointDistribution(p, deficit, state.truncation)


@functools.lru_cache(maxsize=512)
def photon_numbers(r: float, sign: int | None, trunc: Truncation) -> np.ndarray:
    """Photon-number distribution p_N, N < dim, of a source: the
    superposition |r; sign> for sign = +1 or -1, plain squeezed vacuum |r>
    for sign = None.

    With vacuum in port b the balanced splitter gives
    P(n_a, n_b) = C(N, n_a) 2^-N p_N with N = n_a + n_b, so every split
    statistic is a contraction over this vector.  The source constructors
    raise TruncationError for tails beyond the cutoff's tolerance.  The odd
    superposition at r = 0 is taken as its r -> 0 limit, the two-photon
    level |2>, so swept columns extend continuously to r = 0.
    """
    if sign is None:
        state = sources.squeezed_vacuum(r, trunc)
    elif sign < 0 and r == 0.0:
        state = fock_state(2, trunc)
    else:
        state = sources.squeezed_cat(r, sign, trunc)
    p = np.abs(state.amps) ** 2
    p.setflags(write=False)
    return p


def herald_row(r: float, sign: int | None, trunc: Truncation) -> np.ndarray:
    """P(1, n_b) of the split source for n_b < dim:
    (n_b + 1) 2^-(n_b + 1) p_(n_b + 1).  The last entry, total dim, lies
    beyond the cutoff and is zero.  Its entry 1 is P(1,1) = p_2 / 2."""
    p = photon_numbers(r, sign, trunc)
    n = np.arange(1, trunc.dim)
    return np.append(np.ldexp(n * p[1:], -n), 0.0)


@functools.lru_cache(maxsize=16)
def _pair_weights(dim: int) -> np.ndarray:
    """B[n_a, n_b] = C(N, n_a) 2^-N, the squared closed-form coefficients."""
    coeff, _ = _balanced_columns(dim)
    weights = coeff * coeff
    weights.setflags(write=False)
    return weights


def weighted_row(r: float, sign: int | None, trunc: Truncation, w: np.ndarray) -> np.ndarray:
    """sum_{n_a} w_{n_a} P(n_a, n_b) of the split source for n_b < dim, in
    real arithmetic: P(n_a, n_b) = B[n_a, n_b] p_(n_a + n_b), and totals
    n_a + n_b >= dim, which the cutoff drops, read a zero pad slot."""
    _, totals = _balanced_columns(trunc.dim)
    p = np.append(photon_numbers(r, sign, trunc), 0.0)
    return w @ (_pair_weights(trunc.dim) * p[totals])


def single_photon_fraction(row: np.ndarray) -> float:
    """P(n_b = 1 | n_a = 1) from the herald row P(1, n_b)."""
    total = float(np.sum(row))
    if total == 0.0:
        raise ZeroHeraldError("herald outcome n_a = 1 has zero probability")
    return float(row[1]) / total


def conditional_single_photon(dist: JointDistribution) -> float:
    """P(n_b = 1 | n_a = 1): the single-photon fraction of the heralded mode."""
    return single_photon_fraction(dist.p[1, :])


def tmss_joint_probability(r: float, trunc: Truncation) -> JointDistribution:
    """Joint distribution of the two-mode squeezed vacuum benchmark."""
    return joint_probability(sources.two_mode_squeezed_vacuum(r, trunc))


def two_mode_squeeze_apply(s: float, state: TwoModeState) -> TwoModeState:
    """Apply S_ab(s) = exp[s (ab - a^dag b^dag)] one diagonal at a time.

    The generator keeps n_a - n_b fixed, so on the diagonal
    |m + p, m + q> (p - q = n_a - n_b) it is tridiagonal with
    G[m-1, m] = sqrt((m + p)(m + q)) = -G[m, m-1].  A diagonal with no
    amplitude stays zero.  Reference path for decomposition checks; the
    production splitter never needs it.
    """
    d = state.dim
    out = np.zeros((d, d), dtype=complex)
    for offset in range(1 - d, d):
        rows = np.arange(max(offset, 0), d + min(offset, 0))
        cols = rows - offset
        vec = state.amps[rows, cols]
        if not vec.any():
            continue
        upper = s * np.sqrt(rows[1:] * cols[1:])
        block = expm_antisymmetric(np.diag(upper, k=1) - np.diag(upper, k=-1))
        out[rows, cols] = block @ vec
    return TwoModeState(out, state.truncation)


def split_via_squeezer_decomposition(r: float, trunc: Truncation) -> TwoModeState:
    """Split squeezed vacuum using the squeezer identity instead of blocks:

        U (S_a(r)|0,0>) = S_ab(-r/2) S_a(r/2) S_b(r/2) |0, 0>

    with the sign conventions fixed above.  Amplitudes agree with split()
    to machine precision on photon totals well below the cutoff; near the
    cutoff the two paths truncate differently (split() drops whole totals
    >= dim, this path keeps the square grid), so compare probability
    tables, or amplitudes on totals < dim/2.
    """
    half = sources.squeezed_vacuum(r / 2.0, trunc)
    product = np.outer(half.amps, half.amps)
    return two_mode_squeeze_apply(-r / 2.0, TwoModeState(product, trunc))


def tmss_schmidt_check(r: float, trunc: Truncation) -> TwoModeState:
    """S_ab(r)|0,0> built by two_mode_squeeze_apply, for comparing
    probability tables against two_mode_squeezed_vacuum."""
    vac = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    vac[0, 0] = 1.0
    return two_mode_squeeze_apply(r, TwoModeState(vac, trunc))
