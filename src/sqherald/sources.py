"""Source states with closed-form Fock coefficients.

Covers single-mode squeezed vacuum, its normalized sum and difference with
the oppositely squeezed state (the even/odd "cat" superpositions used for
heralding), and the two-mode squeezed vacuum benchmark.
"""
from __future__ import annotations

import math

import numpy as np

from .fockspace import (
    SQUEEZE_LIMIT,
    SingleModeState,
    Truncation,
    TruncationError,
    TwoModeState,
    log_factorials,
)

LN2 = math.log(2.0)


class DegenerateStateError(ValueError):
    """The requested superposition has zero norm and is undefined."""


def squeezing_db(r: float) -> float:
    """Squeezing strength in decibels: 10 log10 e^{2r}."""
    return 20.0 * r / math.log(10.0)


def _check_squeeze(r: float) -> None:
    if abs(r) > SQUEEZE_LIMIT:
        raise ValueError(f"|r| must not exceed {SQUEEZE_LIMIT}, got {r}")


def _even_log_weights(r: float, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """log|c| and sign of the squeezed-vacuum coefficient of |2k>, k < pairs.

    c_{2k} = (cosh r)^{-1/2} sqrt((2k)!) / (2^k k!) (-tanh r)^k, evaluated
    in log space so large cutoffs stay finite.
    """
    k = np.arange(pairs)
    t = math.tanh(abs(r))
    log_fact = log_factorials(2 * pairs - 1)
    logmag = (
        -0.5 * math.log(math.cosh(r))
        + 0.5 * log_fact[2 * k]
        - k * LN2
        - log_fact[k]
    )
    if t > 0.0:
        logmag = logmag + k * math.log(t)
    else:
        # r = 0: only k = 0 survives
        logmag = np.where(k == 0, logmag, -np.inf)
    sign = np.where(k % 2 == 0, 1.0, -1.0) if r > 0 else np.ones(pairs)
    return logmag, sign


def _vacuum_log_weights(r: float, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """log|c_2k| and signs of squeezed vacuum for 2k < dim, after checking
    that the tail mass beyond the cutoff fits its tolerance."""
    _check_squeeze(r)
    logmag, sign = _even_log_weights(r, (trunc.dim + 1) // 2)
    tail = 1.0 - float(np.sum(np.exp(2.0 * logmag)))
    if tail > trunc.tail_tol:
        raise TruncationError(
            f"squeezed vacuum at r = {r} does not fit in dim = {trunc.dim}", tail
        )
    return logmag, sign


def squeezed_vacuum(r: float, trunc: Truncation) -> SingleModeState:
    """S(r)|0>: even-level amplitudes c_{2k} proportional to (-tanh r)^k.

    The sign convention matches squeeze_matrix: positive r gives a real
    state with alternating signs on levels 0, 2, 4, ...
    """
    logmag, sign = _vacuum_log_weights(r, trunc)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[0::2] = sign * np.exp(logmag)
    return SingleModeState(amps, trunc)


def converged_dim(r: float, tail_tol: float, max_dim: int = 8192) -> int:
    """Smallest even cutoff whose squeezed-vacuum tail mass is below tail_tol."""
    _check_squeeze(r)
    block = 64
    pairs = block
    while True:
        logmag, _ = _even_log_weights(r, pairs)
        cum = np.cumsum(np.exp(2.0 * logmag))
        tails = 1.0 - cum
        hit = np.nonzero(tails <= tail_tol)[0]
        if hit.size:
            return 2 * (int(hit[0]) + 1)
        pairs *= 2
        if 2 * pairs > 2 * max_dim:
            raise ValueError(f"no cutoff below {max_dim} reaches tail {tail_tol}")


def cat_norm(r: float, sign: int) -> float:
    """Norm-square N_pm(r) of S(r)|0> pm S(-r)|0>.

    N_pm = 2 (1 pm 1/c) with c = sqrt(cosh 2r) = cosh r sqrt(1 + tanh^2 r);
    the two branches sum to 4 identically.  The odd branch is evaluated as
    4 sinh^2 r / (c (c + 1)), which does not cancel at small r.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_squeeze(r)
    c = math.sqrt(math.cosh(2.0 * r))
    if sign > 0:
        return 2.0 * (1.0 + 1.0 / c)
    return 4.0 * math.sinh(r) ** 2 / (c * (c + 1.0))


def _log_cat_norm(r: float, sign: int) -> float:
    """log N_pm(r), the odd branch logged factor by factor so that it
    stays finite where sinh^2 r underflows."""
    if sign > 0:
        return math.log(cat_norm(r, sign))
    c = math.sqrt(math.cosh(2.0 * r))
    return 2.0 * math.log(2.0 * math.sinh(abs(r))) - math.log(c * (c + 1.0))


def squeezed_cat(r: float, sign: int, trunc: Truncation) -> SingleModeState:
    """Normalized superposition (S(r)|0> pm S(-r)|0>) / sqrt(N_pm).

    The plus branch lives on levels 0, 4, 8, ...; the minus branch on
    2, 6, 10, ...  The minus branch is undefined at r = 0.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if sign < 0 and r == 0.0:
        raise DegenerateStateError("the odd superposition vanishes at r = 0")
    logmag, sign_k = _vacuum_log_weights(r, trunc)
    # S(-r) flips the sign of every odd-k pair level, so the sum/difference
    # keeps pair levels with k even/odd and doubles them; the amplitudes
    # 2 c_2k / sqrt(N_pm) are formed in log space, where N_- underflows as
    # r -> 0
    k = np.arange(0 if sign > 0 else 1, len(logmag), 2)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[2 * k] = sign_k[k] * np.exp(logmag[k] + LN2 - 0.5 * _log_cat_norm(r, sign))
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail > trunc.tail_tol:
        raise TruncationError(
            f"superposition at r = {r}, sign = {sign:+d} does not fit in "
            f"dim = {trunc.dim}",
            tail,
        )
    return SingleModeState(amps, trunc)


def herald_probability(r: float, sign: int) -> float:
    """Probability N_pm(r)/4 of projecting S(r)|0> onto the pm superposition."""
    return cat_norm(r, sign) / 4.0


def _tmss_tanh(r: float, trunc: Truncation) -> float:
    """tanh |r| of the two-mode squeezed vacuum, after checking that its
    tail mass tanh^(2 dim) r fits the cutoff."""
    _check_squeeze(r)
    t = math.tanh(abs(r))
    tail = (t * t) ** trunc.dim
    if tail > trunc.tail_tol:
        raise TruncationError(
            f"two-mode squeezed vacuum at r = {r} does not fit in dim = {trunc.dim}",
            tail,
        )
    return t


def tmss_p11(r: float, trunc: Truncation) -> float:
    """P(1,1) = tanh^2 r / cosh^2 r of the two-mode squeezed vacuum."""
    t = _tmss_tanh(r, trunc)
    return t * t / math.cosh(r) ** 2


def two_mode_squeezed_vacuum(r: float, trunc: Truncation) -> TwoModeState:
    """Two-mode squeezed vacuum with Schmidt amplitudes tanh^n r / cosh r.

    Amplitudes are taken real and positive; only |amps|^2 feeds the
    statistics downstream, so any relative phase convention on the
    Schmidt terms would give the same tables.
    """
    t = _tmss_tanh(r, trunc)
    n = np.arange(trunc.dim)
    if t == 0.0:
        diag = np.where(n == 0, 1.0, 0.0)
    else:
        diag = np.exp(n * math.log(t) - math.log(math.cosh(r)))
    amps = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    np.fill_diagonal(amps, diag)
    return TwoModeState(amps, trunc)
