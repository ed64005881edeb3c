"""Closed-form Fock coefficients of the source states.

Covers single-mode squeezed vacuum, its normalized sum and difference with
the oppositely squeezed state (the even/odd "cat" superpositions used for
heralding), and the two-mode squeezed vacuum benchmark: pair amplitudes
with their tail checks, superposition norms and herald probabilities, and
the benchmark's P(1,1).
"""
from __future__ import annotations

import math

import numpy as np

from .fockspace import SQUEEZE_LIMIT, Truncation, TruncationError, log_factorials

LN2 = math.log(2.0)


def squeezing_db(r: float) -> float:
    """Squeezing strength in decibels: 10 log10 e^{2r}."""
    return 20.0 * r / math.log(10.0)


def _check_squeeze(r) -> None:
    over = np.abs(r) > SQUEEZE_LIMIT
    if np.any(over):
        raise ValueError(f"|r| must not exceed {SQUEEZE_LIMIT}, got {np.asarray(r)[over][0]}")


def _check_tails(r, trunc: Truncation, *checks: tuple[np.ndarray, str]) -> None:
    """TruncationError for the first r whose tail mass beyond the cutoff
    exceeds its tolerance in any of the (tail, what) checks, naming the
    first check it fails; `what` is formatted with r."""
    if not any(np.any(tail > trunc.tail_tol) for tail, _ in checks):
        return
    over = np.array([np.atleast_1d(tail) > trunc.tail_tol for tail, _ in checks])
    i = np.flatnonzero(over.any(axis=0))[0]
    tail, what = checks[int(np.flatnonzero(over[:, i])[0])]
    raise TruncationError(
        f"{what.format(r=float(np.atleast_1d(r)[i]))} does not fit in dim = {trunc.dim}",
        float(np.atleast_1d(tail)[i]),
    )


def _even_log_weights(r, pairs: int) -> np.ndarray:
    """log|c_2k| of squeezed vacuum for k < pairs, with one row per entry
    of an array r.

    c_{2k} = (cosh r)^{-1/2} sqrt((2k)!) / (2^k k!) (-tanh r)^k, evaluated
    in log space so large cutoffs stay finite.
    """
    r = np.asarray(r, dtype=float)[..., None]
    k = np.arange(pairs)
    log_fact = log_factorials(2 * pairs - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_t = k * np.log(np.tanh(np.abs(r)))
    # r = 0: log tanh r = -inf, and only k = 0 survives
    k_log_t[..., 0] = 0.0
    return -0.5 * np.log(np.cosh(r)) + 0.5 * log_fact[2 * k] - k * LN2 - log_fact[k] + k_log_t


def _log_cat_norm(r, sign: int):
    """log N_pm(r), the odd branch logged factor by factor so that it
    stays finite where sinh^2 r underflows."""
    if sign > 0:
        return np.log(cat_norm(r, sign))
    c = np.sqrt(np.cosh(2.0 * r))
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(2.0 * np.sinh(np.abs(r))) - np.log(c * (c + 1.0))


def pair_amplitudes(r, sign: int | None, trunc: Truncation) -> np.ndarray:
    """|c_2k| of the pair levels |2k>, 2k < dim, of squeezed vacuum (sign
    None) or of the sign superposition, one row per entry of an array r,
    after checking both tail masses against the cutoff.

    The superposition keeps pair levels with k even/odd and doubles them
    (S(-r) flips the sign of every odd-k level); its amplitudes
    2 c_2k / sqrt(N_pm) are formed in log space, where N_- underflows as
    r -> 0.  At r = 0 the odd branch is its r -> 0 limit, |2>.
    """
    if sign not in (None, +1, -1):
        raise ValueError(f"sign must be +1, -1 or None, got {sign}")
    _check_squeeze(r)
    logmag = _even_log_weights(r, (trunc.dim + 1) // 2)
    vacuum = (1.0 - np.sum(np.exp(2.0 * logmag), axis=-1), "squeezed vacuum at r = {r}")
    if sign is None:
        _check_tails(r, trunc, vacuum)
        return np.exp(logmag)
    r_col = np.asarray(r, dtype=float)[..., None]
    kept = slice(0 if sign > 0 else 1, None, 2)
    logamp = np.full(logmag.shape, -np.inf)
    with np.errstate(invalid="ignore"):
        logamp[..., kept] = logmag[..., kept] + LN2 - 0.5 * _log_cat_norm(r_col, sign)
    if sign < 0 and np.any(r_col == 0.0):
        limit = np.where(np.arange(logmag.shape[-1]) == 1, 0.0, -np.inf)
        logamp = np.where(r_col == 0.0, limit, logamp)
    mag = np.exp(logamp)
    _check_tails(r, trunc, vacuum, (1.0 - np.sum(mag * mag, axis=-1),
                                    "superposition at r = {r}, sign = %+d" % sign))
    return mag


def converged_dim(r: float, tail_tol: float, max_dim: int = 8192) -> int:
    """Smallest even cutoff whose squeezed-vacuum tail mass is below tail_tol."""
    _check_squeeze(r)
    block = 64
    pairs = block
    while True:
        logmag = _even_log_weights(r, pairs)
        cum = np.cumsum(np.exp(2.0 * logmag))
        tails = 1.0 - cum
        hit = np.nonzero(tails <= tail_tol)[0]
        if hit.size:
            return 2 * (int(hit[0]) + 1)
        pairs *= 2
        if 2 * pairs > 2 * max_dim:
            raise ValueError(f"no cutoff below {max_dim} reaches tail {tail_tol}")


def cat_norm(r, sign: int):
    """Norm-square N_pm(r) of S(r)|0> pm S(-r)|0>, elementwise for an
    array r.

    N_pm = 2 (1 pm 1/c) with c = sqrt(cosh 2r) = cosh r sqrt(1 + tanh^2 r);
    the two branches sum to 4 identically.  The odd branch is evaluated as
    4 sinh^2 r / (c (c + 1)), which does not cancel at small r.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_squeeze(r)
    c = np.sqrt(np.cosh(2.0 * r))
    if sign > 0:
        return 2.0 * (1.0 + 1.0 / c)
    return 4.0 * np.sinh(r) ** 2 / (c * (c + 1.0))


def herald_probability(r, sign: int):
    """Probability N_pm(r)/4 of projecting S(r)|0> onto the pm
    superposition, elementwise for an array r."""
    return cat_norm(r, sign) / 4.0


def _tmss_tanh(r, trunc: Truncation):
    """tanh |r| of the two-mode squeezed vacuum, after checking that its
    tail mass tanh^(2 dim) r fits the cutoff."""
    _check_squeeze(r)
    t = np.tanh(np.abs(r))
    _check_tails(r, trunc, ((t * t) ** trunc.dim, "two-mode squeezed vacuum at r = {r}"))
    return t


def tmss_p11(r, trunc: Truncation):
    """P(1,1) = tanh^2 r / cosh^2 r of the two-mode squeezed vacuum,
    elementwise for an array r."""
    t = _tmss_tanh(r, trunc)
    return t * t / np.cosh(r) ** 2
