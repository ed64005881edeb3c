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

from .fockspace import SQUEEZE_LIMIT, CutoffColumn, Truncation, TruncationError, log_factorials

LN2 = math.log(2.0)


def squeezing_db(r: float) -> float:
    """Squeezing strength in decibels: 10 log10 e^{2r}."""
    return 20.0 * r / math.log(10.0)


def _check_squeeze(r) -> None:
    over = np.abs(r) > SQUEEZE_LIMIT
    if np.any(over):
        raise ValueError(f"|r| must not exceed {SQUEEZE_LIMIT}, got {np.asarray(r)[over][0]}")


def _check_tails(r, trunc, *checks: tuple[np.ndarray, str]) -> None:
    """TruncationError for the first r whose tail mass beyond its cutoff
    (trunc, a Truncation or a CutoffColumn over r) exceeds the tolerance
    in any of the (tail, what) checks, naming the first check it fails and
    its own dim; `what` is formatted with r."""
    if not any(np.any(tail > trunc.tail_tol) for tail, _ in checks):
        return
    over = np.array([np.atleast_1d(tail) > trunc.tail_tol for tail, _ in checks])
    i = int(np.flatnonzero(over.any(axis=0))[0])
    tail, what = checks[int(np.flatnonzero(over[:, i])[0])]
    dim = trunc.dim if isinstance(trunc, Truncation) else trunc.dims[i]
    raise TruncationError(
        f"{what.format(r=float(np.atleast_1d(r)[i]))} does not fit in dim = {dim}",
        float(np.atleast_1d(tail)[i]),
    )


def _own_pairs(r, trunc) -> np.ndarray | None:
    """The pair levels (dim + 1)//2 of each row of a CutoffColumn over the
    1-D array r; None for a Truncation, which holds for every row."""
    if isinstance(trunc, Truncation):
        return None
    if np.ndim(r) != 1 or len(r) != len(trunc.dims):
        raise ValueError(f"{len(trunc.dims)} cutoffs for r of shape {np.shape(r)}")
    return (np.array(trunc.dims) + 1) // 2


def _masses(sq: np.ndarray, pairs: np.ndarray | None) -> np.ndarray:
    """Sum of each row of sq over its own first pairs[i] entries (every
    entry for pairs None), as np.sum over that slice alone gives it: rows
    of one length are summed together, so no zero past a row's cutoff
    enters its pairwise sum."""
    if pairs is None:
        return np.sum(sq, axis=-1)
    out = np.empty(len(sq))
    for p in dict.fromkeys(pairs.tolist()):
        rows = pairs == p
        out[rows] = np.sum(sq[rows, :p], axis=-1)
    return out


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


def pair_amplitudes(r, sign: int | None, trunc: Truncation | CutoffColumn) -> np.ndarray:
    """|c_2k| of the pair levels |2k>, 2k < dim, of squeezed vacuum (sign
    None) or of the sign superposition, one row per entry of an array r,
    after checking both tail masses against the cutoff.

    trunc is a Truncation, or a CutoffColumn with one cutoff per entry of
    a 1-D r: then every row is built at the widest dim and tail-checked at
    its own, and its entries past its own cutoff are 0.  The first row
    that fails a check is named, with its own dim.  The superposition
    keeps pair levels with k even/odd and doubles them (S(-r) flips the
    sign of every odd-k level); its amplitudes 2 c_2k / sqrt(N_pm) are
    formed in log space, where N_- underflows as r -> 0.  At r = 0 the
    odd branch is its r -> 0 limit, |2>.
    """
    if sign not in (None, +1, -1):
        raise ValueError(f"sign must be +1, -1 or None, got {sign}")
    _check_squeeze(r)
    pairs = _own_pairs(r, trunc)
    logmag = _even_log_weights(r, (trunc.dim + 1) // 2)
    beyond = None if pairs is None else np.arange(logmag.shape[-1]) >= pairs[:, None]
    vacuum = (1.0 - _masses(np.exp(2.0 * logmag), pairs), "squeezed vacuum at r = {r}")
    if sign is None:
        _check_tails(r, trunc, vacuum)
        mag = np.exp(logmag)
    else:
        r_col = np.asarray(r, dtype=float)[..., None]
        kept = slice(0 if sign > 0 else 1, None, 2)
        logamp = np.full(logmag.shape, -np.inf)
        with np.errstate(invalid="ignore"):
            logamp[..., kept] = logmag[..., kept] + LN2 - 0.5 * _log_cat_norm(r_col, sign)
        if sign < 0 and np.any(r_col == 0.0):
            limit = np.where(np.arange(logmag.shape[-1]) == 1, 0.0, -np.inf)
            logamp = np.where(r_col == 0.0, limit, logamp)
        mag = np.exp(logamp)
        _check_tails(r, trunc, vacuum, (1.0 - _masses(mag * mag, pairs),
                                        "superposition at r = {r}, sign = %+d" % sign))
    if beyond is not None:
        mag[beyond] = 0.0
    return mag


def converged_dim(r, tail_tol: float, max_dim: int = 8192):
    """Smallest even cutoff whose squeezed-vacuum tail mass is below
    tail_tol: an int at a float r, and an integer array at each entry of
    a 1-D array r."""
    _check_squeeze(r)
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    dims = np.zeros(len(rs), dtype=np.intp)
    todo = np.arange(len(rs))
    pairs = 64
    while len(todo):
        # a longer row repeats the shorter one's sequential partial sums
        tails = 1.0 - np.cumsum(np.exp(2.0 * _even_log_weights(rs[todo], pairs)), axis=-1)
        hit = tails <= tail_tol
        found = hit.any(axis=-1)
        dims[todo[found]] = 2 * (np.argmax(hit[found], axis=-1) + 1)
        todo = todo[~found]
        pairs *= 2
        if len(todo) and 2 * pairs > 2 * max_dim:
            raise ValueError(f"no cutoff below {max_dim} reaches tail {tail_tol}")
    return int(dims[0]) if np.ndim(r) == 0 else dims


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
