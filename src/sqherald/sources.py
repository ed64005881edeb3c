"""Closed-form Fock coefficients and photocount generating functions of the
source states.

Covers single-mode squeezed vacuum, its normalized sum and difference with
the oppositely squeezed state (the even/odd "cat" superpositions used for
heralding), and the two-mode squeezed vacuum benchmark: pair amplitudes
with their tail checks (the Kerr label series and the oracles), single
photon-number probabilities p_N, superposition norms and herald
probabilities, the benchmark's P(1,1), and the generating function
G(z) = sum_N p_N z^N of each single-mode source (Kelley & Kleiner, Phys.
Rev. 136, A316 (1964)), from which every split and click statistic is a
value or a divided difference (see generating_function).
"""
from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

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
    return (trunc.dims_array + 1) // 2


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
    log_fact = log_factorials(2 * pairs - 1)
    r = np.asarray(r, dtype=float)[..., None]
    k = np.arange(pairs)
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


def pair_amplitudes(r, sign: int | None, *cutoffs: Truncation | CutoffColumn,
                    vacuum: bool = False) -> list:
    """|c_2k| of the pair levels |2k>, 2k < dim, of squeezed vacuum (sign
    None) or of the sign superposition, one row per entry of an array r,
    as one array per cutoff of cutoffs, after checking both tail masses
    against each cutoff in turn.

    Every cutoff's rows come from one build at the widest dim: a cutoff's
    rows are a prefix of a wider one's, entry for entry.  A cutoff is a
    Truncation, or a CutoffColumn with one cutoff per entry of a 1-D r,
    whose rows are its widest dim wide and 0 past their own cutoffs.  All
    the checks of a cutoff come before any of the next; the first row
    that fails one is named, with its own dim.  The superposition keeps
    pair levels with k even/odd and doubles them (S(-r) flips the sign of
    every odd-k level); its amplitudes 2 c_2k / sqrt(N_pm) are formed in
    log space, where N_- underflows as r -> 0.  At r = 0 the odd branch
    is its r -> 0 limit, |2>.  With vacuum, each cutoff's entry is the
    pair (squeezed vacuum's |c_2k|, the sign's), from the same build and
    the same checks.  A Truncation's arrays are read-only views of the
    build.
    """
    if sign not in (None, +1, -1):
        raise ValueError(f"sign must be +1, -1 or None, got {sign}")
    _check_squeeze(r)
    logmag = _even_log_weights(r, (max(c.dim for c in cutoffs) + 1) // 2)
    vac_sq = np.exp(2.0 * logmag)
    mags = [np.exp(logmag)] if sign is None or vacuum else []
    if sign is not None:
        r_col = np.asarray(r, dtype=float)[..., None]
        kept = slice(0 if sign > 0 else 1, None, 2)
        logamp = np.full(logmag.shape, -np.inf)
        with np.errstate(invalid="ignore"):
            logamp[..., kept] = logmag[..., kept] + LN2 - 0.5 * _log_cat_norm(r_col, sign)
        if sign < 0 and np.any(r_col == 0.0):
            limit = np.where(np.arange(logmag.shape[-1]) == 1, 0.0, -np.inf)
            logamp = np.where(r_col == 0.0, limit, logamp)
        mags.append(np.exp(logamp))
        sign_sq = mags[-1] * mags[-1]
    for mag in mags:
        mag.setflags(write=False)
    out = []
    for trunc in cutoffs:
        pairs = _own_pairs(r, trunc)
        width = (trunc.dim + 1) // 2
        checks = [(1.0 - _masses(vac_sq[..., :width], pairs), "squeezed vacuum at r = {r}")]
        if sign is not None:
            checks.append((1.0 - _masses(sign_sq[..., :width], pairs),
                           "superposition at r = {r}, sign = %+d" % sign))
        _check_tails(r, trunc, *checks)
        rows = [mag[..., :width] for mag in mags]
        if pairs is not None:
            beyond = np.arange(width) >= pairs[:, None]
            rows = [np.where(beyond, 0.0, row) for row in rows]
        out.append((rows[0], rows[-1]) if vacuum else rows[-1])
    return out


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


def tmss_p11(r):
    """P(1,1) = tanh^2 r / cosh^2 r of the two-mode squeezed vacuum,
    elementwise for an array r."""
    _check_squeeze(r)
    t = np.tanh(np.abs(r))
    return t * t / np.cosh(r) ** 2


# ------------------------------------------ photocount generating functions


class Level(NamedTuple):
    """A point w = t^2 z^2 of the generating functions with its radicals
    alpha = sqrt(1 - w) and beta = sqrt(1 + w), and delta = beta - alpha,
    formed as 2w / (alpha + beta) so that it keeps its digits at small w."""

    w: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    delta: np.ndarray


def _gap(x, y, d, m: int):
    """x^-m - y^-m for 0 < x <= y, given d = y - x, as
    d sum_{i < m} x^i y^(m-1-i) / (xy)^m: a sum of nonnegative terms, with
    no cancellation where x and y are close."""
    return d * sum(x**i * y ** (m - 1 - i) for i in range(m)) / (x * y) ** m


def _value(at: Level, q: int, s: int):
    """alpha^-q + s beta^-q at one level, for s in (-1, 0, +1)."""
    if s == 0:
        return at.alpha**-q
    if s > 0:
        return at.alpha**-q + at.beta**-q
    return _gap(at.alpha, at.beta, at.delta, q)


def _span(x1, x2, q: int):
    """sum_{j < q} x1^-(q-j) x2^-(j+1) / (x1 + x2): the divided difference
    of x^-q between x1 and x2, taken over x^2 and negated."""
    return sum(x1 ** -(q - j) * x2 ** -(j + 1) for j in range(q)) / (x1 + x2)


def _divided(lo: Level, hi: Level, q: int, s: int):
    """The divided difference of alpha^-q + s beta^-q over w between two
    levels.  Over w, alpha^-q rises by _span of the alphas and beta^-q falls
    by _span of the betas; their difference (s = +1) is written term by
    term through delta, so that it keeps its digits at small w."""
    rise = _span(lo.alpha, hi.alpha, q)
    if s == 0:
        return rise
    if s < 0:
        return rise + _span(lo.beta, hi.beta, q)
    a1, a2, b1, b2 = lo.alpha, hi.alpha, lo.beta, hi.beta
    d1, d2 = lo.delta, hi.delta
    out = 0.0
    for j in range(q):
        m, n = q - j, j + 1
        out = out + (a1**-m * a2**-n * (d1 + d2) / ((a1 + a2) * (b1 + b2))
                     + (_gap(a1, b1, d1, m) * a2**-n + b1**-m * _gap(a2, b2, d2, n)) / (b1 + b2))
    return out


@dataclasses.dataclass(frozen=True)
class GeneratingFunction:
    """The photocount generating function G(z) = sum_N p_N z^N of a source,
    elementwise over an array r, as G(z) = K F(t^2 z^2) with t = tanh r.

    Squeezed vacuum has G = S(z) = 1/(cosh r sqrt(1 - t^2 z^2)).  Since
    c_2k(-r) = (-1)^k c_2k(r), the sign superpositions have
    G = 2 [S(z) + s S(iz)] / N_s, so with alpha = sqrt(1 - w) and
    beta = sqrt(1 + w)

        F(w) = alpha^-1 + s beta^-1,  K = 1/cosh r (parity s = 0),
                                          2/(N_s cosh r) (s = sign).

    Only derivatives and divided differences of G enter the statistics,
    so F is never formed; its k-th w-derivative is
    a_k (alpha^-(2k+1) + (-1)^k s beta^-(2k+1)) with a = (1, 1/2, 3/4).
    scale is K t^2, which stays finite where N_- -> 0: for the odd branch
    it is c (c + 1) / (2 cosh^3 r) with c = sqrt(cosh 2r), 1 at r = 0,
    where G = z^2 is the branch's r -> 0 limit |2>.  sech2 is 1/cosh^2 r,
    so that 1 - w near w = t^2 can be formed without cancellation.
    """

    t2: np.ndarray
    sech2: np.ndarray
    scale: np.ndarray
    parity: int

    def level(self, z, one_minus_w=None) -> Level:
        """The level w = t^2 z^2, with 1 - w as given or formed from w."""
        w = self.t2 * z * z
        alpha = np.sqrt(1.0 - w if one_minus_w is None else one_minus_w)
        beta = np.sqrt(1.0 + w)
        return Level(w, alpha, beta, 2.0 * w / (alpha + beta))

    @property
    def slope_at_zero(self) -> float:
        """F'(0) = (1 - s)/2."""
        return 0.5 * (1 - self.parity)

    def slope(self, at: Level):
        """F'(w) = (alpha^-3 - s beta^-3)/2."""
        return 0.5 * _value(at, 3, -self.parity)

    def curvature(self, at: Level):
        """F''(w) = 3 (alpha^-5 + s beta^-5)/4."""
        return 0.75 * _value(at, 5, self.parity)

    def divided(self, lo: Level, hi: Level, order: int):
        """The divided difference over w of F's order-th derivative
        (order 0, 1 or 2) between two levels."""
        s = self.parity if order % 2 == 0 else -self.parity
        return (1.0, 0.5, 0.75)[order] * _divided(lo, hi, 2 * order + 1, s)


def generating_function(r, sign: int | None) -> GeneratingFunction:
    """The GeneratingFunction of squeezed vacuum (sign None) or of the sign
    superposition, elementwise over an array r."""
    if sign not in (None, +1, -1):
        raise ValueError(f"sign must be +1, -1 or None, got {sign}")
    _check_squeeze(r)
    r = np.asarray(r, dtype=float)
    t2 = np.tanh(r) ** 2
    ch = np.cosh(r)
    if sign is None:
        scale = t2 / ch
    elif sign > 0:
        scale = 2.0 * t2 / (cat_norm(r, +1) * ch)
    else:
        c = np.sqrt(np.cosh(2.0 * r))
        scale = c * (c + 1.0) / (2.0 * ch**3)
    return GeneratingFunction(t2, 1.0 / (ch * ch), scale, 0 if sign is None else sign)


def _half_binomials(count: int) -> np.ndarray:
    """c_k = C(2k, k)/4^k = prod_(j <= k) (1 - 1/(2j)) for k < count, each
    as exp of its sum of log1p(-1/(2j)), with the prefix sums compensated
    (Neumaier), so no c_k is more than a few ulps off at any k."""
    sums = [0.0]
    total = carry = 0.0
    for term in np.log1p(-0.5 / np.arange(1.0, count)).tolist():
        step = total + term
        carry += (total - step) + term if abs(total) >= abs(term) else (term - step) + total
        total = step
        sums.append(total + carry)
    return np.exp(sums)


def pair_count_probability(k, r, sign: int | None) -> np.ndarray:
    """p_2k at each pair index k >= 1 (integer-valued floats) and r,
    elementwise.  p_2k is K t^2k times the coefficient of w^k in F, so
    p_2k = K t^2 c_k (1 + s (-1)^k) t^(2(k-1)) with c_k = C(2k, k)/4^k
    (_half_binomials up to the largest k), formed as that product.  A
    double t^2 is off by up to half an ulp, which its (k-1)-th power
    multiplies by k - 1, so the power is taken in np.longdouble, where
    the platform has a wider one than double."""
    k = np.asarray(k, dtype=float)
    g = generating_function(r, sign)
    c = _half_binomials(int(k.max()) + 1)[k.astype(np.intp)]
    parity = 1.0 + g.parity * np.where(k % 2.0 == 0.0, 1.0, -1.0)
    t2 = np.tanh(np.asarray(r, dtype=np.longdouble)) ** 2
    return g.scale * c * parity * np.power(t2, k - 1.0).astype(float)
