"""Closed-form Fock coefficients and photocount generating functions of the
source states.

Covers single-mode squeezed vacuum, its normalized sum and difference with
the oppositely squeezed state (the even/odd "cat" superpositions used for
heralding), and the two-mode squeezed vacuum benchmark.  Every pair
probability p_2k comes from one closed-form product c_k t^(2(k-1))
(_pair_products): the p_N (pair_count_probability), the Kerr label-series
weights with their tail checks (odd_branch_weights), and the series cutoff
(converged_dim), whose squeezed-vacuum sums are those of the weights'
check.  Also here: superposition norms, herald probabilities, the
benchmark's P(1,1), and the generating function G(z) = sum_N p_N z^N of
each single-mode source (Kelley & Kleiner, Phys. Rev. 136, A316 (1964)),
from which every split and click statistic is a value or a divided
difference (see generating_function).
"""
from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .fockspace import SQUEEZE_LIMIT, CutoffColumn, TruncationError

# The longest half-binomial table built (128 MB), and the last pair level
# the series-cutoff search sums, far past the cutoff of any allowed r.
HALF_BINOMIALS_LIMIT = 2**24
SEARCH_PAIRS = 8192


def _check_squeeze(r) -> None:
    over = np.abs(r) > SQUEEZE_LIMIT
    if np.any(over):
        raise ValueError(f"|r| must not exceed {SQUEEZE_LIMIT}, got {np.asarray(r)[over][0]}")


def _check_tails(r, dims, tail_tol: float, *checks: tuple[np.ndarray, str]) -> None:
    """TruncationError for the first r whose tail mass beyond its cutoff
    exceeds tail_tol in any of the (tail, what) checks, naming the first
    check it fails and its own dim; dims is one int for every r or one
    per r, and `what` is formatted with r."""
    if not any(np.any(tail > tail_tol) for tail, _ in checks):
        return
    over = np.array([np.atleast_1d(tail) > tail_tol for tail, _ in checks])
    i = int(np.flatnonzero(over.any(axis=0))[0])
    tail, what = checks[int(np.flatnonzero(over[:, i])[0])]
    dim = int(np.broadcast_to(dims, over.shape[1:])[i])
    raise TruncationError(
        f"{what.format(r=float(np.atleast_1d(r)[i]))} does not fit in dim = {dim}",
        float(np.atleast_1d(tail)[i]),
    )


def _vacuum_sums(start, ch, t2, products: np.ndarray, k: np.ndarray) -> np.ndarray:
    """start, then start plus the sequential sums of squeezed vacuum's p_2k
    = c_k t^2k / cosh r and p_2(k+1) = p_2k t^2 (2k + 1)/(2k + 2) at each
    odd k, per row of start, ch and t2 (np.longdouble), from _pair_products."""
    terms = np.empty((len(ch), 2 * len(k) + 1))
    terms[:, 0] = start
    terms[:, 1::2] = (t2 / ch).astype(float)[:, None] * products
    terms[:, 2::2] = terms[:, 1::2] * t2.astype(float)[:, None] * ((2 * k + 1) / (2 * k + 2))
    return np.cumsum(terms, axis=1)


def odd_branch_weights(r: np.ndarray, column: CutoffColumn) -> np.ndarray:
    """The label-series weights g_k = conj(c_2k) d_2k of squeezed vacuum c
    against the odd superposition d, at the odd pair indices k < (dim +
    1)//2 of each entry of the 1-D array r at its own dim of column, and 0
    past it, after checking both tail masses of every row.

    Both amplitudes are real and share the sign (-1)^k, so g_k =
    (sqrt(N_-)/2) p_2k = f c_k t^(2(k-1)) (_pair_products), with one
    factor f = sinh r sqrt(c (c + 1)) / cosh^3 r per row (c = sqrt(cosh
    2r)), which stays normal where N_- underflows, formed in np.longdouble
    and rounded once.  Both tail checks are sequential sums of the same
    products over each row's own levels (_vacuum_sums for the squeezed
    vacuum), so each reads as in a build of that row alone; the first row
    over column.tail_tol raises, naming the squeezed vacuum's check
    before the superposition's, and its own dim.  At r = 0 every weight
    is 0, and the superposition is its r -> 0 limit |2>.
    """
    _check_squeeze(r)
    a = np.abs(np.asarray(r, dtype=np.longdouble))
    pairs = (column.dims + 1) // 2
    _check_half_binomials(int(pairs.max(initial=1)))  # before allocating k
    k = np.arange(1, int(pairs.max(initial=1)), 2)
    ch = np.cosh(a)
    c = np.sqrt(np.cosh(2.0 * a))
    t2 = np.tanh(a) ** 2
    products = _pair_products(k, t2[:, None])
    g = (np.sinh(a) * np.sqrt(c * (c + 1.0)) / ch**3).astype(float)[:, None] * products
    g[k >= pairs[:, None]] = 0.0
    odd = (c * (c + 1.0) / ch**3).astype(float)[:, None] * products
    rows = np.arange(len(a))
    odd_mass = np.cumsum(np.hstack([np.zeros((len(a), 1)), odd]), axis=1)[rows, pairs // 2]
    vac_mass = _vacuum_sums((1.0 / ch).astype(float), ch, t2, products, k)[rows, pairs - 1]
    _check_tails(r, column.dims, column.tail_tol, (1.0 - vac_mass, "squeezed vacuum at r = {r}"),
                 (1.0 - odd_mass, "superposition at r = {r}, sign = -1"))
    return g


def converged_dim(r, tail_tol: float):
    """Smallest even cutoff whose squeezed-vacuum tail mass is below
    tail_tol: an int at a float r, and an integer array at each entry of
    a 1-D array r.  The mass is summed by _vacuum_sums in rounds of
    doubling length, each continuing from the mass the last one reached,
    as one long sum would; past SEARCH_PAIRS pair levels it is refused."""
    _check_squeeze(r)
    a = np.abs(np.atleast_1d(np.asarray(r, dtype=np.longdouble)))
    ch = np.cosh(a)
    t2 = np.tanh(a) ** 2
    mass = (1.0 / ch).astype(float)
    dims = np.zeros(len(a), dtype=np.intp)
    todo = np.arange(len(a))
    lo, hi = 0, 64
    while len(todo):
        if lo >= SEARCH_PAIRS:
            raise ValueError(f"no cutoff up to dim {2 * lo + 2} reaches tail {tail_tol}")
        # pair levels lo .. hi; level lo is the mass carried over
        k = np.arange(lo + 1, hi, 2)
        sums = _vacuum_sums(mass[todo], ch[todo], t2[todo], _pair_products(k, t2[todo, None]), k)
        hit = 1.0 - sums <= tail_tol
        found = hit.any(axis=1)
        dims[todo[found]] = 2 * (lo + np.argmax(hit[found], axis=1) + 1)
        mass[todo] = sums[:, -1]
        todo = todo[~found]
        lo, hi = hi, 2 * hi
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


def _check_half_binomials(count: int) -> None:
    """ValueError for a table of count > HALF_BINOMIALS_LIMIT half-binomials."""
    if count > HALF_BINOMIALS_LIMIT:
        raise ValueError(f"a table of {count} half-binomials exceeds the limit of "
                         f"{HALF_BINOMIALS_LIMIT} (is the cutoff too large?)")


def _half_binomials(count: int) -> np.ndarray:
    """c_k = C(2k, k)/4^k = prod_(j <= k) (1 - 1/(2j)) for k < count, each
    as exp of its sum of log1p(-1/(2j)), the prefix sums compensated
    (Neumaier): a few ulps off at most, and the same at every count.  A
    count above HALF_BINOMIALS_LIMIT is refused before allocating."""
    _check_half_binomials(count)
    terms = np.log1p(-0.5 / np.arange(1.0, count))
    # cumsum adds in sequence, so these are the Neumaier loop's running
    # total and carry; |total| >= |term| after the first term, where both
    # branches of Neumaier's step add 0
    totals = np.concatenate(([0.0], np.cumsum(terms)))
    carry = np.concatenate(([0.0], np.cumsum((totals[:-1] - totals[1:]) + terms)))
    return np.exp(totals + carry)


def _pair_products(k: np.ndarray, t2, lead=1.0) -> np.ndarray:
    """lead c_k t^(2(k-1)) at integer pair indices k >= 1 and t2 = t^2
    (np.longdouble), broadcast, with c_k from _half_binomials.  A double
    t^2 is off by up to half an ulp, which its (k-1)-th power multiplies
    by k - 1, so the power is exp((k - 1) log t^2) in np.longdouble (where
    wider than double), rounded once; t^0 = 1, also at r = 0."""
    c = _half_binomials(int(np.max(k, initial=0)) + 1)[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.exp((k - 1) * np.log(t2))
    return lead * c * np.where(k == 1, 1.0, powers.astype(float))


def pair_count_probability(k, r, sign: int | None) -> np.ndarray:
    """p_2k at each pair index k >= 1 (integer-valued floats) and r,
    elementwise.  p_2k is K t^2k times the coefficient of w^k in F, so
    p_2k = K t^2 (1 + s (-1)^k) c_k t^(2(k-1)), with the lead K t^2 (1 +
    s (-1)^k) of _pair_products exact past K t^2: the parity is 0, 1 or 2."""
    k = np.asarray(k, dtype=float)
    g = generating_function(r, sign)
    parity = 1.0 + g.parity * np.where(k % 2.0 == 0.0, 1.0, -1.0)
    t2 = np.tanh(np.asarray(r, dtype=np.longdouble)) ** 2
    return _pair_products(k.astype(np.intp), t2, g.scale * parity)
