"""Photon-pair statistics of a source split on a balanced beam splitter
with vacuum in its second port.

With vacuum in port b the splitter sends |N, 0> to amplitude
(-1)^n_b sqrt(C(N, n_a) / 2^N) on |n_a, n_b> (Campos, Saleh & Teich,
PRA 40, 1371 (1989)), so P(n_a, n_b) = C(N, n_a) 2^-N p_N with
N = n_a + n_b, and every statistic is a value or a derivative of the
source's photocount generating function G(z) = sum_N p_N z^N
(sources.generating_function), elementwise over r in closed form:

    P(1,1)     = p_2/2 = G''(0)/4                      (pair_probability)
    P(n_a = 1) = sum_N N 2^-N p_N = G'(1/2)/2
    P(n_b = 1 | n_a = 1) = G''(0) / (2 G'(1/2))        (conditional_single)
    P(1, n)    = (n + 1) 2^-(n+1) p_(n+1)              (herald_row)

No photon-number row is built, and no cutoff enters.
"""
from __future__ import annotations

import numpy as np

from . import sources

# From this total N on, N 2^-N < 2^-1075, so P(1, N - 1) <= N 2^-N p_N
# rounds to 0 for every source.
HERALD_ROW_TOTALS = 1100


class ZeroHeraldError(ZeroDivisionError):
    """Conditioning on a herald outcome that has zero probability."""


def pair_probability(r, sign: int | None):
    """P(1,1) = p_2/2 = K t^2 F'(0)/2 of the split source (see
    sources.GeneratingFunction), elementwise over r; the odd branch's
    limit at r = 0 is 1/2."""
    g = sources.generating_function(r, sign)
    return 0.5 * g.scale * g.slope_at_zero


def conditional_single(r, sign: int | None):
    """P(n_b = 1 | n_a = 1) = P(1,1) / P(n_a = 1) = F'(0) / F'(t^2/4),
    elementwise over r.  A herald total P(n_a = 1) = K t^2 F'(t^2/4)/2
    that is exactly 0 is a ZeroHeraldError."""
    g = sources.generating_function(r, sign)
    slope = g.slope(g.level(0.5))
    if np.any(0.5 * g.scale * slope == 0.0):
        raise ZeroHeraldError("herald outcome n_a = 1 has zero probability")
    return g.slope_at_zero / slope


def herald_row(n, r, sign: int | None) -> np.ndarray:
    """P(1, n) = (n + 1) 2^-(n+1) p_(n+1) at each point (n_i, r_i) of two
    equal-length arrays: 0 for an odd total, and for an even total 2k <
    HERALD_ROW_TOTALS, sources.pair_count_probability times n + 1, with
    2^-(n+1) placed exactly by ldexp; beyond it the value rounds to 0, and
    no coefficient is formed."""
    n = np.asarray(n, dtype=float)
    bad = ~(np.isfinite(n) & (n >= 0.0) & (n == np.floor(n)))
    if np.any(bad):
        raise ValueError(f"n must be a finite nonnegative integer, got {n[bad][0]}")
    r = np.broadcast_to(np.asarray(r, dtype=float), n.shape)
    total = n + 1.0
    out = np.zeros(n.shape)
    inside = np.flatnonzero((total % 2.0 == 0.0) & (total < HERALD_ROW_TOTALS))
    if len(inside):
        total = total[inside]
        p = sources.pair_count_probability(total / 2.0, r[inside], sign)
        out[inside] = np.ldexp(total * p, -total.astype(int))
    return out
