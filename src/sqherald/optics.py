"""Photon-pair statistics of a source split on a balanced beam splitter
with vacuum in its second port.

With vacuum in port b the splitter sends |N, 0> to amplitude
(-1)^n_b sqrt(C(N, n_a) / 2^N) on |n_a, n_b> (Campos, Saleh & Teich,
PRA 40, 1371 (1989)), so P(n_a, n_b) = C(N, n_a) 2^-N p_N with
N = n_a + n_b, and every statistic is a contraction over the source's
photon-number distribution p_N, built for a whole column of r values at
once (photon_number_rows): the pair probability P(1,1) = p_2/2, the herald
total P(n_a = 1) (herald_totals), the herald row P(1, n_b) (herald_row),
the single-photon fraction P(n_b = 1 | n_a = 1), and the binomial click
kernels of detect.
"""
from __future__ import annotations

import functools

import numpy as np

from . import sources
from .fockspace import Truncation


class ZeroHeraldError(ZeroDivisionError):
    """Conditioning on a herald outcome that has zero probability."""


def photon_number_rows(r: np.ndarray, sign: int | None, trunc: Truncation) -> np.ndarray:
    """Photon-number distributions p_N, N < dim, one row per entry of the
    1-D array r, of a source: the superposition |r; sign> for sign = +1 or
    -1, plain squeezed vacuum |r> for sign = None.

    With vacuum in port b the balanced splitter gives
    P(n_a, n_b) = C(N, n_a) 2^-N p_N with N = n_a + n_b, so every split
    statistic is a contraction over these rows.  The source's tail checks
    raise TruncationError for the first r whose tail exceeds the cutoff's
    tolerance.  The odd superposition at r = 0 is taken as its r -> 0
    limit, the two-photon level |2>, so swept columns extend continuously
    to r = 0.
    """
    mag = sources.pair_amplitudes(np.asarray(r, dtype=float), sign, trunc)
    p = np.zeros(mag.shape[:-1] + (trunc.dim,))
    p[..., 0::2] = mag * mag
    return p


@functools.lru_cache(maxsize=512)
def photon_numbers(r: float, sign: int | None, trunc: Truncation) -> np.ndarray:
    """The photon_number_rows row of one r, cached and read-only."""
    p = photon_number_rows(np.array([r]), sign, trunc)[0]
    p.setflags(write=False)
    return p


def herald_row(r: float, sign: int | None, trunc: Truncation) -> np.ndarray:
    """P(1, n_b) of the split source for n_b < dim:
    (n_b + 1) 2^-(n_b + 1) p_(n_b + 1).  The last entry, total dim, lies
    beyond the cutoff and is zero.  Its entry 1 is P(1,1) = p_2 / 2."""
    p = photon_numbers(r, sign, trunc)
    n = np.arange(1, trunc.dim)
    return np.append(np.ldexp(n * p[1:], -n), 0.0)


def herald_totals(p: np.ndarray) -> np.ndarray:
    """P(n_a = 1) = sum_N N 2^-N p_N of each row of photon-number
    distributions: the total mass of its herald row."""
    n = np.arange(p.shape[-1])
    return p @ np.ldexp(n, -n)


def single_photon_fraction(row: np.ndarray) -> float:
    """P(n_b = 1 | n_a = 1) from the herald row P(1, n_b)."""
    return float(single_photon_fractions(row[1], np.sum(row)))


def single_photon_fractions(p11, herald_total):
    """P(n_b = 1 | n_a = 1) = P(1,1) / P(n_a = 1), elementwise."""
    if np.any(herald_total == 0.0):
        raise ZeroHeraldError("herald outcome n_a = 1 has zero probability")
    return p11 / herald_total
