"""Photon-pair statistics of a source split on a balanced beam splitter
with vacuum in its second port.

With vacuum in port b the splitter sends |N, 0> to amplitude
(-1)^n_b sqrt(C(N, n_a) / 2^N) on |n_a, n_b> (Campos, Saleh & Teich,
PRA 40, 1371 (1989)), so P(n_a, n_b) = C(N, n_a) 2^-N p_N with
N = n_a + n_b, and every statistic is a contraction over the source's
photon-number distribution p_N, built for a whole column of r values at
once (photon_number_rows): the pair probability P(1,1) = p_2/2, the herald
row P(1, n_b) = (n_b + 1) 2^-(n_b + 1) p_(n_b + 1), its total P(n_a = 1)
(herald_totals), and the binomial click kernels of detect.
"""
from __future__ import annotations

import numpy as np

from . import sources
from .fockspace import CutoffColumn, Truncation


class ZeroHeraldError(ZeroDivisionError):
    """Conditioning on a herald outcome that has zero probability."""


def photon_number_rows(r: np.ndarray, sign: int | None,
                       trunc: Truncation | CutoffColumn) -> np.ndarray:
    """Photon-number distributions p_N, N < dim, one row per entry of the
    1-D array r, of a source: the superposition |r; sign> for sign = +1 or
    -1, plain squeezed vacuum |r> for sign = None.  With a CutoffColumn,
    one cutoff per entry of r, the rows are trunc.dim wide and each is 0
    from its own dim on.

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


def herald_totals(p: np.ndarray) -> np.ndarray:
    """P(n_a = 1) = sum_N N 2^-N p_N of each row of photon-number
    distributions: the total mass of its herald row."""
    n = np.arange(p.shape[-1])
    return p @ np.ldexp(n, -n)

