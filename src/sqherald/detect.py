"""Click detection with sub-unit efficiency and heralded quality metrics.

The herald arm (mode a) is monitored by a binary click detector whose
outcome weight on the k-photon level is

    w_k = eta (1 - eta)^{k-1},    k >= 1,

with sum_{k=1..K} w_k = 1 - (1-eta)^K.  Every click statistic here is a
w-weighted sum over the herald arm: the plain click probability weights
the full mode-a marginal, the single-photon click probability keeps only
signal level n_b = 1, and their ratio is the single-photon fraction of
clicks.  Signal-arm quality metrics follow the same weighted ensemble.

With vacuum in port b the split source has P(n_a, n_b) = C(N, n_a) 2^-N
p_N, so the binomial theorem sums each statistic over n_a in closed form.
With x = 1 - eta and phi_M = ((1 + x)^M - 1)/x (phi_M = M at eta = 1):

    p_click   = sum_N p_N eta 2^-N phi_N
    p_click_1 = sum_{N>=2} p_N eta x^(N-2) N 2^-N
    m1        = sum_N p_N eta 2^-N N phi_(N-1)
    m2        = sum_N p_N eta 2^-N N (N-1) phi_(N-2)

and the heralded g2 is m2 / m1^2.  heralded_clicks and heralded_g2 take
a column of points (r_i, eta_i) at one cutoff as one product of the
distinct sources' p_N rows with the distinct efficiencies' kernels.  The
two-mode squeezed benchmark has elementwise closed forms
(benchmark_clicks, benchmark_g2).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import analysis, optics
from .fockspace import TINY, Truncation


class ZeroClickError(ZeroDivisionError):
    """The detector never fires for this input."""


class ZeroMeanError(ZeroDivisionError):
    """Second-order coherence is undefined for a zero-mean distribution."""


def _check_eta(eta) -> None:
    bad = ~((np.asarray(eta) > 0.0) & (np.asarray(eta) <= 1.0))
    if np.any(bad):
        raise ValueError(f"eta must lie in (0, 1], got {np.asarray(eta)[bad][0]}")


@dataclasses.dataclass(frozen=True)
class DetectorModel:
    """Threshold ("click / no click") detector with efficiency eta."""

    eta: float

    def __post_init__(self):
        _check_eta(self.eta)


def _binomial_kernels(dim: int, eta: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (dim, E) kernels of p_click, p_click_1, m1 and m2 over N < dim
    for the E efficiencies eta (see the module docstring)."""
    n = np.arange(dim)[:, None]
    x = 1.0 - eta

    def scaled(coef, m):
        # 2^-N coef phi_m, with phi_m = ((1 + x)^m - 1)/x (m at x = 0).
        # Wherever coef phi_m is finite, 2^-N scales last: exact, and eta
        # 2^-N would lose digits as a subnormal where eta is tiny and
        # phi ~ 2^N restores the size.  Where it overflows (past about
        # 1,000 levels at small eta), (1 + x)^m > e^700 makes the -1
        # negligible and 2^-N goes into the exponent, which is then <= 0.
        growth = m * np.log1p(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.ldexp(coef * np.where(x == 0.0, 1.0 * m, np.expm1(growth) / x), -n)
            overflowed = ~np.isfinite(out)
            if overflowed.any():
                out = np.where(overflowed, coef * np.exp(growth - n * np.log(2.0)) / x, out)
        return out

    click = scaled(eta, n)
    single = np.where(n >= 2, np.ldexp(eta * n * x ** np.maximum(n - 2, 0), -n), 0.0)
    m1 = scaled(eta * n, n - 1)
    m2 = scaled(eta * (n * (n - 1.0)), n - 2)
    return click, single, m1, m2


def _moments(r, eta, trunc: Truncation, sign: int) -> tuple[np.ndarray, ...]:
    """p_click, p_click_1, m1 and m2 of the split sign superposition at
    every point (r_i, eta_i): the p_N rows of the distinct r values times
    the kernels of the distinct efficiencies."""
    (rs,), r_at = analysis.distinct(r)
    (etas,), eta_at = analysis.distinct(eta)
    _check_eta(etas)
    p = optics.photon_number_rows(rs, sign, trunc)
    return tuple((p @ kernel)[r_at, eta_at] for kernel in _binomial_kernels(trunc.dim, etas))


def heralded_clicks(
    r: np.ndarray, eta: np.ndarray, trunc: Truncation, sign: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """p_click and p_click_1 of the split sign superposition at each point
    (r_i, eta_i) of two equal-length 1-D arrays.  A subnormal click
    probability has lost its digits, so it counts as vanished."""
    p_click, p_click_1, _, _ = _moments(r, eta, trunc, sign)
    if np.any(p_click < TINY):
        raise ZeroClickError("click probability vanished")
    return p_click, p_click_1


def heralded_g2(
    r: np.ndarray, eta: np.ndarray, trunc: Truncation, sign: int = -1
) -> np.ndarray:
    """Heralded g2 = m2 / m1^2 of the split sign superposition at each
    point (r_i, eta_i).  The moments keep the click probability inside, as
    the closed-form benchmark does; a subnormal squared mean has lost its
    digits, so it counts as zero."""
    _, _, m1, m2 = _moments(r, eta, trunc, sign)
    if np.any(m1 * m1 < TINY):
        raise ZeroMeanError("mean photon number is zero")
    return m2 / (m1 * m1)


def benchmark_clicks(r, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form p_click, p_click_1 and p_click_c of the two-mode squeezed
    benchmark, elementwise.

    With x = tanh^2 r and z = (1-eta) x, the weighted geometric sums give

        p_click   = eta x / (cosh^2 r (1 - z)) = 2 eta tanh^2 r / (2 - eta (1 - cosh 2r))
        p_click_1 = eta tanh^2 r / cosh^2 r
        p_click_c = eta + (1 - eta) / cosh^2 r

    and p_click_c = p_click_1 / p_click identically; at r = 0 the last
    stays finite.
    """
    _check_eta(eta)
    x = np.tanh(r) ** 2
    c2 = np.cosh(r) ** 2
    p_click = eta * x / (c2 * (1.0 - (1.0 - eta) * x))
    return p_click, eta * x / c2, eta + (1.0 - eta) / c2


def benchmark_g2(r, eta):
    """Closed-form heralded g2 of the two-mode squeezed benchmark,
    elementwise:

        g2 = -3 + 2/eta + eta + (1 - eta) cosh 2r

    2/eta overflows to inf for a subnormal eta without a warning; the
    callers' finiteness checks report it.
    """
    _check_eta(eta)
    with np.errstate(over="ignore", divide="ignore"):
        return -3.0 + 2.0 / eta + eta + (1.0 - eta) * np.cosh(2.0 * r)
