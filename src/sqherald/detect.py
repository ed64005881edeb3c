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
p_N, so the binomial theorem sums each statistic over n_a, and the sum
over N is a value or a derivative of the source's photocount generating
function G(z) = sum_N p_N z^N (sources.generating_function).  With
x = 1 - eta and u = 1 - eta/2, so that u - 1/2 = x/2:

    p_click   = (eta/x) [G(u) - G(1/2)]
    p_click_1 = (eta/2x) G'(x/2)              (p_1 = 0 for every source)
    m1        = (eta/2x) [G'(u) - G'(1/2)]
    m2        = (eta/4x) [G''(u) - G''(1/2)]

and the heralded g2 is m2 / m1^2.  Each difference is an exact divided
difference between the levels w = t^2/4 and t^2 u^2, so x cancels in
closed form (and eta = 1 is the derivative), and eta multiplies last, so
nothing goes subnormal before the value does.  heralded_clicks and
heralded_g2 are elementwise over points (r_i, eta_i).  The two-mode
squeezed benchmark has its own elementwise closed forms
(benchmark_clicks, benchmark_g2).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import sources
from .fockspace import TINY


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


def _levels(r, eta, sign: int | None):
    """The generating function of the split source at each point
    (r_i, eta_i), the checked efficiencies, u = 1 - eta/2 and the levels
    w = t^2/4 and t^2 u^2 whose divided differences give the statistics
    (see the module docstring and sources.GeneratingFunction)."""
    eta = np.asarray(eta, dtype=float)
    _check_eta(eta)
    g = sources.generating_function(r, sign)
    u = 1.0 - 0.5 * eta
    # 1 - t^2 u^2 = sech^2 r + t^2 (1 - u^2), and 1 - u^2 = eta (1 - eta/4)
    top = g.level(u, g.sech2 + g.t2 * (eta * (1.0 - 0.25 * eta)))
    return g, eta, u, g.level(0.5), top


def heralded_clicks(r, eta, sign: int | None = -1) -> tuple[np.ndarray, np.ndarray]:
    """p_click and p_click_1 of the split sign superposition (squeezed
    vacuum for sign None) at each point (r_i, eta_i), elementwise.  A
    subnormal click probability has lost its digits, so it counts as
    vanished."""
    g, eta, u, half, top = _levels(r, eta, sign)
    p_click = eta * (g.scale * (u + 0.5) * g.divided(half, top, 0) * 0.5)
    if np.any(p_click < TINY):
        raise ZeroClickError("click probability vanished")
    p_click_1 = eta * (g.scale * g.slope(g.level(0.5 * (1.0 - eta))) * 0.5)
    return p_click, p_click_1


def heralded_g2(r, eta, sign: int | None = -1) -> np.ndarray:
    """Heralded g2 = m2 / m1^2 of the split sign superposition at each
    point (r_i, eta_i), elementwise.  The moments keep the click
    probability inside, as the closed-form benchmark does; a subnormal
    squared mean has lost its digits, so it counts as zero."""
    g, eta, u, half, top = _levels(r, eta, sign)
    rise = g.t2 * (u + 0.5)  # the divided difference of w = t^2 z^2
    slope = g.divided(half, top, 1)
    m1 = eta * (g.scale * (g.slope(half) + u * rise * slope) * 0.5)
    if np.any(m1 * m1 < TINY):
        raise ZeroMeanError("mean photon number is zero")
    curve = slope + 2.0 * (top.w * g.divided(half, top, 2) + g.curvature(half))
    m2 = eta * (g.scale * rise * curve * 0.25)
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
