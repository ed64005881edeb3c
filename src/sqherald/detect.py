"""Click detection with sub-unit efficiency and heralded quality metrics.

The herald arm (mode a) is monitored by a binary click detector whose
outcome weight on the k-photon level is

    w_k = eta (1 - eta)^{k-1},    k >= 1,

with sum_{k=1..K} w_k = 1 - (1-eta)^K.  Every click statistic here is a
w-weighted sum over the herald arm: the plain click probability weights
the full mode-a marginal, the single-photon click probability keeps only
signal level n_b = 1, and their ratio is the single-photon fraction of
clicks.  Signal-arm quality metrics follow the same weighted ensemble.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable

import numpy as np

from . import analysis, optics
from .fockspace import Truncation, default_truncation


class ZeroClickError(ZeroDivisionError):
    """The detector never fires for this input."""


class ZeroMeanError(ZeroDivisionError):
    """Second-order coherence is undefined for a zero-mean distribution."""


@dataclasses.dataclass(frozen=True)
class DetectorModel:
    """Threshold ("click / no click") detector with efficiency eta."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")

    def click_weights(self, count: int) -> np.ndarray:
        """w[k] = eta (1-eta)^{k-1} for k >= 1, w[0] = 0.

        These weight the herald-arm photon number when exactly one
        counted photon is required; their tail sum is the plain click
        probability.
        """
        k = np.arange(count)
        w = np.zeros(count)
        w[1:] = self.eta * (1.0 - self.eta) ** (k[1:] - 1.0)
        return w


@dataclasses.dataclass(frozen=True)
class HeraldedStatistics:
    """Click probabilities and the click-conditioned signal distribution.

    p_click: probability the herald detector fires at all.
    p_click_1: probability it fires with exactly one detected photon.
    p_click_c: conditional probability the click was single-photon.
    conditional_photon_dist: signal-mode distribution given a click.
    """

    p_click: float
    p_click_1: float
    p_click_c: float
    conditional_photon_dist: np.ndarray

    def __post_init__(self):
        arr = np.array(self.conditional_photon_dist, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "conditional_photon_dist", arr)


def _statistics(weighted_b: np.ndarray) -> HeraldedStatistics:
    """Click statistics from the click-weighted signal row
    q(n_b) = sum_{n_a} w_{n_a} p(n_a, n_b): p_click is its total mass,
    p_click_1 its n_b = 1 entry, and the conditional signal distribution
    its normalization.  A subnormal click probability has lost its
    digits, so it counts as vanished."""
    p_click = float(weighted_b.sum())
    if p_click < sys.float_info.min:
        raise ZeroClickError("click probability vanished")
    p_click_1 = float(weighted_b[1])
    return HeraldedStatistics(
        p_click=p_click,
        p_click_1=p_click_1,
        p_click_c=p_click_1 / p_click,
        conditional_photon_dist=weighted_b / p_click,
    )


def click_statistics(dist: optics.JointDistribution, det: DetectorModel) -> HeraldedStatistics:
    """Click-detect mode a of a joint distribution (the dense oracle for
    heralded_cat_statistics)."""
    return _statistics(det.click_weights(dist.truncation.dim) @ dist.p)


def heralded_cat_statistics(
    r: float, det: DetectorModel, trunc: Truncation | None = None, sign: int = -1
) -> HeraldedStatistics:
    """Full pipeline: superposition source, balanced splitter, herald arm
    into the threshold detector."""
    if trunc is None:
        trunc = default_truncation(r)
    return _statistics(optics.weighted_row(r, sign, trunc, det.click_weights(trunc.dim)))


def tmss_click_statistics(r: float, det: DetectorModel) -> HeraldedStatistics:
    """Closed-form click statistics of the two-mode squeezed benchmark.

    With x = tanh^2 r and z = (1-eta) x, the weighted geometric sums give

        p_click   = eta x / (cosh^2 r (1 - z)) = 2 eta tanh^2 r / (2 - eta (1 - cosh 2r))
        p_click_1 = eta tanh^2 r / cosh^2 r
        p_click_c = eta + (1 - eta) / cosh^2 r

    and p_click_c = p_click_1 / p_click identically.
    """
    eta = det.eta
    t = math.tanh(r)
    x = t * t
    z = (1.0 - eta) * x
    c2 = math.cosh(r) ** 2
    if x == 0.0:
        # r = 0 limit: no pairs, but the conditional closed form stays finite
        one = np.zeros(2)
        one[1] = 1.0
        return HeraldedStatistics(0.0, 0.0, eta + (1.0 - eta) / c2, one)
    p_click = eta * x / (c2 * (1.0 - z))
    p_click_1 = eta * x / c2
    p_click_c = eta + (1.0 - eta) / c2
    # Conditional signal distribution is geometric: q(n) = (1-z) z^{n-1}.
    levels = max(64, int(math.ceil(-36.0 / math.log(z))) if z > 0.0 else 2)
    n = np.arange(levels)
    q = np.zeros(levels)
    q[1:] = (1.0 - z) * z ** (n[1:] - 1.0)
    q /= q.sum()
    return HeraldedStatistics(p_click, p_click_1, p_click_c, q)


def g2_from_photon_dist(dist: np.ndarray) -> float:
    """Zero-delay second-order coherence of a normalized photon-number
    distribution: <n(n-1)> / <n>^2."""
    q = np.asarray(dist, dtype=float)
    total = float(q.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"distribution must be normalized, sums to {total}")
    n = np.arange(len(q))
    m1 = float(n @ q)
    if m1 == 0.0:
        raise ZeroMeanError("mean photon number is zero")
    m2 = float((n * (n - 1.0)) @ q)
    return m2 / (m1 * m1)


def _g2_subnormalized(weighted_b: np.ndarray) -> float:
    """g2 over the click-weighted (unnormalized) signal ensemble.

    Keeping the click probability inside the moments reproduces the
    closed-form benchmark below; normalizing first would divide it out
    of the numerator and denominator asymmetrically.  A subnormal squared
    mean has lost its digits, so it counts as zero.
    """
    n = np.arange(len(weighted_b))
    m1 = float(n @ weighted_b)
    if m1 * m1 < sys.float_info.min:
        raise ZeroMeanError("mean photon number is zero")
    m2 = float((n * (n - 1.0)) @ weighted_b)
    return m2 / (m1 * m1)


def g2_heralded_cat(
    r: float, det: DetectorModel, trunc: Truncation | None = None
) -> float:
    """Heralded g2 of the split odd superposition."""
    if trunc is None:
        trunc = default_truncation(r)
    return _g2_subnormalized(optics.weighted_row(r, -1, trunc, det.click_weights(trunc.dim)))


def g2_tmss(r: float, det: DetectorModel) -> float:
    """Closed-form heralded g2 of the two-mode squeezed benchmark:

        g2 = -3 + 2/eta + eta + (1 - eta) cosh 2r
    """
    eta = det.eta
    return -3.0 + 2.0 / eta + eta + (1.0 - eta) * math.cosh(2.0 * r)


def g2_numeric(dist: optics.JointDistribution, det: DetectorModel) -> float:
    """Heralded g2 of a joint distribution with mode a click-detected (the
    dense oracle for g2_tmss on tmss_joint_probability)."""
    return _g2_subnormalized(det.click_weights(dist.truncation.dim) @ dist.p)


def quality_crossover(
    det: DetectorModel,
    lo: float = 0.02,
    hi: float = 2.0,
    tol: float = 1e-4,
    cutoff: Callable[[float], Truncation] = default_truncation,
) -> float:
    """Squeezing at which the split superposition's heralded g2 stops
    beating the two-mode squeezed benchmark's.

    Bisects g2_heralded_cat - g2_tmss on [lo, hi], with the source at
    cutoff(r); raises NoCrossingError when the difference does not change
    sign there (at eta = 1 the benchmark g2 is identically zero, so no
    interior crossing exists).
    """

    def gap(r: float) -> float:
        return g2_heralded_cat(r, det, cutoff(r)) - g2_tmss(r, det)

    return analysis.find_crossing(gap, lambda _: 0.0, lo, hi, tol=tol)
