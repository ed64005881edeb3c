"""Cross-Kerr entangling step, post-selection statistics, and robustness
of the heralding probability against interaction-phase noise.

Mode 1 (the photon-pair mode) lives on the truncated Fock grid; mode 2
(the bright pump) is tracked symbolically as coherent labels, because the
exact overlap of two coherent states has a closed form and pump amplitudes
around alpha = 10 would otherwise need hundreds of Fock levels.

Every label-series probability runs through one kernel,
`_overlap_probability`, on the cached nonzero pair terms of
`_pair_series`.  `kerr_evolve`, `HybridKerrState` and `coherent_overlap`
build the same overlap from explicit states; they are the oracle the
tests check the kernel against.  The phase-noise average is a periodic
trapezoid rule; the Gauss-Hermite ladder and a seeded Monte Carlo
average are its oracles.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np

from . import optics, sources
from .fockspace import Truncation, TruncationError

TWO_PI = 2.0 * math.pi

# Coefficient sums are accepted as converged when they carry at least this
# much of the unit norm.
COEFF_NORM_TOL = 1e-10

# Tail target for the automatically chosen series cutoff.
SERIES_TAIL_TOL = 1e-11
# Tail mass the label-series states may leave above that cutoff.
SERIES_STATE_TOL = 1e-9

# Phase-noise average: trapezoid rule on the half period [0, pi] with
# coarse step h = pi/M, cut at the first even fine node past
# TRAPEZOID_WINDOW sigmas; the rules at h and h/2 must agree within
# TRAPEZOID_AGREEMENT.  The pair term n carries the harmonics k*n of
# delta with k Poisson-distributed around alpha^2, so the integrand's
# weight lies below the band (alpha + TRAPEZOID_BAND_PAD)^2 * n[-1].
# The kernel sees at most TRAPEZOID_CHUNK nodes per call, and a rule
# that needs more than TRAPEZOID_MAX_NODES nodes is refused.
TRAPEZOID_WINDOW = 9.0
TRAPEZOID_AGREEMENT = 1e-12
TRAPEZOID_BAND_PAD = 3.0
TRAPEZOID_CHUNK = 4096
TRAPEZOID_MAX_NODES = 2**20

# Gauss-Hermite escalation ladder (the oracle for the trapezoid rule);
# larger r keeps more pair terms, which oscillate at frequency
# ~ alpha^2 * n under a 1/(alpha*n) wide envelope, so the node count has
# to scale with the highest retained pair index; every order is even, so
# each rule splits into two mirrored halves (see _hermite_rule)
QUADRATURE_ORDERS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
QUADRATURE_AGREEMENT = 1e-9

FIT_SIGMA_MAX = 1e-3
FIT_SAMPLES = 21


class QuadratureConvergenceError(RuntimeError):
    """A phase-noise quadrature disagrees with its own refinement."""


class FitDegenerateError(ValueError):
    """The fit abscissas carry no information (all sigmas equal)."""


@dataclasses.dataclass(frozen=True)
class KerrSchedule:
    """Interaction phase tau_tilde = 2*kappa*t (stored mod 2pi) and pump
    amplitude alpha."""

    tau_tilde: float
    alpha: complex

    def __post_init__(self):
        if not (math.isfinite(self.tau_tilde) and cmath.isfinite(self.alpha)):
            raise ValueError("interaction phase and pump amplitude must be finite")
        if abs(self.alpha) == 0.0:
            raise ValueError("pump amplitude must be nonzero")
        object.__setattr__(self, "tau_tilde", float(self.tau_tilde) % TWO_PI)


@dataclasses.dataclass(frozen=True)
class HybridKerrState:
    """Sum over pair index n of c_n |2n>_1 |beta_n>_2 (oracle path).

    coeffs are the squeezed-vacuum coefficients of the even levels |2n>;
    labels are the coherent amplitudes beta_n of mode 2.
    """

    coeffs: np.ndarray
    labels: np.ndarray
    truncation: Truncation

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        b = np.array(self.labels, dtype=complex)
        if c.ndim != 1 or c.shape != b.shape:
            raise ValueError("coeffs and labels must be vectors of equal length")
        total = float(np.sum(np.abs(c) ** 2))
        if abs(total - 1.0) > COEFF_NORM_TOL:
            raise TruncationError(
                "hybrid state coefficients are not converged", 1.0 - total
            )
        c.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "labels", b)

    @property
    def pair_indices(self) -> np.ndarray:
        return np.arange(len(self.coeffs))

    @property
    def photon_numbers(self) -> np.ndarray:
        return 2 * self.pair_indices

    def components(self) -> list[tuple[int, complex, complex]]:
        """(n, c_n, beta_n) triples; the Fock level of component n is 2n."""
        return [
            (int(n), complex(c), complex(b))
            for n, c, b in zip(self.pair_indices, self.coeffs, self.labels)
        ]


@functools.lru_cache(maxsize=256)
def series_truncation(r: float, tail_tol: float = SERIES_TAIL_TOL) -> Truncation:
    """Cutoff for label-based sums, which never build matrices and can
    afford tails far below the matrix default."""
    dim = max(64, sources.converged_dim(r, tail_tol))
    return Truncation(dim, tail_tol=SERIES_STATE_TOL)


def kerr_evolve(r: float, sched: KerrSchedule, trunc: Truncation) -> HybridKerrState:
    """Evolve S(r)|0>_1 |alpha>_2 under the cross-Kerr coupling for phase
    tau_tilde: each pair component |2n> imprints e^{-i n tau_tilde} on the
    pump label.  Oracle for the label-series kernel; no production
    quantity builds the state."""
    base = sources.squeezed_vacuum(r, trunc)
    pairs = (trunc.dim + 1) // 2
    n = np.arange(pairs)
    coeffs = base.amps[2 * n]
    labels = sched.alpha * np.exp(-1j * n * sched.tau_tilde)
    return HybridKerrState(coeffs, labels, trunc)


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """<beta|gamma> = exp(-|beta|^2/2 - |gamma|^2/2 + conj(beta) gamma)."""
    return complex(
        np.exp(
            -0.5 * (abs(beta) ** 2 + abs(gamma) ** 2)
            + np.conj(beta) * gamma
        )
    )


def p0_generation(
    sched: KerrSchedule,
    r: float,
    trunc: Truncation | None = None,
    sign: int = -1,
    label: complex | None = None,
) -> float:
    """Probability of projecting the Kerr output onto the superposition
    branch |r; sign>_1 |label>_2.

    Defaults target the odd branch paired with |-alpha>, the herald that
    announces photon-pair generation.  At tau_tilde = pi this approaches
    the branch weight N_sign(r)/4, up to the residual overlap of the
    |+alpha> and |-alpha> labels.
    """
    if not r > 0.0:
        raise ValueError("squeezing must be positive")
    if trunc is None:
        trunc = series_truncation(r)
    if label is None:
        label = -sched.alpha if sign < 0 else sched.alpha
    n, g = _pair_series(r, sign, trunc)
    taus = np.array([sched.tau_tilde])
    return float(_overlap_probability(taus, n, g, sched.alpha, label)[0])


def p1_heralded(sched: KerrSchedule, r: float, trunc: Truncation | None = None) -> float:
    """Joint probability of heralding the odd branch and then finding one
    photon in each splitter arm: P(1,1; r; odd) * p0.

    Both factors run at trunc (default: the series cutoff).  The pair
    factor P(1,1) = p_2 / 2 comes from the cached photon-number kernel;
    only its tail check depends on the cutoff.
    """
    if trunc is None:
        trunc = series_truncation(r)
    p11 = float(optics.photon_numbers(r, -1, trunc)[2]) / 2.0
    return p11 * p0_generation(sched, r, trunc)


@functools.lru_cache(maxsize=256)
def _pair_series(r: float, sign: int, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero terms of the label series: pair indices n and real weights
    g_n = conj(c_n) d_{2n} of squeezed vacuum c against the sign
    superposition d.

    The superposition keeps every other pair level, so half the weights
    are exact zeros; only exact zeros are dropped.  Small tail terms stay,
    so the 1.5x-cutoff recheck still compares two different series.
    """
    base = sources.squeezed_vacuum(r, trunc)
    cat = sources.squeezed_cat(r, sign, trunc)
    levels = 2 * np.arange((trunc.dim + 1) // 2)
    # both amplitude vectors are real, so g_n = conj(c_n) d_{2n} is too
    g = (base.amps[levels] * cat.amps[levels]).real
    n = np.flatnonzero(g)
    g = g[n]
    n.setflags(write=False)
    g.setflags(write=False)
    return n, g


def _overlap_probability(
    taus: np.ndarray, n: np.ndarray, g: np.ndarray, alpha: complex, label: complex
) -> np.ndarray:
    """|sum_n g_n <alpha e^{-i n tau} | label>|^2 for each tau, g real.

    Each overlap is exp(c0 + w e^{i n tau}) with c0 = -(|alpha|^2 +
    |label|^2)/2 and w = conj(alpha) label; its modulus and phase come
    from cos(n tau) and sin(n tau) in real arithmetic.
    """
    c0 = -0.5 * (abs(alpha) ** 2 + abs(label) ** 2)
    w = complex(np.conj(alpha) * label)
    nt = np.outer(n, taus)
    cos_nt = np.cos(nt)
    sin_nt = np.sin(nt)
    mag = np.exp(c0 + w.real * cos_nt - w.imag * sin_nt)
    phase = w.real * sin_nt + w.imag * cos_nt
    re = g @ (mag * np.cos(phase))
    im = g @ (mag * np.sin(phase))
    return re * re + im * im


@functools.lru_cache(maxsize=128)
def _phase_series(
    r: float, alpha: float, dim: int | None, tail_tol: float = SERIES_STATE_TOL
) -> tuple[np.ndarray, np.ndarray, float]:
    """Odd-branch pair terms and the tau_tilde = pi reference probability
    for the ratio kernel, at cutoff dim (default: the series cutoff) with
    tail tolerance tail_tol."""
    if not r > 0.0:
        raise ValueError("squeezing must be positive")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("pump amplitude must be real, finite and positive")
    trunc = Truncation(series_truncation(r).dim if dim is None else dim, tail_tol)
    n, g = _pair_series(r, -1, trunc)
    ref = _overlap_probability(np.array([math.pi]), n, g, alpha, -alpha)[0]
    return n, g, float(ref)


def phase_error_ratio(r: float, alpha: float, dtheta: float, dim: int | None = None) -> float:
    """R(r, alpha, dtheta): herald probability at interaction phase
    pi + dtheta, normalized by its dtheta = 0 value (so R(., ., 0) = 1
    exactly and residual finite-alpha effects cancel)."""
    n, g, ref = _phase_series(r, alpha, dim)
    val = _overlap_probability(np.array([math.pi + dtheta]), n, g, alpha, -alpha)[0]
    return float(val / ref)


def _trapezoid_rule(sigma: float, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Fine nodes delta_j = j h/2 in [0, pi] and the weights of the
    trapezoid rule at step h/2 for the wrapped normal of width sigma > 0,
    for an integrand whose weight lies below the harmonic `band`.

    h = pi/M with M = ceil(2pi/sigma) + ceil(band/2): the coarse rule's
    2M nodes per period then integrate the product of the integrand and
    the weight (band 9/sigma) exactly, and h <= sigma/2.  A grid that
    reaches pi lands on it; it stops at j = 2M or at the first even j
    past TRAPEZOID_WINDOW sigmas.  The integrand is even and
    2pi-periodic, so every weight is doubled except at 0 and pi, which
    are their own mirror images.  The rule at step h takes the even nodes
    with twice their weights.  The wrapped normal sums whichever of its
    two series is shorter: the copies phi_sigma(delta + 2pi k) for
    sigma^2 <= 2pi, in units of sigma (so sigma/2 may underflow), and
    its Fourier series (1 + 2 sum_k e^{-k^2 sigma^2/2} cos k delta)/2pi
    above; neither needs more than nine terms.
    """
    if not math.isfinite(band):
        raise QuadratureConvergenceError(f"integrand band {band} is not finite")
    # M overflows a float when sigma is tiny, so it and the step in units
    # of sigma come from the exact integer ratios of pi and sigma
    pi_n, pi_d = math.pi.as_integer_ratio()
    s_n, s_d = sigma.as_integer_ratio()
    m = -(-2 * pi_n * s_d // (pi_d * s_n)) + math.ceil(band / 2.0)
    step = pi_n * s_d / (2 * m * pi_d * s_n)  # h/2 in units of sigma
    last = 2 * m
    if TRAPEZOID_WINDOW * sigma < math.pi:
        last = min(last, 2 * (int(TRAPEZOID_WINDOW / (2.0 * step)) + 1))
    if last >= TRAPEZOID_MAX_NODES:
        raise QuadratureConvergenceError(
            f"the trapezoid rule needs {last + 1} nodes, more than "
            f"{TRAPEZOID_MAX_NODES} (band {band:.4g}, sigma = {sigma})"
        )
    j = np.arange(last + 1)
    if sigma * sigma <= TWO_PI:
        u = j * step
        density = np.zeros(last + 1)
        wraps = math.ceil(TRAPEZOID_WINDOW * sigma / TWO_PI)
        # the wrapped copies of a narrow Gaussian sit at +-inf in units of sigma
        with np.errstate(over="ignore"):
            for k in range(-wraps, wraps + 1):
                density += np.exp(-0.5 * (u + TWO_PI * k / sigma) ** 2)
        deltas = sigma * u
        weights = step / math.sqrt(TWO_PI) * density
    else:
        half_step = math.pi / (2 * m)
        deltas = j * half_step
        density = np.ones(last + 1)
        for k in range(1, math.ceil(TRAPEZOID_WINDOW / sigma) + 1):
            density += 2.0 * math.exp(-0.5 * (k * sigma) * (k * sigma)) * np.cos(k * deltas)
        weights = half_step / TWO_PI * density
    weights[1:] *= 2.0
    if last == 2 * m:
        weights[-1] /= 2.0
    return deltas, weights


def _averaged_ratio_trapezoid(
    r: float, alpha: float, sigma: float, dim: int | None, tail_tol: float
) -> float:
    n, g, ref = _phase_series(r, alpha, dim, tail_tol)
    band = (alpha + TRAPEZOID_BAND_PAD) ** 2 * float(n[-1])
    deltas, weights = _trapezoid_rule(sigma, band)
    taus = math.pi + deltas
    vals = np.concatenate([
        _overlap_probability(taus[i:i + TRAPEZOID_CHUNK], n, g, alpha, -alpha)
        for i in range(0, len(taus), TRAPEZOID_CHUNK)
    ]) / ref
    fine = float(np.dot(weights, vals))
    coarse = 2.0 * float(np.dot(weights[::2], vals[::2]))
    if abs(coarse - fine) > TRAPEZOID_AGREEMENT:
        raise QuadratureConvergenceError(
            f"trapezoid steps h and h/2 disagree by {abs(coarse - fine):.3g} > "
            f"{TRAPEZOID_AGREEMENT} at r = {r}, alpha = {alpha}, sigma = {sigma}"
        )
    return fine


@functools.lru_cache(maxsize=len(QUADRATURE_ORDERS))
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive nodes of the even-order Gauss-Hermite rule, with doubled
    weights (oracle).

    With g and w = -alpha^2 real, F(pi - x) = conj(F(pi + x)), so the
    averaged |F|^2 is even in x and the mirrored half of the symmetric
    rule adds nothing.
    """
    # scipy's nodes stay accurate at the high orders of the ladder, where
    # numpy's recurrence-based hermgauss overflows; its rules are exactly
    # mirror-symmetric.  The oracle needs scipy (the test extra).
    from scipy.special import roots_hermite

    nodes, weights = roots_hermite(order)
    half = order // 2
    nodes = nodes[half:]
    weights = 2.0 * weights[half:]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _averaged_ratio_quadrature(
    r: float,
    alpha: float,
    sigma: float,
    order: int,
    dim: int | None,
    tail_tol: float = SERIES_STATE_TOL,
) -> float:
    n, g, ref = _phase_series(r, alpha, dim, tail_tol)
    nodes, weights = _hermite_rule(order)
    taus = math.pi + math.sqrt(2.0) * sigma * nodes
    vals = _overlap_probability(taus, n, g, alpha, -alpha) / ref
    return float(np.dot(weights, vals) / math.sqrt(math.pi))


def _hermite_ladder_ratio(r: float, alpha: float, sigma: float) -> float:
    """Gaussian-averaged ratio from the Gauss-Hermite ladder: the first
    adjacent pair of QUADRATURE_ORDERS that agrees within
    QUADRATURE_AGREEMENT (oracle for the trapezoid rule; no production
    quantity calls it)."""
    prev = _averaged_ratio_quadrature(r, alpha, sigma, QUADRATURE_ORDERS[0], None)
    for order in QUADRATURE_ORDERS[1:]:
        cur = _averaged_ratio_quadrature(r, alpha, sigma, order, None)
        if abs(cur - prev) <= QUADRATURE_AGREEMENT:
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"orders {QUADRATURE_ORDERS} disagree beyond {QUADRATURE_AGREEMENT} "
        f"at r = {r}, alpha = {alpha}, sigma = {sigma}"
    )


def _monte_carlo_ratio(
    r: float, alpha: float, sigma: float, samples: int, seed: int | None
) -> float:
    """Mean of phase_error_ratio over `samples` seeded draws dtheta ~
    N(0, sigma^2) at the series cutoff (oracle for the trapezoid rule; no
    production quantity calls it)."""
    if seed is None:
        raise ValueError("monte-carlo averaging requires a seed")
    rng = np.random.default_rng(seed)
    n, g, ref = _phase_series(r, alpha, None)
    taus = math.pi + rng.normal(0.0, sigma, size=samples)
    vals = _overlap_probability(taus, n, g, alpha, -alpha) / ref
    return float(np.mean(vals))


def gaussian_averaged_ratio(
    r: float,
    alpha: float,
    sigma: float,
    dim: int | None = None,
    tail_tol: float = SERIES_STATE_TOL,
) -> float:
    """Average phase_error_ratio over dtheta ~ N(0, sigma^2).

    The average is the periodic trapezoid rule of _trapezoid_rule, which
    must agree with itself at twice the step within 1e-12 or raises
    QuadratureConvergenceError.  The series runs at cutoff dim (default:
    series_truncation(r)) and raises TruncationError when more than
    tail_tol of the state lies beyond it.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be finite and nonnegative")
    if sigma == 0.0:
        return 1.0
    return _averaged_ratio_trapezoid(r, alpha, sigma, dim, tail_tol)


def fit_lambda(samples) -> tuple[float, float]:
    """Least-squares fit of ln R = -lambda sigma^2 through the origin.

    Returns (lambda, standard error).  Expects at least 8 samples with
    sigma in [0, 0.001] and R in (0, 1].
    """
    pts = [(float(s), float(v)) for s, v in samples]
    if len(pts) < 8:
        raise ValueError(f"need at least 8 samples, got {len(pts)}")
    sig = np.array([p[0] for p in pts])
    val = np.array([p[1] for p in pts])
    if np.any(sig < 0.0) or np.any(sig > FIT_SIGMA_MAX * (1.0 + 1e-9)):
        raise ValueError(f"sigmas must lie in [0, {FIT_SIGMA_MAX}]")
    if np.any(val <= 0.0) or np.any(val > 1.0 + 1e-12):
        raise ValueError("ratios must lie in (0, 1]")
    if sig.min() == sig.max():
        raise FitDegenerateError("all sigmas equal; decay rate is unidentifiable")
    x = sig * sig
    y = np.log(val)
    sxx = float(np.dot(x, x))
    lam = -float(np.dot(x, y)) / sxx
    resid = y + lam * x
    dof = len(pts) - 1
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return lam, stderr


@dataclasses.dataclass(frozen=True)
class FitResult:
    decay_rate: float
    stderr: float
    residuals: np.ndarray

    def __post_init__(self):
        arr = np.array(self.residuals, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "residuals", arr)


def fitted_decay_rate(
    r: float, alpha: float, dim: int | None = None, tail_tol: float = SERIES_STATE_TOL
) -> FitResult:
    """Canonical decay-rate fit: 21 uniform sigmas on [0, 0.001], each
    averaged at cutoff dim with tail tolerance tail_tol.

    Residuals of ln R against the fitted line are recorded on the result
    rather than asserted against any threshold.
    """
    sigmas = np.linspace(0.0, FIT_SIGMA_MAX, FIT_SAMPLES)
    ratios = [gaussian_averaged_ratio(r, alpha, s, dim, tail_tol) for s in sigmas]
    lam, stderr = fit_lambda(zip(sigmas, ratios))
    resid = np.log(ratios) + lam * sigmas * sigmas
    return FitResult(lam, stderr, resid)
