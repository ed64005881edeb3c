"""Oracles that only the tests run, built on the dense states of
sqherald.reference.  The test modules import this file as `oracles`.

- Basic state helpers over a Truncation: vacuum and Fock states, coherent
  amplitudes, the lowering operator, the matrix squeezer, inner and
  tensor products, and the label series' cutoff at one r
  (series_truncation).
- The half-binomials c_k = C(2k, k)/4^k as a compensated loop.
- The two-mode squeezed vacuum built by the per-diagonal two-mode
  squeezer, against the Schmidt form.
- Dense click statistics of a joint table at one efficiency.
- The Kerr schedule and the explicit cross-Kerr state, the label-series
  overlap of any branch sign, label and complex pump, the phase-error
  ratio at one phase offset, and the Gauss-Hermite ladder and seeded
  Monte Carlo averages of the phase-noise ratio, all on that overlap.

scipy (a test dependency) is imported only inside coherent_amplitudes and
_hermite_rule.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from sqherald import kerr
from sqherald.detect import ZeroClickError
from sqherald.fockspace import SQUEEZE_LIMIT, TINY, NumericalFailureError, TruncationError
from sqherald.reference import (
    JointDistribution,
    SingleModeState,
    Truncation,
    TwoModeState,
    click_weights,
    expm_antisymmetric,
    pair_amplitudes,
    squeezed_vacuum,
    two_mode_squeeze_apply,
)

# Coefficient sums of the explicit Kerr state are accepted as converged
# when they carry at least this much of the unit norm.
COEFF_NORM_TOL = 1e-10

# Gauss-Hermite escalation ladder (the oracle for the trapezoid rule);
# larger r keeps more pair terms, which oscillate at frequency
# ~ alpha^2 * n under a 1/(alpha*n) wide envelope, so the node count has
# to scale with the highest retained pair index; every order is even, so
# each rule splits into two mirrored halves (see _hermite_rule)
QUADRATURE_ORDERS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
QUADRATURE_AGREEMENT = 1e-9
# Draws per block of the Monte Carlo average, whose overlap tables hold
# terms x MONTE_CARLO_BLOCK entries at a time.
MONTE_CARLO_BLOCK = 4096


# ------------------------------------------------------------ Fock space


def series_truncation(r: float) -> Truncation:
    """The label series' cutoff at one r, kerr.series_cutoffs, as a
    Truncation."""
    column = kerr.series_cutoffs([r])
    return Truncation(column.dim, column.tail_tol)


def half_binomials_loop(count: int) -> np.ndarray:
    """sources._half_binomials as one Neumaier-compensated loop over the
    log1p(-1/(2j)) terms, appending each compensated prefix sum."""
    sums = [0.0]
    total = carry = 0.0
    for term in np.log1p(-0.5 / np.arange(1.0, count)).tolist():
        step = total + term
        carry += (total - step) + term
        total = step
        sums.append(total + carry)
    return np.exp(sums)


class TruncationMismatchError(ValueError):
    """Operands were constructed with different truncations."""


def _require_same_truncation(u, v) -> None:
    if u.truncation != v.truncation:
        raise TruncationMismatchError(
            f"truncations differ: {u.truncation} vs {v.truncation}"
        )


def vacuum_state(trunc: Truncation) -> SingleModeState:
    """|0> in the truncated space."""
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[0] = 1.0
    return SingleModeState(amps, trunc)


def fock_state(n: int, trunc: Truncation) -> SingleModeState:
    """|n>; n must lie below the cutoff."""
    if not 0 <= n < trunc.dim:
        raise ValueError(f"level {n} outside 0..{trunc.dim - 1}")
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[n] = 1.0
    return SingleModeState(amps, trunc)


def coherent_amplitudes(alpha: complex, trunc: Truncation) -> SingleModeState:
    """Coherent state |alpha>: amps[n] = exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    Magnitudes are accumulated in log space so large |alpha| does not
    overflow intermediate factorials.  Raises TruncationError when the
    mass above the cutoff exceeds the tolerance.  Needs scipy (the test
    extra): gammaln's rounding is what keeps the computed
    |<alpha|-alpha>|^2 at alpha = 10 near 1e-30.
    """
    from scipy.special import gammaln

    n = np.arange(trunc.dim)
    a = abs(alpha)
    if a == 0.0:
        return vacuum_state(trunc)
    logmag = -0.5 * a * a + n * math.log(a) - 0.5 * gammaln(n + 1.0)
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(logmag) * phase
    tail = 1.0 - float(np.sum(np.exp(2.0 * logmag)))
    if tail > trunc.tail_tol:
        raise TruncationError(
            f"coherent state with |alpha| = {a} does not fit in dim = {trunc.dim}",
            tail,
        )
    return SingleModeState(amps, trunc)


def annihilation(trunc: Truncation) -> np.ndarray:
    """Lowering operator a: a|n> = sqrt(n)|n-1>, as a dim x dim matrix."""
    return np.diag(np.sqrt(np.arange(1, trunc.dim, dtype=float)), k=1)


def squeeze_matrix(r: float, trunc: Truncation) -> np.ndarray:
    """Single-mode squeezer S(r) = exp[(r/2)(a^2 - a^dag^2)] on the cutoff space.

    The generator is real antisymmetric, so the result is orthogonal:
    inverse pairs compose to the identity and unitarity holds on the
    whole space to machine precision.  It couples level k only to k + 2,
    so it is tridiagonal on the even and on the odd levels, and each of
    the two is exponentiated by expm_antisymmetric.  The price is a
    boundary reflection: amplitude that the untruncated operator would
    push past the cutoff folds back, perturbing the vacuum column at the
    ~0.3 * tanh(r)**(dim/2) scale.  Size dim so that this is below the
    accuracy you need (dim >= 80 gives < 1e-8 for r <= 0.725).
    """
    if abs(r) > SQUEEZE_LIMIT:
        raise ValueError(f"|r| must not exceed {SQUEEZE_LIMIT}, got {r}")
    out = np.zeros((trunc.dim, trunc.dim))
    for parity in (0, 1):
        k = np.arange(parity, trunc.dim, 2)
        # G[k + 2, k] = -(r/2) sqrt((k + 1)(k + 2))
        out[np.ix_(k, k)] = expm_antisymmetric(-0.5 * r * np.sqrt((k[:-1] + 1.0) * (k[:-1] + 2.0)))
    return out


def inner_product(u: SingleModeState | TwoModeState, v: SingleModeState | TwoModeState) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    if type(u) is not type(v):
        raise TypeError("inner product needs two states of the same kind")
    _require_same_truncation(u, v)
    return complex(np.vdot(u.amps, v.amps))


def tensor(a: SingleModeState, b: SingleModeState) -> TwoModeState:
    """Product state with amps[n_a, n_b] = a[n_a] * b[n_b]."""
    _require_same_truncation(a, b)
    return TwoModeState(np.outer(a.amps, b.amps), a.truncation)


# -------------------------------------------------------------- splitter


def tmss_schmidt_check(r: float, trunc: Truncation) -> TwoModeState:
    """S_ab(r)|0,0> built by two_mode_squeeze_apply, for comparing
    probability tables against two_mode_squeezed_vacuum."""
    vac = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    vac[0, 0] = 1.0
    return two_mode_squeeze_apply(r, TwoModeState(vac, trunc))


# ------------------------------------------------------------- detection


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
    if p_click < TINY:
        raise ZeroClickError("click probability vanished")
    p_click_1 = float(weighted_b[1])
    return HeraldedStatistics(
        p_click=p_click,
        p_click_1=p_click_1,
        p_click_c=p_click_1 / p_click,
        conditional_photon_dist=weighted_b / p_click,
    )


def click_statistics(dist: JointDistribution, eta: float) -> HeraldedStatistics:
    """Click-detect mode a of a joint distribution at efficiency eta, which
    click_weights refuses outside (0, 1] (the dense oracle for
    detect.heralded_clicks and detect.benchmark_clicks)."""
    return _statistics(click_weights(eta, dist.truncation.dim) @ dist.p)


# ------------------------------------------------------------------ Kerr


@dataclasses.dataclass(frozen=True)
class KerrSchedule:
    """Interaction phase tau_tilde = 2*kappa*t (stored mod 2pi) and pump
    amplitude alpha."""

    tau_tilde: float
    alpha: complex

    def __post_init__(self):
        kerr._check_schedule(self.tau_tilde, self.alpha)
        object.__setattr__(self, "tau_tilde", float(self.tau_tilde) % kerr.TWO_PI)


@dataclasses.dataclass(frozen=True)
class HybridKerrState:
    """Sum over pair index n of c_n |2n>_1 |beta_n>_2.

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


def kerr_evolve(r: float, sched: KerrSchedule, trunc: Truncation) -> HybridKerrState:
    """Evolve S(r)|0>_1 |alpha>_2 under the cross-Kerr coupling for phase
    tau_tilde: each pair component |2n> imprints e^{-i n tau_tilde} on the
    pump label."""
    base = squeezed_vacuum(r, trunc)
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


def p0_over_tau(
    taus: np.ndarray,
    r: float,
    alpha: complex,
    trunc: Truncation | None = None,
    sign: int = -1,
    label: complex | None = None,
) -> np.ndarray:
    """Probability of projecting the Kerr output onto the superposition
    branch |r; sign>_1 |label>_2 at each interaction phase of taus (taken
    mod 2pi): the general-branch oracle for kerr.p0_over_tau, which
    serves only sign = -1 with label = -alpha.

    The default label is -alpha on the odd branch and alpha on the even
    one.  At tau_tilde = pi the value approaches the branch weight
    N_sign(r)/4, up to the residual overlap of the |+alpha> and |-alpha>
    labels.
    """
    kerr._check_schedule(taus, alpha)
    if not r > 0.0:
        raise ValueError("squeezing must be positive")
    if trunc is None:
        trunc = series_truncation(r)
    if label is None:
        label = -alpha if sign < 0 else alpha
    n, g = _pair_series(r, sign, trunc)
    return _overlap_probability(np.mod(taus, kerr.TWO_PI), n, g, alpha, label)


def _pair_series(r: float, sign: int, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Pair indices n and weights g_n = conj(c_n) d_{2n}, the product of
    their magnitudes, of the nonzero label-series terms on the sign branch."""
    g = pair_amplitudes(r, None, trunc) * pair_amplitudes(r, sign, trunc)
    n = np.flatnonzero(g)
    return n, g[n]


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


def _odd_ratio(
    r: float, alpha: float, dthetas: np.ndarray, dim: int | None,
    tail_tol: float = kerr.SERIES_STATE_TOL,
) -> np.ndarray:
    """The general overlap at interaction phases pi + dthetas, over its
    own value at pi, on the odd-branch series of _pair_series at
    cutoff dim (default: the series cutoff), with its own refusal of a
    reference that has lost its digits."""
    kerr._check_schedule(dthetas, alpha)
    if not r >= 0.0:
        raise ValueError("squeezing must be nonnegative")
    trunc = Truncation(series_truncation(r).dim if dim is None else dim, tail_tol)
    n, g = _pair_series(r, -1, trunc)
    ref = _overlap_probability(np.array([math.pi]), n, g, alpha, -alpha)[0]
    if not ref >= TINY:  # a NaN reference fails too
        raise NumericalFailureError(f"herald probability {ref:.3g} at tau_tilde = pi has lost "
                                    f"its digits at r = {r}, alpha = {alpha}")
    return _overlap_probability(math.pi + dthetas, n, g, alpha, -alpha) / ref


def phase_error_ratio(r: float, alpha: float, dtheta: float, dim: int | None = None) -> float:
    """R(r, alpha, dtheta): herald probability at interaction phase
    pi + dtheta, normalized by its dtheta = 0 value (so R(., ., 0) = 1
    exactly and residual finite-alpha effects cancel); the integrand that
    kerr.phase_ratio averages."""
    return float(_odd_ratio(r, alpha, np.array([dtheta]), dim)[0])


@functools.lru_cache(maxsize=len(QUADRATURE_ORDERS))
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive nodes of the even-order Gauss-Hermite rule, with doubled
    weights.

    With g and w = -alpha^2 real, F(pi - x) = conj(F(pi + x)), so the
    averaged |F|^2 is even in x and the mirrored half of the symmetric
    rule adds nothing.
    """
    # scipy's nodes stay accurate at the high orders of the ladder, where
    # numpy's recurrence-based hermgauss overflows; its rules are exactly
    # mirror-symmetric.
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
    tail_tol: float = kerr.SERIES_STATE_TOL,
) -> float:
    nodes, weights = _hermite_rule(order)
    vals = _odd_ratio(r, alpha, math.sqrt(2.0) * sigma * nodes, dim, tail_tol)
    return float(np.dot(weights, vals) / math.sqrt(math.pi))


def _hermite_ladder_ratio(r: float, alpha: float, sigma: float, dim: int | None = None) -> float:
    """Gaussian-averaged ratio from the Gauss-Hermite ladder at cutoff dim
    (default: the series cutoff): the first adjacent pair of
    QUADRATURE_ORDERS that agrees within QUADRATURE_AGREEMENT (the oracle
    for kerr.phase_ratio)."""
    prev = _averaged_ratio_quadrature(r, alpha, sigma, QUADRATURE_ORDERS[0], dim)
    for order in QUADRATURE_ORDERS[1:]:
        cur = _averaged_ratio_quadrature(r, alpha, sigma, order, dim)
        if abs(cur - prev) <= QUADRATURE_AGREEMENT:
            return cur
        prev = cur
    raise kerr.QuadratureConvergenceError(
        f"orders {QUADRATURE_ORDERS} disagree beyond {QUADRATURE_AGREEMENT} "
        f"at r = {r}, alpha = {alpha}, sigma = {sigma}"
    )


def _monte_carlo_ratio(
    r: float, alpha: float, sigma: float, samples: int, seed: int | None
) -> float:
    """Mean of phase_error_ratio over `samples` seeded draws dtheta ~
    N(0, sigma^2) at the series cutoff (a second oracle for
    kerr.phase_ratio)."""
    if seed is None:
        raise ValueError("monte-carlo averaging requires a seed")
    rng = np.random.default_rng(seed)
    dthetas = rng.normal(0.0, sigma, size=samples)
    vals = np.empty(samples)
    for lo in range(0, samples, MONTE_CARLO_BLOCK):
        block = slice(lo, lo + MONTE_CARLO_BLOCK)
        vals[block] = _odd_ratio(r, alpha, dthetas[block], None)
    return float(np.mean(vals))
