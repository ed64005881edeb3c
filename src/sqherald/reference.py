"""Reference paths: the independent computations that `verify` and the
tests check the production kernels against.

- Explicit state vectors over the truncated Fock space, the matrix
  squeezer and coherent amplitudes.
- One matrix exponential for every oracle generator, all of which are
  real antisymmetric and tridiagonal (the squeezer's on its even and on
  its odd levels): a diagonal phase similarity makes each a real
  symmetric tridiagonal matrix times i, so one real eigh gives it, and
  no oracle calls complex LAPACK.
- The source states as vectors: squeezed vacuum, the sign superpositions
  and the two-mode squeezed vacuum.
- Three balanced-splitter paths: the dense closed-form table split(), the
  orthogonal per-total-N blocks of apply_beam_splitter(), and the squeezer
  decomposition through the per-diagonal two-mode squeezer.
- Dense click statistics and the numeric heralded g2 of a joint table,
  the g2 for an array of efficiencies in one product, and the same g2 of
  the benchmark's diagonal tables for an array of r from one
  photon-number array.
- The Kerr schedule and the explicit cross-Kerr state, the label-series
  overlap of any branch sign, label and complex pump, the phase-error
  ratio at one phase offset, and the Gauss-Hermite ladder and seeded
  Monte Carlo averages of the phase-noise ratio, all on that overlap.

No figure, sweep or production kernel imports this module; production
numbers come from the generating-function closed forms of optics and
detect and the label series of kerr.  scipy (the test extra) is
imported only inside coherent_amplitudes and _hermite_rule.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import kerr, sources
from .detect import TINY, DetectorModel, ZeroClickError, ZeroMeanError
from .fockspace import (
    SQUEEZE_LIMIT,
    NumericalFailureError,
    Truncation,
    TruncationError,
    log_factorials,
)
from .optics import ZeroHeraldError

BALANCED_ANGLE = math.pi / 4.0

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


class TruncationMismatchError(ValueError):
    """Operands were constructed with different truncations."""


class DegenerateStateError(ValueError):
    """The requested superposition has zero norm and is undefined."""


def _frozen_array(obj, name: str, values: np.ndarray) -> None:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclasses.dataclass(frozen=True)
class SingleModeState:
    """Amplitudes over photon numbers 0..dim-1 for one mode."""

    amps: np.ndarray
    truncation: Truncation

    def __post_init__(self):
        if np.ndim(self.amps) != 1 or len(self.amps) != self.truncation.dim:
            raise ValueError("amps must be a vector of length truncation.dim")
        _frozen_array(self, "amps", self.amps)

    @property
    def dim(self) -> int:
        return self.truncation.dim

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def photon_distribution(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclasses.dataclass(frozen=True)
class TwoModeState:
    """Amplitudes amps[n_a, n_b] over a dim x dim photon-number grid."""

    amps: np.ndarray
    truncation: Truncation

    def __post_init__(self):
        d = self.truncation.dim
        if np.shape(self.amps) != (d, d):
            raise ValueError("amps must be a dim x dim matrix")
        _frozen_array(self, "amps", self.amps)

    @property
    def dim(self) -> int:
        return self.truncation.dim

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def joint_distribution(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


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


# (-i)^k by k mod 4, exactly
_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])


def _tridiagonal_modes(lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) with exp(G) = u diag(e^{i w}) u^H for the real antisymmetric
    tridiagonal G with subdiagonal lower (G[k+1, k] = lower[k] =
    -G[k, k+1]).

    With D = diag((-i)^k), D^-1 G D = i T for the real symmetric
    tridiagonal T with lower on both off-diagonals, so one real eigh,
    T = V diag(w) V^T, gives u = D V, no complex LAPACK call.
    """
    if not np.all(np.isfinite(lower)):
        raise NumericalFailureError("matrix exponential of a non-finite generator")
    w, v = np.linalg.eigh(np.diag(lower, k=-1) + np.diag(lower, k=1))
    return w, _PHASES[np.arange(len(v)) % 4, None] * v


def expm_antisymmetric(lower: np.ndarray) -> np.ndarray:
    """exp(G) of the real antisymmetric tridiagonal G with subdiagonal
    lower (G[k+1, k] = lower[k] = -G[k, k+1]), an orthogonal matrix,
    from _tridiagonal_modes; its imaginary part is round-off.
    """
    w, u = _tridiagonal_modes(np.asarray(lower, dtype=float))
    return ((u * np.exp(1j * w)) @ u.conj().T).real


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


# --------------------------------------------------------------- sources


def _pair_signs(r: float, pairs: int) -> np.ndarray:
    """Signs of c_2k, k < pairs: those of (-tanh r)^k for r > 0."""
    return np.where((np.arange(pairs) % 2 == 1) & (r > 0), -1.0, 1.0)


def squeezed_vacuum(r: float, trunc: Truncation) -> SingleModeState:
    """S(r)|0>: even-level amplitudes c_{2k} proportional to (-tanh r)^k.

    The sign convention matches squeeze_matrix: positive r gives a real
    state with alternating signs on levels 0, 2, 4, ...
    """
    (mag,) = sources.pair_amplitudes(r, None, trunc)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[0::2] = _pair_signs(r, len(mag)) * mag
    return SingleModeState(amps, trunc)


def squeezed_cat(r: float, sign: int, trunc: Truncation) -> SingleModeState:
    """Normalized superposition (S(r)|0> pm S(-r)|0>) / sqrt(N_pm).

    The plus branch lives on levels 0, 4, 8, ...; the minus branch on
    2, 6, 10, ...  The minus branch is undefined at r = 0.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if sign < 0 and r == 0.0:
        raise DegenerateStateError("the odd superposition vanishes at r = 0")
    (mag,) = sources.pair_amplitudes(r, sign, trunc)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[0::2] = _pair_signs(r, len(mag)) * mag
    return SingleModeState(amps, trunc)


def two_mode_squeezed_vacuum(r: float, trunc: Truncation) -> TwoModeState:
    """Two-mode squeezed vacuum with Schmidt amplitudes tanh^n r / cosh r.

    Amplitudes are taken real and positive; only |amps|^2 feeds the
    statistics downstream, so any relative phase convention on the
    Schmidt terms would give the same tables.
    """
    t = sources._tmss_tanh(r, trunc)
    n = np.arange(trunc.dim)
    if t == 0.0:
        diag = np.where(n == 0, 1.0, 0.0)
    else:
        diag = np.exp(n * math.log(t) - math.log(math.cosh(r)))
    amps = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    np.fill_diagonal(amps, diag)
    return TwoModeState(amps, trunc)


# -------------------------------------------------------------- splitter


@functools.lru_cache(maxsize=16)
def _blocks(dim: int, theta: float) -> tuple[np.ndarray, ...]:
    """Orthogonal beam-splitter blocks, one per total photon number N < dim.

    Block N acts on the basis |k, N-k>, k = 0..N, with generator
    G[k+1, k] = theta sqrt((k+1)(N-k)) and G[k-1, k] = -theta sqrt(k(N-k+1)).
    The generator is real antisymmetric and tridiagonal, so each block is
    orthogonal and comes from expm_antisymmetric.
    """
    out = []
    for total in range(dim):
        k = np.arange(total)
        block = expm_antisymmetric(theta * np.sqrt((k + 1.0) * (total - k)))
        block.setflags(write=False)
        out.append(block)
    return tuple(out)


def apply_beam_splitter(state: TwoModeState, theta: float = BALANCED_ANGLE) -> TwoModeState:
    """Apply U = exp[theta (a^dag b - a b^dag)] to an arbitrary two-mode
    state, one orthogonal block per total photon number.

    At theta = pi/4, U a^dag U^dag = (a^dag - b^dag)/sqrt(2).  The
    independent reference for split().  Anti-diagonals with total photon
    number >= dim cannot be represented and are dropped; the lost mass
    shows up as a norm deficit on the output, mirroring how the cutoff
    treats every other operation.
    """
    d = state.dim
    blocks = _blocks(d, theta)
    rows = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    for total in range(d):
        k = rows[: total + 1]
        out[k, total - k] = blocks[total] @ state.amps[k, total - k]
    return TwoModeState(out, state.truncation)


@functools.lru_cache(maxsize=16)
def _balanced_columns(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form balanced-splitter image of every |N, 0>, N < dim
    (Campos, Saleh & Teich, PRA 40, 1371 (1989)):

        U |N, 0> = sum_k (-1)^(N-k) sqrt(C(N, k) / 2^N) |k, N-k>.

    Returns (coeff, totals): coeff[n_a, n_b] is the amplitude that |N, 0>
    with N = n_a + n_b sends to |n_a, n_b>, and totals[n_a, n_b] = N,
    except that totals >= dim, which the cutoff cannot hold, all point at
    index dim (a zero pad slot in split()).
    """
    n = np.arange(dim)
    totals = np.add.outer(n, n)
    log_fact = log_factorials(2 * dim - 1)
    # the grouped sum keeps |coeff| exactly symmetric under n_a <-> n_b
    log_coeff = 0.5 * (
        log_fact[totals] - np.add.outer(log_fact[:dim], log_fact[:dim]) - totals * math.log(2.0)
    )
    coeff = np.where(n % 2 == 0, 1.0, -1.0) * np.exp(log_coeff)
    totals = np.minimum(totals, dim)
    coeff.setflags(write=False)
    totals.setflags(write=False)
    return coeff, totals


def split(state: SingleModeState) -> TwoModeState:
    """Send `state` into port a of the balanced splitter with vacuum in
    port b: out[n_a, n_b] = coeff[n_a, n_b] * amps[n_a + n_b].

    Totals n_a + n_b >= dim are dropped, as in apply_beam_splitter.
    """
    norm = state.norm_sq()
    if norm > 1.0 + 1e-9 or 1.0 - norm > state.truncation.tail_tol:
        raise ValueError(f"input must be normalized up to the tail tolerance, |psi|^2 = {norm}")
    coeff, totals = _balanced_columns(state.dim)
    return TwoModeState(coeff * np.append(state.amps, 0.0)[totals], state.truncation)


@dataclasses.dataclass(frozen=True)
class JointDistribution:
    """Joint photon-number probabilities p[n_a, n_b] plus truncation deficit.

    deficit = 1 - sum(p); constructors guarantee it stays below the
    truncation's tail tolerance.
    """

    p: np.ndarray
    deficit: float
    truncation: Truncation

    def __post_init__(self):
        d = self.truncation.dim
        if np.shape(self.p) != (d, d):
            raise ValueError("p must be dim x dim")
        arr = np.array(self.p, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)
        if self.deficit > self.truncation.tail_tol:
            raise TruncationError("joint distribution lost too much mass", self.deficit)


def joint_probability(state: TwoModeState) -> JointDistribution:
    p = state.joint_distribution()
    deficit = 1.0 - float(np.sum(p))
    return JointDistribution(p, deficit, state.truncation)


def tmss_joint_probability(r: float, trunc: Truncation) -> JointDistribution:
    """Joint distribution of the two-mode squeezed vacuum benchmark."""
    return joint_probability(two_mode_squeezed_vacuum(r, trunc))


def tmss_photon_numbers(r: np.ndarray, trunc: Truncation) -> np.ndarray:
    """The diagonal p[i, n] = tanh^2n r_i / cosh^2 r_i of
    tmss_joint_probability(r_i, trunc) at each r_i of a 1-D array, one row
    per r, after the same tail check and the same deficit check, each
    naming the first r that fails it."""
    t = sources._tmss_tanh(r, trunc)
    n = np.arange(trunc.dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        # n log t is 0 at n = 0 also where t = 0 (r = 0)
        log_amps = np.where(n > 0, n * np.log(t)[:, None], 0.0) - np.log(np.cosh(r))[:, None]
    p = np.exp(log_amps) ** 2
    deficit = 1.0 - np.sum(p, axis=1)
    lost = deficit > trunc.tail_tol
    if np.any(lost):
        raise TruncationError("joint distribution lost too much mass", float(deficit[lost][0]))
    return p


def single_photon_fraction(row: np.ndarray) -> float:
    """P(n_b = 1 | n_a = 1) from a dense herald row P(1, n_b)."""
    total = float(np.sum(row))
    if total == 0.0:
        raise ZeroHeraldError("herald outcome n_a = 1 has zero probability")
    return float(row[1]) / total


def two_mode_squeeze_apply(s: float, state: TwoModeState) -> TwoModeState:
    """Apply S_ab(s) = exp[s (ab - a^dag b^dag)] one diagonal at a time.

    The generator keeps n_a - n_b fixed, so on the diagonal
    |m + p, m + q> (p - q = n_a - n_b) it is tridiagonal with
    G[m-1, m] = s sqrt((m + p)(m + q)) = -G[m, m-1].  That is symmetric
    in p and q, so the diagonals +o and -o share one generator: each pair
    is diagonalized once by _tridiagonal_modes, and its exponential is
    applied to each of the two diagonals' amplitudes as u e^{i w} u^H,
    matrix-vector products only.  A diagonal with no amplitude stays zero.
    """
    d = state.dim
    out = np.zeros((d, d), dtype=complex)
    for offset in range(d):
        rows = np.arange(offset, d)
        cols = rows - offset
        diagonals = [(rows, cols), (cols, rows)] if offset else [(rows, cols)]
        diagonals = [(i, j) for i, j in diagonals if state.amps[i, j].any()]
        if not diagonals:
            continue
        w, u = _tridiagonal_modes(-s * np.sqrt(rows[1:] * cols[1:]))
        phases, u_h = np.exp(1j * w), u.conj().T
        for i, j in diagonals:
            out[i, j] = u @ (phases * (u_h @ state.amps[i, j]))
    return TwoModeState(out, state.truncation)


def split_via_squeezer_decomposition(r: float, trunc: Truncation) -> TwoModeState:
    """Split squeezed vacuum using the squeezer identity instead of blocks:

        U (S_a(r)|0,0>) = S_ab(-r/2) S_a(r/2) S_b(r/2) |0, 0>

    with the sign conventions fixed above.  Amplitudes agree with split()
    to machine precision on photon totals well below the cutoff; near the
    cutoff the two paths truncate differently (split() drops whole totals
    >= dim, this path keeps the square grid), so compare probability
    tables, or amplitudes on totals < dim/2.
    """
    half = squeezed_vacuum(r / 2.0, trunc)
    product = np.outer(half.amps, half.amps)
    return two_mode_squeeze_apply(-r / 2.0, TwoModeState(product, trunc))


def tmss_schmidt_check(r: float, trunc: Truncation) -> TwoModeState:
    """S_ab(r)|0,0> built by two_mode_squeeze_apply, for comparing
    probability tables against two_mode_squeezed_vacuum."""
    vac = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    vac[0, 0] = 1.0
    return two_mode_squeeze_apply(r, TwoModeState(vac, trunc))


# ------------------------------------------------------------- detection


def click_weights(eta, count: int) -> np.ndarray:
    """w[k] = eta (1-eta)^{k-1} for k >= 1, w[0] = 0, for one efficiency
    eta, or one row per efficiency for a 1-D array of them; every eta
    must lie in (0, 1].

    These weight the herald-arm photon number when exactly one counted
    photon is required; their tail sum is the plain click probability.
    """
    eta = np.asarray(eta, dtype=float)[..., None]
    bad = ~((eta > 0.0) & (eta <= 1.0))
    if np.any(bad):
        raise ValueError(f"eta must lie in (0, 1], got {eta[bad][0]}")
    k = np.arange(count)
    w = np.zeros(eta.shape[:-1] + (count,))
    w[..., 1:] = eta * (1.0 - eta) ** (k[1:] - 1.0)
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
    if p_click < TINY:
        raise ZeroClickError("click probability vanished")
    p_click_1 = float(weighted_b[1])
    return HeraldedStatistics(
        p_click=p_click,
        p_click_1=p_click_1,
        p_click_c=p_click_1 / p_click,
        conditional_photon_dist=weighted_b / p_click,
    )


def click_statistics(dist: JointDistribution, det: DetectorModel) -> HeraldedStatistics:
    """Click-detect mode a of a joint distribution (the dense oracle for
    detect.heralded_clicks and detect.benchmark_clicks)."""
    return _statistics(click_weights(det.eta, dist.truncation.dim) @ dist.p)


def _g2_subnormalized(weighted_b: np.ndarray):
    """g2 over the click-weighted (unnormalized) signal ensemble, for each
    row of weighted_b.

    Keeping the click probability inside the moments reproduces the
    closed-form benchmark; normalizing first would divide it out of the
    numerator and denominator asymmetrically.  A subnormal squared mean
    has lost its digits, so it counts as zero.
    """
    n = np.arange(weighted_b.shape[-1])
    m1 = weighted_b @ n
    if np.any(m1 * m1 < TINY):
        raise ZeroMeanError("mean photon number is zero")
    m2 = weighted_b @ (n * (n - 1.0))
    return m2 / (m1 * m1)


def g2_numeric(dist: JointDistribution, eta):
    """Heralded g2 of a joint distribution with mode a click-detected at
    efficiency eta, or one g2 per efficiency for a 1-D array of them, all
    from one product of the table with their click weights (the dense
    oracle for detect.heralded_g2 and, on tmss_joint_probability, for
    detect.benchmark_g2)."""
    g2 = _g2_subnormalized(click_weights(eta, dist.truncation.dim) @ dist.p)
    return float(g2) if np.ndim(eta) == 0 else g2


def tmss_g2_numeric(r: np.ndarray, trunc: Truncation, etas: np.ndarray) -> np.ndarray:
    """g2_numeric(tmss_joint_probability(r_i, trunc), etas) at each r_i of
    a 1-D array, one row per r, for a 1-D array of efficiencies: the table
    is diagonal, so its product with the click weights is their
    elementwise product with the row of tmss_photon_numbers, and every r
    meets them in one product."""
    p = tmss_photon_numbers(r, trunc)
    return _g2_subnormalized(p[:, None, :] * click_weights(etas, trunc.dim))


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
        trunc = kerr.series_truncation(r)
    if label is None:
        label = -alpha if sign < 0 else alpha
    n, g = _pair_series(r, sign, trunc)
    return _overlap_probability(np.mod(taus, kerr.TWO_PI), n, g, alpha, label)


def _pair_series(r: float, sign: int, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Pair indices n and weights g_n = conj(c_n) d_{2n}, the product of
    their magnitudes, of the nonzero label-series terms on the sign branch."""
    (vac,) = sources.pair_amplitudes(r, None, trunc)
    (mag,) = sources.pair_amplitudes(r, sign, trunc)
    g = vac * mag
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
    trunc = Truncation(kerr.series_truncation(r).dim if dim is None else dim, tail_tol)
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
    kerr.gaussian_averaged_ratio averages."""
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


def _hermite_ladder_ratio(r: float, alpha: float, sigma: float) -> float:
    """Gaussian-averaged ratio from the Gauss-Hermite ladder: the first
    adjacent pair of QUADRATURE_ORDERS that agrees within
    QUADRATURE_AGREEMENT (the oracle for kerr.gaussian_averaged_ratio)."""
    prev = _averaged_ratio_quadrature(r, alpha, sigma, QUADRATURE_ORDERS[0], None)
    for order in QUADRATURE_ORDERS[1:]:
        cur = _averaged_ratio_quadrature(r, alpha, sigma, order, None)
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
    kerr.gaussian_averaged_ratio)."""
    if seed is None:
        raise ValueError("monte-carlo averaging requires a seed")
    rng = np.random.default_rng(seed)
    dthetas = rng.normal(0.0, sigma, size=samples)
    vals = np.empty(samples)
    for lo in range(0, samples, MONTE_CARLO_BLOCK):
        block = slice(lo, lo + MONTE_CARLO_BLOCK)
        vals[block] = _odd_ratio(r, alpha, dthetas[block], None)
    return float(np.mean(vals))
