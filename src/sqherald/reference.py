"""Reference paths: the independent computations that `verify` checks the
production kernels against (criteria 5, 9 and 11), which the tests use
too.

- The oracles' cutoff, Truncation, which production does not take, and
  their default cutoffs (default_dims, default_truncation); explicit state
  vectors over the truncated Fock space.
- One matrix exponential for every oracle generator, all of which are
  real antisymmetric and tridiagonal: a diagonal phase similarity makes
  each a real symmetric tridiagonal matrix times i, so one real eigh
  gives it, and no oracle calls complex LAPACK.
- The source states as vectors: squeezed vacuum, the sign superpositions
  (from the log-space pair magnitudes of pair_amplitudes over
  log_factorials, apart from production's closed-form products) and the
  two-mode squeezed vacuum.
- Three balanced-splitter paths: the dense closed-form table split(), the
  orthogonal per-total-N blocks of apply_beam_splitter(), and the squeezer
  decomposition through the per-diagonal two-mode squeezer.
- The click weights and the numeric heralded g2 of a joint table, the g2
  for an array of efficiencies in one product, and the same g2 of the
  benchmark's diagonal tables for an array of r from one photon-number
  array.

verification imports this module, so every command loads it, and every
top-level definition here is reached from verification.  No production
kernel imports it: production numbers come from the generating-function
closed forms of optics and detect and the label series of kerr.  The
oracles that only the tests run (the explicit cross-Kerr state, the
general-branch p0, the Gauss-Hermite and Monte Carlo phase-noise
averages, dense click statistics and the basic state helpers) live in
tests/oracles.py.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sources
from .detect import TINY, ZeroMeanError
from .fockspace import NumericalFailureError, TruncationError
from .optics import ZeroHeraldError

# Probability mass allowed above the cutoff when constructing states.
DEFAULT_TAIL_TOL = 1e-3

BALANCED_ANGLE = math.pi / 4.0
LN2 = math.log(2.0)


# ------------------------------------------------------------ Fock space


@dataclasses.dataclass(frozen=True)
class Truncation:
    """Fock cutoff of one oracle state.

    Levels ``0 .. dim-1`` are kept; constructors reject states whose
    probability mass above the cutoff exceeds ``tail_tol``.
    """

    dim: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not 0.0 <= self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in [0, 1), got {self.tail_tol}")

    def scaled(self, factor: float) -> "Truncation":
        """Same tolerance with the cutoff enlarged by ``factor``, rounded up."""
        return Truncation(dim=math.ceil(self.dim * factor), tail_tol=self.tail_tol)


def default_dims(r) -> np.ndarray:
    """The dense oracles' cutoff dim at each |r| of an array r.

    64 levels hold tails below ~1e-9 up to r = 1.2; 160 levels hold them
    below ~7e-4 up to r = 2.  Beyond r = 2 there is no default: a
    ValueError, naming the first such r, asks for an explicit cutoff.
    """
    r = np.abs(np.asarray(r, dtype=float))
    over = ~(r <= 2.0)
    if np.any(over):
        raise ValueError(
            f"no default cutoff for r = {float(r[over][0])}: the defaults cover r <= 2, so "
            "give a cutoff (--dim on the command line)"
        )
    return np.where(r <= 1.2, 64, 160)


def default_truncation(r: float, tail_tol: float = DEFAULT_TAIL_TOL) -> Truncation:
    """The default_dims cutoff of one r, with tail tolerance tail_tol."""
    return Truncation(int(default_dims(r)), tail_tol)


# The longest table log_factorials builds (128 MB); the cutoffs in use
# need a few tens of thousands of entries.
LOG_FACTORIALS_LIMIT = 2**24


def log_factorials(count: int) -> np.ndarray:
    """Read-only table of log k! = lgamma(k + 1) for k < count, built on
    every call, so each entry is the same float at every count.  A count
    above LOG_FACTORIALS_LIMIT is refused (ValueError), and the table is
    allocated before any entry is computed, so a table that cannot fit
    fails at once."""
    if count > LOG_FACTORIALS_LIMIT:
        raise ValueError(f"a table of {count} log-factorials exceeds the limit of "
                         f"{LOG_FACTORIALS_LIMIT} (is the cutoff too large?)")
    table = np.empty(count)
    for k in range(count):
        table[k] = math.lgamma(k + 1.0)
    table.setflags(write=False)
    return table


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
    phases = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^k by k mod 4, exactly
    return w, phases[np.arange(len(v)) % 4, None] * v


def expm_antisymmetric(lower: np.ndarray) -> np.ndarray:
    """exp(G) of the real antisymmetric tridiagonal G with subdiagonal
    lower (G[k+1, k] = lower[k] = -G[k, k+1]), an orthogonal matrix,
    from _tridiagonal_modes; its imaginary part is round-off.
    """
    w, u = _tridiagonal_modes(np.asarray(lower, dtype=float))
    return ((u * np.exp(1j * w)) @ u.conj().T).real


# --------------------------------------------------------------- sources


def _log_cat_norm(r, sign: int):
    """log N_pm(r), the odd branch logged factor by factor so that it
    stays finite where sinh^2 r underflows."""
    if sign > 0:
        return np.log(sources.cat_norm(r, sign))
    c = np.sqrt(np.cosh(2.0 * r))
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(2.0 * np.sinh(np.abs(r))) - np.log(c * (c + 1.0))


def pair_amplitudes(r, sign: int | None, trunc: Truncation) -> np.ndarray:
    """|c_2k| of the pair levels |2k>, 2k < dim, of squeezed vacuum (sign
    None) or of the sign superposition, one row per entry of an array r,
    after checking both tail masses against trunc, the squeezed vacuum's
    first; the first r that fails is named.

    The magnitudes log|c_2k| are formed in log space over log_factorials,
    apart from the closed-form products of production.  The superposition
    keeps pair levels with k even/odd and doubles them (S(-r) flips the
    sign of every odd-k level); its amplitudes 2 c_2k / sqrt(N_pm) are
    formed in log space, where N_- underflows as r -> 0.  At r = 0 the odd
    branch is its r -> 0 limit, |2>.  The array is read-only.
    """
    if sign not in (None, +1, -1):
        raise ValueError(f"sign must be +1, -1 or None, got {sign}")
    sources._check_squeeze(r)
    k = np.arange((trunc.dim + 1) // 2)
    log_fact = log_factorials(2 * len(k) - 1)
    r_col = np.asarray(r, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_t = k * np.log(np.tanh(np.abs(r_col)))
    k_log_t[..., 0] = 0.0  # r = 0: log tanh r = -inf, and only k = 0 survives
    # log|c_2k| = log((2k)!)/2 - k log 2 - log k! + k log tanh|r| - log(cosh r)/2
    logmag = (-0.5 * np.log(np.cosh(r_col)) + 0.5 * log_fact[2 * k] - k * LN2 - log_fact[k]
              + k_log_t)
    checks = [(1.0 - np.sum(np.exp(2.0 * logmag), axis=-1), "squeezed vacuum at r = {r}")]
    if sign is not None:
        kept = slice(0 if sign > 0 else 1, None, 2)
        logamp = np.full(logmag.shape, -np.inf)
        with np.errstate(invalid="ignore"):
            logamp[..., kept] = logmag[..., kept] + LN2 - 0.5 * _log_cat_norm(r_col, sign)
        if sign < 0 and np.any(r_col == 0.0):
            limit = np.where(np.arange(logmag.shape[-1]) == 1, 0.0, -np.inf)
            logamp = np.where(r_col == 0.0, limit, logamp)
        logmag = logamp
    mag = np.exp(logmag)
    if sign is not None:
        checks.append((1.0 - np.sum(mag * mag, axis=-1),
                       "superposition at r = {r}, sign = %+d" % sign))
    sources._check_tails(r, trunc.dim, trunc.tail_tol, *checks)
    mag.setflags(write=False)
    return mag


def _tmss_tanh(r, trunc: Truncation):
    """tanh |r| of the two-mode squeezed vacuum, after checking that its
    tail mass tanh^(2 dim) r fits the cutoff."""
    sources._check_squeeze(r)
    t = np.tanh(np.abs(r))
    sources._check_tails(r, trunc.dim, trunc.tail_tol,
                         ((t * t) ** trunc.dim, "two-mode squeezed vacuum at r = {r}"))
    return t


def _pair_signs(r: float, pairs: int) -> np.ndarray:
    """Signs of c_2k, k < pairs: those of (-tanh r)^k for r > 0."""
    return np.where((np.arange(pairs) % 2 == 1) & (r > 0), -1.0, 1.0)


def squeezed_vacuum(r: float, trunc: Truncation) -> SingleModeState:
    """S(r)|0>: even-level amplitudes c_{2k} proportional to (-tanh r)^k.

    The sign convention matches the tests' matrix squeezer
    (tests/oracles.py, squeeze_matrix): positive r gives a real
    state with alternating signs on levels 0, 2, 4, ...
    """
    mag = pair_amplitudes(r, None, trunc)
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
    mag = pair_amplitudes(r, sign, trunc)
    amps = np.zeros(trunc.dim, dtype=complex)
    amps[0::2] = _pair_signs(r, len(mag)) * mag
    return SingleModeState(amps, trunc)


def two_mode_squeezed_vacuum(r: float, trunc: Truncation) -> TwoModeState:
    """Two-mode squeezed vacuum with Schmidt amplitudes tanh^n r / cosh r.

    Amplitudes are taken real and positive; only |amps|^2 feeds the
    statistics downstream, so any relative phase convention on the
    Schmidt terms would give the same tables.
    """
    t = _tmss_tanh(r, trunc)
    n = np.arange(trunc.dim)
    if t == 0.0:
        diag = np.where(n == 0, 1.0, 0.0)
    else:
        diag = np.exp(n * math.log(t) - math.log(math.cosh(r)))
    amps = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    np.fill_diagonal(amps, diag)
    return TwoModeState(amps, trunc)


# -------------------------------------------------------------- splitter


def _blocks(dim: int) -> list[np.ndarray]:
    """Orthogonal balanced-splitter blocks, one per total photon number N < dim.

    Block N acts on the basis |k, N-k>, k = 0..N, with generator
    G[k+1, k] = (pi/4) sqrt((k+1)(N-k)) and G[k-1, k] = -(pi/4) sqrt(k(N-k+1)).
    The generator is real antisymmetric and tridiagonal, so each block is
    orthogonal and comes from expm_antisymmetric.
    """
    out = []
    for total in range(dim):
        k = np.arange(total)
        out.append(expm_antisymmetric(BALANCED_ANGLE * np.sqrt((k + 1.0) * (total - k))))
    return out


def apply_beam_splitter(state: TwoModeState) -> TwoModeState:
    """Apply the balanced splitter U = exp[pi/4 (a^dag b - a b^dag)] to an
    arbitrary two-mode state, one orthogonal block per total photon number.

    U a^dag U^dag = (a^dag - b^dag)/sqrt(2).  The independent reference
    for split().  Anti-diagonals with total photon number >= dim cannot be
    represented and are dropped; the lost mass shows up as a norm deficit
    on the output, mirroring how the cutoff treats every other operation.
    """
    d = state.dim
    blocks = _blocks(d)
    rows = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    for total in range(d):
        k = rows[: total + 1]
        out[k, total - k] = blocks[total] @ state.amps[k, total - k]
    return TwoModeState(out, state.truncation)


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
    return coeff, np.minimum(totals, dim)


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
    t = _tmss_tanh(r, trunc)
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
