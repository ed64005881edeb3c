"""Cross-Kerr entangling step, post-selection statistics, and robustness
of the heralding probability against interaction-phase noise.

Mode 1 (the photon-pair mode) is a pair series cut at a Fock cutoff;
mode 2 (the bright pump) is tracked symbolically as coherent labels,
because the exact overlap of two coherent states has a closed form and
pump amplitudes around alpha = 10 would otherwise need hundreds of Fock
levels.

Production projects only onto the odd superposition with the label
-alpha, whose pair indices n are all odd.  There each label overlap is
exactly exp(-2|alpha|^2 sin^2(n delta/2) + i |alpha|^2 sin(n delta)) in
the deviation delta = tau_tilde - pi.  Every point of p0_over_tau and
of the phase-noise average phase_ratio carries its own cutoff, its
entry in each CutoffColumn the caller gives, and so its own weight row:
the odd-branch weights g_1, g_3, ... at its r and cutoff, in closed
form: g_k = (sqrt(N_-)/2) p_2k, with p_2k the odd branch's pair
probabilities (sources.odd_branch_weights).  `_weight_rows`
finds a call's distinct rows and builds those it does not keep from an
earlier call, a cutoff column's in blocks of one build each
(`_odd_rows`), and holds them.  A shorter row is a prefix of a longer
one, so one merged pass, `_row_blocks`, zero-pads the rows to the
longest and hands them to one kernel, `_odd_branch_probability`, as one
weight matrix: p0 makes one call for all its points, and phase_ratio one
for each group of consecutive sigmas that read the same rows and share
one trapezoid grid.  Only a sweep whose weight matrix, value table or
rule weights would pass MERGE_BLOCK entries, or whose sigmas are too far
apart to share a grid, takes more.  The kernel fills at most
KERNEL_BLOCK entries of the terms x nodes table at a time.  Its cosines
and sines come from `_cis`, a table-driven rotation (Cody & Waite 1980;
Tang, ACM TOMS 15, 144 (1989)) that replaces the two libm calls of each
of its two rotations with 28 vectorised multiply, add and gather passes,
for every table; libm serves only arguments beyond CIS_LIMIT.  The
phase-noise average is a periodic trapezoid rule checked against itself
at half the step, row by row, whose node at delta = 0 is also each row's
reference probability.  The overlap of any branch and label is the
tests' oracle in tests/oracles.py, on libm.
"""
from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import analysis, sources
from .fockspace import TINY, CutoffColumn, NumericalFailureError

TWO_PI = 2.0 * math.pi

# Tail target for the automatically chosen series cutoff.
SERIES_TAIL_TOL = 1e-11
# Tail mass the label-series states may leave above that cutoff.
SERIES_STATE_TOL = 1e-9

# Phase-noise average: trapezoid rule on the half period [0, pi] with
# coarse step h = pi/M, cut at the first even fine node past
# TRAPEZOID_WINDOW sigmas; the rules at h and h/2 must agree within
# TRAPEZOID_AGREEMENT.  The pair term n carries the harmonics k*n of
# delta with k Poisson-distributed around alpha^2, so the integrand's
# weight lies below the band (|alpha| + TRAPEZOID_BAND_PAD)^2 * n[-1].
# A rule that needs more than TRAPEZOID_MAX_NODES nodes is refused.
TRAPEZOID_WINDOW = 9.0
TRAPEZOID_AGREEMENT = 1e-12
TRAPEZOID_BAND_PAD = 3.0
TRAPEZOID_MAX_NODES = 2**20
# Entries of the terms x nodes table that the kernel holds at once, in
# each of its eight work buffers (96 kB each, 768 kB in all).
KERNEL_BLOCK = 3 * 2**12
# Entries of the weight matrix, and of the rows x deviations value table,
# that one kernel call of a merged pass holds (2 MB each): longer sweeps
# take more calls, but need no more memory.
MERGE_BLOCK = 2**18

# Table-driven rotation: x = k 2pi/CIS_TABLE + rho with k = rint(x
# CIS_TABLE/2pi) and |rho| <= pi/CIS_TABLE.  2pi/CIS_TABLE is split into
# three parts; the first two have at most 30 significant bits, so k times
# each is exact for |k| < 2^23, which CIS_LIMIT keeps with room to spare.
# Above it the kernel calls libm.
CIS_TABLE = 1024
CIS_SPLIT = (0.006135923147667199, 3.875365543607508e-12, 2.0196027272633223e-21)
CIS_LIMIT = 2**22 * TWO_PI / CIS_TABLE

# The decay-rate fit (fit_lambda) reads FIT_SAMPLES uniform sigmas on
# [0, FIT_SIGMA_MAX].
FIT_SIGMA_MAX = 1e-3
FIT_SAMPLES = 21


class QuadratureConvergenceError(NumericalFailureError):
    """A phase-noise quadrature disagrees with its own refinement (exit 2
    from ``cli.main``, as every NumericalFailureError)."""


class FitDegenerateError(ValueError):
    """The fit abscissas carry no information (all sigmas equal)."""


def _check_schedule(tau_tilde, alpha: complex) -> None:
    """Interaction phases (a float or an array) and the pump amplitude
    must be finite, the pump nonzero and |alpha|^2 finite: the label
    overlaps take only |alpha|^2, so the sign and phase of alpha are free."""
    if not (np.all(np.isfinite(tau_tilde)) and cmath.isfinite(alpha)):
        raise ValueError("interaction phase and pump amplitude must be finite")
    size = abs(alpha)
    if size == 0.0:
        raise ValueError("pump amplitude must be nonzero")
    # a float product overflows to inf, where ** raises OverflowError
    if not math.isfinite(size * size):
        raise ValueError(f"pump amplitude alpha = {alpha} is too large: |alpha|^2 overflows")


def series_cutoffs(r, dim: int | None = None, tail_tol: float | None = None) -> CutoffColumn:
    """The label series' CutoffColumn at each r of a 1-D array: the
    smallest even dim, at least 64, whose squeezed-vacuum tail mass at |r|
    is below SERIES_TAIL_TOL, and the tail SERIES_STATE_TOL its states may
    leave.  A dim or tail_tol override replaces only its own half."""
    r = np.abs(np.asarray(r, dtype=float))
    dims = (np.full(len(r), dim) if dim is not None
            else np.maximum(64, sources.converged_dim(r, SERIES_TAIL_TOL)))
    return CutoffColumn(dims, SERIES_STATE_TOL if tail_tol is None else tail_tol)


def p0_over_tau(taus: np.ndarray, r, alpha: complex, *cutoffs) -> np.ndarray:
    """Probability of projecting the Kerr output onto the odd superposition
    branch |r; ->_1 |-alpha>_2, the herald that announces photon-pair
    generation, at each point (taus[i], r[i]) of the 1-D array taus
    (taken mod 2pi) and of r, a float or an array of the same length, with
    one row per CutoffColumn of cutoffs, each with one cutoff per point
    (series_cutoffs(r) gives the default ones); a call with none is
    refused.

    Every point reads its own (r, cutoff) weight row at its |delta| in
    one _branch_values pass: the kernel is exactly even in delta.  At
    tau_tilde = pi every label overlap is exactly 1, so the value is
    (sum_n g_n)^2, the branch weight N_-(r)/4 up to the series tail, for
    every finite alpha; at r = 0 no pair term survives and the value is 0.
    """
    r, columns = _points(taus, r, alpha, cutoffs)
    deltas, col = np.unique(np.abs(np.mod(taus, TWO_PI) - math.pi), return_inverse=True)
    rows = _weight_rows(r, columns)
    return _branch_values(deltas, rows, alpha, np.broadcast_to(col, rows.row.shape))


def _points(taus: np.ndarray, r, alpha: complex, cutoffs):
    """(r, cutoffs) of points at the interaction phases taus: the phases
    and the pump checked, r broadcast to one value per point and refused
    below 0, and cutoffs refused unless they are one or more
    CutoffColumns with one cutoff per point."""
    _check_schedule(taus, alpha)
    r = np.broadcast_to(np.asarray(r, dtype=float), np.shape(taus))
    if not np.all(r >= 0.0):
        raise ValueError("squeezing must be nonnegative")
    if not cutoffs or not all(isinstance(c, CutoffColumn) and len(c.dims) == len(r)
                              for c in cutoffs):
        raise ValueError(f"give one or more CutoffColumns of {len(r)} cutoffs, one per point")
    return r, cutoffs


class _WeightRows(NamedTuple):
    """The distinct weight rows of a set of points.

    r holds each row's r; weights its series, as _odd_rows builds it; and
    row each point's row at each cutoff, shape (cutoffs, points)."""

    r: np.ndarray
    weights: list
    row: np.ndarray


# Weight rows built by earlier calls, keyed by (r, dim, tail_tol): the
# figures of one process share their r columns.  At most 256 are kept,
# the oldest dropped first.
_ROWS: dict = {}


def _weight_rows(r: np.ndarray, columns) -> _WeightRows:
    """The weight rows of the points r at every CutoffColumn of columns,
    all of the first column's before any of the next.  Rows kept from an
    earlier call are reused; the others are built and tail-checked in
    that order, a column's in _odd_rows blocks of at most MERGE_BLOCK
    source entries, so the first of them that fails raises and no later
    column's row is built before it."""
    size = len(r)
    (rs, dims, tols), at = analysis.distinct(
        np.tile(r, len(columns)), np.concatenate([c.dims for c in columns]),
        np.repeat([c.tail_tol for c in columns], size))
    keys = list(zip(rs.tolist(), dims.tolist(), tols.tolist()))
    weights = [_ROWS.get(key) for key in keys]
    lo = 0
    for k, column in enumerate(columns):
        # the rows first seen at this cutoff follow those of the earlier ones
        hi = int(at[:(k + 1) * size].max(initial=-1)) + 1
        todo = np.array([j for j in range(lo, hi) if weights[j] is None], dtype=np.intp)
        lo = hi
        if not len(todo):
            continue
        per = max(1, MERGE_BLOCK // ((int(dims[todo].max()) + 1) // 2))
        for b in range(0, len(todo), per):
            block = todo[b:b + per]
            built = _odd_rows(rs[block], CutoffColumn(dims[block], column.tail_tol))
            for j, g in zip(block.tolist(), built):
                weights[j] = _ROWS[keys[j]] = g
                if len(_ROWS) > 256:
                    del _ROWS[next(iter(_ROWS))]
    return _WeightRows(rs, weights, at.reshape(len(columns), size))


def _odd_rows(r: np.ndarray, column: CutoffColumn) -> list:
    """Read-only weights g_n, n = 1, 3, 5, ..., of the label series at
    each r[i], cut at column.dims[i] with tail tolerance column.tail_tol,
    from one sources.odd_branch_weights build.  The weights fall with n,
    and the trailing ones that underflow to exact zeros are trimmed (all
    of them at r = 0), so a shorter series is a prefix of a longer one.
    Small tail terms stay, so the 1.5x-cutoff recheck still compares two
    different series."""
    g = sources.odd_branch_weights(r, column)
    nonzero = g != 0.0
    ends = np.where(nonzero.any(axis=1), g.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0)
    rows = []
    for w, end in zip(g, ends.tolist()):
        w = w[:end].copy()
        w.setflags(write=False)
        rows.append(w)
    return rows


def _branch_values(deltas: np.ndarray, rows: _WeightRows, alpha: complex,
                   col: np.ndarray) -> np.ndarray:
    """Odd-branch probability of weight row rows.row[...] at deviation
    deltas[col[...]], entry by entry: one kernel call per _row_blocks
    block of rows, over the deviations its entries use."""
    row = rows.row
    out = np.empty(row.shape)
    slot = np.full(len(rows.r), -1)
    for at, weights in _row_blocks(rows.weights, len(deltas)):
        slot[:] = -1
        slot[at] = np.arange(len(at))
        sel = slot[row] >= 0
        cols, node = np.unique(col[sel], return_inverse=True)
        table = _odd_branch_probability(deltas[cols], weights, alpha)
        out[sel] = table[slot[row[sel]], node]
    return out


def _row_blocks(weights: list, width: int):
    """(positions in weights, weight matrix) for blocks of the held weight
    rows `weights`, with value tables `width` wide (0 where the caller
    holds no table).  Each block holds, in order, as many rows as keep
    both the weight matrix and its value table within MERGE_BLOCK
    entries, and at least one; its rows are padded with zeros to the
    longest, of which each is a prefix."""
    terms = np.array([len(g) for g in weights], dtype=np.intp)
    per = max(1, MERGE_BLOCK // max(int(terms.max(initial=0)), width, 1))
    for lo in range(0, len(weights), per):
        at = np.arange(lo, min(lo + per, len(weights)))
        block = np.zeros((len(at), int(terms[at].max())))
        for w, j in zip(block, at.tolist()):
            w[:terms[j]] = weights[j]
        yield at, block


def _cis_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of k 2pi/CIS_TABLE for k = 0 .. CIS_TABLE - 1.

    Built for k <= CIS_TABLE/2 and mirrored, so that entry -k mod
    CIS_TABLE is the exact conjugate of entry k, with the quarter turns
    exact.  Each libm value is corrected to first order for the rounding
    of its argument k 2pi/CIS_TABLE, recovered from the split."""
    c1, c2, c3 = CIS_SPLIT
    k = np.arange(CIS_TABLE // 2 + 1, dtype=float)
    x = k * (TWO_PI / CIS_TABLE)
    err = ((k * c1 - x) + k * c2) + k * c3
    cos, sin = np.cos(x) - np.sin(x) * err, np.sin(x) + np.cos(x) * err
    quarters = [0, CIS_TABLE // 4, CIS_TABLE // 2]
    cos[quarters] = (1.0, 0.0, -1.0)
    sin[quarters] = (0.0, 1.0, 0.0)
    cos = np.concatenate([cos, cos[-2:0:-1]])
    sin = np.concatenate([sin, -sin[-2:0:-1]])
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


_CIS_COS, _CIS_SIN = _cis_table()


def _cis(x: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray, work) -> None:
    """cos x and sin x into cos_out and sin_out, for a 1-D x with |x| <=
    CIS_LIMIT, within a few ulp of libm; work holds three float buffers
    and one np.intp buffer of at least len(x) entries, and no output may
    alias x.

    x = k 2pi/CIS_TABLE + rho, with rho reduced by the three parts of
    CIS_SPLIT; sin rho and cos rho are Taylor series to rho^5 and rho^4
    (the first terms left out, rho^7/5040 and rho^6/720, stay below 0.01
    ulp at |rho| <= pi/CIS_TABLE); then one complex multiply by table
    entry k mod CIS_TABLE.  rint is odd and every later step is odd or
    even in rho, so cis(-x) is exactly conj(cis(x)), and cis(0) is
    exactly (1, 0).
    """
    k, rho, ts, idx = (w[:len(x)] for w in work)
    c1, c2, c3 = CIS_SPLIT
    np.multiply(x, CIS_TABLE / TWO_PI, out=k)
    np.rint(k, out=k)
    np.multiply(k, c1, out=rho)
    np.subtract(x, rho, out=rho)
    np.multiply(k, c2, out=cos_out)
    rho -= cos_out
    np.multiply(k, c3, out=cos_out)
    rho -= cos_out
    np.copyto(idx, k, casting="unsafe")
    idx &= CIS_TABLE - 1
    # the index is in range, and mode="raise" would buffer the output
    tc = _CIS_COS.take(idx, out=k, mode="clip")
    _CIS_SIN.take(idx, out=ts, mode="clip")
    z = cos_out
    np.square(rho, out=z)
    # sin rho = rho + rho z (z/120 - 1/6)
    np.multiply(z, 1.0 / 120.0, out=sin_out)
    sin_out -= 1.0 / 6.0
    sin_out *= z
    sin_out *= rho
    sin_out += rho
    # cos rho = 1 + z (z/24 - 1/2), in rho
    np.multiply(z, 1.0 / 24.0, out=rho)
    rho -= 0.5
    rho *= z
    rho += 1.0
    # cos x = tc cos rho - ts sin rho and sin x = ts cos rho + tc sin rho
    np.multiply(tc, rho, out=cos_out)
    rho *= ts
    ts *= sin_out
    cos_out -= ts
    sin_out *= tc
    sin_out += rho


def _libm_cis(x: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray, work) -> None:
    """cos x and sin x by libm, with _cis's signature."""
    np.cos(x, out=cos_out)
    np.sin(x, out=sin_out)


def _odd_branch_probability(deltas: np.ndarray, g: np.ndarray, alpha: complex) -> np.ndarray:
    """|sum_n g_n <alpha e^{-i n (pi + delta)} | -alpha>|^2 for each
    deviation delta, with g one real weight row (T,) or a matrix (R, T)
    of rows over the odd pair indices n = 1, 3, ..., 2T - 1; the result
    has shape (nodes,) or (R, nodes).  The values come from
    _odd_branch_blocks."""
    out = np.empty(g.shape[:-1] + (len(deltas),))
    for lo, values in _odd_branch_blocks(deltas, g, alpha):
        out[..., lo:lo + values.shape[-1]] = values
    return out


def _odd_branch_blocks(deltas: np.ndarray, g: np.ndarray, alpha: complex):
    """_odd_branch_probability block by block of nodes: (index of the
    block's first node, its values, shape (nodes,) or (R, nodes)), the
    values a fresh array the caller may reuse, so no table of all nodes is
    held.

    Then e^{-i n pi} = -1, so each overlap is exp(-2 a sin^2(n delta/2) +
    i a sin(n delta)) with a = |alpha|^2, and nothing cancels at delta = 0.
    The terms x nodes table is evaluated in place, KERNEL_BLOCK // T
    nodes at a time (fewer where R of them would pass MERGE_BLOCK
    values), in buffers reused across blocks: one rotation by n
    delta/2 gives sin(n delta) = 2 s c and sin^2(n delta/2) = s^2, and a
    second one rotates by the phase.  The modulus is exp(-a s^2)^2, so no
    product overflows where 2a does.  Every step is odd or even in delta,
    so the result is exactly even in delta.  Both rotations are _cis's,
    but for arguments beyond CIS_LIMIT, which rotate by libm.
    """
    a = abs(alpha) ** 2
    terms = g.shape[-1]
    if not terms:  # at r = 0 no pair term survives
        yield 0, np.zeros(g.shape[:-1] + (len(deltas),))
        return
    n = np.arange(1, 2 * terms, 2)
    # the values of a block of nodes stay within MERGE_BLOCK entries too
    per_block = max(1, min(KERNEL_BLOCK // terms, MERGE_BLOCK // (g.size // terms)))
    size = terms * min(per_block, len(deltas))
    work = [np.empty(size) for _ in range(3)] + [np.empty(size, dtype=np.intp)]
    half_turn = _cis if n[-1] * np.max(np.abs(deltas)) <= 2.0 * CIS_LIMIT else _libm_cis
    phase_turn = _cis if a <= CIS_LIMIT else _libm_cis
    buffers = [np.empty(size) for _ in range(4)]
    halves = 0.5 * deltas
    for lo in range(0, len(deltas), per_block):
        d = halves[lo:lo + per_block]
        # contiguous leading views of the buffers, sized to the block
        m, c, s, t = (buf[:terms * len(d)] for buf in buffers)
        np.multiply.outer(n, d, out=m.reshape(terms, len(d)))
        half_turn(m, c, s, work)
        # the phase p = a sin(n delta) = 2a s c goes in as -p, which
        # |.|^2 cannot tell apart, and 2 (-a s) c cannot overflow
        np.multiply(s, -a, out=t)
        np.multiply(t, c, out=m)
        m += m
        s *= t
        np.exp(s, out=s)
        np.square(s, out=s)  # the modulus exp(-2a sin^2(n delta/2))
        phase_turn(m, c, t, work)
        c *= s
        t *= s
        x = g @ c.reshape(terms, len(d))
        y = g @ t.reshape(terms, len(d))
        np.square(x, out=x)
        np.square(y, out=y)
        x += y
        yield lo, x


def _own_rule(sigma: float, band: float) -> tuple[int, int]:
    """(M, last): sigma's own trapezoid rule, for an integrand whose weight
    lies below the harmonic `band`, has fine nodes 0 .. last at step h/2.
    h = pi/M with M = ceil(2pi/sigma) + ceil(band/2): the coarse rule's 2M
    nodes per period then integrate the product of the integrand and the
    weight (band 9/sigma) exactly, and h <= sigma/2.  A rule of
    TRAPEZOID_MAX_NODES nodes or more is refused."""
    if not math.isfinite(band):
        raise QuadratureConvergenceError(f"integrand band {band} is not finite")
    # M overflows a float when sigma is tiny, so it comes from the exact
    # integer ratios of pi and sigma
    pi_n, pi_d = math.pi.as_integer_ratio()
    s_n, s_d = sigma.as_integer_ratio()
    m = -(-2 * pi_n * s_d // (pi_d * s_n)) + math.ceil(band / 2.0)
    last = _window_end(sigma, m)
    if last >= TRAPEZOID_MAX_NODES:
        raise QuadratureConvergenceError(
            f"the trapezoid rule needs {last + 1} nodes, more than "
            f"{TRAPEZOID_MAX_NODES} (band {band:.4g}, sigma = {sigma})"
        )
    return m, last


def _window_end(sigma: float, m: int) -> int:
    """The last fine node j of sigma's rule on the grid j pi/(2M): j = 2M,
    which lands on pi, or the first even j past TRAPEZOID_WINDOW sigmas,
    in exact integer arithmetic, as M may be far past a float's range."""
    (w_n, w_d), (s_n, s_d), (pi_n, pi_d) = (
        x.as_integer_ratio() for x in (TRAPEZOID_WINDOW, sigma, math.pi))
    return min(2 * m, 2 * (w_n * s_n * m * pi_d // (w_d * s_d * pi_n) + 1))


def _trapezoid_rule(sigmas, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Fine nodes delta_j = j pi/(2M) in [0, pi], out to the widest of the
    sigmas' windows, and one row per sigma > 0 of its trapezoid weights at
    that step h/2 for the wrapped normal of width sigma, zero past its own
    window (_window_end).  The integrand is even and 2pi-periodic, so every
    weight is doubled except at 0 and pi, which are their own mirror
    images.  The rule at step h takes the even nodes with twice their
    weights.  The wrapped normal sums whichever of its two series is
    shorter: the copies phi_sigma(delta + 2pi k) for sigma^2 <= 2pi, in
    units of sigma (so sigma/2 may underflow), and its Fourier series (1 +
    2 sum_k e^{-k^2 sigma^2/2} cos k delta)/2pi above; neither needs more
    than nine terms."""
    pi_n, pi_d = math.pi.as_integer_ratio()
    half_step = pi_n / (2 * m * pi_d)
    ends = [_window_end(sigma, m) for sigma in sigmas]
    deltas = np.arange(max(ends) + 1) * half_step
    weights = np.zeros((len(ends), len(deltas)))
    for row, sigma, last in zip(weights, sigmas, ends):
        w = row[:last + 1]  # the density, then the weights
        if sigma * sigma <= TWO_PI:
            s_n, s_d = sigma.as_integer_ratio()
            step = pi_n * s_d / (2 * m * pi_d * s_n)  # h/2 in units of sigma
            u = np.arange(last + 1) * step
            wraps = math.ceil(TRAPEZOID_WINDOW * sigma / TWO_PI)
            # the wrapped copies of a narrow Gaussian sit at +-inf in units of sigma
            with np.errstate(over="ignore"):
                for k in range(-wraps, wraps + 1):
                    w += np.exp(-0.5 * (u + TWO_PI * k / sigma) ** 2)
            w *= step / math.sqrt(TWO_PI)
        else:
            w += 1.0
            for k in range(1, math.ceil(TRAPEZOID_WINDOW / sigma) + 1):
                w += (2.0 * math.exp(-0.5 * (k * sigma) * (k * sigma))
                      * np.cos(k * deltas[:last + 1]))
            w *= half_step / TWO_PI
        w[1:] *= 2.0
        if last == 2 * m:
            w[-1] /= 2.0
    return deltas, weights


def phase_ratio(sigmas: np.ndarray, r, alpha: complex, *cutoffs) -> np.ndarray:
    """Average of the ratio R(r, alpha, dtheta) of the herald probability
    at interaction phase pi + dtheta to its value at pi, over dtheta ~
    N(0, sigmas[i]^2), at each point (sigmas[i], r[i]) of the 1-D array
    sigmas and of r, a float or an array of the same length, with one row
    per CutoffColumn of cutoffs, each with one cutoff per point; a call
    with none is refused.

    The points with sigma > 0 build and tail-check the series of their
    (r, cutoff) weight rows, every first-cutoff row before any recheck
    row.  The distinct sigmas run in order of first appearance, each with
    a trapezoid rule banded by the longest series among its rows; groups
    of consecutive sigmas that read the same rows share one grid
    (_shared_grids) and one kernel pass over it (_averaged_ratios).  The
    grid's first node, delta = 0, is each row's reference probability.  A
    reference below the smallest normal float (r below about 2e-154, and
    r = 0) has lost its digits, and the ratio with them:
    NumericalFailureError.  A row whose rule disagrees with itself at
    twice the step by more than TRAPEZOID_AGREEMENT raises
    QuadratureConvergenceError.  So a failing series raises first; then,
    sigma by sigma, a rule too large to run, or the first of its rows
    (first-cutoff rows before recheck rows, each in point order) that
    fails either check, named by its own r, as soon as its sigma is
    checked.  sigma = 0 reads exactly 1 and builds no series.
    """
    if not np.all(np.isfinite(sigmas) & (sigmas >= 0.0)):
        raise ValueError("sigma must be finite and nonnegative")
    # the noise is centred on tau_tilde = pi
    r, columns = _points(np.full(np.shape(sigmas), math.pi), r, alpha, cutoffs)
    out = np.ones((len(columns), len(sigmas)))
    live = np.flatnonzero(sigmas)
    if not len(live):
        return out
    rows = _weight_rows(r[live], [c.take(live) for c in columns])
    (distinct,), at = analysis.distinct(sigmas[live])
    # the (sigma, row) pairs read, sorted: each sigma's rows are one run
    pairs, pair_at = np.unique(np.tile(at, len(columns)) * len(rows.r) + rows.row.ravel(),
                               return_inverse=True)
    runs = [0] + (np.flatnonzero(np.diff(pairs // len(rows.r))) + 1).tolist()
    reads = [tuple(mine.tolist()) for mine in np.split(pairs % len(rows.r), runs[1:])]
    pad = (abs(alpha) + TRAPEZOID_BAND_PAD) ** 2
    values = np.empty(len(pairs))
    # the sigmas in order, consecutive ones that read the same rows together
    for mine, members in itertools.groupby(range(len(distinct)), lambda s: reads[s]):
        weights = [rows.weights[j] for j in mine]
        band = pad * float(max(2 * max(len(g) for g in weights) - 1, 0))
        for group, m in _shared_grids(distinct, members, band):
            deltas, fine = _trapezoid_rule(distinct[group].tolist(), m)
            ratio, gap, ref = _averaged_ratios(deltas, fine, weights, alpha)
            failed = ~(ref >= TINY) | (gap > TRAPEZOID_AGREEMENT)
            for i, s in enumerate(group):
                if failed[i].any():
                    j = int(np.argmax(failed[i]))
                    raise _ratio_failure(ref[j], gap[i, j], rows.r[mine[j]], alpha, distinct[s])
                values[runs[s]:runs[s] + len(mine)] = ratio[i]
    out[:, live] = values[pair_at].reshape(len(columns), len(live))
    return out


def _shared_grids(sigmas: np.ndarray, members, band: float):
    """(group, M) for groups of the sigmas of `members`, in order, that
    share the grid at the finest fine step pi/(2M) of their own rules at
    band, out to the widest of their windows.  A sigma joins the group
    before it while that grid holds no more nodes than their own rules
    together, and their weights no more than MERGE_BLOCK entries.  A sigma
    whose own rule is too large to run raises QuadratureConvergenceError
    once the group before it is handed out."""
    group, m, widest, own = [], 0, 0.0, 0
    for s in members:
        sigma = float(sigmas[s])
        try:
            m_s, last = _own_rule(sigma, band)
        except QuadratureConvergenceError:
            if group:
                yield group, m
            raise
        # a window widens with sigma, so the widest sigma ends the grid
        fine, wide = max(m, m_s), max(widest, sigma)
        nodes = _window_end(wide, fine) + 1
        if group and (nodes > own + last + 1 or (len(group) + 1) * nodes > MERGE_BLOCK):
            yield group, m
            group, fine, wide, own = [], m_s, sigma, 0
        group.append(s)
        m, widest, own = fine, wide, own + last + 1
    if group:
        yield group, m


def _ratio_failure(ref, gap, r, alpha, sigma) -> Exception:
    """The error of the row at r whose reference ref has lost its digits,
    or whose rule for sigma is gap away from itself at twice the step."""
    ref, gap, r, sigma = float(ref), float(gap), float(r), float(sigma)
    if not ref >= TINY:
        return NumericalFailureError(f"herald probability {ref:.3g} at tau_tilde = pi "
                                     f"has lost its digits at r = {r}, alpha = {alpha}")
    return QuadratureConvergenceError(f"trapezoid steps h and h/2 disagree by "
                                      f"{gap:.3g} > {TRAPEZOID_AGREEMENT} at r = {r}, "
                                      f"alpha = {alpha}, sigma = {sigma}")


def _averaged_ratios(deltas: np.ndarray, fine: np.ndarray, weights: list,
                     alpha) -> tuple[np.ndarray, ...]:
    """The average, by each rule (row of fine) over the nodes deltas, of
    the probability of each series row of `weights` over its own value at
    the first node, delta = 0: (ratio and its gap to the rule at twice the
    step, of shape (rules, rows), and each row's reference).  One kernel
    pass per _row_blocks block of rows; each node block it yields is
    contracted with the rules and dropped, so no rows x nodes table is
    held.  A row that lost its reference (a NaN one too) is divided by 1,
    for the caller to refuse."""
    shape = (len(fine), len(weights))
    ratio, coarse, ref = np.zeros(shape), np.zeros(shape), np.empty(len(weights))
    for at, g in _row_blocks(weights, 0):
        part = slice(int(at[0]), int(at[-1]) + 1)
        for lo, vals in _odd_branch_blocks(deltas, g, alpha):
            if lo == 0:
                ref[part] = vals[:, 0]
                scale = np.where(vals[:, 0] >= TINY, vals[:, 0], 1.0)[:, None]
            vals /= scale
            hi = lo + vals.shape[1]
            ratio[:, part] += fine[:, lo:hi] @ vals.T
            # half the rules at step h: the block's even nodes
            coarse[:, part] += fine[:, lo + lo % 2:hi:2] @ vals[:, lo % 2::2].T
    return ratio, np.abs(2.0 * coarse - ratio), ref


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
