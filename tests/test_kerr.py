"""Unit tests for the cross-Kerr heralding stage and phase-noise fits."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sqherald import analysis, kerr, reference, registry, sources

import oracles
from sqherald import fockspace as fs

# the ideal interaction phase tau_tilde = pi, as a one-point column
IDEAL = np.array([math.pi])
# (sum_n g_n)^2 of the odd-branch series at r = 0.725: p0 at tau_tilde = pi
P0_IDEAL = 0.1665808855379014


def _column(trunc, points):
    """The oracle cutoff trunc at each of `points` points, as the
    CutoffColumn that kerr takes."""
    return fs.CutoffColumn(np.full(points, trunc.dim), trunc.tail_tol)


def _series(r, points=1):
    """The series cutoff of r at each of `points` points, as
    kerr.series_cutoffs gives it to a column."""
    return kerr.series_cutoffs(np.full(points, float(r)))


def _ratio(r, alpha, sigma, dim=None, tail_tol=kerr.SERIES_STATE_TOL):
    """kerr.phase_ratio at the one point (sigma, r), cut at dim (default:
    the series cutoff of r) with tail tolerance tail_tol."""
    dim = oracles.series_truncation(r).dim if dim is None else dim
    column = _column(reference.Truncation(dim, tail_tol), 1)
    return float(kerr.phase_ratio(np.array([float(sigma)]), r, alpha, column)[0, 0])


def fock_grid_p0(tau_tilde, r, sign, alpha, label, sys_dim, pump_dim):
    """Independent oracle: evolve on an explicit two-mode Fock grid.

    exp(-i (tau/2) n_1 n_2) on squeezed |0>_1 x |alpha>_2, projected onto
    squeezed_cat(sign)_1 x |label>_2, with every factor built from dense
    amplitudes rather than the label-series kernel.
    """
    sys_t = reference.Truncation(sys_dim)
    pump_t = reference.Truncation(pump_dim)
    sv = reference.squeezed_vacuum(r, sys_t).amps
    pump = oracles.coherent_amplitudes(alpha, pump_t).amps
    n1 = np.arange(sys_dim)
    n2 = np.arange(pump_dim)
    phases = np.exp(-0.5j * tau_tilde * np.outer(n1, n2))
    joint = np.outer(sv, pump) * phases
    cat = reference.squeezed_cat(r, sign, sys_t).amps
    target_pump = oracles.coherent_amplitudes(label, pump_t).amps
    amp = np.conj(cat) @ joint @ np.conj(target_pump)
    return float(abs(amp) ** 2)


def test_schedule_validation():
    with pytest.raises(ValueError):
        oracles.KerrSchedule(math.pi, 0.0)
    wrapped = oracles.KerrSchedule(2.0 * math.pi + 0.5, 4.0)
    assert wrapped.tau_tilde == pytest.approx(0.5, abs=1e-12)
    for tau, alpha in ((math.inf, 4.0), (math.nan, 4.0), (math.pi, math.inf),
                       (math.pi, math.nan), (math.pi, complex(1.0, math.nan))):
        with pytest.raises(ValueError):
            oracles.KerrSchedule(tau, alpha)


def test_hybrid_state_requires_converged_coefficients():
    trunc = reference.Truncation(16)
    with pytest.raises(fs.TruncationError):
        oracles.HybridKerrState(np.array([0.5]), np.array([1.0 + 0j]), trunc)


def test_kerr_evolve_imprints_pair_phases():
    sched = oracles.KerrSchedule(0.7, 2.5)
    state = oracles.kerr_evolve(0.725, sched, oracles.series_truncation(0.725))
    n = state.pair_indices
    expected = 2.5 * np.exp(-1j * n * 0.7)
    assert np.max(np.abs(state.labels - expected)) < 1e-14
    assert np.array_equal(state.photon_numbers, 2 * n)
    full_turn = oracles.kerr_evolve(
        0.725, oracles.KerrSchedule(2.0 * math.pi, 2.5), oracles.series_truncation(0.725)
    )
    assert np.max(np.abs(full_turn.labels - 2.5)) < 1e-12


def test_coherent_overlap_closed_form():
    assert oracles.coherent_overlap(1.3, 1.3) == pytest.approx(1.0, abs=1e-15)
    beta, gamma = 2.0, 2.0 * np.exp(-0.4j)
    expected = np.exp(-0.5 * 8.0 + np.conj(beta) * gamma)
    assert oracles.coherent_overlap(beta, gamma) == pytest.approx(expected, abs=1e-12)


def state_path_p0(sched, r, sign, label):
    """Oracle: project the explicit hybrid state from kerr_evolve onto the
    superposition and the label, one coherent_overlap per pair term."""
    trunc = oracles.series_truncation(r)
    state = oracles.kerr_evolve(r, sched, trunc)
    d = reference.squeezed_cat(r, sign, trunc).amps
    amp = sum(
        np.conj(d[2 * n]) * c * oracles.coherent_overlap(label, beta)
        for n, c, beta in state.components()
    )
    return abs(amp) ** 2


def test_p0_matches_state_path_oracle():
    for sign, alpha, label in (
        (-1, 3.0 + 1.0j, -3.0 - 1.0j),
        (+1, 3.0 + 1.0j, 3.0 + 1.0j),
        (-1, 2.0 - 0.5j, -1.5 + 0.8j),
        (+1, 1.2j, 0.3 - 1.1j),
    ):
        for tau in (0.0, 0.7, math.pi, 4.0):
            sched = oracles.KerrSchedule(tau, alpha)
            for r in (0.725, 1.5):
                taus = np.array([sched.tau_tilde])
                kernel = oracles.p0_over_tau(taus, r, alpha, sign=sign, label=label)[0]
                assert abs(kernel - state_path_p0(sched, r, sign, label)) < 1e-12


def _odd_row(r, trunc):
    """The production odd-branch weights at r and trunc, built alone."""
    return kerr._odd_rows(np.array([float(r)]), fs.CutoffColumn((trunc.dim,), trunc.tail_tol))[0]


def _odd_series(r, trunc):
    """The production odd-branch weights at r and trunc, with their pair
    indices 1, 3, 5, ..."""
    g = _odd_row(r, trunc)
    return np.arange(1, 2 * len(g), 2), g


def test_pair_series_drops_exactly_the_zero_terms():
    for r in (0.725, 2.0):
        trunc = oracles.series_truncation(r)
        levels = 2 * np.arange((trunc.dim + 1) // 2)
        base = reference.squeezed_vacuum(r, trunc).amps[levels]
        dense = {}
        for sign in (-1, +1):
            full = (np.conj(base) * reference.squeezed_cat(r, sign, trunc).amps[levels]).real
            n, g = oracles._pair_series(r, sign, trunc)
            assert np.array_equal(n, np.flatnonzero(full))
            assert np.array_equal(g, full[n])
            assert np.all(n % 2 == (1 if sign < 0 else 0))
            dense[sign] = full
        # production keeps the odd entries of the odd branch, whose even
        # entries are exact zeros, trimmed after the last nonzero one.  Its
        # closed-form products and the oracle's log-space amplitudes are
        # independent builds; the oracle's terms are exp of sums of
        # log-factorials, which reach a few thousand at r = 2, so they are
        # up to 7.8e-13 off there, and the two agree within 1e-12 relative
        odd = dense[-1][1::2]
        g = _odd_row(r, trunc)
        assert not np.any(dense[-1][::2])
        assert len(g) == len(np.flatnonzero(odd))
        assert np.all(np.abs(g - odd[:len(g)]) <= 1e-12 * odd[:len(g)])
        assert g[-1] != 0.0 and not np.any(odd[len(g):])
        assert not g.flags.writeable
        # negligible tail terms are kept, so the 1.5x recheck compares two
        # different series
        wider = trunc.scaled(1.5)
        assert len(_odd_row(r, wider)) > len(g)


# the products' powers are formed in np.longdouble; where it is no wider
# than double, the half-ulp error of t^2 grows with the power
WEIGHT_ROW_REL = 2e-15 if np.finfo(np.longdouble).eps < np.finfo(float).eps else 2e-14


def _mp_odd_weights(r, pairs):
    """g_k = 2 c_k t^2k / (cosh r sqrt(N_-)) at the odd k < pairs, to 50
    digits, with c_k t^2k by the recurrence of its ratios."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        t2, c = mpmath.tanh(r) ** 2, mpmath.sqrt(mpmath.cosh(2 * r))
        factor = 2 * mpmath.sqrt(c * (c + 1)) / (2 * mpmath.sinh(r) * mpmath.cosh(r))
        term, out = mpmath.mpf(1), []
        for k in range(1, pairs):
            term *= t2 * (2 * k - 1) / (2 * k)
            if k % 2:
                out.append(float(factor * term))
        return np.array(out)


@pytest.mark.parametrize("r", [1e-300, 1e-8, 0.05, 0.725, 2.0, 3.0])
def test_weight_rows_match_50_digit_series(r):
    # every weight that is a normal float, at the series cutoff and at 1.5x
    # it; the oracles' log-space amplitudes read up to 1.2e-11 off at r = 3
    base = oracles.series_truncation(r)
    for trunc in (base, base.scaled(1.5)):
        g = _odd_row(r, trunc)
        want = _mp_odd_weights(r, (trunc.dim + 1) // 2)
        # the weights fall with k, so the normal ones lead the row
        count = np.count_nonzero(want >= np.finfo(float).tiny)
        assert 0 < count <= len(g) <= len(want)
        gap = np.abs(g[:count] - want[:count]) / want[:count]
        assert np.max(gap) <= WEIGHT_ROW_REL, (r, trunc.dim, float(np.max(gap)))


def _count_builds(monkeypatch):
    """The (r, dim) of every weight row built from here on, with the rows
    kept by earlier calls dropped."""
    monkeypatch.setattr(kerr, "_ROWS", {})
    built = []
    odd_rows = kerr._odd_rows

    def spy(r, column):
        built.extend(zip(r.tolist(), column.dims))
        return odd_rows(r, column)

    monkeypatch.setattr(kerr, "_odd_rows", spy)
    return built


def test_p0_sweep_builds_the_series_once(monkeypatch):
    r = 0.8125
    built = _count_builds(monkeypatch)
    lookups = []

    def spy(rs, *args):
        lookups.append(len(rs))
        return kerr.series_cutoffs(rs, *args)

    q = dataclasses.replace(registry.QUANTITIES["p0_cat_minus"], cutoff=spy)
    spec = analysis.SweepSpec("tau_tilde", 0.0, 2.0 * math.pi, 9, {"r": r})
    analysis.sweep(spec, q)
    # one build at the working cutoff and one at 1.5x, each tail-checked
    # when the weight rows are collected and held for the one kernel call
    # over all 9 taus, after one cutoff lookup for the column's one r
    dim = kerr.series_cutoffs([r]).dim
    assert built == [(r, dim), (r, math.ceil(1.5 * dim))]
    assert lookups == [1]


def test_column_past_the_series_cache_builds_each_series_once(monkeypatch):
    # 200 r at their series cutoffs and 1.5x: 400 distinct weight rows,
    # more than the 256 the row cache keeps, each built once, and built
    # in blocks: one row-builder call per block of a cutoff column, here
    # one for each column
    built = _count_builds(monkeypatch)
    blocks = []
    odd_branch_weights = sources.odd_branch_weights

    def spy(r, column):
        blocks.append(list(zip(r.tolist(), column.dims)))
        return odd_branch_weights(r, column)

    monkeypatch.setattr(sources, "odd_branch_weights", spy)
    rs = 0.3 + np.arange(200) / 331.0
    analysis.evaluate("phase_ratio", {"sigma": 4e-3, "r": rs, "alpha": 10.0})
    assert len(built) == len(set(built)) == 400
    assert [len(block) for block in blocks] == [200, 200]
    assert blocks[0] + blocks[1] == built


def test_oracles_build_their_own_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle read the production series")

    monkeypatch.setattr(kerr, "_odd_rows", refuse)
    monkeypatch.setattr(kerr, "_ROWS", {})
    p0 = oracles.p0_over_tau(IDEAL, 0.725, 10.0)[0]
    assert abs(p0 - P0_IDEAL) <= 1e-15 * P0_IDEAL
    assert oracles.phase_error_ratio(0.725, 10.0, 0.004) == pytest.approx(
        0.9285167292647223, abs=1e-10)


def test_half_hermite_rule_equals_full_symmetric_rule():
    alpha = 10.0
    for order in (64, 128, 256, 512, 1024):
        nodes, weights = scipy.special.roots_hermite(order)
        for r in (0.725, 2.0):
            n, g = oracles._pair_series(r, -1, oracles.series_truncation(r))
            ref = oracles._overlap_probability(IDEAL, n, g, alpha, -alpha)[0]
            for sigma in (1e-3, 4e-3):
                taus = math.pi + math.sqrt(2.0) * sigma * nodes
                vals = oracles._overlap_probability(taus, n, g, alpha, -alpha) / ref
                full = float(np.dot(weights, vals) / math.sqrt(math.pi))
                half = oracles._averaged_ratio_quadrature(r, alpha, sigma, order, None)
                assert abs(half - full) < 1e-13


def test_trapezoid_matches_the_hermite_oracle():
    cases = [(r, 10.0, sigma) for r in (0.05, 0.725, 2.0) for sigma in (1e-4, 1e-3, 4e-3)]
    # twice the pump amplitude puts four times the harmonics in the band
    cases.append((2.0, 20.0, 1e-3))
    for r, alpha, sigma in cases:
        trapezoid = _ratio(r, alpha, sigma)
        ladder = oracles._hermite_ladder_ratio(r, alpha, sigma)
        assert abs(trapezoid - ladder) < 1e-12


def test_trapezoid_rule_grid_and_weights():
    band = 1000.0
    # a narrow Gaussian alone, on its own rule: the grid stops at the first
    # even node past 9 sigma
    m, last = kerr._own_rule(4e-3, band)
    assert m == math.ceil(2 * math.pi / 4e-3) + 500
    deltas, alone = kerr._trapezoid_rule([4e-3], m)
    assert alone.shape == (1, last + 1) == (1, len(deltas)) and last % 2 == 0
    assert deltas[-1] > 9 * 4e-3 > deltas[-3]
    assert abs(deltas[1] - math.pi / (2 * m)) < 1e-18
    # with two wide ones on its grid, the finest step of the three: it keeps
    # its row, and each row sums to 1, as do its even nodes at twice their
    # weights
    sigmas = [4e-3, 1.0, 3.0]
    for sigma in sigmas[1:]:
        own = math.ceil(2 * math.pi / sigma) + 500
        assert kerr._own_rule(sigma, band) == (own, 2 * own)
    shared, weights = kerr._trapezoid_rule(sigmas, m)
    assert len(shared) == 2 * m + 1 and np.array_equal(shared[:last + 1], deltas)
    assert np.array_equal(weights[0, :last + 1], alone[0])
    assert not weights[0, last + 1:].any()
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-14)
    assert np.all(np.abs(2.0 * weights[:, ::2].sum(axis=1) - 1.0) < 1e-14)
    # the wide ones land on pi, whose weight is not doubled; the Fourier
    # series of the wrapped normal (sigma = 3) matches its copies
    assert abs(shared[-1] - math.pi) < 1e-15
    for sigma, row in zip(sigmas[1:], weights[1:]):
        copies = sum(
            np.exp(-0.5 * ((shared + 2 * math.pi * k) / sigma) ** 2) for k in range(-20, 21)
        ) / (sigma * math.sqrt(2 * math.pi))
        expected = 2.0 * copies * (shared[1] - shared[0])
        expected[[0, -1]] /= 2.0
        assert np.allclose(row, expected, rtol=1e-13, atol=0.0)


def test_production_never_reaches_the_hermite_ladder(monkeypatch):
    def refuse(order):
        raise AssertionError("Gauss-Hermite oracle reached from production")

    monkeypatch.setattr(oracles, "_hermite_rule", refuse)
    for name in ("fig4a", "fig5a"):
        assert np.all(np.isfinite(registry.figure(name).build().rows))
    spec = analysis.SweepSpec("r", *registry.R_GRID_SURFACE, {"alpha": 10.0, "sigma": 0.004})
    column = analysis.sweep(spec, "phase_ratio").rows[:, 1]
    assert np.all((column > 0.0) & (column < 1.0))
    with pytest.raises(AssertionError, match="oracle reached"):
        oracles._hermite_ladder_ratio(0.725, 10.0, 1e-3)


def test_coarse_trapezoid_step_fails_the_gate(monkeypatch):
    rule = kerr._own_rule
    monkeypatch.setattr(kerr, "_own_rule", lambda sigma, band: rule(sigma, band / 100))
    with pytest.raises(kerr.QuadratureConvergenceError, match="disagree"):
        _ratio(2.0, 10.0, 0.3)


def test_trapezoid_rule_refuses_oversized_grids():
    # at r = 2 a wide sigma needs (alpha + 3)^2 * 315 nodes, past 2^20
    # for alpha = 60; the refusal comes before any node is evaluated
    with pytest.raises(kerr.QuadratureConvergenceError, match="nodes"):
        _ratio(2.0, 60.0, 1.0)
    with pytest.raises(kerr.QuadratureConvergenceError, match="not finite"):
        kerr._own_rule(1.0, math.inf)


def test_averaged_ratio_covers_wide_phase_noise():
    # the Gauss-Hermite ladder gives up here (sigma = 0.3 at r = 0.725,
    # sigma = 0.01 at r = 2); the periodic rule covers the whole period
    for r in (0.05, 2.0):
        values = [_ratio(r, 10.0, sigma) for sigma in (0.3, 1.0, 5.0)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert values[0] > values[1] > values[2]


def test_averaged_ratio_at_vanishing_sigma():
    # sigma/2 underflows at the smallest subnormal; the grid is built in
    # units of sigma, so nothing divides by zero or overflows
    for sigma in (5e-324, 1e-300):
        for r in (0.725, 2.0):
            with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
                warnings.simplefilter("error")
                value = _ratio(r, 10.0, sigma)
            assert abs(value - 1.0) <= 1e-15


def test_ratio_whose_reference_has_lost_its_digits_fails_numerically():
    # the tau_tilde = pi reference probability is about r^2/2: zero at
    # r = 1e-200 (a ratio against it would be NaN) and subnormal at
    # r = 1e-160 (the trapezoid gate would misreport a disagreement)
    for r in (1e-200, 1e-160):
        with pytest.raises(fs.NumericalFailureError, match="lost its digits"):
            _ratio(r, 10.0, 0.1)
        with pytest.raises(fs.NumericalFailureError, match="lost its digits"):
            oracles.phase_error_ratio(r, 10.0, 0.1)
    assert 0.0 < _ratio(1e-150, 10.0, 0.1) < 1.0


def test_averaged_ratio_at_huge_sigma():
    # the phase is uniform over the period; the Fourier series of the
    # wrapped normal keeps one term, whose factor underflows to zero
    values = [_ratio(0.725, 10.0, sigma) for sigma in (1e3, 1e300)]
    assert 0.0 < values[0] <= 1.0
    assert values[1] == values[0]


def test_series_truncation_floor():
    # the series cutoffs production takes, and the oracles' series_truncation
    dims = kerr.series_cutoffs(np.array([0.1, 2.0])).dims
    assert dims[0] == 64 and dims[1] > 64
    assert [oracles.series_truncation(r).dim for r in (0.1, 2.0)] == dims.tolist()


def test_kerr_takes_only_cutoff_columns():
    # no cutoff, a column of the wrong length and an oracle Truncation are
    # all refused: the old default cut every r at the largest r's cutoff
    taus, sigmas = np.full(2, math.pi), np.full(2, 1e-3)
    good = _series(0.725, 2)
    for bad in ((), (_series(0.725, 3),), (good, _series(0.725, 1)),
                (oracles.series_truncation(0.725),)):
        with pytest.raises(ValueError, match="CutoffColumns of 2 cutoffs"):
            kerr.p0_over_tau(taus, 0.725, 10.0, *bad)
        with pytest.raises(ValueError, match="CutoffColumns of 2 cutoffs"):
            kerr.phase_ratio(sigmas, 0.725, 10.0, *bad)
    assert kerr.p0_over_tau(taus, 0.725, 10.0, good).shape == (1, 2)
    assert kerr.phase_ratio(sigmas, 0.725, 10.0, good, good.scaled(1.5)).shape == (2, 2)


def _exact_series_dim(r: float, tail_tol: float) -> tuple[int, float]:
    """The smallest even dim whose squeezed-vacuum tail mass is at most
    tail_tol, from a 40-digit sum of the p_2k, at least 64 as in
    series_cutoffs, and the least relative distance from tail_tol of the
    exact tails at that dim and at the dim before it."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        t2 = mpmath.tanh(r) ** 2
        term = 1 / mpmath.cosh(r)
        tails = [1 - term]
        while tails[-1] > tail_tol:
            k = len(tails) - 1
            term *= t2 * (2 * k + 1) / mpmath.mpf(2 * k + 2)
            tails.append(tails[-1] - term)
        margin = min(abs(tail / tail_tol - 1) for tail in tails[-2:])
    return max(64, 2 * len(tails)), float(margin)


def test_series_cutoffs_match_a_40_digit_tail_search():
    # where the exact tails at both candidate dims sit clear of the target,
    # the dim is the exact one; nearer the target it may be one step off.
    # The products take their powers in np.longdouble; where that is plain
    # double, every dim is held only to within one step.  At r = 2.495512
    # the log-space search gave 1704 against the exact 1706 (margin 7.1e-4)
    rs = np.append(np.random.default_rng(0).uniform(0.01, 3.0, 40), 2.495512)
    wide = np.finfo(np.longdouble).eps < np.finfo(float).eps
    dims = kerr.series_cutoffs(rs).dims
    for r, dim in zip(rs.tolist(), dims.tolist()):
        exact, margin = _exact_series_dim(r, kerr.SERIES_TAIL_TOL)
        if wide and margin > 5e-4:
            assert dim == exact, (r, dim, exact, margin)
        else:
            assert abs(dim - exact) <= 2, (r, dim, exact, margin)


@pytest.mark.parametrize("r", [1e-3, 0.05, 0.725, 1.146, 2.0, 3.0])
def test_p0_at_ideal_phase_equals_branch_weight(r):
    # at tau_tilde = pi every label overlap is 1, so p0 = (sum_k g_k)^2,
    # whose full sum is sqrt(N_-)/2.  g_k is proportional to the vacuum
    # p_2k on odd k, and sum_odd p_2k = N_-/4, so the series cut where the
    # vacuum tail drops below SERIES_TAIL_TOL lacks at most that tail over
    # N_-/4 of its sum, and squaring doubles the relative deficit
    weight = sources.cat_norm(r, -1) / 4.0
    p0 = kerr.p0_over_tau(IDEAL, r, 10.0, kerr.series_cutoffs(np.array([r])))[0, 0]
    deficit = 1.0 - p0 / weight
    assert 0.0 <= deficit <= 2.0 * kerr.SERIES_TAIL_TOL / weight + 1e-14, deficit


@pytest.mark.parametrize("alpha", (10.0, 1e3, 1e7, 1e8, 1e100, 1e150))
def test_p0_at_ideal_phase_is_exact_for_any_pump(alpha):
    # every label overlap is exactly 1 at tau_tilde = pi; a kernel in tau
    # itself multiplies the rounding of n tau by |alpha|^2
    _, g = _odd_series(0.725, oracles.series_truncation(0.725))
    assert abs(float(np.sum(g)) ** 2 - P0_IDEAL) <= 1e-15 * P0_IDEAL
    assert abs(kerr.p0_over_tau(IDEAL, 0.725, alpha, _series(0.725))[0, 0] - P0_IDEAL) <= (
        1e-15 * P0_IDEAL)


def _fig5b_window(r, trunc, alpha):
    """The fine trapezoid nodes of the widest fig5b sigma at r and trunc."""
    n, g = _odd_series(r, trunc)
    band = (abs(alpha) + kerr.TRAPEZOID_BAND_PAD) ** 2 * float(n[-1])
    sigma = registry.SIGMA_GRID[1]
    m, _ = kerr._own_rule(sigma, band)
    return kerr._trapezoid_rule([sigma], m)[0], n, g


def test_odd_branch_kernel_matches_the_general_overlap():
    taus = np.linspace(*registry.TAU_GRID)
    for alpha in (10.0, 3.0 + 1.0j):
        for r in (0.05, 0.725, 2.0):
            trunc = oracles.series_truncation(r)
            n, g = _odd_series(r, trunc)
            kernel = kerr._odd_branch_probability(taus - math.pi, g, alpha)
            oracle = oracles._overlap_probability(taus, n, g, alpha, -alpha)
            # far from pi the value falls to 1e-97 and is ill-conditioned in
            # tau (about |alpha|^2 n tau eps relative), so the fig4a grid is
            # compared against its largest value, the one at pi
            assert np.max(np.abs(kernel - oracle)) <= 1e-12 * oracle.max()
            for cut in (trunc, trunc.scaled(1.5)):
                deltas, n, g = _fig5b_window(r, cut, alpha)
                kernel = kerr._odd_branch_probability(deltas, g, alpha)
                oracle = oracles._overlap_probability(math.pi + deltas, n, g, alpha, -alpha)
                assert np.all(np.abs(kernel - oracle) <= 1e-12 * oracle)


def test_kernel_blocks_do_not_change_the_values(monkeypatch):
    # one node per block, and three per block with a shorter last block,
    # give the numbers of the whole fig5b window in one block
    deltas, n, g = _fig5b_window(2.0, oracles.series_truncation(2.0), 10.0)
    assert len(deltas) % 3
    monkeypatch.setattr(kerr, "KERNEL_BLOCK", len(n) * len(deltas))
    whole = kerr._odd_branch_probability(deltas, g, 10.0)
    for block in (1, 3 * len(n)):
        monkeypatch.setattr(kerr, "KERNEL_BLOCK", block)
        blocked = kerr._odd_branch_probability(deltas, g, 10.0)
        # the row sums of a block may round in another order
        assert np.all(np.abs(blocked - whole) <= 1e-14 * whole)


def _cis(x):
    work = [np.empty(len(x)) for _ in range(3)] + [np.empty(len(x), dtype=np.intp)]
    cos, sin = np.empty(len(x)), np.empty(len(x))
    kerr._cis(x, cos, sin, work)
    return cos, sin


def test_cis_agrees_with_libm_within_four_ulp():
    # a dense sweep of the whole range, the table's midpoints (where |rho|
    # is largest) and small arguments
    k = np.arange(-2**14, 2**14)
    x = np.concatenate([
        np.linspace(-kerr.CIS_LIMIT, kerr.CIS_LIMIT, 200_001),
        np.linspace(-4.0 * math.pi, 4.0 * math.pi, 100_001),
        (k + 0.5) * (kerr.TWO_PI / kerr.CIS_TABLE),
        np.geomspace(1e-300, 1.0, 1001),
    ])
    cos, sin = _cis(x)
    for got, want in ((cos, np.cos(x)), (sin, np.sin(x))):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
    # at the zeros of cos and sin the value is rho itself, about ulp(x);
    # the rounding of k * CIS_SPLIT[2] (up to 8e-31 at the limit) caps its
    # relative precision there, so the bound is absolute
    x = np.arange(-2**14, 2**14 + 1) * (0.5 * math.pi)
    assert np.max(np.abs(x)) <= kerr.CIS_LIMIT
    cos, sin = _cis(x)
    for got, want in ((cos, np.cos(x)), (sin, np.sin(x))):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)) + 2e-30)


def test_cis_is_exact_at_zero_and_odd_under_negation():
    cos, sin = _cis(np.zeros(3))
    assert np.all(cos == 1.0) and np.all(sin == 0.0)
    x = np.linspace(0.0, kerr.CIS_LIMIT, 200_001)
    cos, sin = _cis(x)
    cos_neg, sin_neg = _cis(-x)
    assert np.array_equal(cos_neg, cos) and np.array_equal(sin_neg, -sin)


def test_kernel_hands_only_large_work_to_libm(monkeypatch):
    # _cis sees only |x| <= CIS_LIMIT: at |alpha|^2 above it the phase,
    # and half angles past it, go to libm; every other table, however
    # small, rotates by _cis
    seen = []
    cis = kerr._cis

    def spy(x, cos_out, sin_out, work):
        seen.append(float(np.max(np.abs(x))))
        cis(x, cos_out, sin_out, work)

    monkeypatch.setattr(kerr, "_cis", spy)
    deltas, n, g = _fig5b_window(2.0, oracles.series_truncation(2.0), 10.0)
    blocks = -(-len(deltas) // (kerr.KERNEL_BLOCK // len(n)))
    at_limit = math.sqrt(kerr.CIS_LIMIT)
    for alpha, rotations in ((0.999 * at_limit, 2), (1.001 * at_limit, 1)):
        seen.clear()
        kerr._odd_branch_probability(deltas, g, alpha)
        assert len(seen) == rotations * blocks
        assert max(seen) <= kerr.CIS_LIMIT
    # a table of fewer than 4,096 entries: both rotations, in its one block
    small = deltas[:4095 // len(n)]
    seen.clear()
    kerr._odd_branch_probability(small, g, 10.0)
    assert len(small) * len(n) < 4096 and len(seen) == 2
    # half angles n delta/2 past the limit, from pair indices up to 32,769
    seen.clear()
    kerr._odd_branch_probability(np.array([3.0]), np.full(16385, 1e-3), 10.0)
    assert len(seen) == 1 and max(seen) <= 100.0


def test_kernel_agrees_with_a_libm_rotation(monkeypatch):
    # the same tables through _cis and through libm
    taus = np.linspace(*registry.TAU_GRID)
    turns = (kerr._cis, kerr._libm_cis)
    for r in (0.725, 2.0):
        deltas, n, g = _fig5b_window(r, oracles.series_truncation(r), 10.0)
        values = []
        for turn in turns:
            monkeypatch.setattr(kerr, "_cis", turn)
            values.append((kerr._odd_branch_probability(deltas, g, 10.0),
                           kerr._odd_branch_probability(taus - math.pi, g, 10.0)))
        (window, grid), (libm_window, libm_grid) = values
        assert np.all(np.abs(window - libm_window) <= 1e-13 * libm_window)
        assert np.max(np.abs(grid - libm_grid)) <= 1e-15 * libm_grid.max()


def test_kernel_is_exactly_even_in_delta(monkeypatch):
    # the evenness that lets p0_over_tau evaluate each |delta| once
    taus = np.linspace(*registry.TAU_GRID)
    _, g = _odd_series(2.0, oracles.series_truncation(2.0))
    for turn in (kerr._cis, kerr._libm_cis):
        monkeypatch.setattr(kerr, "_cis", turn)
        deltas = taus - math.pi
        assert np.array_equal(kerr._odd_branch_probability(-deltas, g, 10.0),
                              kerr._odd_branch_probability(deltas, g, 10.0))
    monkeypatch.undo()
    # fig4a's grid: nodes i and 80 - i lie at tau and 2pi - tau; where
    # their |delta| round alike (25 of 40 pairs) the values are identical
    p0 = kerr.p0_over_tau(taus, 2.0, 10.0, _series(2.0, len(taus)))[0]
    deltas = np.abs(np.mod(taus, kerr.TWO_PI) - math.pi)
    same = deltas == deltas[::-1]
    assert np.count_nonzero(same[:40]) == 25
    assert np.array_equal(p0[same], p0[::-1][same])


def test_grouped_p0_matches_one_call_per_r():
    # one weight row per r, zero-padded to the longest pair set: r = 1e-100
    # keeps a single pair term and 1e-7 twelve.  Every row rotates by _cis,
    # alone or padded, so the two paths differ only in how they sum
    taus = np.linspace(*registry.TAU_GRID)
    rs = np.array([1e-100, 1e-7, 0.05, 0.725, 2.0])
    trunc = oracles.series_truncation(2.0)
    tau_col, r_col = (c.ravel() for c in np.meshgrid(taus, rs))
    for alpha in (3.0, 10.0):
        grouped = kerr.p0_over_tau(tau_col, r_col, alpha,
                                   _column(trunc, len(tau_col))).reshape(len(rs), len(taus))
        via_registry = registry.QUANTITIES["p0_cat_minus"].fn(
            _column(trunc, len(tau_col)), tau_tilde=tau_col, r=r_col,
            alpha=np.full(len(tau_col), alpha))
        assert np.array_equal(via_registry, grouped.reshape(1, -1))
        for r, row in zip(rs, grouped):
            single = kerr.p0_over_tau(taus, r, alpha, _column(trunc, len(taus)))[0]
            assert np.all(np.abs(row - single) <= 1e-13 * single), r
    # a column of no points gives one empty row
    assert kerr.p0_over_tau(taus[:0], rs[:0], 10.0, _column(trunc, 0)).shape == (1, 0)
    assert len(_odd_row(1e-100, trunc)) == 1


def test_shared_pass_matches_one_pass_per_cutoff():
    # the registry evaluates a cutoff and its 1.5x recheck in one kernel
    # pass; each row must match a pass at that cutoff alone.  The p0
    # column holds every r at the cutoff of the largest, as one evaluate
    # group would; away from pi the tau grid is ill-conditioned, so there
    # the gap is measured against the largest value of each r
    taus = np.linspace(*registry.TAU_GRID)
    rs = (0.05, 0.725, 2.0)
    tau_col, r_col = (c.ravel() for c in np.meshgrid(taus, rs))
    base = oracles.series_truncation(max(rs))
    sigmas = np.linspace(*registry.SIGMA_GRID)[4::4]
    for alpha in (3.0, 10.0):
        p0 = registry.QUANTITIES["p0_cat_minus"].fn(
            *(_column(c, len(tau_col)) for c in (base, base.scaled(1.5))),
            tau_tilde=tau_col, r=r_col, alpha=np.full(len(tau_col), alpha))
        for trunc, row in zip((base, base.scaled(1.5)), p0):
            single = kerr.p0_over_tau(tau_col, r_col, alpha, _column(trunc, len(tau_col)))[0]
            single = single.reshape(len(rs), -1)
            gap = np.abs(row.reshape(len(rs), -1) - single)
            assert np.all(gap <= 1e-15 * np.max(single, axis=1, keepdims=True))
        for r in rs:
            cutoffs = (oracles.series_truncation(r), oracles.series_truncation(r).scaled(1.5))
            ratios = registry.QUANTITIES["phase_ratio"].fn(
                *(_column(c, len(sigmas)) for c in cutoffs),
                sigma=sigmas, r=np.full(len(sigmas), r), alpha=np.full(len(sigmas), alpha))
            for trunc, row in zip(cutoffs, ratios):
                single = np.array([_ratio(r, alpha, sigma, trunc.dim)
                                   for sigma in sigmas])
                assert np.all(np.abs(row - single) <= 1e-13 * single)


def test_one_kernel_pass_serves_both_cutoffs(monkeypatch):
    calls = []
    kernel = kerr._odd_branch_blocks

    def spy(deltas, g, alpha):
        calls.append((len(deltas), g.shape))
        return kernel(deltas, g, alpha)

    monkeypatch.setattr(kerr, "_odd_branch_blocks", spy)
    # r = 1e-100 keeps one pair term at both cutoffs (dim 64 and 96), 0.05
    # and 0.725 keep 24 at 1.5x: one call per alpha, a row per r and
    # cutoff padded to the longest pair set, over the 56 distinct |delta|
    taus = np.linspace(*registry.TAU_GRID)
    tau_col, r_col = (c.ravel() for c in np.meshgrid(taus, [1e-100, 0.05, 0.725]))
    for name in ("p0_cat_minus", "p1_cat_minus"):
        calls.clear()
        analysis.evaluate(name, {"tau_tilde": np.tile(tau_col, 2), "r": np.tile(r_col, 2),
                                 "alpha": np.repeat([3.0, 10.0], len(tau_col))})
        assert calls == [(56, (6, 24))] * 2
    # the r column of fig5b, at its 24 distinct series cutoffs: the same
    # one call per alpha, 80 rows
    rs = np.linspace(*registry.R_GRID_SURFACE)
    calls.clear()
    analysis.evaluate("p0_cat_minus", {"tau_tilde": math.pi, "r": rs, "alpha": 10.0})
    assert len({oracles.series_truncation(r) for r in rs.tolist()}) == 24
    assert [shape for _, shape in calls] == [(80, calls[0][1][1])]
    # phase_ratio: one call per alpha, over one grid both sigmas share (327
    # nodes at alpha = 9 and 365 at 10, where their own rules hold 111 + 255
    # and 123 + 293), a row per r and cutoff; each reference is the grid's
    # node at tau_tilde = pi, with no one-node call of its own
    calls.clear()
    sigmas = np.array([1e-3, 3e-3, 1e-3, 3e-3])
    analysis.evaluate("phase_ratio", {"sigma": np.tile(sigmas, 2),
                                      "r": np.tile([0.7, 0.7, 1.5, 1.5], 2),
                                      "alpha": np.repeat([9.0, 10.0], 4)})
    # r = 0.7 keeps 16 and 24 pair terms, 1.5 keeps 58 and 88
    assert [(nodes, shape[0]) for nodes, shape in calls] == [(327, 4), (365, 4)]
    calls.clear()
    analysis.evaluate("phase_ratio", {"sigma": 4e-3, "r": rs, "alpha": 10.0})
    assert [shape for _, shape in calls] == [(80, calls[0][1][1])]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    # most draws away from the tiny r whose reference has lost its digits
    rs=st.lists(st.floats(0.05, 2.0) | st.floats(0.0, 2.0, exclude_min=True),
                min_size=2, max_size=4),
    sigma=st.floats(1e-4, 1e-2),
    alpha=st.floats(1.0, 12.0),
)
def test_merged_phase_ratio_column_matches_one_point_calls(rs, sigma, alpha):
    # one merged pass over an r column, each point at its own series cutoff
    # and its own 1.5x recheck, on the trapezoid grid of the widest band,
    # against one phase_ratio call per point and cutoff on its own
    rs = np.array(rs)
    base = fs.CutoffColumn(tuple(oracles.series_truncation(r).dim for r in rs.tolist()),
                           kerr.SERIES_STATE_TOL)
    cutoffs = (base, base.scaled(1.5))
    event(f"{len(set(base.dims))} distinct cutoffs")
    try:
        merged = kerr.phase_ratio(np.full(len(rs), sigma), rs, alpha, *cutoffs)
    except fs.NumericalFailureError as exc:
        # the reference of an r below about 2e-154 has lost its digits
        event("lost digits")
        lost = float(str(exc).split("at r = ")[1].split(",")[0])
        assert lost in rs.tolist() and lost < 1e-150
        with pytest.raises(fs.NumericalFailureError, match="lost its digits"):
            _ratio(lost, alpha, sigma)
        return
    for column, row in zip(cutoffs, merged):
        for r, dim, value in zip(rs.tolist(), column.dims, row.tolist()):
            single = _ratio(r, alpha, sigma, dim, column.tail_tol)
            assert abs(value - single) <= 1e-14, (r, dim)


def _outcome(fn):
    """The value of fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except (fs.NumericalFailureError, kerr.QuadratureConvergenceError) as exc:
        return type(exc), str(exc)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    # a few distinct sigmas, drawn from with repeats; log-uniform, as a
    # rule's cost grows with sigma
    pool=st.lists(st.sampled_from([0.0, 5e-324])
                  | st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e),
                  min_size=1, max_size=4, unique=True),
    picks=st.lists(st.integers(0, 3), min_size=2, max_size=6),
    r=st.sampled_from([0.725, 2.0]),
    alpha=st.floats(1.0, 12.0),
)
def test_fused_sigma_pass_matches_one_call_per_sigma(pool, picks, r, alpha):
    # the sigmas of one call that read the same rows share one kernel pass
    # over a grid where that holds fewer nodes; each keeps its own weights,
    # reference and checks, as a call of its own would.  The smallest
    # subnormal sigma's M, about 1.3e324, is past a float's range, so the
    # grouping counts nodes in integers
    sigmas = np.array([pool[i % len(pool)] for i in picks])
    trunc = oracles.series_truncation(r)
    cutoffs = (trunc, trunc.scaled(1.5))
    event(f"{len(set(sigmas.tolist()))} distinct sigmas at r = {r}")
    fused = _outcome(lambda: kerr.phase_ratio(sigmas, r, alpha,
                                              *(_column(c, len(sigmas)) for c in cutoffs)))
    alone = {s: _outcome(lambda s=s: kerr.phase_ratio(np.array([s]), r, alpha,
                                                      *(_column(c, 1) for c in cutoffs)))
             for s in dict.fromkeys(sigmas.tolist())}
    singles = [alone[s] for s in sigmas.tolist()]
    failed = [one for one in singles if isinstance(one, tuple)]
    if failed:
        assert fused == failed[0]
        return
    assert fused.shape == (2, len(sigmas))
    assert np.all(np.abs(fused - np.column_stack(singles)) <= 1e-14)


def test_column_names_the_point_whose_reference_lost_its_digits():
    # r = 1e-160 inside a column: its tau_tilde = pi reference is subnormal
    # while its neighbours are fine, and the refusal names its own r
    for params in ({"r": np.array([0.5, 1e-160, 1.0]), "sigma": 0.1},
                   {"r": np.array([0.5, 1e-160, 1.0]), "sigma": np.array([0.1, 0.2, 0.1])}):
        with pytest.raises(fs.NumericalFailureError,
                           match=r"lost its digits at r = 1e-160, alpha = 10.0$"):
            analysis.evaluate("phase_ratio", {"alpha": 10.0, **params})
    values = analysis.evaluate("phase_ratio", {"r": np.array([0.5, 1.0]), "sigma": 0.1,
                                               "alpha": 10.0}).values
    assert np.all((values > 0.0) & (values < 1.0))


def test_column_with_two_failing_points_names_the_first_in_order():
    # the sigmas run in order of first appearance: at alpha = 60 the rule
    # of sigma = 1 at r = 2 is too large to run, while r = 1e-160 at sigma
    # = 0.5 loses its reference; whichever point comes first is refused
    oversized = (kerr.QuadratureConvergenceError, r"more than 1048576 .*sigma = 1\.0\)$")
    lost = (fs.NumericalFailureError, r"lost its digits at r = 1e-160, alpha = 60.0$")
    for order, (error, match) in (([0, 1], oversized), ([1, 0], lost)):
        params = {"sigma": np.array([1.0, 0.5])[order], "r": np.array([2.0, 1e-160])[order]}
        with pytest.raises(error, match=match):
            analysis.evaluate("phase_ratio", {"alpha": 60.0, **params})
    # sigmas that read the same rows: sigma = 0.01 runs, and is refused,
    # before the oversized rule of sigma = 1 is
    with pytest.raises(lost[0], match=lost[1]):
        analysis.evaluate("phase_ratio", {"alpha": 60.0, "sigma": np.repeat([0.01, 1.0], 2),
                                          "r": np.tile([2.0, 1e-160], 2)})
    # two rows of one sigma that lose their reference: the first is named
    with pytest.raises(fs.NumericalFailureError, match=r"at r = 1e-200, alpha = 10.0$"):
        analysis.evaluate("phase_ratio", {"alpha": 10.0, "sigma": 0.1,
                                          "r": np.array([0.5, 1e-200, 1e-160])})


def test_sigma_run_past_merge_block_splits_into_chunks(monkeypatch):
    # fig5a's alpha = 10 column: with MERGE_BLOCK at 512 its sigmas share
    # ten grids, each weight matrix within 512 entries, and the column reads
    # as the unsplit one; which of two failing points is named stays the same
    spec = analysis.SweepSpec("sigma", *registry.SIGMA_GRID, {"r": 0.725, "alpha": 10.0})
    whole = analysis.sweep(spec, "phase_ratio").rows
    grids = []
    rule = kerr._trapezoid_rule

    def counted(sigmas, m):
        deltas, weights = rule(sigmas, m)
        grids.append(weights.shape)
        return deltas, weights
    monkeypatch.setattr(kerr, "MERGE_BLOCK", 512)
    monkeypatch.setattr(kerr, "_trapezoid_rule", counted)
    rows = analysis.sweep(spec, "phase_ratio").rows
    assert [sigmas for sigmas, _ in grids] == [3, 5, 5, 5, 5, 4, 4, 4, 3, 2]
    assert all(sigmas * nodes <= 512 for sigmas, nodes in grids)
    # a group's grid is no finer and no longer than the unsplit one, but exact
    # for the band as well, so a ratio near 1 moves only by the rounding of
    # its sum over another set of nodes: a few ulp
    assert np.max(np.abs(np.asarray(rows) - np.asarray(whole))) <= 4 * np.spacing(1.0)
    test_column_with_two_failing_points_names_the_first_in_order()


def test_sigmas_share_a_grid_only_where_it_holds_fewer_nodes(monkeypatch):
    # each kernel pass runs one grid, of no more nodes than its sigmas' own
    # rules hold together: at alpha = 3, sigma = 1e-4 and 5 never share one,
    # as a full period at the finer step would hold 73 times their own rules
    # (127,357 nodes against 39 + 1,697), though the weights of two sigmas
    # on it would fit MERGE_BLOCK
    own, grids, passes = {}, [], []
    rule, grid, kernel = kerr._own_rule, kerr._trapezoid_rule, kerr._odd_branch_blocks

    def own_rule(sigma, band):
        m, last = rule(sigma, band)
        own[sigma] = last + 1
        return m, last

    def shared(sigmas, m):
        grids.append(sigmas)
        return grid(sigmas, m)

    def spy(deltas, g, alpha):
        passes.append(len(deltas))
        return kernel(deltas, g, alpha)
    monkeypatch.setattr(kerr, "_own_rule", own_rule)
    monkeypatch.setattr(kerr, "_trapezoid_rule", shared)
    monkeypatch.setattr(kerr, "_odd_branch_blocks", spy)
    sigmas = np.array([1e-4, 5.0, 1e-3, 5.0, 0.3, 1e-4, 1.0, 5e-324, 2e-3, 4e-3, 5.0])
    trunc = oracles.series_truncation(0.725)
    kerr.phase_ratio(sigmas, 0.725, 3.0, *(_column(c, len(sigmas))
                                           for c in (trunc, trunc.scaled(1.5))))
    assert len(grids) == len(passes) > 1
    assert all(nodes <= sum(own[s] for s in group) for group, nodes in zip(grids, passes))
    assert not any({1e-4, 5.0} <= set(group) for group in grids)
    # fig5b's 40 sigmas share one grid of 2,361 nodes, where their own
    # rules hold 20,360
    own.clear()
    grids.clear()
    passes.clear()
    registry.figure("fig5b").build()
    assert passes == [2361] and len(grids[0]) == 40 and sum(own.values()) == 20360


def test_merged_pass_working_set_is_bounded(monkeypatch):
    # the weight rows and the value table of a merged pass are held
    # MERGE_BLOCK entries at a time, so a longer column adds only its
    # per-point bookkeeping, a few hundred bytes a point; a pass holding
    # every row's weights and values at once adds about 8 kB a point here
    monkeypatch.setattr(kerr, "MERGE_BLOCK", 2**12)
    rs = np.linspace(0.05, 0.725, 480)
    base = _series(0.725, len(rs))
    kerr.phase_ratio(np.full(len(rs), 4e-3), rs, 10.0, base, base.scaled(1.5))
    peaks = []
    for size in (120, 480):
        column = base.take(np.arange(size))
        tracemalloc.start()
        try:
            kerr.phase_ratio(np.full(size, 4e-3), rs[:size], 10.0, column, column.scaled(1.5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 360 < 2_000


def test_base_cutoff_fails_its_tail_check_before_the_recheck(monkeypatch):
    built = _count_builds(monkeypatch)
    cases = [("p0_cat_minus", {"r": np.array([0.5, 2.0])}),
             ("p1_cat_minus", {"r": np.array([0.5, 2.0])}),
             ("phase_ratio", {"r": np.array([2.0]), "sigma": np.array([1e-3])})]
    for name, params in cases:
        built.clear()
        q = registry.QUANTITIES[name]
        with pytest.raises(fs.TruncationError, match="does not fit in dim = 64"):
            analysis.evaluate(q, {**q.defaults, **params}, dim=64)
        assert built and 96 not in [dim for _, dim in built], name
    # a series that fits but moves names both cutoffs
    for name, params in (("p0_cat_minus", {}), ("phase_ratio", {"sigma": 0.5})):
        q = registry.QUANTITIES[name]
        with pytest.raises(analysis.ConvergenceError, match="between dim 16 and dim 24"):
            analysis.evaluate(q, {**q.defaults, "r": 1.2, **params}, dim=16, tail_tol=0.9)


def test_averaged_ratio_working_set_is_bounded():
    # 10,663 nodes at r = 1.2, sigma = 1: the kernel holds eight buffers of
    # KERNEL_BLOCK entries, not whole terms x nodes tables
    _ratio(1.2, 10.0, 1.0)  # fill the series caches
    tracemalloc.start()
    try:
        _ratio(1.2, 10.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_p0_vanishes_without_interaction():
    assert kerr.p0_over_tau(np.array([0.0]), 0.725, 10.0, _series(0.725))[0, 0] < 1e-100


def test_p0_rejects_nonpositive_squeezing():
    # r = 0 leaves no pair term, and p0 is its exact limit 0
    assert np.array_equal(kerr.p0_over_tau(IDEAL, 0.0, 10.0, _series(0.0)), [[0.0]])
    for r in (-1e-3, math.nan):
        with pytest.raises(ValueError):
            kerr.p0_over_tau(IDEAL, r, 10.0, _series(0.0))


def test_p0_rejects_an_unknown_branch_sign():
    with pytest.raises(ValueError, match="sign"):
        oracles.p0_over_tau(IDEAL, 0.725, 10.0, sign=0)


def test_branch_probabilities_sum_to_one():
    # residual |<alpha|-alpha>| cross terms bound the deficit by 10 e^{-2 alpha^2}
    for alpha, slack in ((1.5, 10.0 * math.exp(-4.5)), (3.0, 10.0 * math.exp(-18.0))):
        total = oracles.p0_over_tau(IDEAL, 0.725, alpha, sign=-1)[0] + oracles.p0_over_tau(
            IDEAL, 0.725, alpha, sign=+1, label=alpha
        )[0]
        assert total <= 1.0 + 1e-12
        assert total >= 1.0 - slack - 1e-12


def test_p0_matches_fock_grid_oracle():
    for tau, sign, label in (
        (math.pi, -1, -3.0),
        (math.pi, +1, 3.0),
        (math.pi + 0.05, -1, -3.0),
    ):
        series = oracles.p0_over_tau(np.array([tau]), 0.725, 3.0, sign=sign, label=label)[0]
        grid = fock_grid_p0(tau, 0.725, sign, 3.0, label, 64, 200)
        assert abs(series - grid) < 1e-10
        if sign < 0:
            # the production branch, through the kernel in delta
            p0 = kerr.p0_over_tau(np.array([tau]), 0.725, 3.0, _series(0.725))[0, 0]
            assert abs(p0 - grid) < 1e-10


def test_phase_error_ratio_matches_fock_grid_oracle():
    # same cross-check at the operating pump amplitude; common factors
    # cancel in the ratio, so agreement is much better than either p0
    num = fock_grid_p0(math.pi + 0.004, 0.725, -1, 10.0, -10.0, 64, 400)
    den = fock_grid_p0(math.pi, 0.725, -1, 10.0, -10.0, 64, 400)
    value = oracles.phase_error_ratio(0.725, 10.0, 0.004)
    assert abs(value - num / den) < 1e-12


def _p1_cat_minus(trunc):
    """p1_cat_minus at tau_tilde = pi, r = 1.146 and alpha = 10, at trunc."""
    q = registry.QUANTITIES["p1_cat_minus"]
    return q.fn(_column(trunc, 1), tau_tilde=IDEAL, r=np.array([1.146]),
                alpha=np.array([10.0]))[0, 0]


def test_p1_heralded_closed_form_and_peak():
    p1 = _p1_cat_minus(oracles.series_truncation(1.146))
    closed = math.tanh(1.146) ** 2 / (4.0 * math.cosh(1.146))
    # the default pair series is cut at tail mass 1e-11, which sets the gap
    # to the closed form; the pi-phase projection correction ~ e^{-200} and
    # float noise are both far smaller, as the tighter cutoff shows
    assert abs(p1 - closed) < 1e-11
    tight_dim = int(sources.converged_dim(np.array([1.146]), 1e-15)[0])
    tight = _p1_cat_minus(reference.Truncation(tight_dim, kerr.SERIES_STATE_TOL))
    assert abs(tight - closed) < 1e-14
    assert p1 == pytest.approx(0.0962250, abs=1e-6)


def test_phase_error_ratio_reference_and_symmetry():
    assert oracles.phase_error_ratio(0.725, 10.0, 0.0) == 1.0
    for dtheta in (1e-3, 5e-3, 2e-2):
        left = oracles.phase_error_ratio(0.725, 10.0, -dtheta)
        right = oracles.phase_error_ratio(0.725, 10.0, dtheta)
        assert abs(left - right) < 1e-12


def test_phase_error_ratio_equals_probability_ratio():
    dtheta = 0.004
    shifted = kerr.p0_over_tau(np.array([math.pi + dtheta]), 0.725, 10.0, _series(0.725))[0, 0]
    direct = shifted / kerr.p0_over_tau(IDEAL, 0.725, 10.0, _series(0.725))[0, 0]
    assert abs(oracles.phase_error_ratio(0.725, 10.0, dtheta) - direct) < 1e-12


def test_phase_error_ratio_regression_fixture():
    # the averaged value at sigma = 0.004 sits above the deterministic one
    # at dtheta = 0.004 because small draws dominate the Gaussian weight
    value = oracles.phase_error_ratio(0.725, 10.0, 0.004)
    assert value == pytest.approx(0.9285167292647223, abs=1e-10)
    averaged = _ratio(0.725, 10.0, 0.004)
    assert averaged == pytest.approx(0.9412258901826744, abs=1e-9)


def test_phase_error_ratio_is_even_quadratic_near_zero():
    # small-angle curvature; the Gaussian-averaged fit over [0, 1e-3]
    # lands ~2% lower once quartic corrections enter
    curvature = 5205.0
    for dtheta in (2e-4, 1e-3):
        measured = 1.0 - oracles.phase_error_ratio(0.725, 10.0, dtheta)
        assert measured / dtheta**2 == pytest.approx(curvature, rel=0.02)


def test_alpha_ordering_of_averaged_ratio():
    for sigma in (1e-3, 4e-3):
        values = [
            _ratio(0.725, alpha, sigma)
            for alpha in (9.0, 10.0, 11.0)
        ]
        assert values[0] >= values[1] >= values[2]


def test_averaged_ratio_degenerate_and_monotone():
    assert _ratio(0.725, 10.0, 0.0) == 1.0
    sigmas = np.linspace(0.0, 4e-3, 9)
    values = [_ratio(0.725, 10.0, float(s)) for s in sigmas]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(0.0, 2.0, exclude_min=True),
    alpha=st.floats(1.0, 12.0),
    sigmas=st.lists(st.floats(0.0, 0.05), min_size=1, max_size=5),
)
def test_phase_ratio_column_stays_a_decaying_ratio(r, alpha, sigmas):
    # criterion 7 feeds the column to fit_lambda, which takes values in
    # (0, 1 + 1e-12] only; the reference probability of an r below about
    # 2e-154 is subnormal, which is a NumericalFailureError by design
    sigmas = np.sort(sigmas)
    try:
        values = analysis.evaluate("phase_ratio", {"sigma": sigmas, "r": r, "alpha": alpha}).values
    except fs.NumericalFailureError:
        assert r < 1e-150
        return
    assert np.all(values > 0.0) and np.all(values <= 1.0 + 1e-12)
    assert np.all(np.diff(values) <= 1e-12)


def test_averaged_ratio_monte_carlo_agrees_with_quadrature():
    sigma = 1e-3
    quad = _ratio(0.725, 10.0, sigma)
    mc = oracles._monte_carlo_ratio(0.725, 10.0, sigma, 200_000, 7)
    assert abs(mc - quad) < 5e-5
    again = oracles._monte_carlo_ratio(0.725, 10.0, sigma, 200_000, 7)
    assert again == mc


def test_monte_carlo_working_set_is_bounded():
    # 200,000 draws at 16 pair terms: the overlap tables hold
    # MONTE_CARLO_BLOCK draws at a time, not all of them (160 MB)
    oracles._monte_carlo_ratio(0.725, 10.0, 1e-3, 1000, 7)  # fill the series caches
    tracemalloc.start()
    try:
        oracles._monte_carlo_ratio(0.725, 10.0, 1e-3, 200_000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_averaged_ratio_input_validation():
    with pytest.raises(ValueError):
        _ratio(0.725, 10.0, -1e-4)
    with pytest.raises(ValueError):
        oracles._monte_carlo_ratio(0.725, 10.0, 1e-3, 200_000, None)
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError):
            _ratio(0.725, 10.0, sigma)
    for alpha in (math.inf, math.nan, 0.0, 1e200):
        with pytest.raises(ValueError):
            _ratio(0.725, alpha, 1e-3)


def test_phase_ratio_reads_a_negative_pump_as_its_mirror():
    # the label overlaps take only |alpha|^2 and the trapezoid band
    # |alpha|, so alpha = -10 is alpha = 10 bit for bit, as for p0
    sigmas = np.array([0.0, 1e-4, 1e-3, 4e-3, 0.3])
    taus = np.linspace(*registry.TAU_GRID)
    for name, params in (("phase_ratio", {"sigma": sigmas, "r": 0.725}),
                         ("phase_ratio", {"sigma": 2e-3, "r": np.array([0.05, 1.3, 2.0])}),
                         ("p0_cat_minus", {"tau_tilde": taus, "r": 0.725})):
        plus, minus = (analysis.evaluate(name, {**params, "alpha": a}).values
                       for a in (10.0, -10.0))
        assert np.array_equal(plus, minus), name


def test_tolerable_jitter_scale():
    # sigma at which the averaged ratio drops to 0.95, in units of pi; the
    # bracket stays inside the band where the quadrature ladder converges
    def gap(sigma):
        return _ratio(0.725, 10.0, sigma) - 0.95

    sigma_star = scipy.optimize.brentq(gap, 1e-5, 4e-3, xtol=1e-8)
    assert 1e-4 < sigma_star / math.pi < 1e-2


def test_fit_lambda_recovers_exact_quadratic():
    lam_true = 5000.0
    sigmas = np.linspace(0.0, 1e-3, 21)
    samples = [(s, math.exp(-lam_true * s * s)) for s in sigmas]
    lam, stderr = kerr.fit_lambda(samples)
    assert lam == pytest.approx(lam_true, rel=1e-9)
    assert stderr < 1e-6


def test_fit_lambda_validation():
    good = [(s, 0.99) for s in np.linspace(1e-4, 1e-3, 8)]
    with pytest.raises(ValueError):
        kerr.fit_lambda(good[:5])
    with pytest.raises(ValueError):
        kerr.fit_lambda([(s, 1.5) for s, _ in good])
    with pytest.raises(ValueError):
        kerr.fit_lambda([(2e-3, 0.9)] * 8)
    with pytest.raises(kerr.FitDegenerateError):
        kerr.fit_lambda([(5e-4, 0.99)] * 8)


def decay_fit(alpha):
    """Criterion 7's fit at r = 0.725: fit_lambda over the phase_ratio
    column on the fit's sigmas, one analysis.evaluate with its 1.5x
    recheck."""
    sigmas = np.linspace(0.0, kerr.FIT_SIGMA_MAX, kerr.FIT_SAMPLES)
    ratios = analysis.evaluate("phase_ratio", {"sigma": sigmas, "r": 0.725, "alpha": alpha}).values
    return kerr.fit_lambda(zip(sigmas, ratios))


def test_fitted_decay_rate_quadrature():
    rate, stderr = decay_fit(10.0)
    assert rate == pytest.approx(5102.0, rel=0.01)
    assert stderr < 0.01 * rate


def test_fitted_decay_rate_monte_carlo_within_noise():
    quad_rate, _ = decay_fit(10.0)
    # the ratio is exactly 1 at sigma = 0
    sigmas = np.linspace(0.0, kerr.FIT_SIGMA_MAX, kerr.FIT_SAMPLES)
    ratios = [oracles._monte_carlo_ratio(0.725, 10.0, s, 100_000, 11) if s else 1.0 for s in sigmas]
    noisy_rate, noisy_stderr = kerr.fit_lambda(zip(sigmas, ratios))
    assert abs(noisy_rate - quad_rate) < 3.0 * max(noisy_stderr, 1e-12) + 0.01 * quad_rate
