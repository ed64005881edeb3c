"""Unit tests for the cross-Kerr heralding stage and phase-noise fits."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from sqherald import analysis, kerr, reference, registry, sources
from sqherald import fockspace as fs

# the ideal interaction phase tau_tilde = pi, as a one-point column
IDEAL = np.array([math.pi])


def fock_grid_p0(tau_tilde, r, sign, alpha, label, sys_dim, pump_dim):
    """Independent oracle: evolve on an explicit two-mode Fock grid.

    exp(-i (tau/2) n_1 n_2) on squeezed |0>_1 x |alpha>_2, projected onto
    squeezed_cat(sign)_1 x |label>_2, with every factor built from dense
    amplitudes rather than the label-series kernel.
    """
    sys_t = fs.Truncation(sys_dim)
    pump_t = fs.Truncation(pump_dim)
    sv = reference.squeezed_vacuum(r, sys_t).amps
    pump = reference.coherent_amplitudes(alpha, pump_t).amps
    n1 = np.arange(sys_dim)
    n2 = np.arange(pump_dim)
    phases = np.exp(-0.5j * tau_tilde * np.outer(n1, n2))
    joint = np.outer(sv, pump) * phases
    cat = reference.squeezed_cat(r, sign, sys_t).amps
    target_pump = reference.coherent_amplitudes(label, pump_t).amps
    amp = np.conj(cat) @ joint @ np.conj(target_pump)
    return float(abs(amp) ** 2)


def test_schedule_validation():
    with pytest.raises(ValueError):
        reference.KerrSchedule(math.pi, 0.0)
    wrapped = reference.KerrSchedule(2.0 * math.pi + 0.5, 4.0)
    assert wrapped.tau_tilde == pytest.approx(0.5, abs=1e-12)
    for tau, alpha in ((math.inf, 4.0), (math.nan, 4.0), (math.pi, math.inf),
                       (math.pi, math.nan), (math.pi, complex(1.0, math.nan))):
        with pytest.raises(ValueError):
            reference.KerrSchedule(tau, alpha)


def test_hybrid_state_requires_converged_coefficients():
    trunc = fs.Truncation(16)
    with pytest.raises(fs.TruncationError):
        reference.HybridKerrState(np.array([0.5]), np.array([1.0 + 0j]), trunc)


def test_kerr_evolve_imprints_pair_phases():
    sched = reference.KerrSchedule(0.7, 2.5)
    state = reference.kerr_evolve(0.725, sched, kerr.series_truncation(0.725))
    n = state.pair_indices
    expected = 2.5 * np.exp(-1j * n * 0.7)
    assert np.max(np.abs(state.labels - expected)) < 1e-14
    assert np.array_equal(state.photon_numbers, 2 * n)
    full_turn = reference.kerr_evolve(
        0.725, reference.KerrSchedule(2.0 * math.pi, 2.5), kerr.series_truncation(0.725)
    )
    assert np.max(np.abs(full_turn.labels - 2.5)) < 1e-12


def test_coherent_overlap_closed_form():
    assert reference.coherent_overlap(1.3, 1.3) == pytest.approx(1.0, abs=1e-15)
    beta, gamma = 2.0, 2.0 * np.exp(-0.4j)
    expected = np.exp(-0.5 * 8.0 + np.conj(beta) * gamma)
    assert reference.coherent_overlap(beta, gamma) == pytest.approx(expected, abs=1e-12)


def state_path_p0(sched, r, sign, label):
    """Oracle: project the explicit hybrid state from kerr_evolve onto the
    superposition and the label, one coherent_overlap per pair term."""
    trunc = kerr.series_truncation(r)
    state = reference.kerr_evolve(r, sched, trunc)
    d = reference.squeezed_cat(r, sign, trunc).amps
    amp = sum(
        np.conj(d[2 * n]) * c * reference.coherent_overlap(label, beta)
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
            sched = reference.KerrSchedule(tau, alpha)
            for r in (0.725, 1.5):
                taus = np.array([sched.tau_tilde])
                kernel = kerr.p0_over_tau(taus, r, alpha, sign=sign, label=label)[0]
                assert abs(kernel - state_path_p0(sched, r, sign, label)) < 1e-12


def test_pair_series_drops_exactly_the_zero_terms():
    for r in (0.725, 2.0):
        trunc = kerr.series_truncation(r)
        levels = 2 * np.arange((trunc.dim + 1) // 2)
        base = reference.squeezed_vacuum(r, trunc).amps[levels]
        for sign in (-1, +1):
            full = (np.conj(base) * reference.squeezed_cat(r, sign, trunc).amps[levels]).real
            n, g = kerr._pair_series(r, sign, trunc)
            assert np.array_equal(n, np.flatnonzero(full))
            assert np.array_equal(g, full[n])
            assert np.all(n % 2 == (1 if sign < 0 else 0))
            assert not (n.flags.writeable or g.flags.writeable)
        # negligible tail terms are kept, so the 1.5x recheck compares two
        # different series
        wider, _ = kerr._pair_series(r, -1, trunc.scaled(1.5))
        assert len(wider) > len(kerr._pair_series(r, -1, trunc)[0])


def test_p0_sweep_builds_the_series_once():
    r = 0.8125
    series = kerr._pair_series.cache_info()
    cutoff = kerr.series_truncation.cache_info()
    spec = analysis.SweepSpec("tau_tilde", 0.0, 2.0 * math.pi, 9, {"r": r})
    analysis.sweep(spec, "p0_cat_minus")
    series_after = kerr._pair_series.cache_info()
    cutoff_after = kerr.series_truncation.cache_info()
    # one build at the working cutoff and one at 1.5x, each read once by
    # a grouped call over all 9 taus
    assert series_after.misses - series.misses == 2
    assert series_after.hits - series.hits == 0
    assert cutoff_after.misses - cutoff.misses == 1


def test_half_hermite_rule_equals_full_symmetric_rule():
    alpha = 10.0
    for order in (64, 128, 256, 512, 1024):
        nodes, weights = scipy.special.roots_hermite(order)
        for r in (0.725, 2.0):
            n, g, ref = kerr._phase_series(r, alpha, None)
            for sigma in (1e-3, 4e-3):
                taus = math.pi + math.sqrt(2.0) * sigma * nodes
                vals = kerr._overlap_probability(taus, n, g, alpha, -alpha) / ref
                full = float(np.dot(weights, vals) / math.sqrt(math.pi))
                half = reference._averaged_ratio_quadrature(r, alpha, sigma, order, None)
                assert abs(half - full) < 1e-13


def test_trapezoid_matches_the_hermite_oracle():
    cases = [(r, 10.0, sigma) for r in (0.05, 0.725, 2.0) for sigma in (1e-4, 1e-3, 4e-3)]
    # twice the pump amplitude puts four times the harmonics in the band
    cases.append((2.0, 20.0, 1e-3))
    for r, alpha, sigma in cases:
        trapezoid = kerr.gaussian_averaged_ratio(r, alpha, sigma)
        ladder = reference._hermite_ladder_ratio(r, alpha, sigma)
        assert abs(trapezoid - ladder) < 1e-12


def test_trapezoid_rule_grid_and_weights():
    band = 1000.0
    # a narrow Gaussian: the grid stops at the first even node past 9 sigma
    deltas, weights = kerr._trapezoid_rule(4e-3, band)
    half_step = math.pi / (2 * (math.ceil(2 * math.pi / 4e-3) + 500))
    assert len(deltas) % 2 == 1
    assert deltas[-1] > 9 * 4e-3 > deltas[-3]
    assert abs(deltas[1] - half_step) < 1e-18
    assert abs(weights.sum() - 1.0) < 1e-14
    assert abs(2.0 * weights[::2].sum() - 1.0) < 1e-14
    # wide ones: the grid lands on pi, whose weight is not doubled; the
    # Fourier series of the wrapped normal (sigma = 3) matches its copies
    for sigma in (1.0, 3.0):
        deltas, weights = kerr._trapezoid_rule(sigma, band)
        assert len(deltas) == 2 * (math.ceil(2 * math.pi / sigma) + 500) + 1
        assert abs(deltas[-1] - math.pi) < 1e-15
        assert abs(weights.sum() - 1.0) < 1e-14
        copies = sum(
            np.exp(-0.5 * ((deltas + 2 * math.pi * k) / sigma) ** 2) for k in range(-20, 21)
        ) / (sigma * math.sqrt(2 * math.pi))
        expected = 2.0 * copies * (deltas[1] - deltas[0])
        expected[[0, -1]] /= 2.0
        assert np.allclose(weights, expected, rtol=1e-13, atol=0.0)


def test_production_never_reaches_the_hermite_ladder(monkeypatch):
    def refuse(order):
        raise AssertionError("Gauss-Hermite oracle reached from production")

    monkeypatch.setattr(reference, "_hermite_rule", refuse)
    for name in ("fig4a", "fig5a"):
        assert np.all(np.isfinite(registry.figure(name).build().rows))
    spec = analysis.SweepSpec("r", *registry.R_GRID_SURFACE, {"alpha": 10.0, "sigma": 0.004})
    column = analysis.sweep(spec, "phase_ratio").rows[:, 1]
    assert np.all((column > 0.0) & (column < 1.0))
    with pytest.raises(AssertionError, match="oracle reached"):
        reference._hermite_ladder_ratio(0.725, 10.0, 1e-3)


def test_coarse_trapezoid_step_fails_the_gate(monkeypatch):
    rule = kerr._trapezoid_rule
    monkeypatch.setattr(kerr, "_trapezoid_rule", lambda sigma, band: rule(sigma, band / 100))
    with pytest.raises(kerr.QuadratureConvergenceError, match="disagree"):
        kerr.gaussian_averaged_ratio(2.0, 10.0, 0.3)


def test_trapezoid_rule_refuses_oversized_grids():
    # at r = 2 a wide sigma needs (alpha + 3)^2 * 315 nodes, past 2^20
    # for alpha = 60; the refusal comes before any node is evaluated
    with pytest.raises(kerr.QuadratureConvergenceError, match="nodes"):
        kerr.gaussian_averaged_ratio(2.0, 60.0, 1.0)
    with pytest.raises(kerr.QuadratureConvergenceError, match="not finite"):
        kerr._trapezoid_rule(1.0, math.inf)


def test_averaged_ratio_covers_wide_phase_noise():
    # the Gauss-Hermite ladder gives up here (sigma = 0.3 at r = 0.725,
    # sigma = 0.01 at r = 2); the periodic rule covers the whole period
    for r in (0.05, 2.0):
        values = [kerr.gaussian_averaged_ratio(r, 10.0, sigma) for sigma in (0.3, 1.0, 5.0)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert values[0] > values[1] > values[2]


def test_averaged_ratio_at_vanishing_sigma():
    # sigma/2 underflows at the smallest subnormal; the grid is built in
    # units of sigma, so nothing divides by zero or overflows
    for sigma in (5e-324, 1e-300):
        for r in (0.725, 2.0):
            with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
                warnings.simplefilter("error")
                value = kerr.gaussian_averaged_ratio(r, 10.0, sigma)
            assert abs(value - 1.0) <= 1e-15


def test_ratio_whose_reference_has_lost_its_digits_fails_numerically():
    # the tau_tilde = pi reference probability is about r^2/2: zero at
    # r = 1e-200 (a ratio against it would be NaN) and subnormal at
    # r = 1e-160 (the trapezoid gate would misreport a disagreement)
    for r in (1e-200, 1e-160):
        with pytest.raises(fs.NumericalFailureError, match="lost its digits"):
            kerr.gaussian_averaged_ratio(r, 10.0, 0.1)
        with pytest.raises(fs.NumericalFailureError, match="lost its digits"):
            reference.phase_error_ratio(r, 10.0, 0.1)
    assert 0.0 < kerr.gaussian_averaged_ratio(1e-150, 10.0, 0.1) < 1.0


def test_averaged_ratio_at_huge_sigma():
    # the phase is uniform over the period; the Fourier series of the
    # wrapped normal keeps one term, whose factor underflows to zero
    values = [kerr.gaussian_averaged_ratio(0.725, 10.0, sigma) for sigma in (1e3, 1e300)]
    assert 0.0 < values[0] <= 1.0
    assert values[1] == values[0]


def test_series_truncation_floor():
    assert kerr.series_truncation(0.1).dim == 64
    assert kerr.series_truncation(2.0).dim > 64


def test_p0_at_ideal_phase_equals_branch_weight():
    p0 = kerr.p0_over_tau(IDEAL, 0.725, 10.0)[0]
    assert abs(p0 - sources.cat_norm(0.725, -1) / 4.0) < 1e-12


def test_p0_vanishes_without_interaction():
    assert kerr.p0_over_tau(np.array([0.0]), 0.725, 10.0)[0] < 1e-100


def test_p0_rejects_nonpositive_squeezing():
    with pytest.raises(ValueError):
        kerr.p0_over_tau(IDEAL, 0.0, 10.0)


def test_p0_rejects_an_unknown_branch_sign():
    with pytest.raises(ValueError, match="sign"):
        kerr.p0_over_tau(IDEAL, 0.725, 10.0, sign=0)


def test_branch_probabilities_sum_to_one():
    # residual |<alpha|-alpha>| cross terms bound the deficit by 10 e^{-2 alpha^2}
    for alpha, slack in ((1.5, 10.0 * math.exp(-4.5)), (3.0, 10.0 * math.exp(-18.0))):
        total = kerr.p0_over_tau(IDEAL, 0.725, alpha, sign=-1)[0] + kerr.p0_over_tau(
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
        series = kerr.p0_over_tau(np.array([tau]), 0.725, 3.0, sign=sign, label=label)[0]
        grid = fock_grid_p0(tau, 0.725, sign, 3.0, label, 64, 200)
        assert abs(series - grid) < 1e-10


def test_phase_error_ratio_matches_fock_grid_oracle():
    # same cross-check at the operating pump amplitude; common factors
    # cancel in the ratio, so agreement is much better than either p0
    num = fock_grid_p0(math.pi + 0.004, 0.725, -1, 10.0, -10.0, 64, 400)
    den = fock_grid_p0(math.pi, 0.725, -1, 10.0, -10.0, 64, 400)
    value = reference.phase_error_ratio(0.725, 10.0, 0.004)
    assert abs(value - num / den) < 1e-12


def test_p1_heralded_closed_form_and_peak():
    p1 = kerr.p1_over_tau(IDEAL, 1.146, 10.0)[0]
    closed = math.tanh(1.146) ** 2 / (4.0 * math.cosh(1.146))
    # the default pair series is cut at tail mass 1e-11, which sets the gap
    # to the closed form; the pi-phase projection correction ~ e^{-200} and
    # float noise are both far smaller, as the tighter cutoff shows
    assert abs(p1 - closed) < 1e-11
    tight = kerr.p1_over_tau(IDEAL, 1.146, 10.0, trunc=kerr.series_truncation(1.146, 1e-15))[0]
    assert abs(tight - closed) < 1e-14
    assert p1 == pytest.approx(0.0962250, abs=1e-6)


def test_phase_error_ratio_reference_and_symmetry():
    assert reference.phase_error_ratio(0.725, 10.0, 0.0) == 1.0
    for dtheta in (1e-3, 5e-3, 2e-2):
        left = reference.phase_error_ratio(0.725, 10.0, -dtheta)
        right = reference.phase_error_ratio(0.725, 10.0, dtheta)
        assert abs(left - right) < 1e-12


def test_phase_error_ratio_equals_probability_ratio():
    dtheta = 0.004
    shifted = kerr.p0_over_tau(np.array([math.pi + dtheta]), 0.725, 10.0)[0]
    direct = shifted / kerr.p0_over_tau(IDEAL, 0.725, 10.0)[0]
    assert abs(reference.phase_error_ratio(0.725, 10.0, dtheta) - direct) < 1e-12


def test_phase_error_ratio_regression_fixture():
    # the averaged value at sigma = 0.004 sits above the deterministic one
    # at dtheta = 0.004 because small draws dominate the Gaussian weight
    value = reference.phase_error_ratio(0.725, 10.0, 0.004)
    assert value == pytest.approx(0.9285167292647223, abs=1e-10)
    averaged = kerr.gaussian_averaged_ratio(0.725, 10.0, 0.004)
    assert averaged == pytest.approx(0.9412258901826744, abs=1e-9)


def test_phase_error_ratio_is_even_quadratic_near_zero():
    # small-angle curvature; the Gaussian-averaged fit over [0, 1e-3]
    # lands ~2% lower once quartic corrections enter
    curvature = 5205.0
    for dtheta in (2e-4, 1e-3):
        measured = 1.0 - reference.phase_error_ratio(0.725, 10.0, dtheta)
        assert measured / dtheta**2 == pytest.approx(curvature, rel=0.02)


def test_alpha_ordering_of_averaged_ratio():
    for sigma in (1e-3, 4e-3):
        values = [
            kerr.gaussian_averaged_ratio(0.725, alpha, sigma)
            for alpha in (9.0, 10.0, 11.0)
        ]
        assert values[0] >= values[1] >= values[2]


def test_averaged_ratio_degenerate_and_monotone():
    assert kerr.gaussian_averaged_ratio(0.725, 10.0, 0.0) == 1.0
    sigmas = np.linspace(0.0, 4e-3, 9)
    values = [kerr.gaussian_averaged_ratio(0.725, 10.0, float(s)) for s in sigmas]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_averaged_ratio_monte_carlo_agrees_with_quadrature():
    sigma = 1e-3
    quad = kerr.gaussian_averaged_ratio(0.725, 10.0, sigma)
    mc = reference._monte_carlo_ratio(0.725, 10.0, sigma, 200_000, 7)
    assert abs(mc - quad) < 5e-5
    again = reference._monte_carlo_ratio(0.725, 10.0, sigma, 200_000, 7)
    assert again == mc


def test_averaged_ratio_input_validation():
    with pytest.raises(ValueError):
        kerr.gaussian_averaged_ratio(0.725, 10.0, -1e-4)
    with pytest.raises(ValueError):
        reference._monte_carlo_ratio(0.725, 10.0, 1e-3, 200_000, None)
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError):
            kerr.gaussian_averaged_ratio(0.725, 10.0, sigma)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError):
            kerr.gaussian_averaged_ratio(0.725, alpha, 1e-3)


def test_tolerable_jitter_scale():
    # sigma at which the averaged ratio drops to 0.95, in units of pi; the
    # bracket stays inside the band where the quadrature ladder converges
    def gap(sigma):
        return kerr.gaussian_averaged_ratio(0.725, 10.0, sigma) - 0.95

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


def test_fitted_decay_rate_quadrature():
    fit = kerr.fitted_decay_rate(0.725, 10.0)
    assert fit.decay_rate == pytest.approx(5102.0, rel=0.01)
    assert fit.stderr < 0.01 * fit.decay_rate
    assert len(fit.residuals) == 21


def test_fitted_decay_rate_monte_carlo_within_noise():
    quad = kerr.fitted_decay_rate(0.725, 10.0)
    # the ratio is exactly 1 at sigma = 0
    sigmas = np.linspace(0.0, kerr.FIT_SIGMA_MAX, kerr.FIT_SAMPLES)
    ratios = [reference._monte_carlo_ratio(0.725, 10.0, s, 100_000, 11) if s else 1.0 for s in sigmas]
    noisy_rate, noisy_stderr = kerr.fit_lambda(zip(sigmas, ratios))
    assert abs(noisy_rate - quad.decay_rate) < 3.0 * max(
        noisy_stderr, 1e-12
    ) + 0.01 * quad.decay_rate
