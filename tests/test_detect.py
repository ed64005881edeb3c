"""Unit tests for the threshold-detector model and heralded statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqherald import analysis, detect, reference, registry
from sqherald import fockspace as fs

DET9 = detect.DetectorModel(0.9)


def cat_clicks(r, eta):
    """p_click, p_click_1 and p_click_c of the split odd superposition at
    one point, from the production closed forms."""
    p_click, p_click_1 = (
        float(v[0]) for v in detect.heralded_clicks(np.array([r]), np.array([eta]))
    )
    return p_click, p_click_1, p_click_1 / p_click


def tmss_clicks(r, eta):
    """The benchmark's closed-form click statistics at one point."""
    return tuple(float(v) for v in detect.benchmark_clicks(r, eta))


def cat_g2(r, eta):
    """Heralded g2 of the split odd superposition at one point, from the
    production closed forms."""
    return float(detect.heralded_g2(np.array([r]), np.array([eta]))[0])


def tmss_g2(r, eta):
    """The benchmark's closed-form heralded g2 at one point."""
    return float(detect.benchmark_g2(np.array([r]), np.array([eta]))[0])


def test_detector_model_validation():
    with pytest.raises(ValueError):
        detect.DetectorModel(0.0)
    with pytest.raises(ValueError):
        detect.DetectorModel(1.2)
    assert detect.DetectorModel(1.0).eta == 1.0


def test_click_weights_geometric_completeness():
    eta = 0.73
    dim = 40
    w = reference.click_weights(eta, dim + 1)
    assert w[0] == 0.0
    assert w[1] == eta
    assert np.max(np.abs(np.diff(np.log(w[1:])) - math.log(1.0 - eta))) < 1e-12
    # POVM completeness on dim levels: sum w_k = 1 - (1 - eta)^dim
    assert abs(w[1:].sum() - (1.0 - (1.0 - eta) ** dim)) < 1e-14
    assert np.all(np.diff(w[1:]) < 0.0)


def test_click_statistics_two_photon_hand_computation():
    # split |2>: outcomes (2,0), (1,1), (0,2) with weights 1/4, 1/2, 1/4
    dist = reference.joint_probability(reference.split(reference.fock_state(2, fs.Truncation(16))))
    st = reference.click_statistics(dist, DET9)
    assert st.p_click_1 == pytest.approx(0.45, abs=1e-15)
    assert st.p_click == pytest.approx(0.45 + 0.9 * 0.1 * 0.25, abs=1e-15)
    assert st.p_click_c == pytest.approx(0.45 / 0.4725, abs=1e-14)
    assert st.conditional_photon_dist.sum() == pytest.approx(1.0, abs=1e-14)


def test_click_statistics_small_squeezing_limit():
    p_click, p_click_1, p_click_c = cat_clicks(0.01, 0.9)
    assert p_click_1 == pytest.approx(0.45, abs=1e-3)
    assert p_click == pytest.approx(0.4725, abs=1e-3)
    assert p_click_c == pytest.approx(0.9524, abs=1e-3)


def test_click_statistics_invariants():
    for r, eta in ((0.3, 0.75), (0.725, 0.9), (1.5, 1.0)):
        p_click, p_click_1, p_click_c = cat_clicks(r, eta)
        assert 0.0 <= p_click_1 <= p_click <= 1.0
        assert p_click_c == pytest.approx(p_click_1 / p_click, abs=1e-15)


def test_perfect_detector_reduces_to_ideal_herald():
    trunc = fs.Truncation(64)
    dist = reference.joint_probability(
        reference.split(reference.squeezed_cat(0.725, -1, trunc))
    )
    st = reference.click_statistics(dist, detect.DetectorModel(1.0))
    assert abs(st.p_click_c - reference.single_photon_fraction(dist.p[1])) < 1e-12


def test_heralded_cat_regression_fixture():
    p_click, p_click_1, p_click_c = cat_clicks(0.725, 0.9)
    assert p_click == pytest.approx(0.4369454696970719, abs=1e-12)
    assert p_click_1 == pytest.approx(0.40736880622208627, abs=1e-12)
    assert p_click_c == pytest.approx(0.9323104013517048, abs=1e-12)


def test_click_statistics_zero_click():
    dist = reference.joint_probability(reference.split(reference.vacuum_state(fs.Truncation(8))))
    with pytest.raises(detect.ZeroClickError):
        reference.click_statistics(dist, DET9)


def test_tmss_click_closed_forms():
    _, p_click_1, _ = tmss_clicks(0.5, 0.9)
    assert p_click_1 == pytest.approx(
        0.9 * math.tanh(0.5) ** 2 / math.cosh(0.5) ** 2, abs=1e-15
    )
    assert p_click_1 == pytest.approx(0.151, abs=5e-4)
    for r in (0.1, 0.5, 1.0, 2.0):
        p_click, p_click_1, p_click_c = tmss_clicks(r, 0.9)
        assert p_click_c == pytest.approx(0.9 + 0.1 / math.cosh(r) ** 2, abs=1e-15)
        assert p_click_c == pytest.approx(p_click_1 / p_click, abs=1e-14)
        denom = 2.0 - 0.9 * (1.0 - math.cosh(2.0 * r))
        assert p_click == pytest.approx(
            2.0 * 0.9 * math.tanh(r) ** 2 / denom, abs=1e-15
        )


def test_tmss_click_trivial_limit():
    p_click, p_click_1, p_click_c = tmss_clicks(0.0, 0.9)
    assert p_click == 0.0
    assert p_click_1 == 0.0
    assert p_click_c == 1.0


def test_tmss_click_numeric_equivalence():
    for r in (0.1, 0.5, 1.0, 1.7, 2.0):
        trunc = fs.default_truncation(r)
        for eta in (0.7, 0.9, 1.0):
            analytic = tmss_clicks(r, eta)
            numeric = reference.click_statistics(
                reference.tmss_joint_probability(r, trunc), detect.DetectorModel(eta)
            )
            assert abs(analytic[0] - numeric.p_click) < 1e-10
            assert abs(analytic[1] - numeric.p_click_1) < 1e-10
            assert abs(analytic[2] - numeric.p_click_c) < 1e-10
            # the click-conditioned signal is geometric, (1 - z) z^(n-1)
            # with z = (1 - eta) tanh^2 r
            z = (1.0 - eta) * math.tanh(r) ** 2
            geometric = np.zeros(trunc.dim)
            geometric[1:] = (1.0 - z) * z ** np.arange(trunc.dim - 1.0)
            assert np.max(np.abs(geometric - numeric.conditional_photon_dist)) < 1e-12


def test_subnormal_click_mass_counts_as_zero():
    # below the smallest normal float the probabilities and moments have
    # lost their digits
    row = np.zeros(4)
    row[1] = 1e-310
    with pytest.raises(detect.ZeroClickError):
        reference._statistics(row)
    row[1] = 1e-160
    with pytest.raises(detect.ZeroMeanError):
        reference._g2_subnormalized(row)
    with pytest.raises(detect.ZeroMeanError):
        cat_g2(0.5, 1e-320)


def test_g2_heralded_cat_limits_and_fixture():
    assert cat_g2(0.005, 1.0) < 1e-8
    assert cat_g2(0.005, 0.9) < 1e-3
    assert cat_g2(0.725, 0.9) == pytest.approx(
        0.8469990351668981, abs=1e-12
    )


def test_g2_tmss_closed_form():
    for r in (0.0, 0.5, 1.3):
        assert tmss_g2(r, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert tmss_g2(1e-9, 0.9) == pytest.approx(0.2222, abs=1e-4)
    expected = -3.0 + 2.0 / 0.9 + 0.9 + 0.1 * math.cosh(4.0)
    assert tmss_g2(2.0, 0.9) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.04, 2.0), eta=st.floats(0.7, 1.0))
def test_g2_tmss_numeric_agreement(r, eta):
    # criterion 9's bound, across its domain rather than at its points
    dist = reference.tmss_joint_probability(r, fs.default_truncation(r))
    assert abs(reference.g2_numeric(dist, eta) - tmss_g2(r, eta)) < 1e-8


def test_g2_comparison_straddles_crossover():
    # better quality below the crossover squeezing, worse above it
    assert cat_g2(0.3, 0.9) < tmss_g2(0.3, 0.9)
    assert cat_g2(0.725, 0.9) > tmss_g2(0.725, 0.9)


def test_conditional_quality_monotone_in_squeezing():
    values = [cat_clicks(float(r), 0.9)[2] for r in np.linspace(0.05, 2.0, 40)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.05, 2.0), eta=st.floats(0.7, 1.0))
def test_click_orderings_against_benchmark(r, eta):
    # the split odd superposition clicks on a single photon more often
    # than the benchmark, and with a smaller single-photon fraction of its
    # clicks; without detectors it beats the benchmark's P(1,1) and the
    # conditional P_c of split squeezed vacuum
    def value(name, **params):
        return float(analysis.evaluate(name, {"r": r, **params}).values[0])

    assert value("pclick1_cat_minus", eta=eta) > value("pclick1_tmss", eta=eta)
    assert value("pclickc_cat_minus", eta=eta) < value("pclickc_tmss", eta=eta)
    assert value("p11_cat_minus") > value("p11_tmss")
    assert value("pc_cat_minus") >= value("pc_squeezed")


def test_click_limits_at_small_squeezing():
    assert tmss_clicks(1e-6, 0.9)[1] < 1e-9
    assert cat_clicks(1e-3, 0.9)[1] > 0.4


def g2_crossing(eta):
    """Criterion 10's search at efficiency eta: where the heralded g2 of the
    split odd superposition crosses the benchmark's on [0.02, 2], both read
    through their registered closed-form objectives."""
    cat, benchmark = (analysis.objective(name, eta=eta) for name in ("g2_cat_minus", "g2_tmss"))
    return analysis.find_crossing(cat, benchmark, 0.02, 2.0, tol=1e-4)


def test_quality_crossover_at_stated_efficiency():
    crossing = g2_crossing(0.9)
    assert crossing == pytest.approx(0.504, abs=5e-3)
    assert crossing == pytest.approx(0.5038516235351562, abs=1e-9)


def test_quality_crossover_perfect_detector():
    with pytest.raises(analysis.NoCrossingError):
        g2_crossing(1.0)


def test_quality_crossover_agrees_with_grid_scan():
    crossing = g2_crossing(0.7)
    assert crossing == pytest.approx(0.6895370483398438, abs=1e-9)
    rs = np.linspace(0.02, 2.0, 1000)
    gaps = np.array([cat_g2(float(r), 0.7) - tmss_g2(float(r), 0.7) for r in rs])
    signs = np.sign(gaps)
    flips = np.nonzero(np.diff(signs) != 0.0)[0]
    assert len(flips) == 1
    assert rs[flips[0]] <= crossing <= rs[flips[0] + 1]


# The ten non-Kerr figures of one `tables` pass, in the bench's order.
TABLES = ("fig3a", "fig2", "fig3b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b")


def test_tables_in_one_process_match_fresh_builds():
    # the closed forms hold nothing between figures, so every table built
    # after the others is byte for byte the table built again on its own
    together = [registry.figure(name).build() for name in TABLES]
    for name, shared in zip(TABLES, together):
        alone = registry.figure(name).build()
        assert alone.columns == shared.columns
        assert alone.rows.tobytes() == shared.rows.tobytes()
        assert alone.metadata == shared.metadata


def test_failed_build_holds_nothing_and_raises_again():
    # a failing evaluation raises the same error every time, and a later
    # call on its good points reads nothing it computed
    r, eta = np.array([1.0, 0.0, 2.0]), np.full(3, 0.9)
    for _ in range(2):
        with pytest.raises(detect.ZeroClickError):
            detect.heralded_clicks(r, eta, sign=None)
        with pytest.raises(ValueError, match="eta must lie in"):
            detect.heralded_g2(r, np.array([0.9, 1.5, 0.9]))
    good = detect.heralded_clicks(r[[0, 2]], eta[[0, 2]], sign=None)
    one = [detect.heralded_clicks(r[[i]], eta[[i]], sign=None) for i in (0, 2)]
    for got, alone in zip(np.transpose(good), one):
        assert got.tobytes() == np.concatenate(alone).tobytes()
