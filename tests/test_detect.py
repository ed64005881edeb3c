"""Unit tests for the threshold-detector model and heralded statistics."""

import math

import numpy as np
import pytest

from sqherald import analysis, detect, optics, sources
from sqherald import fockspace as fs

DET9 = detect.DetectorModel(0.9)


def test_detector_model_validation():
    with pytest.raises(ValueError):
        detect.DetectorModel(0.0)
    with pytest.raises(ValueError):
        detect.DetectorModel(1.2)
    assert detect.DetectorModel(1.0).eta == 1.0


def test_click_weights_geometric_completeness():
    eta = 0.73
    det = detect.DetectorModel(eta)
    dim = 40
    w = det.click_weights(dim + 1)
    assert w[0] == 0.0
    assert w[1] == eta
    assert np.max(np.abs(np.diff(np.log(w[1:])) - math.log(1.0 - eta))) < 1e-12
    # POVM completeness on dim levels: sum w_k = 1 - (1 - eta)^dim
    assert abs(w[1:].sum() - (1.0 - (1.0 - eta) ** dim)) < 1e-14
    assert np.all(np.diff(w[1:]) < 0.0)


def test_click_statistics_two_photon_hand_computation():
    # split |2>: outcomes (2,0), (1,1), (0,2) with weights 1/4, 1/2, 1/4
    dist = optics.joint_probability(optics.split(fs.fock_state(2, fs.Truncation(16))))
    st = detect.click_statistics(dist, DET9)
    assert st.p_click_1 == pytest.approx(0.45, abs=1e-15)
    assert st.p_click == pytest.approx(0.45 + 0.9 * 0.1 * 0.25, abs=1e-15)
    assert st.p_click_c == pytest.approx(0.45 / 0.4725, abs=1e-14)
    assert st.conditional_photon_dist.sum() == pytest.approx(1.0, abs=1e-14)


def test_click_statistics_small_squeezing_limit():
    st = detect.heralded_cat_statistics(0.01, DET9)
    assert st.p_click_1 == pytest.approx(0.45, abs=1e-3)
    assert st.p_click == pytest.approx(0.4725, abs=1e-3)
    assert st.p_click_c == pytest.approx(0.9524, abs=1e-3)


def test_click_statistics_invariants():
    for r, eta in ((0.3, 0.75), (0.725, 0.9), (1.5, 1.0)):
        st = detect.heralded_cat_statistics(r, detect.DetectorModel(eta))
        assert 0.0 <= st.p_click_1 <= st.p_click <= 1.0
        assert st.p_click_c == pytest.approx(st.p_click_1 / st.p_click, abs=1e-15)


def test_perfect_detector_reduces_to_ideal_herald():
    trunc = fs.Truncation(64)
    dist = optics.joint_probability(
        optics.split(sources.squeezed_cat(0.725, -1, trunc))
    )
    st = detect.click_statistics(dist, detect.DetectorModel(1.0))
    assert abs(st.p_click_c - optics.conditional_single_photon(dist)) < 1e-12


def test_heralded_cat_regression_fixture():
    st = detect.heralded_cat_statistics(0.725, DET9)
    assert st.p_click == pytest.approx(0.4369454696970719, abs=1e-12)
    assert st.p_click_1 == pytest.approx(0.40736880622208627, abs=1e-12)
    assert st.p_click_c == pytest.approx(0.9323104013517048, abs=1e-12)


def test_click_statistics_zero_click():
    dist = optics.joint_probability(optics.split(fs.vacuum_state(fs.Truncation(8))))
    with pytest.raises(detect.ZeroClickError):
        detect.click_statistics(dist, DET9)


def test_tmss_click_closed_forms():
    st = detect.tmss_click_statistics(0.5, DET9)
    assert st.p_click_1 == pytest.approx(
        0.9 * math.tanh(0.5) ** 2 / math.cosh(0.5) ** 2, abs=1e-15
    )
    assert st.p_click_1 == pytest.approx(0.151, abs=5e-4)
    for r in (0.1, 0.5, 1.0, 2.0):
        s = detect.tmss_click_statistics(r, DET9)
        assert s.p_click_c == pytest.approx(0.9 + 0.1 / math.cosh(r) ** 2, abs=1e-15)
        assert s.p_click_c == pytest.approx(s.p_click_1 / s.p_click, abs=1e-14)
        denom = 2.0 - 0.9 * (1.0 - math.cosh(2.0 * r))
        assert s.p_click == pytest.approx(
            2.0 * 0.9 * math.tanh(r) ** 2 / denom, abs=1e-15
        )


def test_tmss_click_trivial_limit():
    st = detect.tmss_click_statistics(0.0, DET9)
    assert st.p_click == 0.0
    assert st.p_click_1 == 0.0
    assert st.p_click_c == 1.0
    assert st.conditional_photon_dist[1] == 1.0


def test_tmss_click_numeric_equivalence():
    for r in (0.1, 0.5, 1.0, 1.7, 2.0):
        trunc = fs.default_truncation(r)
        for eta in (0.7, 0.9, 1.0):
            det = detect.DetectorModel(eta)
            analytic = detect.tmss_click_statistics(r, det)
            numeric = detect.click_statistics(
                optics.tmss_joint_probability(r, trunc), det
            )
            assert abs(analytic.p_click - numeric.p_click) < 1e-10
            assert abs(analytic.p_click_1 - numeric.p_click_1) < 1e-10
            assert abs(analytic.p_click_c - numeric.p_click_c) < 1e-10
            overlap = min(
                len(analytic.conditional_photon_dist),
                len(numeric.conditional_photon_dist),
            )
            assert np.max(np.abs(
                analytic.conditional_photon_dist[:overlap]
                - numeric.conditional_photon_dist[:overlap]
            )) < 1e-12


def test_g2_from_photon_dist_basics():
    one = np.zeros(8)
    one[1] = 1.0
    assert detect.g2_from_photon_dist(one) == 0.0
    two = np.zeros(8)
    two[2] = 1.0
    assert detect.g2_from_photon_dist(two) == pytest.approx(0.5, abs=1e-15)
    poisson = fs.coherent_amplitudes(1.0, fs.Truncation(80)).photon_distribution()
    assert detect.g2_from_photon_dist(poisson) == pytest.approx(1.0, abs=1e-10)


def test_g2_from_photon_dist_validation():
    with pytest.raises(ValueError):
        detect.g2_from_photon_dist(np.array([0.5, 0.2]))
    vac = np.zeros(4)
    vac[0] = 1.0
    with pytest.raises(detect.ZeroMeanError):
        detect.g2_from_photon_dist(vac)


def test_subnormal_click_mass_counts_as_zero():
    # below the smallest normal float the probabilities and moments have
    # lost their digits
    row = np.zeros(4)
    row[1] = 1e-310
    with pytest.raises(detect.ZeroClickError):
        detect._statistics(row)
    row[1] = 1e-160
    with pytest.raises(detect.ZeroMeanError):
        detect._g2_subnormalized(row)
    with pytest.raises(detect.ZeroMeanError):
        detect.g2_heralded_cat(0.5, detect.DetectorModel(1e-320))


def test_g2_heralded_cat_limits_and_fixture():
    assert detect.g2_heralded_cat(0.005, detect.DetectorModel(1.0)) < 1e-8
    assert detect.g2_heralded_cat(0.005, DET9) < 1e-3
    assert detect.g2_heralded_cat(0.725, DET9) == pytest.approx(
        0.8469990351668981, abs=1e-12
    )


def test_g2_tmss_closed_form():
    for r in (0.0, 0.5, 1.3):
        assert detect.g2_tmss(r, detect.DetectorModel(1.0)) == pytest.approx(
            0.0, abs=1e-14
        )
    assert detect.g2_tmss(1e-9, DET9) == pytest.approx(0.2222, abs=1e-4)
    expected = -3.0 + 2.0 / 0.9 + 0.9 + 0.1 * math.cosh(4.0)
    assert detect.g2_tmss(2.0, DET9) == pytest.approx(expected, abs=1e-12)


def test_g2_tmss_numeric_agreement():
    for r, eta in ((0.3, 0.8), (0.7, 0.85), (1.6, 0.95)):
        det = detect.DetectorModel(eta)
        dist = optics.tmss_joint_probability(r, fs.default_truncation(r))
        assert abs(detect.g2_numeric(dist, det) - detect.g2_tmss(r, det)) < 1e-8


def test_g2_comparison_straddles_crossover():
    # better quality below the crossover squeezing, worse above it
    assert detect.g2_heralded_cat(0.3, DET9) < detect.g2_tmss(0.3, DET9)
    assert detect.g2_heralded_cat(0.725, DET9) > detect.g2_tmss(0.725, DET9)


def test_conditional_quality_monotone_in_squeezing():
    values = [
        detect.heralded_cat_statistics(float(r), DET9).p_click_c
        for r in np.linspace(0.05, 2.0, 40)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_click_orderings_against_benchmark():
    for r in (0.2, 0.725, 1.4, 2.0):
        for eta in (0.7, 0.85, 0.99):
            det = detect.DetectorModel(eta)
            cat = detect.heralded_cat_statistics(r, det)
            tmss = detect.tmss_click_statistics(r, det)
            assert cat.p_click_1 > tmss.p_click_1
            assert cat.p_click_c < tmss.p_click_c


def test_click_limits_at_small_squeezing():
    assert detect.tmss_click_statistics(1e-6, DET9).p_click_1 < 1e-9
    assert detect.heralded_cat_statistics(1e-3, DET9).p_click_1 > 0.4


def test_quality_crossover_at_stated_efficiency():
    crossing = detect.quality_crossover(DET9)
    assert crossing == pytest.approx(0.504, abs=5e-3)
    assert crossing == pytest.approx(0.5038516235351562, abs=1e-9)


def test_quality_crossover_perfect_detector():
    with pytest.raises(analysis.NoCrossingError):
        detect.quality_crossover(detect.DetectorModel(1.0))


def test_quality_crossover_agrees_with_grid_scan():
    det = detect.DetectorModel(0.7)
    crossing = detect.quality_crossover(det)
    assert crossing == pytest.approx(0.6895370483398438, abs=1e-9)
    rs = np.linspace(0.02, 2.0, 1000)
    gaps = np.array(
        [detect.g2_heralded_cat(float(r), det) - detect.g2_tmss(float(r), det) for r in rs]
    )
    signs = np.sign(gaps)
    flips = np.nonzero(np.diff(signs) != 0.0)[0]
    assert len(flips) == 1
    assert rs[flips[0]] <= crossing <= rs[flips[0] + 1]
