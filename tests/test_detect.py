"""Unit tests for the threshold-detector model and heralded statistics."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqherald import analysis, detect, reference, registry, sources
from sqherald import fockspace as fs

DET9 = detect.DetectorModel(0.9)


def cat_clicks(r, eta):
    """p_click, p_click_1 and p_click_c of the split odd superposition at
    one point, from the production kernel at the default cutoff."""
    p_click, p_click_1 = (
        float(v[0, 0])
        for v in detect.heralded_clicks(np.array([r]), np.array([eta]), fs.default_truncation(r))
    )
    return p_click, p_click_1, p_click_1 / p_click


def tmss_clicks(r, eta):
    """The benchmark's closed-form click statistics at one point."""
    return tuple(float(v) for v in detect.benchmark_clicks(r, eta))


def cat_g2(r, eta):
    """Heralded g2 of the split odd superposition at one point, from the
    production kernel at the default cutoff."""
    g2 = detect.heralded_g2(np.array([r]), np.array([eta]), fs.default_truncation(r))
    return float(g2[0, 0])


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
    det = detect.DetectorModel(eta)
    dist = reference.tmss_joint_probability(r, fs.default_truncation(r))
    assert abs(reference.g2_numeric(dist, det) - tmss_g2(r, eta)) < 1e-8


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
    through their registered objectives at the default cutoffs."""
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


def test_tables_in_one_process_match_fresh_builds(monkeypatch):
    # the moments held across figures give every table byte for byte what
    # the figure builds alone, with nothing held
    monkeypatch.setattr(detect, "_MOMENTS", {})
    together = [registry.figure(name).build() for name in TABLES]
    assert detect._MOMENTS
    for name, shared in zip(TABLES, together):
        detect._MOMENTS.clear()
        alone = registry.figure(name).build()
        assert alone.columns == shared.columns
        assert alone.rows.tobytes() == shared.rows.tobytes()
        assert alone.metadata == shared.metadata


def test_fig6a_builds_each_cutoff_group_once(monkeypatch):
    # three click quantities over two cutoff groups, each group's base and
    # recheck cutoffs together: one source build, one kernel build and one
    # moment build per group
    monkeypatch.setattr(detect, "_MOMENTS", {})
    counts = collections.Counter()
    for owner, name in ((sources, "pair_amplitudes"), (detect, "_binomial_kernels"),
                        (detect, "_build_moments")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    registry.figure("fig6a").build()
    assert counts == {"pair_amplitudes": 2, "_binomial_kernels": 2, "_build_moments": 2}
    # fig9a reads the same columns: g2 takes m1 and m2 of the same builds
    registry.figure("fig9a").build()
    assert counts == {"pair_amplitudes": 2, "_binomial_kernels": 2, "_build_moments": 2}


def test_failed_build_holds_nothing_and_raises_again(monkeypatch):
    monkeypatch.setattr(detect, "_MOMENTS", {})
    r, eta = np.array([1.0, 1.5, 2.0]), np.full(3, 0.9)
    # the base cutoff fails first; then a base that fits and a recheck
    # that does not
    for cutoffs in ((fs.Truncation(24), fs.Truncation(36)),
                    (fs.Truncation(160), fs.Truncation(24))):
        for _ in range(2):
            with pytest.raises(fs.TruncationError) as info:
                detect.heralded_clicks(r, eta, *cutoffs)
            assert str(info.value).startswith(
                "squeezed vacuum at r = 1.5 does not fit in dim = 24 ")
            assert detect._MOMENTS == {}


def test_cutoff_overrides_never_read_moments_held_for_another_cutoff(monkeypatch):
    monkeypatch.setattr(detect, "_MOMENTS", {})
    built = []
    build = detect._build_moments

    def spy(r, eta, sign, cutoffs):
        built.append(cutoffs)
        return build(r, eta, sign, cutoffs)

    monkeypatch.setattr(detect, "_build_moments", spy)
    params = {"r": np.linspace(0.1, 0.8, 7), "eta": 0.8}
    overrides = ({}, {"dim": 48}, {"tail_tol": 1e-6}, {"dim": 48, "tail_tol": 1e-6}, {})
    held = [analysis.evaluate("pclick_cat_minus", params, **o).values for o in overrides]
    assert built == [(fs.Truncation(d, tol), fs.Truncation(math.ceil(1.5 * d), tol))
                     for d, tol in ((64, 1e-3), (48, 1e-3), (64, 1e-6), (48, 1e-6))]
    for values, o in zip(held, overrides):
        detect._MOMENTS.clear()
        assert analysis.evaluate("pclick_cat_minus", params, **o).values.tobytes() == \
            values.tobytes()


def test_held_moments_are_read_only(monkeypatch):
    monkeypatch.setattr(detect, "_MOMENTS", {})
    r, eta = np.array([0.3, 0.7]), np.array([0.9, 0.5])
    cutoffs = (fs.Truncation(64), fs.Truncation(96))
    p_click, p_click_1 = detect.heralded_clicks(r, eta, *cutoffs)
    assert p_click.shape == p_click_1.shape == (2, 2)
    (moments,) = detect._MOMENTS.values()
    for m in moments + (p_click, p_click_1):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    # a later call reads the held values, not copies of the kernel's
    assert detect.heralded_clicks(r, eta, *cutoffs)[0] is p_click


def test_held_moments_keep_within_their_bound(monkeypatch):
    monkeypatch.setattr(detect, "_MOMENTS", {})
    monkeypatch.setattr(detect, "HELD_POINTS", 5)
    trunc = fs.Truncation(64)

    def clicks(*rs):
        return detect.heralded_clicks(np.array(rs), np.full(len(rs), 0.9), trunc)

    clicks(0.1, 0.2)
    clicks(0.3, 0.4, 0.5)
    assert len(detect._MOMENTS) == 2
    # a third column passes the bound: the oldest goes first
    clicks(0.6)
    assert [len(np.frombuffer(k[0])) for k in detect._MOMENTS] == [3, 1]
    # a column longer than the bound is not held, and drops nothing
    clicks(*np.linspace(0.1, 1.0, 6))
    assert [len(np.frombuffer(k[0])) for k in detect._MOMENTS] == [3, 1]
