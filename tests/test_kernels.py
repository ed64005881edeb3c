"""Photon-number kernels: every non-Kerr quantity is a contraction over the
source distribution p_N, checked against the dense split tables that stay
as the oracle."""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqherald import detect, kerr, optics, registry, sources
from sqherald import fockspace as fs
from sqherald.detect import DetectorModel

NON_KERR_FIGURES = (
    "fig2", "fig3a", "fig3b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
)


def _dense(r, sign, trunc):
    if sign is None:
        state = sources.squeezed_vacuum(r, trunc)
    else:
        state = sources.squeezed_cat(r, sign, trunc)
    return optics.joint_probability(optics.split(state))


def _outcome(fn):
    """The value of fn(), or the type of the zero-probability error it
    raises, so kernel and oracle can be compared in either case."""
    try:
        return fn()
    except ZeroDivisionError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    sign=st.sampled_from([-1, +1, None]),
)
@example(r=0.725, eta=1.0, sign=-1)
@example(r=2.0, eta=1.0, sign=None)
@example(r=1e-300, eta=0.9, sign=-1)
@example(r=1e-80, eta=0.5625, sign=+1)
def test_kernels_match_the_dense_split(r, eta, sign):
    trunc = fs.default_truncation(r)
    det = DetectorModel(eta)
    dist = _dense(r, sign, trunc)

    row = optics.herald_row(r, sign, trunc)
    assert np.max(np.abs(row - dist.p[1])) <= 1e-13
    assert np.all((row >= 0.0) & (row <= 1.0))

    # below the smallest normal float a click probability, or the squared
    # mean of g2, has lost its precision in both paths, so the ratios built
    # on it are only range-checked there
    stats = ("p_click", "p_click_1", "p_click_c")
    w = det.click_weights(trunc.dim)
    kernel_row = optics.weighted_row(r, sign, trunc, w)
    weighted = w @ dist.p
    kernel = _outcome(lambda: detect._statistics(kernel_row))
    if float(np.sum(weighted)) < sys.float_info.min:
        assert kernel is detect.ZeroClickError or all(
            0.0 <= getattr(kernel, name) <= 1.0 for name in stats
        )
    else:
        oracle = detect.click_statistics(dist, det)
        for name in stats:
            value = getattr(kernel, name)
            assert abs(value - getattr(oracle, name)) <= 1e-13
            assert 0.0 <= value <= 1.0
        gap = np.abs(kernel.conditional_photon_dist - oracle.conditional_photon_dist)
        assert np.max(gap) <= 1e-13

    g2 = _outcome(lambda: detect._g2_subnormalized(kernel_row))
    m1 = float(np.arange(trunc.dim) @ weighted)
    if m1 * m1 < sys.float_info.min:
        assert isinstance(g2, type) or g2 >= 0.0
    else:
        g2_oracle = detect._g2_subnormalized(weighted)
        assert g2 >= 0.0
        assert abs(g2 - g2_oracle) <= 1e-13 * max(1.0, g2_oracle)


def test_photon_numbers_are_cached_and_read_only():
    trunc = fs.Truncation(64)
    p = optics.photon_numbers(0.725, -1, trunc)
    assert optics.photon_numbers(0.725, -1, trunc) is p
    assert not p.flags.writeable
    assert abs(float(np.sum(p)) - 1.0) <= 1e-12
    assert np.all(p[np.arange(64) % 4 != 2] == 0.0)
    assert optics.photon_numbers.cache_info().maxsize is not None


def test_photon_numbers_keep_the_tail_checks_and_the_odd_limit():
    for sign in (-1, +1, None):
        with pytest.raises(fs.TruncationError):
            optics.photon_numbers(1.5, sign, fs.Truncation(16))
    two = optics.photon_numbers(0.0, -1, fs.Truncation(8))
    assert np.array_equal(two, np.eye(8)[2])
    assert optics.herald_row(0.0, -1, fs.Truncation(8))[1] == 0.5


def test_pair_factor_is_half_of_p2():
    for r in (0.05, 0.725, 1.146, 2.0):
        trunc = fs.default_truncation(r)
        p2 = optics.photon_numbers(r, -1, trunc)[2]
        assert optics.herald_row(r, -1, trunc)[1] == p2 / 2.0
        # closed form: P(1,1; odd) = tanh^2 r / (cosh r N_-(r))
        exact = math.tanh(r) ** 2 / (math.cosh(r) * sources.cat_norm(r, -1))
        assert abs(p2 / 2.0 - exact) <= 1e-14


def test_tmss_p11_matches_the_dense_benchmark():
    for r in (0.0, 0.004, 0.881, 2.0):
        trunc = fs.default_truncation(r)
        dense = float(optics.tmss_joint_probability(r, trunc).p[1, 1])
        assert abs(sources.tmss_p11(r, trunc) - dense) <= 1e-15
    with pytest.raises(fs.TruncationError):
        sources.tmss_p11(2.0, fs.Truncation(16))
    with pytest.raises(ValueError):
        sources.tmss_p11(3.5, fs.Truncation(16))


def test_no_production_quantity_builds_a_dense_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense oracle reached from production")

    monkeypatch.setattr(optics, "split", refuse)
    monkeypatch.setattr(optics, "joint_probability", refuse)
    monkeypatch.setattr(sources, "two_mode_squeezed_vacuum", refuse)
    optics.photon_numbers.cache_clear()
    for name in NON_KERR_FIGURES:
        table = registry.figure(name).build()
        assert np.all(np.isfinite(table.rows))
    sched = kerr.KerrSchedule(math.pi, 10.0)
    assert kerr.p1_heralded(sched, 1.146) > 0.0
