"""Photon-number kernels: every non-Kerr quantity is a contraction over the
source distribution p_N, checked against the dense split tables of the
reference module, which no production path imports."""
import collections
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqherald
from sqherald import analysis, detect, optics, reference, registry, sources
from sqherald import fockspace as fs
from sqherald.detect import DetectorModel

def _dense(r, sign, trunc):
    if sign is None:
        state = reference.squeezed_vacuum(r, trunc)
    else:
        state = reference.squeezed_cat(r, sign, trunc)
    return reference.joint_probability(reference.split(state))


P1N = {None: "p1n_squeezed", -1: "p1n_cat_minus", +1: "p1n_cat_plus"}


def _herald_row(r, sign, trunc):
    """P(1, n_b) for every n_b < dim from the registered p1n column at
    trunc; its last entry, total dim, lies beyond the cutoff."""
    n = np.arange(trunc.dim, dtype=float)
    return registry.QUANTITIES[P1N[sign]].fn(trunc, n=n, r=np.full(trunc.dim, float(r)))[0]


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
@example(r=2.0, eta=9.748317765662491e-300, sign=-1)
def test_kernels_match_the_dense_split(r, eta, sign):
    trunc = fs.default_truncation(r)
    det = DetectorModel(eta)
    dist = _dense(r, sign, trunc)

    row = _herald_row(r, sign, trunc)
    assert np.max(np.abs(row - dist.p[1])) <= 1e-13
    assert np.all((row >= 0.0) & (row <= 1.0))

    # below the smallest normal float a click probability, or the squared
    # mean of g2, has lost its precision in both paths, so the ratios built
    # on it are only range-checked there.  The binomial closed forms of
    # detect.heralded_clicks and detect.heralded_g2 face the dense table.
    stats = ("p_click", "p_click_1", "p_click_c")
    weighted = reference.click_weights(eta, trunc.dim) @ dist.p
    point = (np.array([r]), np.array([eta]), trunc)

    def binomial():
        p_click, p_click_1 = (float(v[0, 0]) for v in detect.heralded_clicks(*point, sign=sign))
        return dict(zip(stats, (p_click, p_click_1, p_click_1 / p_click)))

    kernel = _outcome(binomial)
    if float(np.sum(weighted)) < sys.float_info.min:
        assert kernel is detect.ZeroClickError or all(
            0.0 <= kernel[name] <= 1.0 for name in stats
        )
    else:
        oracle = reference.click_statistics(dist, det)
        for name in stats:
            value = kernel[name]
            assert abs(value - getattr(oracle, name)) <= 1e-13
            assert 0.0 <= value <= 1.0

    m1 = float(np.arange(trunc.dim) @ weighted)
    g2 = _outcome(lambda: float(detect.heralded_g2(*point, sign=sign)[0, 0]))
    if m1 * m1 < sys.float_info.min:
        assert isinstance(g2, type) or g2 >= 0.0
    else:
        g2_oracle = reference._g2_subnormalized(weighted)
        assert g2 >= 0.0
        assert abs(g2 - g2_oracle) <= 1e-13 * max(1.0, g2_oracle)


def test_photon_numbers_keep_the_tail_checks_and_the_odd_limit():
    p = optics.photon_number_rows(np.array([0.725]), -1, fs.Truncation(64))[0][0]
    assert abs(float(np.sum(p)) - 1.0) <= 1e-12
    assert np.all(p[np.arange(64) % 4 != 2] == 0.0)
    for sign in (-1, +1, None):
        with pytest.raises(fs.TruncationError):
            optics.photon_number_rows(np.array([1.5]), sign, fs.Truncation(16))
    two = optics.photon_number_rows(np.array([0.0]), -1, fs.Truncation(8))[0][0]
    assert np.array_equal(two, np.eye(8)[2])
    assert analysis.evaluate("p1n_cat_minus", {"n": 1.0, "r": 0.0}, dim=8).values[0] == 0.5


def test_pair_factor_is_half_of_p2():
    for r in (0.05, 0.725, 1.146, 2.0):
        trunc = fs.default_truncation(r)
        p2 = optics.photon_number_rows(np.array([r]), -1, trunc)[0][0, 2]
        assert analysis.evaluate("p1n_cat_minus", {"n": 1.0, "r": r}).values[0] == p2 / 2.0
        # closed form: P(1,1; odd) = tanh^2 r / (cosh r N_-(r))
        exact = math.tanh(r) ** 2 / (math.cosh(r) * sources.cat_norm(r, -1))
        assert abs(p2 / 2.0 - exact) <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    n=st.lists(st.integers(min_value=0, max_value=62), min_size=1, max_size=8),
)
def test_parity_selection_holds_on_the_herald_rows(r, n):
    # the odd superposition populates the totals 2, 6, 10, ..., the even
    # one 0, 4, 8, ... and squeezed vacuum every even total, so P(1, n)
    # with total n + 1 is exactly 0 off n = 1 (mod 4), n = 3 (mod 4) and
    # odd n respectively
    n = np.array(n, dtype=float)
    for name, allowed in (("p1n_cat_minus", n % 4 == 1), ("p1n_cat_plus", n % 4 == 3),
                          ("p1n_squeezed", n % 2 == 1)):
        values = analysis.evaluate(name, {"n": n, "r": r}).values
        assert np.all(values[~allowed] == 0.0), name
        assert np.all((values >= 0.0) & (values <= 1.0)), name


def test_tmss_p11_matches_the_dense_benchmark():
    for r in (0.0, 0.004, 0.881, 2.0):
        trunc = fs.default_truncation(r)
        dense = float(reference.tmss_joint_probability(r, trunc).p[1, 1])
        assert abs(sources.tmss_p11(r, trunc) - dense) <= 1e-15
    with pytest.raises(fs.TruncationError):
        sources.tmss_p11(2.0, fs.Truncation(16))
    with pytest.raises(ValueError):
        sources.tmss_p11(3.5, fs.Truncation(16))


NON_KERR_FIGURES = (
    "fig2", "fig3a", "fig3b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
)


def test_no_production_quantity_builds_a_dense_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense oracle reached from production")

    monkeypatch.setattr(reference, "split", refuse)
    monkeypatch.setattr(reference, "joint_probability", refuse)
    monkeypatch.setattr(reference, "two_mode_squeezed_vacuum", refuse)
    for name in NON_KERR_FIGURES:
        table = registry.figure(name).build()
        assert np.all(np.isfinite(table.rows))
    point = {"tau_tilde": math.pi, "r": 1.146, "alpha": 10.0}
    assert analysis.evaluate("p1_cat_minus", point).values[0] > 0.0


REFERENCE_FREE_RUN = """
import math, sys
import numpy as np
sys.modules["sqherald.reference"] = None
import sqherald
from sqherald import analysis, registry
for name in registry.FIGURES:
    if name != "fig5b":
        assert np.all(np.isfinite(registry.figure(name).build().rows)), name
spec = analysis.SweepSpec("r", *registry.R_GRID_SURFACE, {"alpha": 10.0, "sigma": 0.004})
column = analysis.sweep(spec, "phase_ratio").rows[:, 1]
assert np.all((column > 0.0) & (column < 1.0))
point = {"tau_tilde": math.pi, "r": 1.146, "alpha": 10.0}
assert analysis.evaluate("p1_cat_minus", point).values[0] > 0.0
"""


def test_production_never_imports_the_reference_module():
    # with every import of sqherald.reference refused, the package, every
    # figure (fig5b's path is the phase_ratio column's), a phase-noise
    # column and the Kerr pair probability still run: no production path
    # reaches a dense table, a dense click statistic or the Gauss-Hermite
    # ladder
    src = str(Path(sqherald.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", REFERENCE_FREE_RUN], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_fig7a_groups_its_evaluations_by_cutoff(monkeypatch):
    calls = collections.Counter()
    for name, q in list(registry.QUANTITIES.items()):
        def counted(*cutoffs, _fn=q.fn, _name=name, **params):
            calls[_name] += 1
            return _fn(*cutoffs, **params)

        monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=counted))

    kernel_cutoffs = []
    clicks = detect.heralded_clicks

    def counted_clicks(r, eta, *cutoffs):
        kernel_cutoffs.append(cutoffs)
        return clicks(r, eta, *cutoffs)

    monkeypatch.setattr(detect, "heralded_clicks", counted_clicks)
    # one call per quantity; the click kernel runs once per cutoff of its r
    # grid, with that cutoff and its 1.5x recheck together
    table = registry.figure("fig7a").build()
    rs = np.linspace(*registry.R_GRID_SURFACE)
    for name in table.columns[2:]:
        assert calls[name] == 1
    cutoffs = [registry.truncation("matrix", float(r)) for r in rs]
    assert len(set(cutoffs)) == 2
    expected = [(base, base.scaled(1.5)) for base in dict.fromkeys(cutoffs)]
    assert kernel_cutoffs == expected
