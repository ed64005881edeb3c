"""Closed-form split and click statistics: every non-Kerr quantity is a
value or a divided difference of the source's photocount generating
function, checked against the dense split tables of the reference module,
which no production path imports, and against its p_N series summed in
50-digit mpmath."""
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqherald
from sqherald import analysis, cli, detect, optics, reference, registry, sources
from sqherald import fockspace as fs

import oracles


def _dense(r, sign, trunc):
    """The dense split of the source; the odd branch at r = 0 is its limit |2>."""
    if sign is None:
        state = reference.squeezed_vacuum(r, trunc)
    elif sign < 0 and r == 0.0:
        state = oracles.fock_state(2, trunc)
    else:
        state = reference.squeezed_cat(r, sign, trunc)
    return reference.joint_probability(reference.split(state))


P1N = {None: "p1n_squeezed", -1: "p1n_cat_minus", +1: "p1n_cat_plus"}


def _herald_row(r, sign, levels):
    """P(1, n_b) for every n_b < levels from the registered p1n column."""
    n = np.arange(levels, dtype=float)
    return registry.QUANTITIES[P1N[sign]].fn(n=n, r=np.full(levels, float(r)))[0]


def _outcome(fn):
    """The value of fn(), or the type of the zero-probability error it
    raises, so kernel and oracle can be compared in either case."""
    try:
        return fn()
    except ZeroDivisionError as exc:
        return type(exc)


# The dense oracle's cutoffs: few, so that its cached splitter tables stay
# small.  The largest holds every statistic to round-off up to r = 1.6.
DENSE_DIMS = (64, 160, 400, 1000)
# herald-row levels compared: their weights N 2^-N leave nothing past them
ROW_LEVELS = 60


def _dense_cutoff(r):
    """The first dim of DENSE_DIMS past which p_N <= t^N, weighted by N^2
    as g2's second moment weights it, sums to below 1e-18, or the largest
    one; and whether it is that first one."""
    t = math.tanh(r)
    for dim in DENSE_DIMS:
        if t == 0.0 or dim * dim * t**dim / (1.0 - t * t) < 1e-18:
            return reference.Truncation(dim, 0.5), True
    return reference.Truncation(DENSE_DIMS[-1], 0.5), False


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(min_value=0.0, max_value=3.0),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    sign=st.sampled_from([-1, +1, None]),
)
@example(r=0.0, eta=1.0, sign=-1)
@example(r=0.725, eta=1.0, sign=-1)
@example(r=2.0, eta=1.0, sign=None)
@example(r=3.0, eta=1.0, sign=+1)
@example(r=1e-300, eta=0.9, sign=-1)
@example(r=1e-80, eta=0.5625, sign=+1)
@example(r=1e-4, eta=0.05, sign=+1)
@example(r=1.2, eta=0.05, sign=-1)
@example(r=2.0, eta=9.748317765662491e-300, sign=-1)
@example(r=0.5, eta=5e-324, sign=None)
def test_kernels_match_the_dense_split(r, eta, sign):
    # the closed forms face the dense split at a generous cutoff.  P(1,1),
    # P_c, the herald row and p_click_1 weight N 2^-N or less, so any of
    # the cutoffs holds them; p_click weights every level by at most 1, so
    # it is held within the dense table's lost mass; the moments of g2
    # are compared where the cutoff holds them to round-off
    trunc, holds = _dense_cutoff(r)
    dist = _dense(r, sign, trunc)
    # the oracle's amplitudes add k log tanh r in log space, which costs
    # it about |log tanh r| ulps where r is tiny
    rel = 1e-15 * abs(math.log(math.tanh(r))) if r > 0.0 else 0.0
    row = _herald_row(r, sign, ROW_LEVELS)
    dense_row = dist.p[1, :ROW_LEVELS]
    assert np.all(np.abs(row - dense_row) <= 1e-13 + rel * dense_row)
    assert np.all((row >= 0.0) & (row <= 1.0))
    p11 = float(optics.pair_probability(r, sign))
    assert abs(p11 - dist.p[1, 1]) <= 1e-13 + rel * p11
    pc = _outcome(lambda: float(optics.conditional_single(r, sign)))
    dense_pc = _outcome(lambda: reference.single_photon_fraction(dist.p[1]))
    if isinstance(dense_pc, type):
        assert pc is dense_pc
    else:
        assert abs(pc - dense_pc) <= 1e-13 + rel * pc

    # below the smallest normal float a click probability, or the squared
    # mean of g2, has lost its precision in both paths, so the ratios built
    # on it are only range-checked there
    stats = ("p_click", "p_click_1", "p_click_c")
    weighted = reference.click_weights(eta, trunc.dim) @ dist.p
    point = (np.array([r]), np.array([eta]), sign)

    def closed_form():
        p_click, p_click_1 = (float(v[0]) for v in detect.heralded_clicks(*point))
        return dict(zip(stats, (p_click, p_click_1, p_click_1 / p_click)))

    kernel = _outcome(closed_form)
    if float(np.sum(weighted)) < sys.float_info.min:
        assert kernel is detect.ZeroClickError or all(
            0.0 <= kernel[name] <= 1.0 for name in stats
        )
    else:
        oracle = oracles.click_statistics(dist, eta)
        assert abs(kernel["p_click"] - oracle.p_click) <= (
            1e-13 + rel * oracle.p_click + dist.deficit)
        assert abs(kernel["p_click_1"] - oracle.p_click_1) <= 1e-13 + rel * oracle.p_click_1
        if holds:
            assert abs(kernel["p_click_c"] - oracle.p_click_c) <= 1e-13 + rel
        for name in stats:
            assert 0.0 <= kernel[name] <= 1.0

    m1 = float(np.arange(trunc.dim) @ weighted)
    g2 = _outcome(lambda: float(detect.heralded_g2(*point)[0]))
    if m1 * m1 < sys.float_info.min:
        assert isinstance(g2, type) or g2 >= 0.0
    else:
        assert g2 >= 0.0
        if holds:
            g2_oracle = reference.g2_numeric(dist, eta)
            assert abs(g2 - g2_oracle) <= (1e-13 + rel) * max(1.0, g2_oracle)


def _mp_statistics(r, eta, sign):
    """P(1,1), P_c, p_click, p_click_1, p_click_c and g2 of the split source
    from its photon-number series, summed in 50-digit mpmath with the
    binomial click sums of detect's module docstring until the terms fall
    below 1e-60 of the first ones."""
    with mpmath.workdps(50):
        r, eta = mpmath.mpf(r), mpmath.mpf(eta)
        t2, ch, x = mpmath.tanh(r) ** 2, mpmath.cosh(r), 1 - eta

        def phi(m):
            return m if x == 0 else ((1 + x) ** m - 1) / x

        if sign is None:
            norm = 1
        elif r == 0:
            norm = None  # the odd branch's limit |2>
        else:
            norm = 2 * (1 + sign / mpmath.sqrt(mpmath.cosh(2 * r)))
        p11 = total = click = single = m1 = m2 = mpmath.mpf(0)
        coefficient, k = 1 / ch, 0  # C(2k, k) (t^2/4)^k / cosh r
        while True:
            n = 2 * k
            if norm is None:
                p = 1 if k == 1 else 0
            elif sign is None:
                p = coefficient
            else:
                p = coefficient * 2 * (1 + sign * (-1) ** k) / norm
            if k == 1:
                p11 = p / 2
            half = mpmath.mpf(2) ** -n
            total += p * n * half
            click += p * eta * half * phi(n)
            if n >= 2:
                single += p * eta * x ** (n - 2) * n * half
                m1 += p * eta * half * n * phi(n - 1)
                m2 += p * eta * half * n * (n - 1) * phi(n - 2)
            if k > 2 and coefficient * (n + 1) ** 2 * (1 + x) ** n * half < 1e-60 * (click + 1e-300):
                break
            coefficient *= t2 * (2 * k + 1) / (2 * k + 2)
            k += 1
        return [float(v) for v in (p11, p11 / total, click, single, single / click,
                                   m2 / m1**2)]


def _mp_herald_row(r, sign, count):
    """P(1, n) = (n + 1) 2^-(n+1) p_(n+1) for n < count in 50-digit mpmath,
    p_2k from the recurrence p_(2k+2)/p_2k = t^2 (2k+1)/(2k+2)."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        t2 = mpmath.tanh(r) ** 2
        norm = 1 if sign is None else (1 + sign / mpmath.sqrt(mpmath.cosh(2 * r))) / 2
        out, coefficient = [], 1 / mpmath.cosh(r)  # C(2k, k) (t^2/4)^k / cosh r
        for k in range(count // 2 + 1):
            if k > 0:
                p = coefficient * (1 if sign is None else (1 + sign * (-1) ** k) / 2) / norm
                out += [float(2 * k * mpmath.mpf(2) ** (-2 * k) * p), 0.0]
            coefficient *= t2 * (2 * k + 1) / (2 * k + 2)
        return np.array(([0.0] + out)[:count])


# a double t^2 is off by up to half an ulp, which p_2k's power t^(2(k-1))
# multiplies by k - 1; where numpy's long double is wider, the power keeps
# the herald row near round-off
HERALD_ROW_REL = 2e-15 if np.finfo(np.longdouble).eps < np.finfo(float).eps else 2e-14


@pytest.mark.parametrize("sign", [None, -1, +1])
def test_herald_row_matches_50_digit_series_at_every_total(sign):
    # every n with a nonzero coefficient, out to optics.HERALD_ROW_TOTALS,
    # wherever the value is a normal float: its error does not grow with n
    count = optics.HERALD_ROW_TOTALS - 1
    for r in (0.01, 0.725, 2.0, 3.0):
        got, want = _herald_row(r, sign, count), _mp_herald_row(r, sign, count)
        normal = want >= sys.float_info.min
        assert np.count_nonzero(normal) > 30
        assert np.all(np.abs(got - want)[normal] <= HERALD_ROW_REL * want[normal]), r
        assert np.all(got[~normal] < sys.float_info.min), r


SPOT_POINTS = [
    (0.0, 0.9, -1), (1e-8, 0.9, -1), (1e-8, 0.9, None), (1e-3, 0.5, +1), (0.725, 0.9, -1),
    (0.725, 1.0, None), (1.146, 0.0625, +1), (2.0, 1e-300, -1), (2.0, 0.0625, -1),
    (2.5, 0.7, -1), (3.0, 1.0, -1), (3.0, 0.0625, None),
]


@pytest.mark.parametrize("r, eta, sign", SPOT_POINTS)
def test_closed_forms_match_50_digit_series(r, eta, sign):
    point = np.array([r]), np.array([eta]), sign
    p_click, p_click_1 = (float(v[0]) for v in detect.heralded_clicks(*point))
    got = [float(optics.pair_probability(r, sign)), float(optics.conditional_single(r, sign)),
           p_click, p_click_1, p_click_1 / p_click]
    want = _mp_statistics(r, eta, sign)
    if eta > 1e-150:
        got.append(float(detect.heralded_g2(*point)[0]))
    for name, a, b in zip(("P(1,1)", "P_c", "p_click", "p_click_1", "p_click_c", "g2"),
                          got, want):
        assert abs(a - b) <= 1e-13 * abs(b), (name, a, b)


# Faults of the truncated p_N path: each exited 2 (the dim versus 1.5 dim
# gate) or 3 (no default cutoff above r = 2).
FAULTS = [
    ("pclick_cat_minus", ("--lo", "2", "--hi", "2", "--points", "1", "--set", "eta=0.0625"), 2),
    ("pclickc_cat_minus", ("--lo", "1.1", "--hi", "1.2", "--points", "2", "--set", "eta=0.05"), 4),
    ("g2_cat_minus", ("--lo", "1.2", "--hi", "1.2", "--points", "1", "--set", "eta=0.05"), 5),
    ("p11_cat_minus", ("--lo", "2.5", "--hi", "3", "--points", "2"), 0),
]


@pytest.mark.parametrize("quantity, argv, stat", FAULTS, ids=[f[0] for f in FAULTS])
def test_former_cutoff_faults_match_50_digit_series(capsys, quantity, argv, stat):
    code = cli.main(["sweep", "--quantity", quantity, "--var", "r", *argv])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK, err
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == f"r,{quantity}"
    eta = next((float(a[len("eta="):]) for a in argv if a.startswith("eta=")), 0.9)
    for line in lines[1:]:
        r, value = map(float, line.split(","))
        want = _mp_statistics(r, eta, -1)[stat]
        assert abs(value - want) <= 1e-12 * abs(want), (r, value, want)


def test_photon_numbers_keep_the_tail_checks_and_the_odd_limit():
    # the pair amplitudes behind the Kerr series and the oracles keep their
    # tail checks; the closed forms keep the odd branch's r -> 0 limit |2>,
    # whose split gives P(1,1) = P(n_a = 1) = 1/2
    mag = reference.pair_amplitudes(np.array([0.725]), -1, reference.Truncation(64))
    assert abs(float(np.sum(mag[0] ** 2)) - 1.0) <= 1e-12
    for sign in (-1, +1, None):
        with pytest.raises(fs.TruncationError):
            reference.pair_amplitudes(np.array([1.5]), sign, reference.Truncation(16))
    with pytest.raises(fs.TruncationError):
        sources.odd_branch_weights(np.array([1.5]), fs.CutoffColumn((16,), 1e-3))
    row = _herald_row(0.0, -1, 8)
    np.testing.assert_allclose(row, np.eye(8)[1] / 2.0, rtol=1e-15, atol=0.0)
    assert optics.pair_probability(0.0, -1) == 0.5
    assert optics.conditional_single(0.0, -1) == 1.0
    value = analysis.evaluate("p1n_cat_minus", {"n": 1.0, "r": 0.0}).values[0]
    assert value == pytest.approx(0.5, rel=1e-15)


def test_pair_factor_is_half_of_p2():
    for r in (0.0, 0.05, 0.725, 1.146, 2.0, 3.0):
        pair = float(optics.pair_probability(r, -1))
        row = analysis.evaluate("p1n_cat_minus", {"n": 1.0, "r": r}).values[0]
        assert abs(row - pair) <= 1e-15 * pair
        # closed form: P(1,1; odd) = c (c + 1) / (4 cosh^3 r), c = sqrt(cosh 2r),
        # which is tanh^2 r / (cosh r N_-(r)) away from r = 0
        if r > 0.0:
            exact = math.tanh(r) ** 2 / (math.cosh(r) * sources.cat_norm(r, -1))
            assert abs(pair - exact) <= 1e-14
        # the Kerr pair probability carries it as its factor on p0
        point = {"tau_tilde": 1.0, "r": max(r, 0.05), "alpha": 10.0}
        p0 = analysis.evaluate("p0_cat_minus", point).values[0]
        p1 = analysis.evaluate("p1_cat_minus", point).values[0]
        assert p1 == p0 * optics.pair_probability(max(r, 0.05), -1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
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
        trunc = reference.default_truncation(r)
        dense = float(reference.tmss_joint_probability(r, trunc).p[1, 1])
        assert abs(sources.tmss_p11(r) - dense) <= 1e-15
    with pytest.raises(fs.TruncationError):
        reference.tmss_joint_probability(2.0, reference.Truncation(16))
    with pytest.raises(ValueError):
        sources.tmss_p11(3.5)


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


def test_tables_build_no_photon_number_rows(monkeypatch):
    # no figure builds the oracles' pair amplitudes: the Kerr ones take
    # their weight rows in closed form, and the ten non-Kerr figures are
    # closed forms end to end, each recording no cutoff
    def refuse(*args, **kwargs):
        raise AssertionError("pair amplitudes built")

    monkeypatch.setattr(reference, "pair_amplitudes", refuse)
    for name in registry.FIGURES:
        table = registry.figure(name).build()
        assert np.all(np.isfinite(table.rows)), name
        if name in NON_KERR_FIGURES:
            assert table.metadata["dims"] == "analytic" and table.metadata["max_move"] == 0.0
