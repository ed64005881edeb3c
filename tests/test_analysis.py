"""Unit tests for sweeps, maximization and crossing search."""

import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from sqherald import analysis, detect, kerr, registry, sources, verification
from sqherald import fockspace as fs


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        analysis.SweepSpec("r", 0.1, 0.5, 0)
    with pytest.raises(ValueError):
        analysis.SweepSpec("r", 0.5, 0.1, 5)
    with pytest.raises(ValueError):
        analysis.SweepSpec("r", 0.5, 0.5, 5)
    single = analysis.SweepSpec("r", 0.5, 0.5, 1)
    assert np.array_equal(single.grid(), np.array([0.5]))
    spec = analysis.SweepSpec("r", 0.0, 1.0, 11)
    grid = spec.grid()
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert len(grid) == 11


def test_sweep_values_and_columns():
    spec = analysis.SweepSpec("r", 0.2, 1.0, 5)
    result = analysis.sweep(spec, "herald_prob_cat_minus")
    assert result.columns == ("r", "herald_prob_cat_minus")
    expected = [sources.herald_probability(float(r), -1) for r in spec.grid()]
    assert np.max(np.abs(result.column("herald_prob_cat_minus") - expected)) == 0.0
    assert result.metadata["dims"] == "analytic"


def test_sweep_is_deterministic():
    spec = analysis.SweepSpec("r", 0.1, 0.9, 7)
    a = analysis.sweep(spec, "p11_cat_minus")
    b = analysis.sweep(spec, "p11_cat_minus")
    assert np.array_equal(a.rows, b.rows)
    assert a.metadata == b.metadata


def test_single_point_sweep_matches_direct_call():
    spec = analysis.SweepSpec("r", 0.725, 0.725, 1)
    result = analysis.sweep(spec, "p11_cat_minus")
    q = registry.resolve("p11_cat_minus")
    direct = q.fn(r=np.array([0.725]))[0, 0]
    assert result.rows[0, 1] == direct


def test_two_dimensional_sweep_shape_and_order():
    spec_r = analysis.SweepSpec("r", 0.3, 0.7, 3)
    spec_eta = analysis.SweepSpec("eta", 0.8, 1.0, 2)
    result = analysis.sweep(spec_r, "pclickc_tmss", second=spec_eta)
    assert result.columns == ("r", "eta", "pclickc_tmss")
    assert result.rows.shape == (6, 3)
    rs = result.column("r")
    assert np.array_equal(rs, np.repeat(spec_r.grid(), 2))
    etas = result.column("eta")
    assert np.array_equal(etas, np.tile(spec_eta.grid(), 3))


def test_sweep_rejects_unknown_quantity():
    with pytest.raises(KeyError):
        analysis.sweep(analysis.SweepSpec("r", 0.1, 0.5, 3), "does_not_exist")


def test_registry_rejects_unknown_name_with_listing():
    with pytest.raises(KeyError) as err:
        registry.resolve("p11")
    assert "p11_cat_minus" in err.value.args[0]


def test_convergence_check_flags_unstable_cutoff():
    # the odd-branch projection leaks tail mass at dim 8, so it moves
    # between dim and 1.5 dim; a loose tail_tol lets the states build
    spec = analysis.SweepSpec("r", 1.2, 1.2, 1)
    with pytest.raises(analysis.ConvergenceError) as err:
        analysis.sweep(spec, "p0_cat_minus", dim=8, tail_tol=0.9)
    message = str(err.value)
    assert "p0_cat_minus" in message and "dim 8" in message and "r" in message


def test_convergence_check_rejects_nan():
    # NaN compares False against the tolerance, so the gate must test it
    quantity = registry.Quantity(
        "nan_quantity", "NaN everywhere",
        lambda *cutoffs, r: np.full((len(cutoffs), len(r)), math.nan), ("r",), {},
        cutoff=kerr.series_cutoffs,
    )
    spec = analysis.SweepSpec("r", 0.5, 0.5, 1)
    with pytest.raises(fs.NumericalFailureError) as err:
        analysis.sweep(spec, quantity, dim=8)
    assert "nan_quantity" in str(err.value)


def test_convergence_check_passes_cutoff_independent_quantity():
    # P(1,1) is set entirely by the exact total-2 block, so even dim 8 is
    # convergent for it
    spec = analysis.SweepSpec("r", 1.2, 1.2, 1)
    result = analysis.sweep(spec, "p11_cat_minus", dim=8, tail_tol=0.9)
    assert result.rows.shape == (1, 2)


# r = 0.5 and r = 1.5 take different series cutoffs
POLICY_RS = (0.5, 1.5)
DOCUMENTED_TAIL_TOL = 1e-9
KERR_QUANTITIES = {"p0_cat_minus", "p1_cat_minus", "phase_ratio"}


def test_cutoff_kinds_are_analytic_and_series():
    # only the Kerr quantities carry a cutoff policy, the label series';
    # every other one is a closed form, with none.  verify's dense oracles
    # take their cutoffs from reference, not from the registry
    for name, q in registry.QUANTITIES.items():
        assert q.cutoff is (kerr.series_cutoffs if name in KERR_QUANTITIES else None), name
    assert kerr.series_cutoffs([0.5]).tail_tol == DOCUMENTED_TAIL_TOL


def test_analysis_names_the_registry_only_to_resolve_names():
    # the cutoff policy travels with each Quantity, so analysis reaches
    # the registry only to look a registered name up
    def owners(node, owner=None):
        # (top-level function, line) of every name or import of registry
        for child in ast.iter_child_nodes(node):
            names = [child.id] if isinstance(child, ast.Name) else []
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [getattr(child, "module", None) or ""] + [a.name for a in child.names]
            if any(name.split(".")[-1] == "registry" for name in names):
                yield owner, child.lineno
            inner = child.name if owner is None and isinstance(child, ast.FunctionDef) else owner
            yield from owners(child, inner)

    found = list(owners(ast.parse(inspect.getsource(analysis))))
    assert found and {owner for owner, _ in found} == {"_resolve"}, found


@pytest.mark.parametrize("dim, tail_tol", [(None, None), (400, None), (None, 1e-6), (400, 1e-6)])
@pytest.mark.parametrize("name", sorted(registry.QUANTITIES))
def test_every_quantity_runs_at_the_one_cutoff_policy(monkeypatch, name, dim, tail_tol):
    q = registry.QUANTITIES[name]
    seen = []

    def spy(*cutoffs, **params):
        seen.append(cutoffs)
        return q.fn(*cutoffs, **params)

    monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=spy))
    fixed = {var: value for var, value in (("sigma", 1e-3), ("n", 1.0)) if var in q.variables}
    spec = analysis.SweepSpec("r", *POLICY_RS, 2, fixed)
    analysis.sweep(spec, name, dim=dim, tail_tol=tail_tol)
    if q.cutoff is None:
        # a closed form runs once, with no cutoff
        assert seen == [()]
        return
    expected = [q.cutoff([r], dim, tail_tol) for r in POLICY_RS]
    # one call, each point at its own cutoff and at its own 1.5x recheck
    ((column, recheck),) = seen
    assert column.dims.tolist() == [int(c.dims[0]) for c in expected]
    assert recheck.dims.tolist() == [int(c.scaled(1.5).dims[0]) for c in expected]
    assert column.tail_tol == recheck.tail_tol == expected[0].tail_tol
    # an override replaces only its own half of the documented default
    for r, cutoff in zip(POLICY_RS, expected):
        assert cutoff.dims[0] == (kerr.series_cutoffs([r]).dims[0] if dim is None else dim)
        assert cutoff.tail_tol == (DOCUMENTED_TAIL_TOL if tail_tol is None else tail_tol)
    if dim is None:
        assert column.dims[0] < column.dims[1]


def _outcome(fn):
    """The value of fn(), or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # compared by type against the other path
        return type(exc)


@st.composite
def _columns(draw, name):
    """Parameter columns for a quantity: r on both sides of the r = 1.2
    boundary between the matrix cutoffs 64 and 160, in drawn order, and
    eta, tau_tilde, sigma and n where the quantity takes them."""
    slow = name == "phase_ratio"
    low = draw(st.lists(st.floats(0.0, 1.2), min_size=1, max_size=2 if slow else 3))
    high = draw(st.lists(st.floats(1.2, 2.0, exclude_min=True), min_size=1,
                         max_size=1 if slow else 3))
    rs = draw(st.permutations(low + high))
    size = len(rs)
    columns = {"r": np.array(rs)}
    q = registry.QUANTITIES[name]
    others = {
        "eta": st.floats(0.0, 1.0, exclude_min=True),
        "tau_tilde": st.floats(0.0, 2.0 * math.pi),
        "sigma": st.floats(0.0, 1e-3),
        "n": st.integers(0, 70).map(float),
    }
    for var, values in others.items():
        if var in q.variables:
            columns[var] = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    return columns


@pytest.mark.parametrize("name", sorted(registry.QUANTITIES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_grouped_evaluation_matches_scalar_calls(name, data):
    # one grouped call per cutoff against one evaluation per point with
    # floats, which calls the same quantity function on one-point arrays
    q = registry.QUANTITIES[name]
    columns = data.draw(_columns(name))
    grouped = _outcome(lambda: analysis.evaluate(q, {**q.defaults, **columns})[0])
    scalars = [
        _outcome(lambda i=i: analysis.evaluate(
            q, {**q.defaults, **{k: float(v[i]) for k, v in columns.items()}})[0][0])
        for i in range(len(columns["r"]))
    ]
    if isinstance(grouped, type):
        assert grouped in scalars
        return
    for value, scalar in zip(grouped, scalars):
        assert not isinstance(scalar, type), scalar
        assert abs(value - scalar) <= 1e-13 * abs(scalar)


def test_every_quantity_takes_equal_length_float_columns(monkeypatch):
    # the one calling convention of Quantity.fn: every parameter other
    # than the cutoffs is a 1-D float array, all of one length, and every
    # cutoff is None (analytic quantities, alone) or a CutoffColumn with
    # one dim per point; verify reports a criterion's exception as a
    # failure, so the spy records what it saw instead of raising
    seen, bad = set(), []
    for name, q in list(registry.QUANTITIES.items()):
        def spy(*cutoffs, _fn=q.fn, _name=name, **params):
            seen.add(_name)
            columns = list(params.values())
            if not all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == float
                       for v in columns) or len({len(v) for v in columns}) != 1:
                bad.append((_name, params))
            elif cutoffs != (None,) and not all(
                isinstance(c, fs.CutoffColumn) and len(c.dims) == len(columns[0])
                for c in cutoffs
            ):
                bad.append((_name, cutoffs))
            return _fn(*cutoffs, **params)

        monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=spy))
    for name in registry.FIGURES:
        if name != "fig5b":
            registry.figure(name).build()
    analysis.sweep(analysis.SweepSpec("sigma", 0.0, 0.004, 3), "phase_ratio")
    verification.run_all()
    # every quantity but the two that no figure or criterion uses was seen
    assert seen == set(registry.QUANTITIES) - {"herald_prob_cat_minus", "pclick1_yield_cat_minus"}
    assert bad == []


PROBABILITIES = (
    "p11_cat_minus", "p11_cat_plus", "p11_squeezed", "p11_tmss",
    "herald_prob_cat_minus", "herald_yield_cat_minus",
    "pclick_cat_minus", "pclick1_cat_minus", "pclickc_cat_minus", "pclick1_yield_cat_minus",
    "pclick_tmss", "pclick1_tmss", "pclickc_tmss",
)
# a cutoff at which every click statistic passes the convergence gate for
# r <= 2 at any efficiency
WIDE_DIM = 480


def _probabilities(columns, dim=None):
    values = {}
    for name in PROBABILITIES:
        q = registry.QUANTITIES[name]
        values[name] = analysis.evaluate(q, {k: columns[k] for k in q.variables}, dim).values
    return values


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_probabilities_keep_their_invariants_across_the_domain(data):
    # r and eta columns over the default cutoff's domain r in [0, 2] and
    # eta in (0, 1], through analysis.evaluate; the Kerr probabilities over
    # their own domain r in (0, 3] and tau_tilde in [0, 2pi]
    size = data.draw(st.integers(1, 4))

    def column(values):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

    columns = {"r": column(st.floats(0.0, 2.0)), "eta": column(st.floats(0.0, 1.0, exclude_min=True))}
    try:
        try:
            values = _probabilities(columns)
        except analysis.ConvergenceError:
            # the default cutoff follows r alone, so at small eta the
            # click statistics near r = 2 miss the gate; check the same
            # draw at a cutoff that passes it
            event("default cutoff refused")
            values = _probabilities(columns, WIDE_DIM)
    except detect.ZeroClickError:
        reject()
    for name, value in values.items():
        assert np.all((value >= 0.0) & (value <= 1.0)), (name, columns, value)
    for source in ("cat_minus", "tmss"):
        p_click, p_click_1, p_click_c = (
            values[f"{stat}_{source}"] for stat in ("pclick", "pclick1", "pclickc")
        )
        # the benchmark's closed forms keep p_click_c where p_click has
        # underflowed; the ratio has lost its digits there
        normal = p_click >= fs.TINY
        ratio = p_click_1[normal] / p_click[normal]
        assert np.all(np.abs(p_click_c[normal] - ratio) <= 1e-13 * ratio), (source, columns)

    kerr_columns = {
        "r": column(st.floats(0.0, fs.SQUEEZE_LIMIT, exclude_min=True)),
        "tau_tilde": column(st.floats(0.0, 2.0 * math.pi)),
    }
    for name in ("p0_cat_minus", "p1_cat_minus"):
        q = registry.QUANTITIES[name]
        value = analysis.evaluate(q, {**q.defaults, **kerr_columns}).values
        assert np.all((value >= 0.0) & (value <= 1.0)), (name, kerr_columns, value)


def test_evaluate_names_the_first_unconverged_point():
    # above r = 0.5 each point reads its own series dim, so r = 1.5 and
    # r = 0.7 both move with the cutoff; the error names the first point in
    # order that moves, with its own two dims
    quantity = registry.Quantity(
        "drifting", "each point's dim above r = 0.5",
        lambda *cutoffs, r: np.array([np.where(r > 0.5, np.array(c.dims, dtype=float), 0.0)
                                      for c in cutoffs]),
        ("r",), {}, cutoff=kerr.series_cutoffs,
    )
    with pytest.raises(analysis.ConvergenceError) as err:
        analysis.evaluate(quantity, {"r": np.array([0.2, 1.5, 0.7])})
    dim, below = kerr.series_cutoffs([1.5, 0.7]).dims.tolist()
    assert dim > below
    assert f"between dim {dim} and dim {math.ceil(1.5 * dim)} at {{'r': 1.5}}" in str(err.value)


def test_evaluate_rejects_r_outside_the_squeezing_domain():
    calls = []
    quantity = registry.Quantity(
        "spy", "records its calls", lambda r: calls.append(r) or [r], ("r",), {},
    )
    for bad in (-1e-3, 3.0 + 1e-9, math.nan):
        with pytest.raises(ValueError) as err:
            analysis.evaluate(quantity, {"r": np.array([0.5, bad])})
        assert "r must lie in [0, 3.0]" in str(err.value)
    assert calls == []


def test_maximize_yield_benchmark():
    result = analysis.maximize_1d("herald_yield_cat_minus", 0.0, 2.0)
    argmax, value = result
    assert argmax == pytest.approx(1.1462, abs=1e-3)
    assert value == pytest.approx(0.09623, abs=1e-4)
    assert result.unimodal


def test_maximize_is_stable_under_interval_shift():
    base = analysis.maximize_1d("p11_tmss", 0.0, 2.0)
    shifted = analysis.maximize_1d("p11_tmss", 0.1, 1.9)
    assert base.argmax == pytest.approx(0.8814, abs=1e-3)
    assert base.value == pytest.approx(0.25, abs=1e-6)
    assert abs(base.argmax - shifted.argmax) < 2e-4
    assert abs(base.value - shifted.value) < 1e-9


def test_searches_land_on_the_closed_form_optima():
    # P(1,1) = t(1 - t) with t = tanh^2 r peaks at t = 1/2, value 1/4, and
    # equals 0.2 at t = (1 - sqrt(0.2)) / 2 on the rising side
    result = analysis.maximize_1d("p11_tmss", 0.0, 2.0)
    assert abs(result.argmax - math.atanh(1.0 / math.sqrt(2.0))) <= analysis.GOLDEN_TOL
    assert abs(result.value - 0.25) <= 1e-9
    level = analysis.ArrayObjective(lambda x: np.full(len(x), 0.2))
    root = analysis.find_crossing(analysis.objective("p11_tmss"), level, 0.0, 0.88)
    assert abs(root - math.atanh(math.sqrt((1.0 - math.sqrt(0.2)) / 2.0))) <= analysis.GOLDEN_TOL


def test_maximize_accepts_plain_callables():
    result = analysis.maximize_1d(analysis.ArrayObjective(lambda x: -((x - 0.3) ** 2)), 0.0, 1.0)
    assert result.argmax == pytest.approx(0.3, abs=1e-4)
    assert result.value == pytest.approx(0.0, abs=1e-8)
    assert result.unimodal


def test_maximize_flags_hidden_narrow_mode():
    # wide decoy at 0.2; global spike at 0.63 falls between the 41 scan
    # points (step 0.05) but on the 201-point check grid (step 0.01)
    def two_bumps(x):
        return np.exp(-((x - 0.2) ** 2) / 1e-2) + 2.0 * np.exp(
            -((x - 0.63) ** 2) / 1e-5
        )

    result = analysis.maximize_1d(analysis.ArrayObjective(two_bumps), 0.0, 2.0)
    assert not result.unimodal
    assert result.argmax == pytest.approx(0.63, abs=1e-3)
    assert result.value == pytest.approx(2.0, abs=1e-4)


def test_maximize_rejects_non_finite_objective():
    # NaN in a band around the peak at 0.3125 that misses the scan grid:
    # the golden-section polish used to land in it and return value = nan
    # with unimodal = True
    def peak(x):
        return np.where(np.abs(x - 0.3125) < 1e-3, math.nan, -((x - 0.3125) ** 2))

    with pytest.raises(fs.NumericalFailureError) as err:
        analysis.maximize_1d(analysis.ArrayObjective(peak), 0.0, 1.0)
    assert str(err.value).startswith("objective is not finite (nan) at {'x': 0.31")
    # an array objective names its own quantity, variable and first point
    # in grid order: the scan reaches 0.525 before any golden-section point
    ramp = analysis.ArrayObjective(lambda r: np.where(r > 0.5, np.inf, r), "ramp", "r")
    with pytest.raises(fs.NumericalFailureError) as err:
        analysis.maximize_1d(ramp, 0.0, 1.0)
    assert str(err.value) == "ramp is not finite (inf) at {'r': 0.525}"


def test_objective_checks_its_parameters_when_built():
    # a variable left without a value used to reach the quantity's
    # function and fail there with a TypeError
    for name in ("p0_cat_minus", "p1n_squeezed"):
        with pytest.raises(ValueError, match=f"^{name} needs a value for r$"):
            analysis.maximize_1d(name, 0.0, 2.0)
    with pytest.raises(ValueError, match="^g2_cat_minus takes no parameter bogus;"):
        analysis.objective("g2_cat_minus", bogus=1.0)
    with pytest.raises(ValueError, match="^cannot both sweep and fix r$"):
        analysis.objective("g2_cat_minus", r=1.0)
    # a fixed value replaces the default; a float point gives a float
    at_07 = analysis.objective("g2_tmss", eta=0.7)
    rs = np.array([0.5, 1.0])
    assert at_07(rs).tolist() == detect.benchmark_g2(rs, 0.7).tolist()
    assert at_07(0.5) == float(detect.benchmark_g2(0.5, 0.7))
    assert type(at_07(0.5)) is float


def test_find_crossing_linear():
    root = analysis.find_crossing(lambda x: x, lambda x: 0.5, 0.0, 1.0, tol=1e-6)
    assert root == pytest.approx(0.5, abs=1e-6)


def test_find_crossing_endpoint_hits():
    assert analysis.find_crossing(lambda x: x, lambda x: 0.0, 0.0, 1.0) == 0.0
    assert analysis.find_crossing(lambda x: x - 1.0, lambda x: 0.0, 0.0, 1.0) == 1.0


def test_find_crossing_requires_sign_change():
    with pytest.raises(analysis.NoCrossingError):
        analysis.find_crossing(lambda x: x + 1.0, lambda x: 0.0, 0.0, 1.0)


def test_find_crossing_rejects_non_finite_difference():
    # a NaN difference compares False against 0, so bisection used to
    # treat it as a sign and return 0.300018 as a root
    with pytest.raises(fs.NumericalFailureError) as err:
        analysis.find_crossing(lambda x: math.nan if x > 0.3 else 1.0, lambda x: 0.0, 0, 1)
    assert str(err.value) == "f - g is not finite (nan) at {'x': 1.0}"
    with pytest.raises(fs.NumericalFailureError) as err:
        analysis.find_crossing(
            lambda x: math.nan if 0.45 < x < 0.55 else 0.5 - x, lambda x: 0.0, 0.0, 1.0
        )
    assert str(err.value) == "f - g is not finite (nan) at {'x': 0.5}"


SEARCH_CONFIGS = {
    "defaults": verification.VerifyConfig(),
    "dim200": verification.VerifyConfig(dim=200),
    "tail_tol0": verification.VerifyConfig(tail_tol=0.0),
}


def _search_outcome(fn) -> str:
    """repr of fn()'s result or of the exception it raises: a float's repr
    round-trips, so equal reprs are equal to the bit."""
    try:
        return repr(fn())
    except Exception as exc:  # compared by repr against the other path
        return repr(exc)


@pytest.mark.parametrize("cfg", SEARCH_CONFIGS.values(), ids=SEARCH_CONFIGS.keys())
@pytest.mark.parametrize(
    "criterion, name",
    [(verification.criterion_4, "herald_yield_cat_minus"), (verification.criterion_5, "p11_tmss")],
    ids=["criterion_4", "criterion_5"],
)
def test_verify_searches_evaluate_whole_grids(monkeypatch, criterion, name, cfg):
    # the 41-point scan and the 201-point check are one call per cutoff
    # group each (two groups on [0, 2] at the default cutoffs); one call
    # per float took about 259 calls for criterion 4
    q = registry.QUANTITIES[name]
    calls = []

    def spy(*cutoffs, **params):
        calls.append(cutoffs)
        return q.fn(*cutoffs, **params)

    monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=spy))
    criterion(cfg)
    assert 0 < len(calls) <= 30 and set(calls) == {()}
    # the same search one float at a time gives the same result or the
    # same error
    grouped = _search_outcome(lambda: analysis.maximize_1d(
        analysis.objective(name, cfg.dim, cfg.tail_tol), 0.0, 2.0))
    per_point = _search_outcome(lambda: analysis.maximize_1d(analysis.ArrayObjective(
        lambda xs: [float(q.fn(r=np.array([float(x)]))[0, 0]) for x in xs]
    ), 0.0, 2.0))
    assert grouped == per_point
    # both quantities are closed forms, which no cutoff override reaches
    assert grouped.startswith("MaximizeResult(")


def _sequential_golden(f, a, b, tol):
    """Golden section with one objective call per step, as the search was
    before its steps were batched: the oracle for analysis._golden_section."""
    inv_phi = analysis.INV_PHI
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _sequential_crossing(f, g, lo, hi, tol=analysis.GOLDEN_TOL):
    """Bisection with one call of f and g per step, as find_crossing was
    before its steps were batched: its oracle."""

    def h(x):
        value = np.array([f(x) - g(x)], dtype=float)
        return float(analysis._require_finite(value, "f - g", lambda i: {"x": float(x)})[0])

    ha = h(lo)
    hb = h(hi)
    if ha == 0.0:
        return lo
    if hb == 0.0:
        return hi
    if (ha > 0.0) == (hb > 0.0):
        raise analysis.NoCrossingError(
            f"difference does not change sign on [{lo}, {hi}] "
            f"(endpoints {ha:.3e}, {hb:.3e})"
        )
    a, b = float(lo), float(hi)
    while (b - a) > tol:
        mid = 0.5 * (a + b)
        hm = h(mid)
        if hm == 0.0:
            return mid
        if (hm > 0.0) == (ha > 0.0):
            a = mid
            ha = hm
        else:
            b = mid
    return 0.5 * (a + b)


def _result(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared against the other path
        return type(exc), str(exc)


def _sequential_maximize(f, lo, hi):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_golden_section", _sequential_golden)
        return _result(lambda: analysis.maximize_1d(f, lo, hi))


def _smooth(params):
    """A smooth objective: a Gaussian bump on a slope with a ripple."""
    centre, width, slope, freq, phase = params

    def fn(x):
        return (np.exp(-(((x - centre) / width) ** 2)) + slope * x
                + 0.05 * np.sin(freq * x + phase))

    return fn


def _with_nan(fn, lo, hi, band):
    """fn with NaN on the part band = (start, width), as shares of
    [lo, hi], of the bracket."""
    if band is None:
        return fn
    start = lo + band[0] * (hi - lo)
    stop = start + band[1] * (hi - lo)
    return lambda x: np.where((x >= start) & (x <= stop), math.nan, fn(x))


SMOOTH = st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 3.0), st.floats(-0.5, 0.5),
                   st.floats(0.1, 20.0), st.floats(-3.0, 3.0))
NAN_BAND = st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(1e-7, 0.05))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=SMOOTH, lo=st.floats(-3.0, 2.0), span=st.floats(0.01, 4.0), band=NAN_BAND)
def test_batched_golden_section_replays_the_sequential_search(params, lo, span, band):
    hi = lo + span
    f = analysis.ArrayObjective(_with_nan(_smooth(params), lo, hi, band))
    batched = _result(lambda: analysis.maximize_1d(f, lo, hi))
    event("raised" if isinstance(batched, tuple) else "returned")
    assert batched == _sequential_maximize(f, lo, hi)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=SMOOTH, level=st.floats(-1.0, 1.0), lo=st.floats(-3.0, 2.0),
       span=st.floats(0.01, 4.0), band=NAN_BAND)
def test_batched_bisection_replays_the_sequential_search(params, level, lo, span, band):
    hi = lo + span
    f = analysis.ArrayObjective(_with_nan(_smooth(params), lo, hi, band), "bump", "r")
    g = analysis.ArrayObjective(lambda x: np.full(len(x), level), "level", "r")
    batched = _result(lambda: analysis.find_crossing(f, g, lo, hi))
    event("raised" if isinstance(batched, tuple) else "returned")
    assert batched == _result(lambda: _sequential_crossing(f, g, lo, hi))
    # plain callables on one float go through the same replay
    plain_f, plain_g = (lambda x: float(f.fn(x))), (lambda x: level)
    assert _result(lambda: analysis.find_crossing(plain_f, plain_g, lo, hi)) == _result(
        lambda: _sequential_crossing(plain_f, plain_g, lo, hi))


def _recorded(fn):
    """fn, and the list of every point it is called on."""
    seen = []

    def recording(x):
        seen.extend(np.atleast_1d(x).tolist())
        return fn(x)

    return recording, seen


def test_searches_ignore_nan_and_errors_at_points_they_never_visit():
    # each step evaluates only its own point; at a visited point where f
    # is NaN and g raises, f's failure is the one reported, as one
    # evaluation of f(x) - g(x) per step reports it
    def ramp(x):
        return x - 0.4

    lo, hi = 0.0, 1.0
    flat = analysis.ArrayObjective(lambda x: np.zeros(len(x)))
    visiting, visited = _recorded(ramp)
    _sequential_crossing(analysis.ArrayObjective(visiting), flat, lo, hi)
    spot = visited[2]
    nan_there = analysis.ArrayObjective(lambda x: np.where(x == spot, math.nan, ramp(x)),
                                        "ramp", "r")

    def refuse(x):
        if np.any(x == spot):
            raise ValueError("refused")
        return np.zeros(len(x))

    want = _result(lambda: _sequential_crossing(nan_there, analysis.ArrayObjective(refuse), lo, hi))
    assert want[0] is analysis.NumericalFailureError and "ramp" in want[1]
    assert _result(lambda: analysis.find_crossing(
        nan_there, analysis.ArrayObjective(refuse), lo, hi)) == want


@pytest.mark.parametrize("criterion, names, calls", [
    (verification.criterion_4, ("herald_yield_cat_minus",), 20),
    (verification.criterion_5, ("p11_tmss",), 20),
    (verification.criterion_10, ("g2_cat_minus", "g2_tmss"), 17),
], ids=["criterion_4", "criterion_5", "criterion_10"])
def test_verify_search_call_counts(monkeypatch, criterion, names, calls):
    # one call per step: 20 calls for criteria 4 and 5 (the scan, 18
    # golden-section points, the check grid) and 17 to each objective of
    # criterion 10 (both endpoints and 15 midpoints)
    counts = dict.fromkeys(names, 0)
    for name in names:
        q = registry.QUANTITIES[name]

        def spy(*cutoffs, _fn=q.fn, _name=name, **params):
            counts[_name] += 1
            return _fn(*cutoffs, **params)

        monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=spy))
    assert criterion(verification.VerifyConfig()).passed
    assert counts == dict.fromkeys(names, calls)
