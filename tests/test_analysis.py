"""Unit tests for sweeps, maximization and crossing search."""

import dataclasses
import math
import types

import numpy as np
import pytest

from sqherald import analysis, kerr, registry, sources
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
    direct = q.fn(registry.truncation(q.cutoff, 0.725), r=0.725)
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
    # the herald-row conditional leaks tail mass at dim 8, so it moves
    # between dim and 1.5 dim; a loose tail_tol lets the states build
    spec = analysis.SweepSpec("r", 1.2, 1.2, 1)
    with pytest.raises(analysis.ConvergenceError) as err:
        analysis.sweep(spec, "pc_cat_minus", dim=8, tail_tol=0.9)
    message = str(err.value)
    assert "pc_cat_minus" in message and "dim 8" in message and "r" in message


def test_convergence_check_rejects_nan():
    # NaN compares False against the tolerance, so the gate must test it
    quantity = types.SimpleNamespace(name="nan_quantity", fn=lambda trunc, r: math.nan)
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


# r = 1.5 sits where the matrix default (160) and the series cutoff differ
POLICY_R = 1.5
DOCUMENTED_TAIL_TOLS = {"matrix": 1e-3, "series": 1e-9}


@pytest.mark.parametrize("dim, tail_tol", [(None, None), (400, None), (None, 1e-6), (400, 1e-6)])
@pytest.mark.parametrize("name", sorted(registry.QUANTITIES))
def test_every_quantity_runs_at_the_one_cutoff_policy(monkeypatch, name, dim, tail_tol):
    q = registry.QUANTITIES[name]
    seen = []

    def spy(trunc, **params):
        seen.append(trunc)
        return q.fn(trunc, **params)

    monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=spy))
    fixed = {"sigma": 1e-3} if "sigma" in q.variables else {}
    spec = analysis.SweepSpec("r", POLICY_R, POLICY_R, 1, fixed)
    analysis.sweep(spec, name, dim=dim, tail_tol=tail_tol)
    expected = registry.truncation(q.cutoff, POLICY_R, dim, tail_tol)
    if q.cutoff == "analytic":
        assert expected is None
        assert seen == [None]
        return
    assert seen == [expected, expected.scaled(1.5)]
    # an override replaces only its own half of the documented default
    tier = kerr.series_truncation if q.cutoff == "series" else fs.default_truncation
    assert expected.dim == (tier(POLICY_R).dim if dim is None else dim)
    assert expected.tail_tol == (DOCUMENTED_TAIL_TOLS[q.cutoff] if tail_tol is None else tail_tol)


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


def test_maximize_accepts_plain_callables():
    result = analysis.maximize_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
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

    result = analysis.maximize_1d(two_bumps, 0.0, 2.0)
    assert not result.unimodal
    assert result.argmax == pytest.approx(0.63, abs=1e-3)
    assert result.value == pytest.approx(2.0, abs=1e-4)


def test_find_crossing_linear():
    root = analysis.find_crossing(lambda x: x, lambda x: 0.5, 0.0, 1.0, tol=1e-6)
    assert root == pytest.approx(0.5, abs=1e-6)


def test_find_crossing_endpoint_hits():
    assert analysis.find_crossing(lambda x: x, lambda x: 0.0, 0.0, 1.0) == 0.0
    assert analysis.find_crossing(lambda x: x - 1.0, lambda x: 0.0, 0.0, 1.0) == 1.0


def test_find_crossing_requires_sign_change():
    with pytest.raises(analysis.NoCrossingError):
        analysis.find_crossing(lambda x: x + 1.0, lambda x: 0.0, 0.0, 1.0)
