"""Figure tables: every selector builds with the advertised grid shape
and finite values."""
import numpy as np
import pytest

from sqherald import analysis, reference, registry

# row counts for every figure except the (r, sigma) noise surface, which
# has its own test below
CHEAP = {
    "fig2": 12,
    "fig3a": 201,
    "fig3b": 201,
    "fig4a": 3240,
    "fig4b": 3240,
    "fig5a": 41,
    "fig6a": 201,
    "fig6b": 201,
    "fig7a": 1240,
    "fig7b": 1240,
    "fig8": 201,
    "fig9a": 201,
    "fig9b": 1240,
}


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_figure_builds_with_advertised_shape(name):
    table = registry.figure(name).build()
    assert table.rows.shape == (CHEAP[name], len(table.columns))
    assert np.all(np.isfinite(table.rows))
    assert "convergence_tol" in table.metadata
    assert "dims" in table.metadata


def test_every_selector_is_registered():
    assert set(registry.FIGURES) == set(CHEAP) | {"fig5b"}


def test_surface_rows_cover_the_full_grid():
    table = registry.figure("fig7a").build()
    assert len(set(table.rows[:, 0])) == 40
    assert len(set(table.rows[:, 1])) == 31


def test_pair_yield_table_peaks_at_the_known_argmax():
    table = registry.figure("fig3a").build()
    best = int(np.argmax(table.rows[:, 1]))
    assert abs(table.rows[best, 0] - 1.146) <= 0.011
    assert abs(table.rows[best, 1] - 0.09623) <= 2e-4


def test_noise_surface_builds_in_full():
    table = registry.figure("fig5b").build()
    assert table.columns == ("r", "sigma", "phase_ratio")
    assert table.rows.shape == (40 * 41, 3)
    values = table.rows[:, 2]
    assert np.all(np.isfinite(values))
    assert np.all((values > 0.0) & (values <= 1.0))
    # r = 0.725 is not on the surface's r grid (step 0.05); 0.75 is
    for r, sigma in ((2.0, 4e-3), (0.75, 1e-3)):
        row = np.flatnonzero(np.isclose(table.rows[:, 0], r) & np.isclose(table.rows[:, 1], sigma))
        assert len(row) == 1
        r_grid, sigma_grid = table.rows[row[0], :2]
        oracle = reference._hermite_ladder_ratio(r_grid, 10.0, sigma_grid)
        assert abs(values[row[0]] - oracle) < 1e-12


def test_noise_surface_worst_corner_converges():
    # stand-in for building fig5b outright: its hardest point is the
    # large-r, large-sigma corner, where the escalation ladder must reach
    # its deepest rungs
    spec = analysis.SweepSpec("sigma", 0.0, 0.004, 2, {"r": 2.0, "alpha": 10.0})
    result = analysis.sweep(spec, "phase_ratio")
    assert result.rows[0, 1] == 1.0
    assert 0.0 < result.rows[1, 1] < 1.0
