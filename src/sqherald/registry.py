"""Named-quantity registry and figure table builders.

The CLI and the sweep machinery dispatch through this table, so every
published number has exactly one producing code path.  Quantity names use
suffixes _cat_minus / _cat_plus for the odd / even superposition sources,
_squeezed for plain squeezed vacuum, and _tmss for the two-mode squeezed
benchmark.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Mapping

import numpy as np

from . import analysis, detect, kerr, optics, sources
from .fockspace import DEFAULT_TAIL_TOL, Truncation, default_truncation


@functools.lru_cache(maxsize=4096)
def truncation(
    kind: str, r: float, dim: int | None = None, tail_tol: float | None = None
) -> Truncation | None:
    """The cutoff policy of every quantity, figure and verify criterion.

    kind is a Quantity's cutoff: "analytic" quantities take none (None);
    "matrix" ones default to default_truncation(r) and DEFAULT_TAIL_TOL,
    "series" (label-series) ones to kerr.series_truncation(r) and
    kerr.SERIES_STATE_TOL.  A dim or tail_tol override replaces only its
    own half of the default.  Cached, so every evaluation at the same
    cutoff shares one Truncation.
    """
    if kind == "analytic":
        return None
    if kind == "series":
        tier, default_tol = kerr.series_truncation, kerr.SERIES_STATE_TOL
    elif kind == "matrix":
        tier, default_tol = default_truncation, DEFAULT_TAIL_TOL
    else:
        raise ValueError(f"unknown cutoff kind {kind!r}")
    if dim is None:
        dim = tier(abs(r)).dim
    return Truncation(dim, default_tol if tail_tol is None else tail_tol)


@dataclasses.dataclass(frozen=True)
class Quantity:
    """A named computation fn(trunc, **params), with trunc =
    truncation(cutoff, r, ...).  fn takes every parameter as a 1-D float
    array over points, all of one length, and returns one value per
    point."""

    name: str
    doc: str
    fn: Callable[..., np.ndarray]
    variables: tuple[str, ...]
    defaults: Mapping[str, float]
    cutoff: str = "matrix"

    def __post_init__(self):
        object.__setattr__(self, "defaults", dict(self.defaults))


def _p11(trunc, r, sign):
    # P(1,1) = p_2 / 2
    return optics.photon_number_rows(r, sign, trunc)[:, 2] / 2.0


def _pc(trunc, r, sign):
    p = optics.photon_number_rows(r, sign, trunc)
    return optics.single_photon_fractions(p[:, 2] / 2.0, optics.herald_totals(p))


def _q_p11_cat_minus(trunc, r):
    return _p11(trunc, r, -1)


def _q_p11_cat_plus(trunc, r):
    return _p11(trunc, r, +1)


def _q_p11_squeezed(trunc, r):
    return _p11(trunc, r, None)


def _q_p11_tmss(trunc, r):
    return sources.tmss_p11(r, trunc)


def _q_pc_cat_minus(trunc, r):
    return _pc(trunc, r, -1)


def _q_pc_squeezed(trunc, r):
    return _pc(trunc, r, None)


def _q_herald_prob_cat_minus(trunc, r):
    return sources.herald_probability(r, -1)


def _q_herald_yield_cat_minus(trunc, r):
    # the odd branch weight is exactly 0 at r = 0, where P(1,1) is its limit 1/2
    return sources.herald_probability(r, -1) * _p11(trunc, r, -1)


def _over_tau(kernel, trunc, tau_tilde, r, alpha):
    """kernel(taus, r, alpha, trunc) once per distinct (r, alpha), over all
    the interaction phases that share them."""
    (rs, alphas), at = analysis.distinct(r, alpha)
    out = np.empty(len(tau_tilde))
    for j, (rj, aj) in enumerate(zip(rs.tolist(), alphas.tolist())):
        sel = at == j
        out[sel] = kernel(tau_tilde[sel], rj, aj, trunc)
    return out


def _q_p0_cat_minus(trunc, tau_tilde, r, alpha):
    return _over_tau(kerr.p0_over_tau, trunc, tau_tilde, r, alpha)


def _q_p1_cat_minus(trunc, tau_tilde, r, alpha):
    return _over_tau(kerr.p1_over_tau, trunc, tau_tilde, r, alpha)


def _q_phase_ratio(trunc, sigma, r, alpha):
    # one trapezoid rule per point; the points of a group do not share a grid
    return np.array([
        kerr.gaussian_averaged_ratio(ri, ai, si, dim=trunc.dim, tail_tol=trunc.tail_tol)
        for si, ri, ai in zip(sigma.tolist(), r.tolist(), alpha.tolist())
    ])


def _q_pclick_cat_minus(trunc, r, eta):
    return detect.heralded_clicks(r, eta, trunc)[0]


def _q_pclick1_cat_minus(trunc, r, eta):
    return detect.heralded_clicks(r, eta, trunc)[1]


def _q_pclickc_cat_minus(trunc, r, eta):
    p_click, p_click_1 = detect.heralded_clicks(r, eta, trunc)
    return p_click_1 / p_click


def _q_pclick1_yield_cat_minus(trunc, r, eta):
    return sources.herald_probability(r, -1) * detect.heralded_clicks(r, eta, trunc)[1]


def _q_pclick_tmss(trunc, r, eta):
    return detect.benchmark_clicks(r, eta)[0]


def _q_pclick1_tmss(trunc, r, eta):
    return detect.benchmark_clicks(r, eta)[1]


def _q_pclickc_tmss(trunc, r, eta):
    return detect.benchmark_clicks(r, eta)[2]


def _q_g2_cat_minus(trunc, r, eta):
    return detect.heralded_g2(r, eta, trunc)


def _q_g2_tmss(trunc, r, eta):
    return detect.benchmark_g2(r, eta)


def _quantities() -> dict[str, Quantity]:
    items = [
        Quantity("p11_cat_minus", "P(1,1) after splitting the odd superposition",
                 _q_p11_cat_minus, ("r",), {}),
        Quantity("p11_cat_plus", "P(1,1) after splitting the even superposition",
                 _q_p11_cat_plus, ("r",), {}),
        Quantity("p11_squeezed", "P(1,1) after splitting plain squeezed vacuum",
                 _q_p11_squeezed, ("r",), {}),
        Quantity("p11_tmss", "P(1,1) of the two-mode squeezed benchmark",
                 _q_p11_tmss, ("r",), {}),
        Quantity("pc_cat_minus", "P(n_b=1 | n_a=1) for the split odd superposition",
                 _q_pc_cat_minus, ("r",), {}),
        Quantity("pc_squeezed", "P(n_b=1 | n_a=1) for split squeezed vacuum",
                 _q_pc_squeezed, ("r",), {}),
        Quantity("herald_prob_cat_minus", "odd-branch weight N_-(r)/4",
                 _q_herald_prob_cat_minus, ("r",), {}, cutoff="analytic"),
        Quantity("herald_yield_cat_minus", "pair yield N_-(r)/4 * P(1,1)",
                 _q_herald_yield_cat_minus, ("r",), {}),
        Quantity("p0_cat_minus", "odd-branch projection probability after the Kerr step",
                 _q_p0_cat_minus, ("tau_tilde", "r"), {"tau_tilde": math.pi, "alpha": 10.0},
                 cutoff="series"),
        Quantity("p1_cat_minus", "heralded pair probability after the Kerr step",
                 _q_p1_cat_minus, ("tau_tilde", "r"), {"tau_tilde": math.pi, "alpha": 10.0},
                 cutoff="series"),
        Quantity("phase_ratio", "Gaussian-averaged phase-noise ratio R(r, alpha, sigma)",
                 _q_phase_ratio, ("sigma", "r"), {"r": 0.725, "alpha": 10.0},
                 cutoff="series"),
        Quantity("pclick_cat_minus", "herald click probability, odd superposition",
                 _q_pclick_cat_minus, ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick1_cat_minus", "single-photon click probability, odd superposition",
                 _q_pclick1_cat_minus, ("r", "eta"), {"eta": 0.9}),
        Quantity("pclickc_cat_minus", "single-photon fraction of clicks, odd superposition",
                 _q_pclickc_cat_minus, ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick1_yield_cat_minus", "branch weight times single-photon click probability",
                 _q_pclick1_yield_cat_minus, ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick_tmss", "herald click probability, two-mode squeezed benchmark",
                 _q_pclick_tmss, ("r", "eta"), {"eta": 0.9}, cutoff="analytic"),
        Quantity("pclick1_tmss", "single-photon click probability, benchmark",
                 _q_pclick1_tmss, ("r", "eta"), {"eta": 0.9}, cutoff="analytic"),
        Quantity("pclickc_tmss", "single-photon fraction of clicks, benchmark",
                 _q_pclickc_tmss, ("r", "eta"), {"eta": 0.9}, cutoff="analytic"),
        Quantity("g2_cat_minus", "heralded zero-delay g2, odd superposition",
                 _q_g2_cat_minus, ("r", "eta"), {"eta": 0.9}),
        Quantity("g2_tmss", "heralded zero-delay g2, benchmark (closed form)",
                 _q_g2_tmss, ("r", "eta"), {"eta": 0.9}, cutoff="analytic"),
    ]
    return {q.name: q for q in items}


QUANTITIES: dict[str, Quantity] = _quantities()


def resolve(name: str) -> Quantity:
    try:
        return QUANTITIES[name]
    except KeyError:
        known = ", ".join(sorted(QUANTITIES))
        raise KeyError(f"unknown quantity {name!r}; registered: {known}") from None


def reject_idle_overrides(names, dim, tail_tol) -> None:
    """Refuse a dim or tail_tol override when none of the named quantities
    has a cutoff to take it, instead of ignoring it."""
    if (dim is not None or tail_tol is not None) and all(
        resolve(name).cutoff == "analytic" for name in names
    ):
        raise ValueError(
            f"{', '.join(names)}: no cutoff, so the dim and tail_tol overrides do not apply"
        )


@dataclasses.dataclass(frozen=True)
class Table:
    """Column-labelled numeric table plus provenance metadata."""

    columns: tuple[str, ...]
    rows: np.ndarray
    metadata: dict

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


@dataclasses.dataclass(frozen=True)
class Figure:
    """A named data set: grid columns plus one column per plotted quantity."""

    name: str
    description: str
    builder: Callable[..., Table]

    def build(self, dim=None, tail_tol=None, eta=None, alpha=None) -> Table:
        return self.builder(dim=dim, tail_tol=tail_tol, eta=eta, alpha=alpha)


def _joined_sweeps(
    spec: analysis.SweepSpec,
    names: list[str],
    second: analysis.SweepSpec | None,
    dim,
    tail_tol,
) -> Table:
    """Sweep several quantities over the same grid and join the value
    columns."""
    reject_idle_overrides(names, dim, tail_tol)
    results = [
        analysis.sweep(spec, name, second=second, dim=dim, tail_tol=tail_tol)
        for name in names
    ]
    grid_cols = results[0].columns[:-1]
    n_grid = len(grid_cols)
    rows = results[0].rows[:, :n_grid]
    values = [res.rows[:, n_grid:] for res in results]
    table_rows = np.hstack([rows] + values)
    dims: set[int] = set()
    fixed: dict = {}
    for res in results:
        if res.metadata["dims"] != "analytic":
            dims.update(res.metadata["dims"])
        fixed.update(res.metadata["fixed"])
    metadata = {
        "dims": sorted(dims) if dims else "analytic",
        "convergence_tol": analysis.CONVERGENCE_TOL,
        "fixed": fixed,
        **_worst_move(results),
    }
    return Table(tuple(grid_cols) + tuple(names), table_rows, metadata)


def _worst_move(results) -> dict:
    """The max_move and max_move_at metadata of several sweeps: the first
    largest move, at its point and with its quantity's name."""
    worst = max(results, key=lambda res: res.metadata["max_move"])
    return {
        "max_move": worst.metadata["max_move"],
        "max_move_at": {"quantity": worst.metadata["quantity"], **worst.metadata["max_move_at"]},
    }


R_GRID = (0.01, 2.0, 201)
R_GRID_WITH_ZERO = (0.0, 2.0, 201)
R_GRID_SURFACE = (0.05, 2.0, 40)
ETA_GRID = (0.7, 1.0, 31)
TAU_GRID = (0.0, 2.0 * math.pi, 81)
SIGMA_GRID = (0.0, 0.004, 41)
FIG2_LEVELS = 12
FIG2_R = 0.725


def _no_overrides(figure: str, eta, alpha) -> None:
    """Figures that fix or sweep eta and alpha themselves reject the
    overrides instead of ignoring them."""
    if eta is not None or alpha is not None:
        raise ValueError(f"{figure} takes no eta or alpha override")


def _fig2(dim=None, tail_tol=None, eta=None, alpha=None) -> Table:
    """Photon-number content of the herald row: P(1, n) for each source."""
    _no_overrides("fig2", eta, alpha)
    trunc = truncation("matrix", FIG2_R, dim, tail_tol)
    levels = min(FIG2_LEVELS, trunc.dim)
    names = ("p1n_squeezed", "p1n_cat_minus", "p1n_cat_plus")

    def rows_at(t):
        return np.column_stack([optics.herald_row(FIG2_R, sign, t)[:levels]
                                for sign in (None, -1, +1)])

    values = rows_at(trunc)
    # gated like every sweep: the move of each entry at 1.5x the cutoff
    move = np.abs(values - rows_at(trunc.scaled(1.5)))
    n, col = np.unravel_index(int(np.argmax(move)), move.shape)
    at = {"n": float(n), "r": FIG2_R}
    if move[n, col] > analysis.CONVERGENCE_TOL:
        raise analysis.ConvergenceError(
            f"{names[col]} moved by {move[n, col]:.3e} between "
            f"dim {trunc.dim} and dim {trunc.scaled(1.5).dim} at {at}"
        )
    metadata = {
        "dims": [trunc.dim],
        "convergence_tol": analysis.CONVERGENCE_TOL,
        "fixed": {"r": FIG2_R},
        "max_move": float(move[n, col]),
        "max_move_at": {"quantity": names[col], **at},
    }
    rows = np.column_stack([np.arange(levels, dtype=float), values])
    return Table(("n",) + names, rows, metadata)


def _surface(var1, grid1, var2, grid2, names):
    """Builder that joins the sweeps of names over the var1 grid, or over
    the (var1, var2) surface when var2 is given."""
    def build(dim=None, tail_tol=None, eta=None, alpha=None):
        extra = {k: v for k, v in (("eta", eta), ("alpha", alpha)) if v is not None}
        spec = analysis.SweepSpec(var1, *grid1, extra)
        second = None if var2 is None else analysis.SweepSpec(var2, *grid2)
        return _joined_sweeps(spec, names, second, dim, tail_tol)

    return build


def _line(var, grid, names):
    return _surface(var, grid, None, None, names)


def _fig5a(dim=None, tail_tol=None, eta=None, alpha=None) -> Table:
    """Averaged ratio against sigma at r = 0.725 for three pump strengths."""
    _no_overrides("fig5a", eta, alpha)
    tables = []
    alphas = (9.0, 10.0, 11.0)
    for a in alphas:
        spec = analysis.SweepSpec("sigma", *SIGMA_GRID, {"r": 0.725, "alpha": a})
        tables.append(analysis.sweep(spec, "phase_ratio", dim=dim, tail_tol=tail_tol))
    rows = np.hstack(
        [tables[0].rows[:, :1]] + [t.rows[:, 1:] for t in tables]
    )
    metadata = {
        "dims": sorted({d for t in tables for d in t.metadata["dims"]}),
        "convergence_tol": analysis.CONVERGENCE_TOL,
        "fixed": {"r": 0.725, "alphas": list(alphas)},
        **_worst_move(tables),
    }
    return Table(("sigma", "ratio_alpha9", "ratio_alpha10", "ratio_alpha11"),
                 rows, metadata)


FIGURES: dict[str, Figure] = {
    "fig2": Figure("fig2", "herald-row photon distributions P(1, n) at r = 0.725", _fig2),
    "fig3a": Figure("fig3a", "pair yield N_-/4 * P(1,1) against r",
                    _line("r", R_GRID_WITH_ZERO, ["herald_yield_cat_minus"])),
    "fig3b": Figure("fig3b", "P(1,1) for the three split sources against r",
                    _line("r", R_GRID, ["p11_cat_minus", "p11_cat_plus", "p11_squeezed"])),
    "fig4a": Figure("fig4a", "odd-branch projection probability over (tau_tilde, r)",
                    _surface("tau_tilde", TAU_GRID, "r", R_GRID_SURFACE, ["p0_cat_minus"])),
    "fig4b": Figure("fig4b", "heralded pair probability over (tau_tilde, r)",
                    _surface("tau_tilde", TAU_GRID, "r", R_GRID_SURFACE, ["p1_cat_minus"])),
    "fig5a": Figure("fig5a", "averaged phase-noise ratio against sigma at r = 0.725", _fig5a),
    "fig5b": Figure("fig5b", "averaged phase-noise ratio over (r, sigma) at alpha = 10",
                    _surface("r", R_GRID_SURFACE, "sigma", SIGMA_GRID, ["phase_ratio"])),
    "fig6a": Figure("fig6a", "click statistics of the split odd superposition against r",
                    _line("r", R_GRID,
                          ["pclick_cat_minus", "pclick1_cat_minus", "pclickc_cat_minus"])),
    "fig6b": Figure("fig6b", "click statistics of the benchmark against r",
                    _line("r", R_GRID, ["pclick_tmss", "pclick1_tmss", "pclickc_tmss"])),
    "fig7a": Figure("fig7a", "single-photon click probabilities over (r, eta)",
                    _surface("r", R_GRID_SURFACE, "eta", ETA_GRID,
                             ["pclick1_cat_minus", "pclick1_tmss"])),
    "fig7b": Figure("fig7b", "single-photon click fractions over (r, eta)",
                    _surface("r", R_GRID_SURFACE, "eta", ETA_GRID,
                             ["pclickc_cat_minus", "pclickc_tmss"])),
    "fig8": Figure("fig8", "small-r pair yields of source and benchmark",
                   _line("r", (0.004, 2.0, 201),
                         ["p11_cat_minus", "herald_yield_cat_minus", "p11_tmss"])),
    "fig9a": Figure("fig9a", "heralded g2 of source and benchmark against r",
                    _line("r", R_GRID, ["g2_cat_minus", "g2_tmss"])),
    "fig9b": Figure("fig9b", "heralded g2 of source and benchmark over (r, eta)",
                    _surface("r", R_GRID_SURFACE, "eta", ETA_GRID,
                             ["g2_cat_minus", "g2_tmss"])),
}


def figure(selector: str) -> Figure:
    try:
        return FIGURES[selector]
    except KeyError:
        known = ", ".join(FIGURES)
        raise KeyError(f"unknown figure {selector!r}; available: {known}") from None
