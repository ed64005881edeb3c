"""Named-quantity registry and figure table builders.

The CLI and the sweep machinery dispatch through this table, so every
published number has exactly one producing code path.  Quantity names use
suffixes _cat_minus / _cat_plus for the odd / even superposition sources,
_squeezed for plain squeezed vacuum, and _tmss for the two-mode squeezed
benchmark.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from . import analysis, detect, kerr, optics, sources
from .fockspace import DEFAULT_TAIL_TOL, CutoffColumn, Truncation, cutoff_column, default_dims


def truncations(
    kind: str, r, dim: int | None = None, tail_tol: float | None = None
) -> CutoffColumn | None:
    """The cutoff policy of every quantity, figure and verify criterion,
    at each r of a 1-D array, as one CutoffColumn.

    kind is a Quantity's cutoff or "matrix": "analytic" quantities (every
    split, click and g2 statistic, in closed form) take none (None);
    "series" (label-series) ones default to kerr.series_dims(r) and
    kerr.SERIES_STATE_TOL; "matrix", which no quantity takes, is the
    cutoff of verify's dense oracles, default_dims(r) and
    DEFAULT_TAIL_TOL.  A dim or tail_tol override replaces only its own
    half of the default.
    """
    if kind == "analytic":
        return None
    if kind == "series":
        tier, default_tol = kerr.series_dims, kerr.SERIES_STATE_TOL
    elif kind == "matrix":
        tier, default_tol = default_dims, DEFAULT_TAIL_TOL
    else:
        raise ValueError(f"unknown cutoff kind {kind!r}")
    r = np.abs(np.asarray(r, dtype=float))
    dims = tier(r) if dim is None else np.full(len(r), dim)
    return CutoffColumn.from_array(dims, default_tol if tail_tol is None else tail_tol)


def truncation(
    kind: str, r: float, dim: int | None = None, tail_tol: float | None = None
) -> Truncation | None:
    """truncations at one r, as a Truncation (None for "analytic")."""
    column = truncations(kind, [r], dim, tail_tol)
    return None if column is None else Truncation(column.dims[0], column.tail_tol)


@dataclasses.dataclass(frozen=True)
class Quantity:
    """A named computation fn(*cutoffs, **params): fn takes every
    parameter as a 1-D float array over points, all of one length, and
    returns one row per cutoff with one value per point.  Each cutoff is a
    CutoffColumn, one cutoff per point (a Truncation holds at every
    point), or None for analytic quantities; analysis.evaluate passes
    the points' truncations(cutoff, r, ...) and their 1.5x recheck."""

    name: str
    doc: str
    fn: Callable[..., np.ndarray]
    variables: tuple[str, ...]
    defaults: Mapping[str, float]
    cutoff: str = "analytic"

    def __post_init__(self):
        object.__setattr__(self, "defaults", dict(self.defaults))


def _each(body, **fixed):
    """fn(None, **params) of an elementwise closed-form body(**params,
    **fixed): one call on every point, returned as its one row."""
    def fn(cutoff, **params):
        return np.array([body(**params, **fixed)])

    return fn


# The bodies look their kernels up on the module at call time, so that a
# tracer or a test that replaces a module's function sees every call.


def _p11(r, sign):
    return optics.pair_probability(r, sign)


def _pc(r, sign):
    return optics.conditional_single(r, sign)


def _p1n(n, r, sign):
    return optics.herald_row(n, r, sign)


def _q_p11_tmss(r):
    return sources.tmss_p11(r)


def _q_herald_prob_cat_minus(r):
    return sources.herald_probability(r, -1)


def _q_herald_yield_cat_minus(r):
    # the odd branch weight is exactly 0 at r = 0, where P(1,1) is its limit 1/2
    return sources.herald_probability(r, -1) * optics.pair_probability(r, -1)


def _per_alpha(kernel, cutoffs, x, r, alpha):
    # one kernel(x, r, alpha, *cutoffs) call per distinct alpha, over all
    # the (x, r) points that share it, each at its own cutoffs
    columns = [cutoff_column(c, len(x)) for c in cutoffs]
    out = np.empty((len(cutoffs), len(x)))
    for a in dict.fromkeys(alpha.tolist()):
        sel = np.flatnonzero(alpha == a)
        out[:, sel] = kernel(x[sel], r[sel], a, *(c.take(sel) for c in columns))
    return out


def _q_p0_cat_minus(*cutoffs, tau_tilde, r, alpha):
    return _per_alpha(kerr.p0_over_tau, cutoffs, tau_tilde, r, alpha)


def _q_p1_cat_minus(*cutoffs, tau_tilde, r, alpha):
    # p0 times the closed-form pair factor P(1,1) = p_2/2 of the odd
    # superposition, the same at every cutoff
    p0 = _q_p0_cat_minus(*cutoffs, tau_tilde=tau_tilde, r=r, alpha=alpha)
    return optics.pair_probability(r, -1) * p0


def _q_phase_ratio(*cutoffs, sigma, r, alpha):
    return _per_alpha(kerr.phase_ratio, cutoffs, sigma, r, alpha)


def _q_pclick_cat_minus(r, eta):
    return detect.heralded_clicks(r, eta)[0]


def _q_pclick1_cat_minus(r, eta):
    return detect.heralded_clicks(r, eta)[1]


def _q_pclickc_cat_minus(r, eta):
    p_click, p_click_1 = detect.heralded_clicks(r, eta)
    return p_click_1 / p_click


def _q_pclick1_yield_cat_minus(r, eta):
    return sources.herald_probability(r, -1) * detect.heralded_clicks(r, eta)[1]


def _q_pclick_tmss(r, eta):
    return detect.benchmark_clicks(r, eta)[0]


def _q_pclick1_tmss(r, eta):
    return detect.benchmark_clicks(r, eta)[1]


def _q_pclickc_tmss(r, eta):
    return detect.benchmark_clicks(r, eta)[2]


def _q_g2_cat_minus(r, eta):
    return detect.heralded_g2(r, eta)


def _q_g2_tmss(r, eta):
    return detect.benchmark_g2(r, eta)


def _quantities() -> dict[str, Quantity]:
    items = [
        Quantity("p11_cat_minus", "P(1,1) after splitting the odd superposition",
                 _each(_p11, sign=-1), ("r",), {}),
        Quantity("p11_cat_plus", "P(1,1) after splitting the even superposition",
                 _each(_p11, sign=+1), ("r",), {}),
        Quantity("p11_squeezed", "P(1,1) after splitting plain squeezed vacuum",
                 _each(_p11, sign=None), ("r",), {}),
        Quantity("p11_tmss", "P(1,1) of the two-mode squeezed benchmark",
                 _each(_q_p11_tmss), ("r",), {}),
        Quantity("p1n_squeezed", "herald row P(1, n) of split squeezed vacuum",
                 _each(_p1n, sign=None), ("n", "r"), {}),
        Quantity("p1n_cat_minus", "herald row P(1, n) of the split odd superposition",
                 _each(_p1n, sign=-1), ("n", "r"), {}),
        Quantity("p1n_cat_plus", "herald row P(1, n) of the split even superposition",
                 _each(_p1n, sign=+1), ("n", "r"), {}),
        Quantity("pc_cat_minus", "P(n_b=1 | n_a=1) for the split odd superposition",
                 _each(_pc, sign=-1), ("r",), {}),
        Quantity("pc_squeezed", "P(n_b=1 | n_a=1) for split squeezed vacuum",
                 _each(_pc, sign=None), ("r",), {}),
        Quantity("herald_prob_cat_minus", "odd-branch weight N_-(r)/4",
                 _each(_q_herald_prob_cat_minus), ("r",), {}),
        Quantity("herald_yield_cat_minus", "pair yield N_-(r)/4 * P(1,1)",
                 _each(_q_herald_yield_cat_minus), ("r",), {}),
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
                 _each(_q_pclick_cat_minus), ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick1_cat_minus", "single-photon click probability, odd superposition",
                 _each(_q_pclick1_cat_minus), ("r", "eta"), {"eta": 0.9}),
        Quantity("pclickc_cat_minus", "single-photon fraction of clicks, odd superposition",
                 _each(_q_pclickc_cat_minus), ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick1_yield_cat_minus", "branch weight times single-photon click probability",
                 _each(_q_pclick1_yield_cat_minus), ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick_tmss", "herald click probability, two-mode squeezed benchmark",
                 _each(_q_pclick_tmss), ("r", "eta"), {"eta": 0.9}),
        Quantity("pclick1_tmss", "single-photon click probability, benchmark",
                 _each(_q_pclick1_tmss), ("r", "eta"), {"eta": 0.9}),
        Quantity("pclickc_tmss", "single-photon fraction of clicks, benchmark",
                 _each(_q_pclickc_tmss), ("r", "eta"), {"eta": 0.9}),
        Quantity("g2_cat_minus", "heralded zero-delay g2, odd superposition",
                 _each(_q_g2_cat_minus), ("r", "eta"), {"eta": 0.9}),
        Quantity("g2_tmss", "heralded zero-delay g2, benchmark (closed form)",
                 _each(_q_g2_tmss), ("r", "eta"), {"eta": 0.9}),
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
class Figure:
    """A named data set: grid columns plus one column per plotted quantity."""

    name: str
    description: str
    builder: Callable[..., analysis.SweepResult]

    def build(self, dim=None, tail_tol=None, eta=None, alpha=None) -> analysis.SweepResult:
        return self.builder(dim=dim, tail_tol=tail_tol, eta=eta, alpha=alpha)


def _joined_sweeps(
    spec: analysis.SweepSpec,
    names: list[str],
    second: analysis.SweepSpec | None,
    dim,
    tail_tol,
) -> analysis.SweepResult:
    """Sweep several quantities over the same grid and join the value
    columns."""
    reject_idle_overrides(names, dim, tail_tol)
    results = [
        analysis.sweep(spec, name, second=second, dim=dim, tail_tol=tail_tol)
        for name in names
    ]
    fixed: dict = {}
    for res in results:
        fixed.update(res.metadata["fixed"])
    return _join(results, results[0].columns[:-1] + tuple(names), fixed)


def _join(results, columns, fixed) -> analysis.SweepResult:
    """The grid columns of the first sweep and the value column of each,
    with the union of their cutoff dims and their first largest move, at
    its point and with its quantity's name."""
    rows = np.hstack([results[0].rows[:, :-1]] + [res.rows[:, -1:] for res in results])
    dims = sorted({d for res in results if res.metadata["dims"] != "analytic"
                   for d in res.metadata["dims"]})
    worst = max(results, key=lambda res: res.metadata["max_move"])
    metadata = {
        "dims": dims if dims else "analytic",
        "convergence_tol": analysis.CONVERGENCE_TOL,
        "fixed": fixed,
        "max_move": worst.metadata["max_move"],
        "max_move_at": {"quantity": worst.metadata["quantity"], **worst.metadata["max_move_at"]},
    }
    return analysis.SweepResult(columns, rows, metadata)


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


def _fig2(dim=None, tail_tol=None, eta=None, alpha=None) -> analysis.SweepResult:
    """Photon-number content of the herald row: P(1, n) for each source,
    n < FIG2_LEVELS."""
    _no_overrides("fig2", eta, alpha)
    spec = analysis.SweepSpec("n", 0.0, FIG2_LEVELS - 1.0, FIG2_LEVELS, {"r": FIG2_R})
    names = ["p1n_squeezed", "p1n_cat_minus", "p1n_cat_plus"]
    return _joined_sweeps(spec, names, None, dim, tail_tol)


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


def _fig5a(dim=None, tail_tol=None, eta=None, alpha=None) -> analysis.SweepResult:
    """Averaged ratio against sigma at r = 0.725 for three pump strengths."""
    _no_overrides("fig5a", eta, alpha)
    alphas = (9.0, 10.0, 11.0)
    results = [
        analysis.sweep(analysis.SweepSpec("sigma", *SIGMA_GRID, {"r": 0.725, "alpha": a}),
                       "phase_ratio", dim=dim, tail_tol=tail_tol)
        for a in alphas
    ]
    return _join(results, ("sigma", "ratio_alpha9", "ratio_alpha10", "ratio_alpha11"),
                 {"r": 0.725, "alphas": list(alphas)})


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
