"""Sweeps, 1-D maximization and crossing detection for the figure data.

Quantities are addressed either by a registered name (see registry.py) or
by passing an object with the Quantity attributes.  A sweep is one grouped
evaluation: its points are grouped by cutoff, and the quantity runs once
per group on arrays of the group's parameter values, then once more at
1.5x the cutoff; every row must agree between the two within
CONVERGENCE_TOL, so published tables are convergence-checked row by row.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from .fockspace import SQUEEZE_LIMIT, NumericalFailureError, Truncation

CONVERGENCE_TOL = 1e-8
GOLDEN_TOL = 1e-4
SCAN_POINTS = 41
CHECK_POINTS = 201

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """A swept value moved by more than the tolerance when the cutoff grew."""


class NoCrossingError(RuntimeError):
    """The difference of the two curves does not change sign on the bracket."""


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Uniform grid for one variable plus fixed values for the others.

    A single-point grid (points = 1) evaluates the quantity once at lo.
    """

    variable: str
    lo: float
    hi: float
    points: int
    fixed: Mapping[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points must be positive")
        if self.points == 1:
            if self.hi < self.lo:
                raise ValueError("hi must not be below lo")
        elif not self.lo < self.hi:
            raise ValueError("lo must be below hi")
        object.__setattr__(self, "fixed", dict(self.fixed))

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.points)


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Rows of (grid values..., quantity value) in ascending grid order."""

    columns: tuple[str, ...]
    rows: np.ndarray
    metadata: dict

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _resolve(quantity):
    """Accept a registered name or anything quacking like a Quantity."""
    if isinstance(quantity, str):
        from . import registry

        return registry.resolve(quantity)
    return quantity


def _check_parameters(q, given: set[str], swept: tuple[str, ...]) -> None:
    """Reject, before anything is evaluated, a name that is both fixed by
    the caller and swept, a swept or fixed name the quantity does not take,
    and a variable left without a value.  Plain callables declare no
    parameters, so only the first check applies to them."""
    both = sorted(given & set(swept))
    if both:
        raise ValueError(f"cannot both sweep and fix {', '.join(both)}")
    variables = getattr(q, "variables", None)
    if variables is None:
        return
    known = set(variables) | set(q.defaults)
    listing = ", ".join(sorted(known))
    for var in swept:
        if var not in known:
            raise ValueError(f"{q.name} cannot be swept over {var!r}; parameters: {listing}")
    unknown = sorted(given - known)
    if unknown:
        raise ValueError(
            f"{q.name} takes no parameter {', '.join(unknown)}; parameters: {listing}"
        )
    have = given | set(q.defaults) | set(swept)
    missing = [var for var in variables if var not in have]
    if missing:
        raise ValueError(f"{q.name} needs a value for {', '.join(missing)}")


def _cutoff(q, params: Mapping[str, float], dim=None, tail_tol=None) -> Truncation | None:
    """registry.truncation for one evaluation; plain callables count as
    matrix quantities."""
    from . import registry

    kind = getattr(q, "cutoff", "matrix")
    return registry.truncation(kind, params.get("r", 0.0), dim, tail_tol)


def _first_seen(keys) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and each key's
    index among them."""
    index: dict = {}
    at = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
    return list(index), at


def distinct(*columns) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The distinct rows of equal-length 1-D columns, in order of first
    appearance, as one array per column, and each row's index among them."""
    rows, at = _first_seen(zip(*(np.asarray(c).tolist() for c in columns)))
    return tuple(np.array(rows, dtype=float).reshape(len(rows), len(columns)).T), at


def evaluate(
    quantity, params: Mapping, dim: int | None = None, tail_tol: float | None = None
) -> tuple[np.ndarray, list[int]]:
    """Values of a quantity at every point of its parameters, and the
    cutoffs used.

    params maps each parameter to a float, held fixed, or to a 1-D array
    with one entry per point; the arrays share one length.  An r outside
    [0, SQUEEZE_LIMIT] is a ValueError before anything is evaluated.  The
    points are grouped by registry.truncation(cutoff, r, dim, tail_tol),
    and q.fn runs once per group with the arrays restricted to the group,
    then once more at 1.5x that cutoff; analytic quantities (cutoff None)
    run once.  Each point must be finite, at both cutoffs, and move by at
    most CONVERGENCE_TOL between them; the first point in order that does
    not is named in the NumericalFailureError or ConvergenceError.
    """
    from . import registry

    q = _resolve(quantity)
    name = getattr(q, "name", q)
    arrays = {k: np.asarray(v, dtype=float) for k, v in params.items() if np.ndim(v)}
    size = len(next(iter(arrays.values()))) if arrays else 1
    r = np.broadcast_to(np.asarray(params.get("r", 0.0), dtype=float), (size,))
    outside = ~((r >= 0.0) & (r <= SQUEEZE_LIMIT))
    if np.any(outside):
        raise ValueError(f"r must lie in [0, {SQUEEZE_LIMIT}], got {r[outside][0]}")
    (rs,), r_at = distinct(r)
    kind = getattr(q, "cutoff", "matrix")
    bases, group_of_r = _first_seen(registry.truncation(kind, x, dim, tail_tol) for x in rs)
    group = group_of_r[r_at]
    v1 = np.empty(size)
    v2 = np.empty(size)
    for g, base in enumerate(bases):
        idx = np.flatnonzero(group == g)
        sub = {k: arrays[k][idx] if k in arrays else v for k, v in params.items()}
        v1[idx] = q.fn(base, **sub)
        v2[idx] = v1[idx] if base is None else q.fn(base.scaled(1.5), **sub)

    def point(i: int) -> dict:
        return {k: float(arrays[k][i]) if k in arrays else v for k, v in params.items()}

    bad = ~(np.isfinite(v1) & np.isfinite(v2))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        base = bases[group[i]]
        where = "" if base is None else (
            f" at dim {base.dim} ({float(v1[i])!r}) or dim {base.scaled(1.5).dim}"
        )
        raise NumericalFailureError(
            f"{name} is not finite{where} ({float(v2[i])!r}) at {point(i)}"
        )
    moved = np.abs(v1 - v2) > CONVERGENCE_TOL
    if np.any(moved):
        i = int(np.flatnonzero(moved)[0])
        base = bases[group[i]]
        raise ConvergenceError(
            f"{name} moved by {abs(v1[i] - v2[i]):.3e} between "
            f"dim {base.dim} and dim {base.scaled(1.5).dim} at {point(i)}"
        )
    return v1, sorted({b.dim for b in bases if b is not None})


def sweep(
    spec: SweepSpec,
    quantity,
    second: SweepSpec | None = None,
    dim: int | None = None,
    tail_tol: float | None = None,
) -> SweepResult:
    """Evaluate a quantity on a 1-D or 2-D uniform grid.

    Row order is ascending in the first grid, then the second; identical
    specs give bit-identical results.  The grid is one evaluate() call:
    each point runs at registry.truncation(cutoff, r, dim, tail_tol),
    where dim and tail_tol are the user's overrides and None keeps the
    default.  Unknown or missing parameters are a ValueError before any
    evaluation.  Any row failing the convergence check aborts the sweep
    with the offending parameters in the message.
    """
    q = _resolve(quantity)
    name = getattr(q, "name", "value")
    given = {**spec.fixed, **(second.fixed if second is not None else {})}
    swept = (spec.variable,) if second is None else (spec.variable, second.variable)
    _check_parameters(q, set(given), swept)
    fixed = {**getattr(q, "defaults", {}), **given}
    xs = spec.grid()
    if second is None:
        grid = {spec.variable: xs}
    else:
        ys = second.grid()
        grid = {spec.variable: np.repeat(xs, len(ys)), second.variable: np.tile(ys, len(xs))}
    values, dims = evaluate(q, {**fixed, **grid}, dim, tail_tol)
    metadata = {
        "quantity": name,
        "convergence_tol": CONVERGENCE_TOL,
        "dims": dims if dims else "analytic",
        "fixed": fixed,
    }
    return SweepResult(swept + (name,), np.column_stack([*grid.values(), values]), metadata)


@dataclasses.dataclass(frozen=True)
class MaximizeResult:
    """Argmax/value pair plus a post-hoc unimodality flag.

    Iterates as (argmax, value) so callers can tuple-unpack.
    """

    argmax: float
    value: float
    unimodal: bool

    def __iter__(self):
        return iter((self.argmax, self.value))


def _objective(quantity) -> Callable[[float], float]:
    if callable(quantity):
        return quantity
    q = _resolve(quantity)
    var = q.variables[0]

    def f(x: float) -> float:
        params = {**q.defaults, var: float(x)}
        return float(q.fn(_cutoff(q, params), **params))

    return f


def _golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_1d(quantity, lo: float, hi: float, tol: float = GOLDEN_TOL) -> MaximizeResult:
    """Golden-section maximization after a 41-point bracketing scan.

    A 201-point grid check afterwards guards against missed modes: if any
    grid value beats the polished maximum, the search is repeated around
    the grid winner and the result is flagged non-unimodal.
    """
    f = _objective(quantity)
    xs = np.linspace(lo, hi, SCAN_POINTS)
    vals = np.array([f(x) for x in xs])
    best = int(np.argmax(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, SCAN_POINTS - 1)]
    x_star, v_star = _golden_section(f, float(a), float(b), tol)
    if vals[best] > v_star:
        x_star, v_star = float(xs[best]), float(vals[best])
    unimodal = True
    check = np.linspace(lo, hi, CHECK_POINTS)
    cvals = np.array([f(x) for x in check])
    cbest = int(np.argmax(cvals))
    if cvals[cbest] > v_star + 1e-9:
        unimodal = False
        a2 = check[max(cbest - 1, 0)]
        b2 = check[min(cbest + 1, CHECK_POINTS - 1)]
        x2, v2 = _golden_section(f, float(a2), float(b2), tol)
        if v2 > v_star:
            x_star, v_star = x2, v2
    return MaximizeResult(float(x_star), float(v_star), unimodal)


def find_crossing(f, g, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Bisection root of f - g on [lo, hi]; the difference must change sign."""

    def h(x: float) -> float:
        return f(x) - g(x)

    ha = h(lo)
    hb = h(hi)
    if ha == 0.0:
        return lo
    if hb == 0.0:
        return hi
    if (ha > 0.0) == (hb > 0.0):
        raise NoCrossingError(
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
