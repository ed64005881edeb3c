"""Sweeps, 1-D maximization and crossing detection for the figure data.

Quantities are addressed by a registered name (see registry.py) or by
the registry.Quantity itself.  A sweep is one grouped evaluation: its
points are grouped by cutoff, and the quantity runs once per group on
arrays of the group's parameter values, then once more at
1.5x the cutoff; every row must agree between the two within
CONVERGENCE_TOL, so published tables are convergence-checked row by row.
The scan and check grids of maximize_1d are grouped the same way, one call
per cutoff and no recheck.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .fockspace import SQUEEZE_LIMIT, NumericalFailureError

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
    """The registry.Quantity of a registered name, or the Quantity given."""
    if isinstance(quantity, str):
        from . import registry

        return registry.resolve(quantity)
    return quantity


def _check_parameters(q, given: set[str], swept: tuple[str, ...]) -> None:
    """Reject, before anything is evaluated, a name that is both fixed by
    the caller and swept, a swept or fixed name the quantity does not take,
    and a variable left without a value."""
    both = sorted(given & set(swept))
    if both:
        raise ValueError(f"cannot both sweep and fix {', '.join(both)}")
    known = set(q.variables) | set(q.defaults)
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
    missing = [var for var in q.variables if var not in have]
    if missing:
        raise ValueError(f"{q.name} needs a value for {', '.join(missing)}")


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


def _require_finite(values: np.ndarray, name: str, point: Callable[[int], dict]) -> np.ndarray:
    """values, or a NumericalFailureError naming the first point in order
    whose value is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NumericalFailureError(f"{name} is not finite ({float(values[i])!r}) at {point(i)}")
    return values


@dataclasses.dataclass(frozen=True)
class _Groups:
    """The points of a parameter mapping grouped by cutoff: cutoffs holds
    the distinct registry.truncation values in order of first appearance,
    and group each point's index among them."""

    params: Mapping
    arrays: dict
    cutoffs: list
    group: np.ndarray

    def __iter__(self):
        """(cutoff, the group's point indices, params restricted to them)
        for each group in order; every parameter is a 1-D array of the
        group's length, a fixed one repeated."""
        for g, cutoff in enumerate(self.cutoffs):
            idx = np.flatnonzero(self.group == g)
            yield cutoff, idx, {
                k: self.arrays[k][idx] if k in self.arrays else np.full(len(idx), float(v))
                for k, v in self.params.items()
            }

    def point(self, i: int) -> dict:
        return {
            k: float(self.arrays[k][i]) if k in self.arrays else v for k, v in self.params.items()
        }


def _by_cutoff(q, params: Mapping, dim, tail_tol) -> _Groups:
    """The points of params (see evaluate) grouped by
    registry.truncation(q.cutoff, r, dim, tail_tol), one lookup per
    distinct r.  An r outside [0, SQUEEZE_LIMIT] is a ValueError."""
    from . import registry

    arrays = {k: np.asarray(v, dtype=float) for k, v in params.items() if np.ndim(v)}
    size = len(next(iter(arrays.values()))) if arrays else 1
    r = np.broadcast_to(np.asarray(params.get("r", 0.0), dtype=float), (size,))
    outside = ~((r >= 0.0) & (r <= SQUEEZE_LIMIT))
    if np.any(outside):
        raise ValueError(f"r must lie in [0, {SQUEEZE_LIMIT}], got {r[outside][0]}")
    (rs,), r_at = distinct(r)
    cutoffs, group_of_r = _first_seen(registry.truncation(q.cutoff, x, dim, tail_tol) for x in rs)
    return _Groups(params, arrays, cutoffs, group_of_r[r_at])


class Evaluation(NamedTuple):
    """evaluate's values, the cutoff dims used, and the largest move
    |v(dim) - v(1.5 dim)| with the point where it happens (the first such
    point; analytic quantities move by 0)."""

    values: np.ndarray
    dims: list[int]
    max_move: float
    max_move_at: dict


def evaluate(
    quantity, params: Mapping, dim: int | None = None, tail_tol: float | None = None
) -> Evaluation:
    """Values of a quantity at every point of its parameters, the cutoffs
    used and the largest move between them.

    params maps each parameter to a float, held fixed, or to a 1-D array
    with one entry per point; the arrays share one length.  An r outside
    [0, SQUEEZE_LIMIT] is a ValueError before anything is evaluated.  The
    points are grouped by registry.truncation(cutoff, r, dim, tail_tol),
    and q.fn runs once per group with every parameter as an array over the
    group's points, then once more at 1.5x that cutoff; analytic
    quantities (cutoff None) run once.  Each point must be finite, at both
    cutoffs, and move by at most CONVERGENCE_TOL between them; the first
    point in order that does not is named in the NumericalFailureError or
    ConvergenceError.
    """
    q = _resolve(quantity)
    groups = _by_cutoff(q, params, dim, tail_tol)
    v1 = np.empty(len(groups.group))
    v2 = np.empty(len(groups.group))
    for cutoff, idx, sub in groups:
        v1[idx] = q.fn(cutoff, **sub)
        v2[idx] = v1[idx] if cutoff is None else q.fn(cutoff.scaled(1.5), **sub)
    bad = ~(np.isfinite(v1) & np.isfinite(v2))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        base = groups.cutoffs[groups.group[i]]
        where = "" if base is None else (
            f" at dim {base.dim} ({float(v1[i])!r}) or dim {base.scaled(1.5).dim}"
        )
        raise NumericalFailureError(
            f"{q.name} is not finite{where} ({float(v2[i])!r}) at {groups.point(i)}"
        )
    move = np.abs(v1 - v2)
    moved = move > CONVERGENCE_TOL
    if np.any(moved):
        i = int(np.flatnonzero(moved)[0])
        base = groups.cutoffs[groups.group[i]]
        raise ConvergenceError(
            f"{q.name} moved by {move[i]:.3e} between "
            f"dim {base.dim} and dim {base.scaled(1.5).dim} at {groups.point(i)}"
        )
    worst = int(np.argmax(move))
    dims = sorted({b.dim for b in groups.cutoffs if b is not None})
    return Evaluation(v1, dims, float(move[worst]), groups.point(worst))


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
    given = {**spec.fixed, **(second.fixed if second is not None else {})}
    swept = (spec.variable,) if second is None else (spec.variable, second.variable)
    _check_parameters(q, set(given), swept)
    fixed = {**q.defaults, **given}
    xs = spec.grid()
    if second is None:
        grid = {spec.variable: xs}
    else:
        ys = second.grid()
        grid = {spec.variable: np.repeat(xs, len(ys)), second.variable: np.tile(ys, len(xs))}
    result = evaluate(q, {**fixed, **grid}, dim, tail_tol)
    metadata = {
        "quantity": q.name,
        "convergence_tol": CONVERGENCE_TOL,
        "dims": result.dims if result.dims else "analytic",
        "fixed": fixed,
        "max_move": result.max_move,
        "max_move_at": result.max_move_at,
    }
    return SweepResult(
        swept + (q.name,), np.column_stack([*grid.values(), result.values]), metadata
    )


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


@dataclasses.dataclass(frozen=True)
class ArrayObjective:
    """A function of one variable that takes a 1-D array of points and
    returns one value per point, so that maximize_1d evaluates each of its
    grids in one call.  A value that is not finite is a
    NumericalFailureError naming the first such point as {var: x}."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "objective"
    var: str = "x"

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(self.fn(xs), dtype=float)
        return _require_finite(values, self.name, lambda i: {self.var: float(xs[i])})


def objective(quantity, dim: int | None = None, tail_tol: float | None = None) -> ArrayObjective:
    """A registered quantity (a name or a Quantity) as a function of its
    first variable, the others at their defaults: each array of points is
    one q.fn call per cutoff group registry.truncation(q.cutoff, r, dim,
    tail_tol), with no 1.5x recheck."""
    q = _resolve(quantity)
    var = q.variables[0]

    def values(xs: np.ndarray) -> np.ndarray:
        out = np.empty(len(xs))
        for cutoff, idx, sub in _by_cutoff(q, {**q.defaults, var: xs}, dim, tail_tol):
            out[idx] = q.fn(cutoff, **sub)
        return out

    return ArrayObjective(values, q.name, var)


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
    the grid winner and the result is flagged non-unimodal.  quantity is
    an ArrayObjective, or a registered name or Quantity (see objective).
    The scan and the check grid are one objective call each, and golden
    section calls it on one-point arrays; a value that is not finite is a
    NumericalFailureError naming the first such point.
    """
    on_grid = quantity if isinstance(quantity, ArrayObjective) else objective(quantity)

    def f(x: float) -> float:
        return float(on_grid(np.array([x]))[0])

    xs = np.linspace(lo, hi, SCAN_POINTS)
    vals = on_grid(xs)
    best = int(np.argmax(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, SCAN_POINTS - 1)]
    x_star, v_star = _golden_section(f, float(a), float(b), tol)
    if vals[best] > v_star:
        x_star, v_star = float(xs[best]), float(vals[best])
    unimodal = True
    check = np.linspace(lo, hi, CHECK_POINTS)
    cvals = on_grid(check)
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
    """Bisection root of f - g on [lo, hi]; the difference must change
    sign, and a difference that is not finite is a NumericalFailureError
    naming its point."""

    def h(x: float) -> float:
        value = np.array([f(x) - g(x)], dtype=float)
        return float(_require_finite(value, "f - g", lambda i: {"x": float(x)})[0])

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
