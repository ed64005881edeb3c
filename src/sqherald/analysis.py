"""Sweeps, 1-D maximization and crossing detection for the figure data.

Quantities are addressed by a registered name (see registry.py) or by
the registry.Quantity itself.  A sweep is one evaluation: every point
gets its own cutoff, from one call of the quantity's cutoff policy on
the column's distinct r, and the quantity runs once on arrays of all the
points' parameter values, with the points' cutoffs and 1.5x them in the
same call (a closed form takes none); every row must agree between the
two within CONVERGENCE_TOL, so published tables are convergence-checked
row by row.  The scan and check grids of maximize_1d are one call each,
at the points' cutoffs and with no recheck; its golden section, and the
bisection of find_crossing, take one call per step.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .fockspace import SQUEEZE_LIMIT, CutoffColumn, NumericalFailureError

CONVERGENCE_TOL = 1e-8
GOLDEN_TOL = 1e-4
SCAN_POINTS = 41
CHECK_POINTS = 201

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(NumericalFailureError):
    """A swept value moved by more than the tolerance when the cutoff grew
    (exit 2 from ``cli.main``, as every NumericalFailureError)."""


class NoCrossingError(NumericalFailureError):
    """The difference of the two curves does not change sign on the bracket
    (exit 2 from ``cli.main``, as every NumericalFailureError)."""


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Uniform grid for one variable plus fixed values for the others.

    A single-point grid (points = 1) evaluates the quantity once at lo,
    which the quantity checks; a longer one needs lo < hi with a finite
    span hi - lo.
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
        elif not math.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"lo = {self.lo}, hi = {self.hi}: the grid needs a finite span")
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


def distinct(*columns) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The distinct rows of equal-length 1-D columns, in order of first
    appearance, as one array per column, and each row's index among them.
    Rows are equal when every column compares equal, so -0.0 equals 0.0
    (the first one seen is kept) and each NaN is distinct."""
    columns = [np.asarray(c) for c in columns]
    size = len(columns[0])
    # a stable sort keeps equal rows in point order, the first one first
    order = np.lexsort(columns[::-1])
    new = np.zeros(size, dtype=bool)
    new[:1] = True
    for c in columns:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    group = np.cumsum(new) - 1
    first = order[new]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    at = np.empty(size, dtype=np.intp)
    at[order] = rank[group]
    first.sort()
    return tuple(c[first] for c in columns), at


def _require_finite(values: np.ndarray, name: str, point: Callable[[int], dict]) -> np.ndarray:
    """values, or a NumericalFailureError naming the first point in order
    whose value is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NumericalFailureError(f"{name} is not finite ({float(values[i])!r}) at {point(i)}")
    return values


@dataclasses.dataclass(frozen=True)
class _Points:
    """The points of a parameter mapping: columns holds every parameter as
    a 1-D array over the points, a fixed one repeated, and cutoffs the
    points' CutoffColumn as its one entry, or none for a closed form."""

    params: Mapping
    arrays: dict
    columns: dict
    cutoffs: tuple[CutoffColumn, ...]

    def point(self, i: int) -> dict:
        return {
            k: float(self.arrays[k][i]) if k in self.arrays else v for k, v in self.params.items()
        }


def _points(q, params: Mapping, dim, tail_tol) -> _Points:
    """The points of params (see evaluate), each at its cutoff of
    q.cutoff(r, dim, tail_tol), one call for the distinct r.  An r
    outside [0, SQUEEZE_LIMIT] is a ValueError."""
    arrays = {k: np.asarray(v, dtype=float) for k, v in params.items() if np.ndim(v)}
    size = len(next(iter(arrays.values()))) if arrays else 1
    columns = {k: arrays[k] if k in arrays else np.full(size, float(v)) for k, v in params.items()}
    r = np.broadcast_to(np.asarray(params.get("r", 0.0), dtype=float), (size,))
    outside = ~((r >= 0.0) & (r <= SQUEEZE_LIMIT))
    if np.any(outside):
        raise ValueError(f"r must lie in [0, {SQUEEZE_LIMIT}], got {r[outside][0]}")
    cutoffs = ()
    if q.cutoff is not None:
        (rs,), r_at = distinct(r)
        cutoffs = (q.cutoff(rs, dim, tail_tol).take(r_at),)
    return _Points(params, arrays, columns, cutoffs)


class Evaluation(NamedTuple):
    """evaluate's values, the cutoff dims used, and the largest move
    |v(dim) - v(1.5 dim)| with the point where it happens (the first such
    point; closed-form quantities move by 0)."""

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
    [0, SQUEEZE_LIMIT] is a ValueError before anything is evaluated.  Each
    point's cutoff is q.cutoff(r, dim, tail_tol), and q.fn runs once, with
    every parameter as an array over the points and with two
    CutoffColumns, the points' cutoffs and 1.5x them, and returns one row
    for each; a closed form (cutoff None) takes no cutoff and returns one
    row.  Each point must be finite, at both cutoffs, and move by
    at most CONVERGENCE_TOL between them; the first point in order that
    does not is named, with its own dims, in the NumericalFailureError or
    ConvergenceError.
    """
    q = _resolve(quantity)
    points = _points(q, params, dim, tail_tol)
    cutoffs = [*points.cutoffs, *(c.scaled(1.5) for c in points.cutoffs)]
    rows = np.array(q.fn(*cutoffs, **points.columns), dtype=float)
    v1, v2 = rows[0], rows[-1]
    bad = ~(np.isfinite(v1) & np.isfinite(v2))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        where = "" if not cutoffs else (
            f" at dim {cutoffs[0].dims[i]} ({float(v1[i])!r}) or dim {cutoffs[1].dims[i]}"
        )
        raise NumericalFailureError(
            f"{q.name} is not finite{where} ({float(v2[i])!r}) at {points.point(i)}"
        )
    move = np.abs(v1 - v2)
    moved = move > CONVERGENCE_TOL
    if np.any(moved):
        i = int(np.flatnonzero(moved)[0])
        raise ConvergenceError(
            f"{q.name} moved by {move[i]:.3e} between "
            f"dim {cutoffs[0].dims[i]} and dim {cutoffs[1].dims[i]} at {points.point(i)}"
        )
    worst = int(np.argmax(move))
    dims = sorted(set(cutoffs[0].dims.tolist())) if cutoffs else []
    return Evaluation(v1, dims, float(move[worst]), points.point(worst))


def sweep(
    spec: SweepSpec,
    quantity,
    second: SweepSpec | None = None,
    dim: int | None = None,
    tail_tol: float | None = None,
) -> SweepResult:
    """Evaluate a quantity on a 1-D or 2-D uniform grid.

    Row order is ascending in the first grid, then the second; identical
    specs give bit-identical results.  The grid is one evaluate() call at
    the user's dim and tail_tol overrides, None keeping the default.
    Unknown or missing parameters are a ValueError before any evaluation.
    Any row failing the convergence check aborts the sweep with the
    offending parameters in the message.  The metadata's "fixed" holds
    the parameters that are not swept.
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
        "fixed": {k: v for k, v in fixed.items() if k not in swept},
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
    grids in one call; called on a float, it returns a float.  A value that
    is not finite is a NumericalFailureError naming the first such point
    as {var: x}."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "objective"
    var: str = "x"

    def __call__(self, xs):
        if np.ndim(xs) == 0:
            return float(self(np.array([xs]))[0])
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(self.fn(xs), dtype=float)
        return _require_finite(values, self.name, lambda i: {self.var: float(xs[i])})


def objective(
    quantity, dim: int | None = None, tail_tol: float | None = None, **fixed: float
) -> ArrayObjective:
    """A registered quantity (a name or a Quantity) as a function of its
    first variable, the others at fixed, which overrides q.defaults: each
    array of points is one q.fn call, each point at its own cutoff
    q.cutoff(r, dim, tail_tol) (none for a closed form), with no 1.5x
    recheck.  A fixed name the quantity does not take, or a variable left
    without a value, is a ValueError here."""
    q = _resolve(quantity)
    var = q.variables[0]
    _check_parameters(q, set(fixed), (var,))
    params = {**q.defaults, **fixed}

    def values(xs: np.ndarray) -> np.ndarray:
        points = _points(q, {**params, var: xs}, dim, tail_tol)
        return np.array(q.fn(*points.cutoffs, **points.columns)[0], dtype=float)

    return ArrayObjective(values, q.name, var)


def _golden_section(f: ArrayObjective, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximum of f on [a, b] to tol, one call of f per
    step: the midpoint of the final bracket and f there."""
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
    The scan and the check grid are one objective call each, and the
    golden section one per step; a value that is not finite is a
    NumericalFailureError naming the first such point the search visits.
    """
    f = quantity if isinstance(quantity, ArrayObjective) else objective(quantity)
    xs = np.linspace(lo, hi, SCAN_POINTS)
    vals = f(xs)
    best = int(np.argmax(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, SCAN_POINTS - 1)]
    x_star, v_star = _golden_section(f, float(a), float(b), tol)
    if vals[best] > v_star:
        x_star, v_star = float(xs[best]), float(vals[best])
    unimodal = True
    check = np.linspace(lo, hi, CHECK_POINTS)
    cvals = f(check)
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
    naming its point.

    f and g are ArrayObjectives or callables on one float, and each step
    evaluates f(x) - g(x) at its one point: f, then g, then their
    difference are checked there, in that order."""

    def h(x):
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
