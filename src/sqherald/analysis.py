"""Sweeps, 1-D maximization and crossing detection for the figure data.

Quantities are addressed either by a registered name (see registry.py) or
by passing a callable directly.  Every swept evaluation of a truncated
quantity is recomputed at 1.5x the cutoff and must agree within
CONVERGENCE_TOL, so published tables are convergence-checked row by row.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from .fockspace import NumericalFailureError, Truncation

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


def _evaluate_checked(q, params: dict, dim, tail_tol) -> tuple[float, int | None]:
    """Value at the working cutoff, after agreeing with the 1.5x cutoff."""
    base = _cutoff(q, params, dim, tail_tol)
    if base is None:
        return float(q.fn(None, **params)), None
    v1 = float(q.fn(base, **params))
    v2 = float(q.fn(base.scaled(1.5), **params))
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise NumericalFailureError(
            f"{getattr(q, 'name', q)} is not finite at dim {base.dim} ({v1!r}) "
            f"or dim {base.scaled(1.5).dim} ({v2!r}) at {params}"
        )
    if abs(v1 - v2) > CONVERGENCE_TOL:
        raise ConvergenceError(
            f"{getattr(q, 'name', q)} moved by {abs(v1 - v2):.3e} between "
            f"dim {base.dim} and dim {base.scaled(1.5).dim} at {params}"
        )
    return v1, base.dim


def sweep(
    spec: SweepSpec,
    quantity,
    second: SweepSpec | None = None,
    dim: int | None = None,
    tail_tol: float | None = None,
) -> SweepResult:
    """Evaluate a quantity on a 1-D or 2-D uniform grid.

    Row order is ascending in the first grid, then the second; identical
    specs give bit-identical results.  Each point runs at
    registry.truncation(cutoff, r, dim, tail_tol): dim and tail_tol are
    the user's overrides, None keeps the default.  Unknown or missing
    parameters are a ValueError before any evaluation.  Any row failing
    the convergence check aborts the sweep with the offending parameters
    in the message.
    """
    q = _resolve(quantity)
    name = getattr(q, "name", "value")
    given = {**spec.fixed, **(second.fixed if second is not None else {})}
    swept = (spec.variable,) if second is None else (spec.variable, second.variable)
    _check_parameters(q, set(given), swept)
    fixed = {**getattr(q, "defaults", {}), **given}
    xs = spec.grid()
    dims: set[int] = set()
    rows = []
    if second is None:
        columns = (spec.variable, name)
        for x in xs:
            params = {**fixed, spec.variable: float(x)}
            val, used = _evaluate_checked(q, params, dim, tail_tol)
            if used is not None:
                dims.add(used)
            rows.append((float(x), val))
    else:
        columns = (spec.variable, second.variable, name)
        ys = second.grid()
        for x in xs:
            for y in ys:
                params = {**fixed, spec.variable: float(x), second.variable: float(y)}
                val, used = _evaluate_checked(q, params, dim, tail_tol)
                if used is not None:
                    dims.add(used)
                rows.append((float(x), float(y), val))
    metadata = {
        "quantity": name,
        "convergence_tol": CONVERGENCE_TOL,
        "dims": sorted(dims) if dims else "analytic",
        "fixed": fixed,
    }
    return SweepResult(columns, np.array(rows), metadata)


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
