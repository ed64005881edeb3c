"""Acceptance checks shared by the CLI `verify` command and the test suite.

Each criterion is a Criterion record whose checks function yields Check
records; calling it renders them, every numeric one with its margin, into
a CriterionResult.  An exception inside a criterion (for example from a
deliberately inadequate forced cutoff) is reported as its failure.
Criteria 5, 9 and 11 check the production kernels against `sqherald.reference`.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, Iterator

import numpy as np

from . import analysis, detect, kerr, reference, registry, sources


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    index: int
    label: str
    passed: bool
    detail: str


# criterion 11's oracle comparisons peak at four complex dim x dim tables
# (traced at dims 300 and 600), the most any criterion holds at once
TABLES_AT_ONCE = 4


@dataclasses.dataclass(frozen=True)
class VerifyConfig:
    """Optional overrides applied to every truncated computation.

    A forced dim is refused (ValueError) when the dense tables the oracles
    hold at once at that dim, TABLES_AT_ONCE complex dim x dim arrays,
    cannot be reserved, so that a cutoff too large to allocate is not
    reported as failed criteria.  This is a reservation probe, not a
    guarantee: a system that overcommits memory may grant the reservation
    and still be unable to back the run."""

    dim: int | None = None
    tail_tol: float | None = None
    eta: float = 0.9

    def __post_init__(self):
        if self.dim is not None:
            try:
                np.empty((TABLES_AT_ONCE, self.dim, self.dim), dtype=complex)
            except (ValueError, OverflowError, MemoryError):
                raise ValueError(f"a forced dim of {self.dim} needs dense {self.dim} x "
                                 f"{self.dim} tables that cannot be allocated") from None

    def trunc(self, r: float) -> reference.Truncation:
        """The dense oracles' cutoff at one r: reference.default_truncation
        of |r|, its dim replaced by a forced dim and its tolerance by a
        forced tail_tol."""
        tail_tol = reference.DEFAULT_TAIL_TOL if self.tail_tol is None else self.tail_tol
        if self.dim is None:
            return reference.default_truncation(r, tail_tol)
        return reference.Truncation(self.dim, tail_tol)

    def column(self, name: str, **params) -> np.ndarray:
        """The registered quantity at every point of params (floats, or 1-D
        arrays of one length) in one analysis.evaluate at these overrides,
        with its 1.5x-cutoff recheck where the quantity has a cutoff."""
        q = registry.resolve(name)
        return analysis.evaluate(q, {**q.defaults, **params}, self.dim, self.tail_tol).values

    def at(self, name: str, **point) -> float:
        """The registered quantity at one point, as column evaluates it."""
        return float(self.column(name, **point)[0])


@dataclasses.dataclass(frozen=True)
class Check:
    """One comparison: its verdict, the measured text, want (a two-sided check's expected
    value) and its margin, the share of the allowed distance used up (None: a predicate)."""

    label: str
    passed: bool
    measured: str
    margin: float | None = None
    want: str | None = None

    @classmethod
    def close(cls, label: str, measured, expected: float, tol: float) -> Check:
        """|measured - expected| <= tol, with margin |measured - expected| / tol."""
        gap = abs(float(measured) - expected)
        return cls(label, gap <= tol, f"{float(measured):.6g}", gap / tol, f"{expected} +- {tol:g}")

    @classmethod
    def below(cls, label: str, measured, bound: float, text=None, strict=False) -> Check:
        """measured <= bound (< if strict), with margin measured / bound."""
        m = float(measured)
        passed = m < bound if strict else m <= bound
        return cls(label, passed, f"{m:.3e}" if text is None else text, m / bound)

    @classmethod
    def above(cls, label: str, measured, floor: float, text: str) -> Check:
        """measured > floor, with margin floor / measured."""
        m = float(measured)
        return cls(label, m > floor, text, floor / m)

    def __str__(self) -> str:
        text = (f"{self.label}: {self.measured}" if self.want is None
                else f"{self.label} = {self.measured} (want {self.want})")
        margin = "" if self.margin is None else f" (margin {_percent(self.margin, self.passed)}%)"
        return text + margin


def _percent(margin: float, passed: bool) -> str:
    """100 * margin to at least 4 significant digits, and to more where a
    failing check would otherwise not read above 100."""
    for digits in range(4, 17):
        text = f"{100 * margin:.{digits}g}"
        if (float(text) > 100) != passed:
            break
    return text


@dataclasses.dataclass(frozen=True)
class Criterion:
    """A numbered acceptance criterion whose checks function yields its Check
    records; it is named criterion_<index> like the function it wraps."""

    index: int
    label: str
    checks: Callable[[VerifyConfig], Iterable[Check]]

    @property
    def __name__(self) -> str:
        return f"criterion_{self.index}"

    def __call__(self, cfg: VerifyConfig) -> CriterionResult:
        try:
            checks = list(self.checks(cfg))
        except Exception as exc:  # deliberate: report, do not crash the suite
            return CriterionResult(self.index, self.label, False, f"error: {exc!r}")
        detail = "; ".join(map(str, checks))
        return CriterionResult(self.index, self.label, all(c.passed for c in checks), detail)


def _criterion(index: int, label: str):
    return lambda checks: Criterion(index, label, checks)


@_criterion(1, "branch weights at r = 0.725")
def criterion_1(cfg: VerifyConfig) -> Iterator[Check]:
    yield Check.close("N_+(0.725)/4", sources.herald_probability(0.725, +1), 0.833, 5e-4)
    yield Check.close("N_-(0.725)/4", sources.herald_probability(0.725, -1), 0.167, 5e-4)


@_criterion(2, "herald-row probabilities at r = 0.725")
def criterion_2(cfg: VerifyConfig) -> Iterator[Check]:
    minus = cfg.column("p1n_cat_minus", n=np.arange(6.0), r=0.725)
    yield Check.close("P(1,1;-)", minus[1], 0.453, 5e-4)
    yield Check.close("P(1,5;-)", minus[5], 7.85e-3, 5e-5)
    for n in (0, 2, 3, 4):
        yield Check.below(f"P(1,{n};-) = 0", minus[n], 1e-12)
    yield Check.close("P(1,1)", cfg.at("p1n_squeezed", n=1.0, r=0.725), 7.54e-2, 5e-5)


@_criterion(3, "single-photon conditionals")
def criterion_3(cfg: VerifyConfig) -> Iterator[Check]:
    for label, name, r, expected in (
        ("P_c(0.725;-)", "pc_cat_minus", 0.725, 0.983),
        ("P_c(0.725)", "pc_squeezed", 0.725, 0.859),
        ("P_c(1.146;-)", "pc_cat_minus", 1.146, 0.9488),
    ):
        yield Check.close(label, cfg.at(name, r=r), expected, 5e-4)


# Criteria 4 and 5 take r* and the maximum from the closed form and read
# production at r* and on this grid.  Each quantity is a function of
# u = tanh^2 r, which rises with r, and its u-derivative changes sign once,
# so no grid value may exceed the value at r*.  The float r* misses the
# true argmax by about an ulp, which moves the value only at second order,
# so the gap to the maximum is production's rounding.  The bounds count
# relative error in u = 2^-53, taking numpy's sinh, cosh, tanh and pow
# within 4u each (the bound of its SVML-based SIMD kernels; libm is
# tighter) and each arithmetic step within u/2.
PEAK_GRID = np.linspace(0.0, 2.0, 201)


def _peak_checks(cfg: VerifyConfig, name: str, value: float, peak: float, form: str,
                 ulps: float) -> Iterator[Check]:
    """value, the quantity at its closed-form argmax, within ulps of the
    closed-form maximum peak (written form), and no value of the quantity
    on PEAK_GRID above it."""
    gap = abs(value - peak) / math.ulp(peak)
    yield Check.below(f"value at r* vs {form}", gap, ulps, f"{gap:g} ulp")
    column = cfg.column(name, r=PEAK_GRID)
    i = int(np.argmax(column))
    yield Check("no value on the 201-point grid above r*'s", bool(column[i] <= value),
                f"grid max at r = {PEAK_GRID[i]:g}")


@_criterion(4, "pair-yield maximization")
def criterion_4(cfg: VerifyConfig) -> Iterator[Check]:
    # tanh^2 r / (4 cosh r) = u sqrt(1 - u) / 4 has u-derivative
    # (2 - 3u) / (8 sqrt(1 - u)): the maximum is 1/(6 sqrt 3) at u = 2/3.
    # Production forms sinh^2 r / (4 cosh^3 r), since the bit-identical
    # c (c + 1) of N_-/4 and of the pair factor cancels: 2 x 4 + 1/2 for
    # sinh^2, 3 x 4 + 4 for cosh^3 and three more roundings make 26u, and
    # 1/(6 sqrt 3) adds 3u/2: 27.5u, or 21.2 ulp of the maximum.
    r_star = math.atanh(math.sqrt(2.0 / 3.0))
    value = cfg.at("herald_yield_cat_minus", r=r_star)
    yield Check.close("argmax_r of the pair yield", r_star, 1.146, 1e-3)
    yield Check.close("max pair yield", value, 0.09623, 1e-4)
    yield from _peak_checks(cfg, "herald_yield_cat_minus", value,
                            1.0 / (6.0 * math.sqrt(3.0)), "1/(6 sqrt 3)", 22)


@_criterion(5, "benchmark maximization and herald row")
def criterion_5(cfg: VerifyConfig) -> Iterator[Check]:
    # P(1,1) = u (1 - u) has its maximum 1/4 at u = 1/2.  Production forms
    # tanh^2 r / cosh^2 r: 2 x 4 + 1/2 for each square and 1/2 for the
    # quotient make 17.5u, or 8.75 ulp of 1/4.
    r_star = math.atanh(1.0 / math.sqrt(2.0))
    value = cfg.at("p11_tmss", r=r_star)
    yield Check.close("argmax_r of benchmark P(1,1)", r_star, 0.881, 1e-3)
    yield Check.close("max benchmark P(1,1)", value, 0.2500, 1e-6)
    yield from _peak_checks(cfg, "p11_tmss", value, 0.25, "1/4", 9)
    dist = reference.tmss_joint_probability(0.881, cfg.trunc(0.881))
    off = float(np.max(np.abs(np.delete(dist.p[1, :], 1))))
    yield Check.below("P(1, n_b != 1) = 0", off, 1e-12, f"max off-entry {off:.3e}")


@_criterion(6, "benchmark single-photon click probability")
def criterion_6(cfg: VerifyConfig) -> Iterator[Check]:
    p_click_1 = cfg.at("pclick1_tmss", r=0.5, eta=0.9)
    yield Check.close("benchmark p_click_1(0.5, 0.9)", p_click_1, 0.151, 5e-4)


@_criterion(7, "phase-noise decay-rate fits")
def criterion_7(cfg: VerifyConfig) -> Iterator[Check]:
    sigmas = np.linspace(0.0, kerr.FIT_SIGMA_MAX, kerr.FIT_SAMPLES)
    for alpha, rate in ((9.0, 3401.0), (10.0, 5102.0), (11.0, 7360.0)):
        ratios = cfg.column("phase_ratio", sigma=sigmas, r=0.725, alpha=alpha)
        decay_rate, _ = kerr.fit_lambda(zip(sigmas, ratios))
        yield Check.close(f"decay rate, alpha = {alpha:g}", decay_rate, rate, 0.01 * rate)


@_criterion(8, "small-r click limits at eta = 0.9")
def criterion_8(cfg: VerifyConfig) -> Iterator[Check]:
    point = {"r": 0.01, "eta": 0.9}
    yield Check.close("p_click_c at r = 0.01", cfg.at("pclickc_cat_minus", **point), 0.9524, 1e-3)
    p_click_1 = cfg.at("pclick1_cat_minus", **point)
    # an open interval around 0.45, so its margin is two-sided
    yield Check("p_click_1 in (0.44, 0.46)", 0.44 < p_click_1 < 0.46, f"{p_click_1:.6g}",
                abs(p_click_1 - 0.45) / 0.01)
    bench = cfg.at("pclick1_tmss", **point)
    yield Check.below("benchmark p_click_1 < 1e-3", bench, 1e-3, strict=True)


@_criterion(9, "benchmark g2 oracles")
def criterion_9(cfg: VerifyConfig) -> Iterator[Check]:
    rs = np.linspace(0.04, 2.0, 50)
    etas = np.array([0.7, 0.775, 0.85, 0.925, 1.0])
    # the benchmark tables are diagonal: the r of each cutoff share one
    # photon-number array, which meets the click weights of all five
    # efficiencies in one product; the default cutoffs grow with r, so
    # taking the smallest first names the first r that fails a check
    # (a set, since numpy 2.4's plain np.unique imports numpy.ma, 13 ms)
    dims = reference.default_dims(rs) if cfg.dim is None else np.full(len(rs), cfg.dim)
    numeric = np.empty((len(rs), len(etas)))
    for dim in sorted(set(dims.tolist())):
        at = dims == dim
        numeric[at] = reference.tmss_g2_numeric(rs[at], cfg.trunc(float(rs[at][0])), etas)
    worst = float(np.max(np.abs(numeric - detect.benchmark_g2(rs[:, None], etas))))
    yield Check.below("numeric vs closed form on 50x5 grid", worst, 1e-8, f"max gap {worst:.3e}")
    worst_perfect = float(np.max(np.abs(detect.benchmark_g2(rs, 1.0))))
    yield Check.below("g2 = 0 at eta = 1", worst_perfect, 1e-10, f"max |g2| {worst_perfect:.3e}")
    yield Check.close("g2 at r -> 0, eta = 0.9", detect.benchmark_g2(0.0, 0.9), 0.2222, 1e-4)


@_criterion(10, "quality crossover")
def criterion_10(cfg: VerifyConfig) -> Iterator[Check]:
    # at eta = 1 the benchmark g2 is identically 0, so there is no crossing
    # and find_crossing raises NoCrossingError
    def g2(name):
        return lambda r: cfg.at(name, r=r, eta=cfg.eta)

    r_cross = analysis.find_crossing(g2("g2_cat_minus"), g2("g2_tmss"), 0.02, 2.0, tol=1e-4)
    yield Check.close(f"g2 crossover at eta = {cfg.eta:g}", r_cross, 0.504, 5e-3)


@_criterion(11, "property suites")
def criterion_11(cfg: VerifyConfig) -> Iterator[Check]:
    # parity selection: each source only populates its allowed totals
    trunc = cfg.trunc(0.725)
    totals = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
    for sign, residue in ((-1, 2), (+1, 0)):
        state = reference.squeezed_cat(0.725, sign, trunc)
        dist = reference.joint_probability(reference.split(state))
        leak = np.max(dist.p[totals % 4 != residue])
        yield Check.below(f"parity leak, sign {sign:+d}", leak, 1e-14)

    # photon-number conservation block by block on a dense state: every
    # amplitude is nonzero (cos of an integer never vanishes) and the
    # table is not symmetric under n_a <-> n_b
    n_a, n_b = np.indices((24, 24))
    amps = np.cos(n_a + 2.0 * n_b + 1.0) + 1j * np.sin(3.0 * n_a - n_b + 0.5)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    before = reference.TwoModeState(amps, reference.Truncation(24))
    after = reference.apply_beam_splitter(before)
    worst_block = 0.0
    for total in range(24):
        k = np.arange(total + 1)
        m_in = float(np.sum(np.abs(before.amps[k, total - k]) ** 2))
        m_out = float(np.sum(np.abs(after.amps[k, total - k]) ** 2))
        worst_block = max(worst_block, abs(m_in - m_out))
    yield Check.below("per-block mass conserved", worst_block, 1e-12)

    # construction-path equivalence at dim 48
    path_trunc = reference.Truncation(48)
    direct = reference.split(reference.squeezed_vacuum(0.725, path_trunc))
    decomposed = reference.split_via_squeezer_decomposition(0.725, path_trunc)
    gap = float(np.max(np.abs(direct.joint_distribution() - decomposed.joint_distribution())))
    yield Check.below("squeezer-decomposition path", gap, 1e-8, f"max table gap {gap:.3e}")

    # the closed forms against the dense split at each r's cutoff: P(1,1),
    # P_c, the pair yield and g2 of the odd branch
    rs = (0.3, 0.725, 1.146, 2.0)
    dense = []
    for r in rs:
        dist = reference.joint_probability(
            reference.split(reference.squeezed_cat(r, -1, cfg.trunc(r))))
        dense.append([dist.p[1, 1], reference.single_photon_fraction(dist.p[1]),
                      sources.herald_probability(r, -1) * dist.p[1, 1],
                      reference.g2_numeric(dist, cfg.eta)])
    closed = np.column_stack([
        cfg.column(name, r=np.array(rs), **params) for name, params in (
            ("p11_cat_minus", {}), ("pc_cat_minus", {}), ("herald_yield_cat_minus", {}),
            ("g2_cat_minus", {"eta": cfg.eta}))])
    gap = float(np.max(np.abs(closed - np.array(dense))))
    yield Check.below("closed form vs dense split", gap, 1e-8, f"max gap {gap:.3e}")

    # dominance of the odd superposition over the benchmark
    grid = np.linspace(0.01, 2.0, 200)
    dom_ok = bool(np.all(cfg.column("p11_cat_minus", r=grid) > cfg.column("p11_tmss", r=grid)))
    cond_ok = bool(np.all(cfg.column("pc_cat_minus", r=grid) >= cfg.column("pc_squeezed", r=grid)))
    yield Check("P(1,1;-) > benchmark P(1,1) on 200-point grid", dom_ok, str(dom_ok))
    yield Check("P_c(-) >= P_c on 200-point grid", cond_ok, str(cond_ok))

    # click-probability orderings over the (r, eta) surface
    surface = {
        "r": np.repeat(np.linspace(0.05, 2.0, 20), 7),
        "eta": np.tile(np.linspace(0.7, 1.0, 7), 20),
    }
    order_ok = bool(np.all(
        (cfg.column("pclick1_cat_minus", **surface) > cfg.column("pclick1_tmss", **surface))
        & (cfg.column("pclickc_cat_minus", **surface) < cfg.column("pclickc_tmss", **surface))
    ))
    yield Check("click orderings on the (r, eta) grid", order_ok, str(order_ok))


@_criterion(12, "small-r emission floor")
def criterion_12(cfg: VerifyConfig) -> Iterator[Check]:
    grid = np.concatenate(([0.004], np.linspace(0.005, 2.0, 400)))
    # each column's lowest point, and why it misses the floor where that is known
    for label, name, why in (
        ("pair yield", "herald_yield_cat_minus",
         "; the yield equals tanh^2(r)/(4 cosh r) < r^2/4 = 4e-6 at r = 0.004, "
         "so the bound is only reached near r = 0.0040000373"),
        ("benchmark P(1,1)", "p11_tmss", ""),
    ):
        vals = cfg.column(name, r=grid)
        i = int(np.argmin(vals))
        text = f"min {vals[i]:.9e} at r = {grid[i]:g}" + ("" if vals[i] > 4e-6 else why)
        yield Check.above(f"{label} > 4e-6 for r >= 0.004", vals[i], 4e-6, text)


CRITERIA = tuple(globals()[f"criterion_{index}"] for index in range(1, 13))


def run_all(cfg: VerifyConfig | None = None) -> list[CriterionResult]:
    cfg = cfg or VerifyConfig()
    return [fn(cfg) for fn in CRITERIA]


def format_report(results: list[CriterionResult]) -> str:
    lines = [f"{'PASS' if r.passed else 'FAIL'} [{r.index:2d}] {r.label}: {r.detail}"
             for r in results]
    failed = [r.index for r in results if not r.passed]
    summary = f"{len(failed)} criterion(s) failed: {failed}" if failed else "all criteria passed"
    return "\n".join(lines + [summary])
