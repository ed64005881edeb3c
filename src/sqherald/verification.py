"""Acceptance checks shared by the CLI `verify` command and the test suite.

Each criterion is a standalone function returning a CriterionResult with a
human-readable measured-vs-expected detail string.  Exceptions raised
inside a criterion (for example by a deliberately inadequate forced
cutoff) are caught and reported as failures rather than crashes.
Criteria 5, 9 and 11 check the production kernels against the reference
paths of `sqherald.reference`.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import analysis, detect, kerr, optics, reference, registry, sources
from .detect import DetectorModel
from .fockspace import Truncation


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    index: int
    label: str
    passed: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class VerifyConfig:
    """Optional overrides applied to every truncated computation."""

    dim: int | None = None
    tail_tol: float | None = None
    eta: float = 0.9

    def trunc(self, r: float) -> Truncation:
        return registry.truncation("matrix", r, self.dim, self.tail_tol)

    def column(self, name: str, **params) -> np.ndarray:
        """The registered quantity at every point of params (floats, or 1-D
        arrays of one length) in one grouped analysis.evaluate at these
        overrides, its 1.5x-cutoff recheck included."""
        q = registry.resolve(name)
        return analysis.evaluate(q, {**q.defaults, **params}, self.dim, self.tail_tol).values


class _Checks:
    """Collects named comparisons and renders them into one detail line."""

    def __init__(self):
        self.parts: list[str] = []
        self.ok = True

    def close(self, label: str, measured: float, expected: float, tol: float):
        good = abs(measured - expected) <= tol
        self.ok = self.ok and good
        self.parts.append(f"{label} = {measured:.6g} (want {expected} +- {tol:g})")
        return good

    def holds(self, label: str, condition: bool, measured: str):
        self.ok = self.ok and condition
        self.parts.append(f"{label}: {measured}")
        return condition

    def detail(self) -> str:
        return "; ".join(self.parts)


def _result(index: int, label: str, fn) -> CriterionResult:
    try:
        checks = fn()
    except Exception as exc:  # deliberate: report, do not crash the suite
        return CriterionResult(index, label, False, f"error: {exc!r}")
    return CriterionResult(index, label, checks.ok, checks.detail())


def criterion_1(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        c.close("N_+(0.725)/4", sources.herald_probability(0.725, +1), 0.833, 5e-4)
        c.close("N_-(0.725)/4", sources.herald_probability(0.725, -1), 0.167, 5e-4)
        return c

    return _result(1, "branch weights at r = 0.725", run)


def criterion_2(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        trunc = cfg.trunc(0.725)
        minus = optics.herald_row(0.725, -1, trunc)
        c.close("P(1,1;-)", float(minus[1]), 0.453, 5e-4)
        c.close("P(1,5;-)", float(minus[5]), 7.85e-3, 5e-5)
        for n in (0, 2, 3, 4):
            c.holds(
                f"P(1,{n};-) = 0",
                float(minus[n]) <= 1e-12,
                f"{float(minus[n]):.3e}",
            )
        sq = optics.herald_row(0.725, None, trunc)
        c.close("P(1,1)", float(sq[1]), 7.54e-2, 5e-5)
        return c

    return _result(2, "herald-row probabilities at r = 0.725", run)


def criterion_3(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        for label, r, sign, expected in (
            ("P_c(0.725;-)", 0.725, -1, 0.983),
            ("P_c(0.725)", 0.725, None, 0.859),
            ("P_c(1.146;-)", 1.146, -1, 0.9488),
        ):
            row = optics.herald_row(r, sign, cfg.trunc(r))
            c.close(label, optics.single_photon_fraction(row), expected, 5e-4)
        return c

    return _result(3, "single-photon conditionals", run)


def criterion_4(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        res = analysis.maximize_1d(
            analysis.objective("herald_yield_cat_minus", cfg.dim, cfg.tail_tol), 0.0, 2.0
        )
        c.close("argmax_r of the pair yield", res.argmax, 1.146, 1e-3)
        c.close("max pair yield", res.value, 0.09623, 1e-4)
        c.holds("unimodal", res.unimodal, str(res.unimodal))
        return c

    return _result(4, "pair-yield maximization", run)


def criterion_5(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        res = analysis.maximize_1d(analysis.objective("p11_tmss", cfg.dim, cfg.tail_tol), 0.0, 2.0)
        c.close("argmax_r of benchmark P(1,1)", res.argmax, 0.881, 1e-3)
        c.close("max benchmark P(1,1)", res.value, 0.2500, 1e-6)
        dist = reference.tmss_joint_probability(0.881, cfg.trunc(0.881))
        off = float(np.max(np.abs(np.delete(dist.p[1, :], 1))))
        c.holds("P(1, n_b != 1) = 0", off <= 1e-12, f"max off-entry {off:.3e}")
        return c

    return _result(5, "benchmark maximization and herald row", run)


def criterion_6(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        p_click_1 = float(cfg.column("pclick1_tmss", r=0.5, eta=0.9)[0])
        c.close("benchmark p_click_1(0.5, 0.9)", p_click_1, 0.151, 5e-4)
        return c

    return _result(6, "benchmark single-photon click probability", run)


def criterion_7(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        trunc = registry.truncation("series", 0.725, cfg.dim, cfg.tail_tol)
        for alpha, expected in ((9.0, 3401.0), (10.0, 5102.0), (11.0, 7360.0)):
            fit = kerr.fitted_decay_rate(0.725, alpha, trunc.dim, trunc.tail_tol)
            c.close(f"decay rate, alpha = {alpha:g}", fit.decay_rate, expected, 0.01 * expected)
        return c

    return _result(7, "phase-noise decay-rate fits", run)


def criterion_8(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        point = {"r": 0.01, "eta": 0.9}
        p_click_c = float(cfg.column("pclickc_cat_minus", **point)[0])
        p_click_1 = float(cfg.column("pclick1_cat_minus", **point)[0])
        bench = float(cfg.column("pclick1_tmss", **point)[0])
        c.close("p_click_c at r = 0.01", p_click_c, 0.9524, 1e-3)
        c.holds("p_click_1 in (0.44, 0.46)", 0.44 < p_click_1 < 0.46, f"{p_click_1:.6g}")
        c.holds("benchmark p_click_1 < 1e-3", bench < 1e-3, f"{bench:.3e}")
        return c

    return _result(8, "small-r click limits at eta = 0.9", run)


def criterion_9(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        rs = np.linspace(0.04, 2.0, 50)
        etas = np.array([0.7, 0.775, 0.85, 0.925, 1.0])
        worst = 0.0
        for r in rs:
            dist = reference.tmss_joint_probability(float(r), cfg.trunc(float(r)))
            numeric = [reference.g2_numeric(dist, DetectorModel(float(eta))) for eta in etas]
            worst = max(worst, float(np.max(np.abs(numeric - detect.benchmark_g2(r, etas)))))
        c.holds("numeric vs closed form on 50x5 grid", worst <= 1e-8, f"max gap {worst:.3e}")
        worst_perfect = float(np.max(np.abs(detect.benchmark_g2(rs, 1.0))))
        c.holds("g2 = 0 at eta = 1", worst_perfect <= 1e-10, f"max |g2| {worst_perfect:.3e}")
        c.close("g2 at r -> 0, eta = 0.9", float(detect.benchmark_g2(0.0, 0.9)), 0.2222, 1e-4)
        return c

    return _result(9, "benchmark g2 oracles", run)


def criterion_10(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        r_cross = detect.quality_crossover(DetectorModel(cfg.eta), cutoff=cfg.trunc)
        c.close(f"g2 crossover at eta = {cfg.eta:g}", r_cross, 0.504, 5e-3)
        return c

    return _result(10, "quality crossover", run)


def criterion_11(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()

        # parity selection: each source only populates its allowed totals
        trunc = cfg.trunc(0.725)
        totals = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
        for sign, residue in ((-1, 2), (+1, 0)):
            state = reference.squeezed_cat(0.725, sign, trunc)
            dist = reference.joint_probability(reference.split(state))
            leak = float(np.max(dist.p[totals % 4 != residue]))
            c.holds(
                f"parity leak, sign {sign:+d}", leak <= 1e-14, f"{leak:.3e}"
            )

        # photon-number conservation block by block on a dense state: every
        # amplitude is nonzero (cos of an integer never vanishes) and the
        # table is not symmetric under n_a <-> n_b
        n_a, n_b = np.indices((24, 24))
        amps = np.cos(n_a + 2.0 * n_b + 1.0) + 1j * np.sin(3.0 * n_a - n_b + 0.5)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        before = reference.TwoModeState(amps, Truncation(24))
        after = reference.apply_beam_splitter(before)
        worst_block = 0.0
        for total in range(24):
            k = np.arange(total + 1)
            m_in = float(np.sum(np.abs(before.amps[k, total - k]) ** 2))
            m_out = float(np.sum(np.abs(after.amps[k, total - k]) ** 2))
            worst_block = max(worst_block, abs(m_in - m_out))
        c.holds("per-block mass conserved", worst_block <= 1e-12, f"{worst_block:.3e}")

        # construction-path equivalence at dim 48
        path_trunc = Truncation(48)
        direct = reference.split(reference.squeezed_vacuum(0.725, path_trunc))
        decomposed = reference.split_via_squeezer_decomposition(0.725, path_trunc)
        gap = float(np.max(np.abs(direct.joint_distribution() - decomposed.joint_distribution())))
        c.holds("squeezer-decomposition path", gap <= 1e-8, f"max table gap {gap:.3e}")

        # truncation convergence for the headline quantities
        worst_moves: list[str] = []
        conv_ok = True
        for name in ("p11_cat_minus", "pc_cat_minus", "herald_yield_cat_minus", "g2_cat_minus"):
            q = registry.resolve(name)
            for r in (0.3, 0.725, 1.146, 2.0):
                params = {k: np.array([v]) for k, v in {**q.defaults, "r": r}.items()}
                base = cfg.trunc(r)
                move = float(abs(q.fn(base, **params) - q.fn(base.scaled(1.5), **params))[0])
                if move > 1e-8:
                    conv_ok = False
                    worst_moves.append(f"{name}@r={r}: {move:.3e}")
        c.holds(
            "dim vs 1.5 dim stability",
            conv_ok,
            "all moves <= 1e-8" if conv_ok else ", ".join(worst_moves),
        )

        # dominance of the odd superposition over the benchmark
        grid = np.linspace(0.01, 2.0, 200)
        dom_ok = bool(np.all(cfg.column("p11_cat_minus", r=grid) > cfg.column("p11_tmss", r=grid)))
        cond_ok = bool(np.all(
            cfg.column("pc_cat_minus", r=grid) >= cfg.column("pc_squeezed", r=grid)
        ))
        c.holds("P(1,1;-) > benchmark P(1,1) on 200-point grid", dom_ok, str(dom_ok))
        c.holds("P_c(-) >= P_c on 200-point grid", cond_ok, str(cond_ok))

        # click-probability orderings over the (r, eta) surface
        surface = {
            "r": np.repeat(np.linspace(0.05, 2.0, 20), 7),
            "eta": np.tile(np.linspace(0.7, 1.0, 7), 20),
        }
        order_ok = bool(np.all(
            (cfg.column("pclick1_cat_minus", **surface) > cfg.column("pclick1_tmss", **surface))
            & (cfg.column("pclickc_cat_minus", **surface) < cfg.column("pclickc_tmss", **surface))
        ))
        c.holds("click orderings on the (r, eta) grid", order_ok, str(order_ok))
        return c

    return _result(11, "property suites", run)


def criterion_12(cfg: VerifyConfig) -> CriterionResult:
    def run():
        c = _Checks()
        grid = np.concatenate(([0.004], np.linspace(0.005, 2.0, 400)))
        floor = 4e-6
        yield_vals = cfg.column("herald_yield_cat_minus", r=grid)
        bench_vals = cfg.column("p11_tmss", r=grid)
        i_min = int(np.argmin(yield_vals))
        c.holds(
            "pair yield > 4e-6 for r >= 0.004",
            bool(np.all(yield_vals > floor)),
            f"min {yield_vals[i_min]:.9e} at r = {grid[i_min]:g}"
            + (
                "; the yield equals tanh^2(r)/(4 cosh r) < r^2/4 = 4e-6 at "
                "r = 0.004, so the bound is only reached near r = 0.0040000373"
                if not np.all(yield_vals > floor)
                else ""
            ),
        )
        j_min = int(np.argmin(bench_vals))
        c.holds(
            "benchmark P(1,1) > 4e-6 for r >= 0.004",
            bool(np.all(bench_vals > floor)),
            f"min {bench_vals[j_min]:.9e} at r = {grid[j_min]:g}",
        )
        return c

    return _result(12, "small-r emission floor", run)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(cfg: VerifyConfig | None = None) -> list[CriterionResult]:
    cfg = cfg or VerifyConfig()
    return [fn(cfg) for fn in CRITERIA]


def format_report(results: list[CriterionResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} [{res.index:2d}] {res.label}: {res.detail}")
    failed = [r.index for r in results if not r.passed]
    if failed:
        lines.append(f"{len(failed)} criterion(s) failed: {failed}")
    else:
        lines.append("all criteria passed")
    return "\n".join(lines)
