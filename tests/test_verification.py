"""The verify report as a table of checks: every numeric check prints its
margin, which reads above 100% exactly when the check fails, and the
default report keeps the numbers of the bench reference."""
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from sqherald import detect, kerr, optics, registry, verification
from sqherald import fockspace as fs

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify.txt"
MARGIN = re.compile(r" \(margin ([^)]*)%\)")
CONFIGS = {
    "defaults": verification.VerifyConfig(),
    "dim8": verification.VerifyConfig(dim=8),
    "tail_tol0": verification.VerifyConfig(tail_tol=0.0),
    "eta0.8": verification.VerifyConfig(eta=0.8),
}


def _margins(text: str) -> list[float]:
    return [float(m) for m in MARGIN.findall(text)]


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_margins_agree_with_verdicts(cfg):
    for criterion in verification.CRITERIA:
        result = criterion(cfg)
        if result.passed:
            assert all(m <= 100 for m in _margins(result.detail)), result.detail
        if result.detail.startswith("error: "):
            assert not _margins(result.detail)
            continue
        for check in criterion.checks(cfg):
            printed = _margins(str(check))
            assert len(printed) == (check.margin is not None), str(check)
            assert all((m > 100) == (not check.passed) for m in printed), str(check)


def test_margins_of_the_nearest_pass_and_the_known_red():
    cfg = verification.VerifyConfig()
    # |0.166581 - 0.167| / 5e-4
    assert "N_-(0.725)/4 = 0.166581 (want 0.167 +- 0.0005) (margin 83.82%)" in (
        verification.criterion_1(cfg).detail
    )
    floor = verification.criterion_12(cfg)
    assert not floor.passed
    assert max(_margins(floor.detail)) > 100
    assert "(margin 100.002%)" in floor.detail


def _numbers(text: str) -> list[float]:
    out = []
    for token in text.replace(",", " ").replace("(", " ").replace(")", " ").split():
        try:
            out.append(float(token.rstrip(";:")))
        except ValueError:
            pass
    return out


def _verdicts(text: str) -> dict[int, str]:
    return {int(line[6:8]): line[:4] for line in text.splitlines()
            if line.startswith(("PASS", "FAIL"))}


def test_default_report_matches_the_bench_reference():
    # the reference was written before margins were printed; without them
    # every number and verdict agrees (the largest gap is about 2.5e-15,
    # on the per-block mass)
    report = verification.format_report(verification.run_all())
    reference = REFERENCE.read_text(encoding="utf-8")
    assert _verdicts(report) == _verdicts(reference)
    got, want = _numbers(MARGIN.sub("", report)), _numbers(reference)
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


# the production kernels behind the registered quantities
KERNELS = (
    (detect, "heralded_g2"),
    (detect, "heralded_clicks"),
    (kerr, "p0_over_tau"),
    (kerr, "phase_ratio"),
    (optics, "photon_number_rows"),
)


def test_verify_reaches_the_production_kernels_only_through_the_registry(monkeypatch):
    # every registered quantity's function keeps a depth count; a kernel
    # called at depth 0 was reached around the registry and its 1.5x gate
    depth, seen, stray = [0], set(), []
    for name, q in list(registry.QUANTITIES.items()):
        def counted(*cutoffs, _fn=q.fn, **params):
            depth[0] += 1
            try:
                return _fn(*cutoffs, **params)
            finally:
                depth[0] -= 1

        monkeypatch.setitem(registry.QUANTITIES, name, dataclasses.replace(q, fn=counted))
    for module, attr in KERNELS:
        def watched(*args, _fn=getattr(module, attr), _name=f"{module.__name__}.{attr}", **kwargs):
            seen.add(_name)
            if depth[0] == 0:
                stray.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, watched)
    verification.run_all()
    assert {"sqherald.detect.heralded_g2", "sqherald.kerr.phase_ratio"} <= seen
    assert stray == []


def test_criterion_7_fits_the_gated_phase_ratio_column(monkeypatch):
    # one grouped phase_ratio call per alpha, at the series cutoff and
    # 1.5x it, and the fit of its values agrees with the fit of one
    # gaussian_averaged_ratio per sigma at that one cutoff
    q = registry.QUANTITIES["phase_ratio"]
    fit_lambda = kerr.fit_lambda
    calls, rates = [], []

    def spy(*cutoffs, **params):
        calls.append(cutoffs)
        return q.fn(*cutoffs, **params)

    def fit(samples):
        rate, stderr = fit_lambda(samples)
        rates.append(rate)
        return rate, stderr

    monkeypatch.setitem(registry.QUANTITIES, "phase_ratio", dataclasses.replace(q, fn=spy))
    monkeypatch.setattr(kerr, "fit_lambda", fit)
    cfg = verification.VerifyConfig()
    assert verification.criterion_7(cfg).passed
    base = registry.truncation("series", 0.725, cfg.dim, cfg.tail_tol)
    column = fs.CutoffColumn((base.dim,) * kerr.FIT_SAMPLES, base.tail_tol)
    assert calls == [(column, column.scaled(1.5))] * 3
    assert column.scaled(1.5).dims[0] == base.scaled(1.5).dim
    sigmas = np.linspace(0.0, kerr.FIT_SIGMA_MAX, kerr.FIT_SAMPLES)
    for alpha, rate in zip((9.0, 10.0, 11.0), rates, strict=True):
        one_cutoff = [kerr.gaussian_averaged_ratio(0.725, alpha, s, base.dim, base.tail_tol)
                      for s in sigmas]
        assert rate == pytest.approx(fit_lambda(zip(sigmas, one_cutoff))[0], rel=1e-9)


def test_verify_runs_no_complex_eigendecomposition(monkeypatch):
    # the oracle exponentials diagonalize a real symmetric tridiagonal
    # matrix; a complex eigh stalled some fresh processes for 0.2-0.5 s
    # with two OpenBLAS threads
    from sqherald import reference

    real_eigh = np.linalg.eigh
    sizes = []

    def real_only(a, *args, **kwargs):
        if np.iscomplexobj(a):
            raise AssertionError("complex eigh")
        sizes.append(len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", real_only)
    reference._blocks.cache_clear()
    results = verification.run_all()
    assert [r.index for r in results if not r.passed] == [12]
    assert max(sizes) == 48
