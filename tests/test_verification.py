"""The verify report as a table of checks: every numeric check prints its
margin, which reads above 100% exactly when the check fails, and the
default report keeps the numbers of the bench reference."""
import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from sqherald import detect, kerr, optics, reference, registry, verification

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


# checks the report prints and the reference lacks, and the reference's
# checks they took the place of: criterion 11's check of the closed forms
# against the dense split replaced the dim versus 1.5 dim check, and
# criteria 4 and 5 check the value at the closed-form argmax against the
# closed-form maximum and the grid below it, where criterion 4 printed a
# unimodal flag
REPLACED = (re.compile(r"; (closed form vs dense split|value at r\* vs [^:]*"
                       r"|no value on the 201-point grid above r\*'s): [^;\n]*"),
            re.compile(r"; (dim vs 1\.5 dim stability|unimodal): [^;\n]*"))
# the reference holds the argmaxes of the golden-section search that
# criteria 4 and 5 ran, 1.6e-5 from the closed forms
ARGMAX = re.compile(r"(argmax_r of [^=]*= )(\S+)")


def test_default_report_matches_the_bench_reference():
    # the reference was written before margins were printed; without them,
    # without the checks that replaced others, and with the two argmaxes
    # compared at the search's 1e-4 tolerance, every number and verdict
    # agrees (the largest gap is about 2.5e-15, on the per-block mass)
    report = verification.format_report(verification.run_all())
    reference = REFERENCE.read_text(encoding="utf-8")
    assert _verdicts(report) == _verdicts(reference)
    assert len(REPLACED[0].findall(report)) == 5
    assert len(REPLACED[1].findall(reference)) == 2
    report, reference = REPLACED[0].sub("", report), REPLACED[1].sub("", reference)
    got, want = (np.array([float(m[1]) for m in ARGMAX.findall(text)])
                 for text in (report, reference))
    assert len(got) == len(want) == 2
    assert np.max(np.abs(got - want)) <= 1e-4
    report, reference = ARGMAX.sub(r"\1", report), ARGMAX.sub(r"\1", reference)
    got, want = _numbers(MARGIN.sub("", report)), _numbers(reference)
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_criterion_4_reads_production_at_the_closed_form_maximum(monkeypatch):
    # a yield 1e-13 relative too high, about 690 ulp, keeps 0.09623 +- 1e-4
    # and the grid's shape, which is all the golden-section search could
    # check; the ulp check against 1/(6 sqrt 3) fails it
    q = registry.QUANTITIES["herald_yield_cat_minus"]

    def high(**params):
        return q.fn(**params) * (1.0 + 1e-13)

    monkeypatch.setitem(registry.QUANTITIES, q.name, dataclasses.replace(q, fn=high))
    checks = list(verification.criterion_4.checks(verification.VerifyConfig()))
    assert [c.label for c in checks if not c.passed] == ["value at r* vs 1/(6 sqrt 3)"]
    assert not verification.criterion_4(verification.VerifyConfig()).passed


# the production kernels behind the registered quantities
KERNELS = (
    (detect, "heralded_g2"),
    (detect, "heralded_clicks"),
    (kerr, "p0_over_tau"),
    (kerr, "phase_ratio"),
    (optics, "conditional_single"),
    (optics, "herald_row"),
    (optics, "pair_probability"),
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
    # one-point phase_ratio call per sigma at that one cutoff
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
    base = kerr.series_cutoffs(np.full(kerr.FIT_SAMPLES, 0.725), cfg.dim, cfg.tail_tol)
    assert base.dims.tolist() == [kerr.series_cutoffs([0.725]).dims[0]] * kerr.FIT_SAMPLES
    assert len(calls) == 3
    for column, recheck in calls:
        assert column.dims.tolist() == base.dims.tolist()
        assert recheck.dims.tolist() == base.scaled(1.5).dims.tolist()
        assert column.tail_tol == recheck.tail_tol == base.tail_tol == kerr.SERIES_STATE_TOL
    sigmas = np.linspace(0.0, kerr.FIT_SIGMA_MAX, kerr.FIT_SAMPLES)
    for alpha, rate in zip((9.0, 10.0, 11.0), rates, strict=True):
        one_cutoff = [kerr.phase_ratio(np.array([s]), 0.725, alpha, base.take([0]))[0, 0]
                      for s in sigmas]
        assert rate == pytest.approx(fit_lambda(zip(sigmas, one_cutoff))[0], rel=1e-9)


def test_verify_runs_no_complex_eigendecomposition(monkeypatch):
    # the oracle exponentials diagonalize a real symmetric tridiagonal
    # matrix; a complex eigh stalled some fresh processes for 0.2-0.5 s
    # with two OpenBLAS threads

    real_eigh = np.linalg.eigh
    sizes = []

    def real_only(a, *args, **kwargs):
        if np.iscomplexobj(a):
            raise AssertionError("complex eigh")
        sizes.append(len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", real_only)
    results = verification.run_all()
    assert [r.index for r in results if not r.passed] == [12]
    # the two-mode squeezer diagonalizes the shared generator of the
    # diagonals +o and -o once: 24 calls of 48 and fewer rows at dim 48
    # where one per diagonal took 47, and 12 of them above 25 rows, the
    # sizes that stalled fresh processes with two OpenBLAS threads
    assert len(sizes) == 48
    assert sum(size > 25 for size in sizes) == 12
    assert max(sizes) == 48


def test_paired_diagonals_match_one_exponential_per_diagonal():
    # a dense state with amplitude on every diagonal: the shared
    # diagonalization of +o and -o gives what one exponential per diagonal
    # gives, and each diagonal still skips when it carries no amplitude

    n_a, n_b = np.indices((12, 12))
    amps = np.cos(n_a + 2.0 * n_b + 1.0) + 1j * np.sin(3.0 * n_a - n_b + 0.5)
    amps[n_a - n_b == -3] = 0.0
    state = reference.TwoModeState(amps / np.linalg.norm(amps), reference.Truncation(12))
    out = reference.two_mode_squeeze_apply(0.3, state).amps
    for offset in range(-11, 12):
        rows = np.arange(max(offset, 0), 12 + min(offset, 0))
        cols = rows - offset
        lower = -0.3 * np.sqrt(rows[1:] * cols[1:])
        # expm_antisymmetric keeps the real part: the exponential is real
        want = reference.expm_antisymmetric(lower) @ state.amps[rows, cols]
        np.testing.assert_allclose(out[rows, cols], want,
                                   rtol=0.0, atol=1e-14)
    assert not out[n_a - n_b == -3].any()


def test_criterion_9_batched_oracle_matches_the_dense_tables():
    # one photon-number array per cutoff against one dense table per r:
    # numpy's vector log, where the dense table takes math.log, moves the
    # g2 at round-off only

    cfg = verification.VerifyConfig()
    rs = np.linspace(0.04, 2.0, 50)
    etas = np.array([0.7, 0.775, 0.85, 0.925, 1.0])
    dims = reference.default_dims(rs)
    assert sorted(set(dims.tolist())) == [64, 160]
    for dim in (64, 160):
        at = dims == dim
        batched = reference.tmss_g2_numeric(rs[at], reference.Truncation(dim, 1e-3), etas)
        dense = np.array([reference.g2_numeric(reference.tmss_joint_probability(r, cfg.trunc(r)),
                                               etas) for r in rs[at].tolist()])
        assert np.all(np.abs(batched - dense) <= 1e-13 * np.abs(dense))
    # r = 0 keeps the vacuum row of the dense table
    trunc = reference.Truncation(8)
    p = reference.tmss_photon_numbers(np.array([0.0, 0.3]), trunc)
    for row, r in zip(p, (0.0, 0.3)):
        np.testing.assert_allclose(row, np.diag(reference.tmss_joint_probability(r, trunc).p),
                                   rtol=1e-15, atol=0.0)
    # a forced cutoff still names the first r that does not fit
    detail = verification.criterion_9(verification.VerifyConfig(dim=8)).detail
    assert "two-mode squeezed vacuum at r = 0.8 does not fit in dim = 8" in detail


def test_every_reference_definition_is_reached_from_verify():
    # sqherald.reference holds verify's oracles and nothing else: from the
    # reference.X names that verification uses, following the names each
    # definition loads reaches every top-level definition of the module
    # (the oracles only the tests run live in tests/oracles.py)
    package = Path(reference.__file__).parent
    defs = {}
    for node in ast.parse((package / "reference.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update({n.id: node for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)})
    todo = [n.attr for n in ast.walk(ast.parse((package / "verification.py").read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "reference"]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    assert sorted(set(defs) - reached) == []
