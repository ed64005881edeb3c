"""The verify report as a table of checks: every numeric check prints its
margin, which reads above 100% exactly when the check fails, and the
default report keeps the numbers of the bench reference."""
import re
from pathlib import Path

import pytest

from sqherald import verification

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
