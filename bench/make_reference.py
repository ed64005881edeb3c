"""Regenerate the reference outputs in bench/reference/ from this checkout.

    python3 bench/make_reference.py

Writes the CSV table of every figure the workloads check (the ten `tables`
figures, fig4a, fig4b, fig5a and the full fig5b, which alone takes over a
minute) and the `verify` report.  Run it only on a commit whose outputs
are the accepted baseline: the benchmark gates later commits against
these files.
"""
from __future__ import annotations

import contextlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH.parent / "src"))

from sqherald import cli  # noqa: E402

import run  # noqa: E402

FIGURES = run.TABLES + run.KERR_FIGURES + ("fig5b",)


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in FIGURES:
        code = cli.main(["figure", name, "--out", str(REFERENCE / f"{name}.csv")])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
        print(f"wrote {name}.csv")
    with open(REFERENCE / "verify.txt", "w", encoding="utf-8") as handle, \
            contextlib.redirect_stdout(handle):
        code = cli.main(["verify"])
    print(f"wrote verify.txt (verify exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
