"""Command-line front end: figure tables, ad-hoc sweeps, and the
acceptance-check report.

Exit codes: 0 success, 1 verification failure, 2 numerical failure
(NUMERICAL_ERRORS), 3 usage error (UsageError, ValueError, MemoryError,
OSError).  Handlers return 0 or 1 and raise; only ``main`` picks 2 or 3.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import __version__, analysis, registry, verification
from .fockspace import NumericalFailureError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3

# ArithmeticError holds ZeroClickError, ZeroMeanError and ZeroHeraldError
NUMERICAL_ERRORS = (NumericalFailureError, ArithmeticError)


class UsageError(Exception):
    """A refusal of the command line: ``main`` prints its message, exits 3."""


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 3, and which takes
    ``--lo -1e-3`` as a value, as it takes ``--lo -0.001``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_dim(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("dim must be at least 2")
    if value > np.iinfo(np.intp).max:
        raise argparse.ArgumentTypeError(f"dim must be at most {np.iinfo(np.intp).max}")
    return value


def _tail_tol(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError("tail tolerance must lie in [0, 1)")
    return value


def _eta(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("eta must lie in (0, 1]")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output table format")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="output path ('-' writes to stdout)")
    parser.add_argument("--dim", type=_positive_dim, default=None,
                        help="force the Fock cutoff instead of the per-quantity default")
    parser.add_argument("--tail-tol", type=_tail_tol, default=None,
                        help="probability mass allowed above the cutoff")


def _format_float(value: float) -> str:
    return repr(float(value))


def _metadata_lines(metadata: dict) -> list[str]:
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if isinstance(value, float):
            text = _format_float(value)
        else:
            text = json.dumps(value, sort_keys=True)
        lines.append(f"# {key} = {text}")
    return lines


def _render_csv(columns, rows, metadata) -> str:
    lines = _metadata_lines(metadata)
    lines.append(",".join(columns))
    # each value of a column that is distinct to the bit (so -0.0 keeps its
    # sign) is formatted once; tolist() gives Python floats, whose repr is
    # _format_float's
    rows = np.asarray(rows, dtype=float)
    cells = np.empty(rows.shape, dtype=object)
    for j, column in enumerate(rows.T):
        bits, at = np.unique(column.view(np.int64), return_inverse=True)
        cells[:, j] = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)[at]
    lines.extend(map(",".join, cells.tolist()))
    return "\n".join(lines) + "\n"


def _render_json(columns, rows, metadata) -> str:
    payload = {
        "metadata": metadata,
        "columns": list(columns),
        "rows": [[float(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(columns, rows, metadata, args) -> None:
    metadata = {**metadata, "version": __version__}
    if args.format == "json":
        text = _render_json(columns, rows, metadata)
    else:
        text = _render_csv(columns, rows, metadata)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _print_figures() -> None:
    for fig in registry.FIGURES.values():
        print(f"{fig.name:7s} {fig.description}")


def _print_quantities() -> None:
    for name in sorted(registry.QUANTITIES):
        q = registry.QUANTITIES[name]
        variables = ", ".join(q.variables)
        print(f"{name:26s} vars: {variables:14s} {q.doc}")


def cmd_figure(args) -> int:
    try:
        fig = registry.figure(args.selector)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    table = fig.build(dim=args.dim, tail_tol=args.tail_tol, eta=args.eta, alpha=args.alpha)
    metadata = {"figure": fig.name, "description": fig.description, **table.metadata}
    _emit(table.columns, table.rows, metadata, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        quantity = registry.resolve(args.quantity)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    fixed: dict[str, float] = {}
    for item in args.fixed or ():
        key, _, value = item.partition("=")
        if not _:
            raise UsageError(f"--set expects name=value, got {item!r}")
        if not key:
            raise UsageError(f"--set {item!r} names no parameter")
        if key in fixed:
            raise UsageError(f"--set {item!r} gives {key} a second value")
        fixed[key] = float(value)
    try:
        spec = analysis.SweepSpec(args.var, args.lo, args.hi, args.points, fixed)
    except ValueError as exc:
        raise UsageError(f"invalid sweep range: {exc}")
    registry.reject_idle_overrides([quantity.name], args.dim, args.tail_tol)
    result = analysis.sweep(spec, quantity, dim=args.dim, tail_tol=args.tail_tol)
    metadata = {
        "quantity": quantity.name,
        "variable": spec.variable,
        "lo": spec.lo,
        "hi": spec.hi,
        "points": spec.points,
        **result.metadata,
    }
    _emit(result.columns, result.rows, metadata, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    given = {} if args.eta is None else {"eta": args.eta}
    cfg = verification.VerifyConfig(dim=args.dim, tail_tol=args.tail_tol, **given)
    results = verification.run_all(cfg)
    print(verification.format_report(results))
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY


def cmd_list(args) -> int:
    print("figures:")
    _print_figures()
    print()
    print("quantities:")
    _print_quantities()
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sqherald",
                     description="Heralded single-photon statistics from "
                                 "superpositions of oppositely squeezed states")
    parser.add_argument("--version", action="version", version=f"sqherald {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_fig = sub.add_parser("figure", help="emit the data table behind one figure",
                           parents=[], add_help=True)
    p_fig.add_argument("selector", help="figure name, e.g. fig3a (see sqherald list)")
    _add_common(p_fig)
    p_fig.add_argument("--eta", type=_eta, default=None, help="detector efficiency override")
    p_fig.add_argument("--alpha", type=float, default=None, help="pump amplitude override")
    p_fig.set_defaults(handler=cmd_figure)

    p_sweep = sub.add_parser("sweep", help="sweep one registered quantity over a grid")
    p_sweep.add_argument("--quantity", required=True, help="registered quantity name")
    p_sweep.add_argument("--var", required=True, help="swept variable name")
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--set", dest="fixed", action="append", metavar="NAME=VALUE",
                         help="fix another parameter, e.g. eta=0.8 (repeatable)")
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--dim", type=_positive_dim, default=None,
                          help="force the Fock cutoff for every truncated computation")
    p_verify.add_argument("--tail-tol", type=_tail_tol, default=None,
                          help="probability mass allowed above the cutoff")
    p_verify.add_argument("--eta", type=_eta, default=None,
                          help="detector efficiency for the crossover criterion")
    p_verify.set_defaults(handler=cmd_verify)

    p_list = sub.add_parser("list", help="list figures and quantities")
    p_list.set_defaults(handler=cmd_list)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser, built on the first call and reused after it: parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, MemoryError) as exc:
        # a grid or cutoff too large to allocate is a usage error too
        print(f"invalid parameter: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # an --out path that cannot be written; the message names it
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
