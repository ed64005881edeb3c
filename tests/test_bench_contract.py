"""The traced benchmark's contract with the package.

bench/tracing.py wraps the package's public functions, every registered
quantity and `cli.main` at run time, and describes the registry's calls
by their cutoff's dim.  Its `kerr.gaussian_averaged_ratio` branches
match a span name that the package no longer has, so they never run.
It names each acceptance criterion's span by the criterion's
`__name__`.  A traced sweep and a traced `verify` through the CLI,
followed by the metric pass, fail here when an API change breaks that
contract.
"""
import importlib.util
import pathlib

from sqherald import cli, registry

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_yields_the_layer_metrics(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    quantities = dict(registry.QUANTITIES)
    tracer.install()
    try:
        code = cli.main(["sweep", "--quantity", "phase_ratio", "--var", "sigma",
                         "--lo", "0.001", "--hi", "0.002", "--points", "2"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK, capsys.readouterr().err
    assert registry.QUANTITIES == quantities
    tracer.annotate_series_pairs()
    metrics, notes = tracing.layer_metrics(tracer.spans)
    # two points at one cutoff: one grouped call evaluates the series
    # cutoff and its 1.5x recheck together, through kerr.phase_ratio, so
    # the tracer sees no recheck call, and no one-point averaged-ratio
    # span exists to count
    assert metrics["registry.evals"] == 1.0
    assert metrics["kerr.avg_ratio_calls"] == 0.0
    assert metrics["kerr.series_pairs"] == 0.0
    assert metrics["analysis.recheck_share"] == 0.0
    assert notes


def test_traced_verify_times_every_criterion(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_VERIFY, capsys.readouterr().err  # criterion 12, a known red
    metrics, _ = tracing.layer_metrics(tracer.spans)
    for index in range(1, 13):
        assert metrics[f"verification.c{index}_s"] > 0.0, index
