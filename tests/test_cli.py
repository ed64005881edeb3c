"""Command-line behavior: exit codes, table formats, overrides, and
byte-level determinism."""
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import sqherald
from sqherald import cli, detect, reference, registry
from sqherald.fockspace import default_truncation

ALL_FIGURES = (
    "fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b",
    "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    header = None
    rows = []
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(item) for item in line.split(",")])
    return meta, header, rows


def test_figure_list_names_every_selector(capsys):
    code, out, err = run_cli(capsys, "figure", "--list")
    assert code == cli.EXIT_OK
    assert err == ""
    for name in ALL_FIGURES:
        assert name in out


def test_figure_table_matches_direct_computation(capsys):
    code, out, err = run_cli(capsys, "figure", "fig2")
    assert code == cli.EXIT_OK
    meta, header, rows = parse_csv(out)
    assert header == ["n", "p1n_squeezed", "p1n_cat_minus", "p1n_cat_plus"]
    assert len(rows) == 12
    assert meta["figure"] == '"fig2"'
    assert meta["version"] == '"0.1.0"'

    trunc = default_truncation(0.725)
    cat = reference.squeezed_cat(0.725, -1, trunc)
    expected = float(reference.joint_probability(reference.split(cat)).p[1, 1])
    row1 = next(row for row in rows if row[0] == 1.0)
    assert abs(row1[2] - expected) <= 1e-14
    assert abs(row1[2] - 0.453) <= 5e-4


def test_unknown_figure_exits_usage(capsys):
    code, out, err = run_cli(capsys, "figure", "fig99")
    assert code == cli.EXIT_USAGE
    assert "fig99" in err
    assert "fig3a" in err


def test_figure_requires_selector(capsys):
    code, out, err = run_cli(capsys, "figure")
    assert code == cli.EXIT_USAGE
    assert "selector" in err


def test_json_and_csv_carry_identical_tables(capsys):
    code, csv_text, _ = run_cli(capsys, "figure", "fig2")
    assert code == cli.EXIT_OK
    code, json_text, _ = run_cli(capsys, "figure", "fig2", "--format", "json")
    assert code == cli.EXIT_OK

    _, header, csv_rows = parse_csv(csv_text)
    payload = json.loads(json_text)
    assert payload["columns"] == header
    assert payload["rows"] == csv_rows
    assert payload["metadata"]["version"] == "0.1.0"
    assert payload["metadata"]["figure"] == "fig2"


def test_out_flag_writes_the_stdout_bytes(tmp_path, capsys):
    code, streamed, _ = run_cli(capsys, "figure", "fig2")
    assert code == cli.EXIT_OK
    target = tmp_path / "fig2.csv"
    code, out, _ = run_cli(capsys, "figure", "fig2", "--out", str(target))
    assert code == cli.EXIT_OK
    assert out == ""
    assert target.read_text(encoding="utf-8") == streamed


def test_unwritable_out_path_exits_usage(tmp_path, capsys):
    # a missing directory and a directory itself: one line naming the path
    for target in (tmp_path / "missing" / "fig3a.csv", tmp_path):
        code, out, err = run_cli(capsys, "figure", "fig3a", "--out", str(target))
        assert code == cli.EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and str(target) in err


def test_dim_override_reaches_the_builder(capsys):
    # fig5a's phase-noise ratios run on the label series, which takes a cutoff
    code, out, _ = run_cli(capsys, "figure", "fig5a", "--dim", "48",
                           "--format", "json")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["metadata"]["dims"] == [48]
    assert payload["rows"][0] == [0.0, 1.0, 1.0, 1.0]


def test_sweep_values_match_library_calls(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "p11_cat_minus", "--var", "r",
        "--lo", "0.1", "--hi", "0.5", "--points", "5",
    )
    assert code == cli.EXIT_OK, err
    meta, header, rows = parse_csv(out)
    assert header == ["r", "p11_cat_minus"]
    assert len(rows) == 5
    assert meta["quantity"] == '"p11_cat_minus"'
    for r, value in rows:
        cat = reference.squeezed_cat(r, -1, default_truncation(r))
        direct = float(reference.joint_probability(reference.split(cat)).p[1, 1])
        assert abs(value - direct) <= 1e-14


def test_sweep_set_flag_fixes_parameters(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "g2_cat_minus", "--var", "r",
        "--lo", "0.3", "--hi", "0.7", "--points", "3", "--set", "eta=0.8",
    )
    assert code == cli.EXIT_OK, err
    meta, header, rows = parse_csv(out)
    assert '"eta": 0.8' in meta["fixed"]
    for r, value in rows:
        at, eta = np.array([r]), np.array([0.8])
        direct = float(detect.heralded_g2(at, eta)[0])
        assert abs(value - direct) <= 1e-14


def test_sweep_writes_the_largest_move_between_cutoffs(capsys):
    # the label series moves most at the largest r; the point carries the
    # fixed parameters too
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "p0_cat_minus", "--var", "r",
        "--lo", "0.5", "--hi", "1.0", "--points", "3",
    )
    assert code == cli.EXIT_OK, err
    meta, _, _ = parse_csv(out)
    assert 0.0 < float(meta["max_move"]) <= 1e-8
    assert json.loads(meta["max_move_at"]) == {
        "alpha": 10.0, "r": 1.0, "tau_tilde": 3.141592653589793,
    }


def test_sweep_list_shows_registered_quantities(capsys):
    code, out, err = run_cli(capsys, "sweep", "--list")
    assert code == cli.EXIT_OK
    assert "p11_cat_minus" in out
    assert "g2_tmss" in out
    assert "phase_ratio" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--quantity", "p11_tmss", "--var", "r",
         "--lo", "0.1", "--hi", "0.5", "--points", "0"),
        ("sweep", "--quantity", "p11_tmss", "--var", "r",
         "--lo", "0.5", "--hi", "0.1", "--points", "5"),
    ],
)
def test_sweep_rejects_bad_ranges(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert "invalid sweep range" in err


def test_sweep_unknown_quantity_exits_usage(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "nope", "--var", "r",
        "--lo", "0.1", "--hi", "0.5", "--points", "3",
    )
    assert code == cli.EXIT_USAGE
    assert "nope" in err and "p11_cat_minus" in err


def test_sweep_unknown_variable_exits_usage(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "p11_tmss", "--var", "eta",
        "--lo", "0.7", "--hi", "1.0", "--points", "3",
    )
    assert code == cli.EXIT_USAGE
    assert "cannot be swept" in err


def test_sweep_bad_set_syntax_exits_usage(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "g2_cat_minus", "--var", "r",
        "--lo", "0.3", "--hi", "0.7", "--points", "3", "--set", "eta",
    )
    assert code == cli.EXIT_USAGE
    assert "name=value" in err


def test_sweep_outside_supported_squeezing_exits_usage(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--quantity", "p11_cat_minus", "--var", "r",
        "--lo", "0.1", "--hi", "3.5", "--points", "3",
    )
    assert code == cli.EXIT_USAGE
    assert "invalid parameter: r must lie in [0, 3.0], got 3.5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--quantity", "pclick_tmss", "--var", "r", "--lo", "4", "--hi", "5",
         "--points", "2"),
        ("sweep", "--quantity", "pclick_tmss", "--var", "eta", "--lo", "0.7", "--hi", "1.0",
         "--points", "2", "--set", "r=10"),
        ("sweep", "--quantity", "p11_tmss", "--var", "r", "--lo", "-1", "--hi", "-0.5",
         "--points", "2"),
        ("sweep", "--quantity", "g2_tmss", "--var", "r", "--lo", "-1", "--hi", "-0.5",
         "--points", "2"),
        ("sweep", "--quantity", "p11_cat_minus", "--var", "r", "--lo", "-1", "--hi", "-0.5",
         "--points", "2"),
    ],
)
def test_r_outside_the_squeezing_domain_exits_usage(capsys, argv):
    # analytic and cutoff-bearing quantities share one r domain, [0, 3]
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "invalid parameter: r must lie in [0, 3.0]" in err


@pytest.mark.parametrize(
    "quantity, fixed",
    [
        ("phase_ratio", ("sigma=inf",)),
        ("phase_ratio", ("sigma=nan",)),
        ("phase_ratio", ("sigma=0.001", "alpha=inf")),
        ("phase_ratio", ("sigma=0.001", "alpha=nan")),
        ("p0_cat_minus", ("alpha=nan",)),
        ("p0_cat_minus", ("alpha=inf",)),
        ("p0_cat_minus", ("tau_tilde=inf",)),
    ],
)
def test_sweep_non_finite_kerr_input_exits_usage(capsys, quantity, fixed):
    argv = ["sweep", "--quantity", quantity, "--var", "r",
            "--lo", "0.5", "--hi", "0.6", "--points", "2"]
    for item in fixed:
        argv += ["--set", item]
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "invalid parameter" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "fig4a", "--alpha", "1e300"),
        ("sweep", "--quantity", "phase_ratio", "--var", "r", "--lo", "0.5", "--hi", "0.6",
         "--points", "2", "--set", "sigma=0.001", "--alpha", "1e200"),
    ],
)
def test_pump_amplitude_whose_square_overflows_exits_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "invalid parameter: pump amplitude alpha = " in err and "overflows" in err


@pytest.mark.parametrize("alpha", ("10", "1e3", "1e7", "1e8", "1e100", "1e150"))
def test_p0_at_ideal_phase_survives_large_pump_amplitudes(capsys, alpha):
    # (sum_n g_n)^2 at r = 0.725: every label overlap is 1 at tau_tilde = pi
    exact = 0.1665808855379014
    code, out, err = run_cli(capsys, "sweep", "--quantity", "p0_cat_minus", "--var",
                             "tau_tilde", "--lo", "3.141592653589793", "--hi",
                             "3.141592653589793", "--points", "1", "--set", "r=0.725",
                             "--alpha", alpha)
    assert code == cli.EXIT_OK, err
    _, header, rows = parse_csv(out)
    assert abs(rows[0][header.index("p0_cat_minus")] - exact) <= 1e-15 * exact


def test_phase_ratio_honours_the_tail_tolerance(capsys):
    argv = ["sweep", "--quantity", "phase_ratio", "--var", "r", "--lo", "1.9", "--hi", "2.0",
            "--points", "2", "--set", "sigma=0.001"]
    code, out, err = run_cli(capsys, *argv, "--tail-tol", "0")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "does not fit" in err
    code, out, err = run_cli(capsys, *argv, "--tail-tol", "1e-9")
    assert code == cli.EXIT_OK, err


def test_phase_ratio_covers_wide_phase_noise(capsys):
    code, out, err = run_cli(capsys, "sweep", "--quantity", "phase_ratio", "--var", "sigma",
                             "--lo", "0.3", "--hi", "5", "--points", "3", "--set", "r=2")
    assert code == cli.EXIT_OK, err
    _, _, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(0.0 < row[1] <= 1.0 for row in rows)


def test_phase_ratio_whose_reference_has_lost_its_digits_exits_numerical(capsys):
    # at r = 1e-200 the tau_tilde = pi herald probability underflows to 0;
    # sigma = 0 needs no series, the other two points fail
    code, out, err = run_cli(capsys, "sweep", "--quantity", "phase_ratio", "--var", "sigma",
                             "--lo", "0", "--hi", "0.004", "--points", "3", "--set", "r=1e-200")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "lost its digits" in err


# argument lists whose arrays cannot be allocated under OVERSIZED_AS
OVERSIZED = (
    ["sweep", "--quantity", "p11_cat_minus", "--var", "r", "--lo", "0", "--hi", "1",
     "--points", "100000000000"],
    ["sweep", "--quantity", "p11_cat_minus", "--var", "r", "--lo", "0.5", "--hi", "0.5",
     "--points", "1", "--dim", "100000000000"],
    ["figure", "fig3b", "--dim", "100000000000"],
    ["verify", "--dim", "20000"],
)
OVERSIZED_AS = 2 * 10**9
OVERSIZED_SCRIPT = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from sqherald import cli
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append((cli.main(argv), err.getvalue()))
print(json.dumps(results))
"""


def test_request_too_large_to_allocate_is_a_usage_error():
    # with the address space capped, every machine fails these allocations
    # alike; exit 1 belongs to a failed verify, so they exit 3 on one line
    src = str(Path(sqherald.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = OVERSIZED_SCRIPT.format(limit=OVERSIZED_AS)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(OVERSIZED)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    for argv, (code, err) in zip(OVERSIZED, json.loads(proc.stdout), strict=True):
        assert code == cli.EXIT_USAGE, argv
        assert err.startswith("invalid parameter: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_huge_counts_never_grow_the_log_factorial_table(tmp_path):
    # under the same cap: P(1, 1e9) is a closed-form 0 that builds no
    # table of 1e9 log-factorials, and a forced series dim of 1e9 is
    # refused before its log-factorial table grows
    out = tmp_path / "p1n.csv"
    argvs = [
        ["sweep", "--quantity", "p1n_cat_minus", "--var", "n", "--lo", "1e9", "--hi", "1e9",
         "--points", "1", "--set", "r=0.725", "--out", str(out)],
        ["sweep", "--quantity", "p0_cat_minus", "--var", "r", "--lo", "0.5", "--hi", "0.5",
         "--points", "1", "--dim", "1000000000"],
    ]
    src = str(Path(sqherald.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = OVERSIZED_SCRIPT.format(limit=OVERSIZED_AS)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    (row_code, row_err), (dim_code, dim_err) = json.loads(proc.stdout)
    assert row_code == cli.EXIT_OK and row_err == ""
    _, header, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert header == ["n", "p1n_cat_minus"] and rows == [[1e9, 0.0]]
    assert dim_code == cli.EXIT_USAGE
    assert dim_err == ("invalid parameter: a table of 999999999 log-factorials exceeds the "
                       "limit of 16777216 (is the cutoff too large?)\n")


def test_dim_beyond_the_index_range_is_a_usage_error(capsys):
    # it used to reach the kernels and exit 2 with "Python int too large
    # to convert to C long" (figure), or fail ten criteria (verify)
    for command in (["figure", "fig3b"], ["verify"]):
        with pytest.raises(SystemExit) as info:
            cli.main([*command, "--dim", "100000000000000000000"])
        assert info.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --dim: dim must be at most {np.iinfo(np.intp).max}")


def test_verify_cutoff_too_large_to_allocate_is_a_usage_error(capsys):
    # a dim that fits an index but whose dense dim x dim table cannot be
    # allocated: one line on stderr and no report, where it used to print
    # ten FAILs and exit 1
    code, out, err = run_cli(capsys, "verify", "--dim", "100000000000")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == ("invalid parameter: a forced dim of 100000000000 needs dense "
                   "100000000000 x 100000000000 tables that cannot be allocated\n")


# a 10,000-point phase_ratio column: one sigma, 20,000 weight rows
LONG_COLUMN = ["sweep", "--quantity", "phase_ratio", "--var", "r", "--lo", "0.05", "--hi", "2",
               "--points", "10000", "--set", "sigma=0.004"]
# with one BLAS thread the column runs in about 165 MB of address space;
# a pass holding all its rows at once needs about 510 MB
LONG_COLUMN_AS = 4 * 10**8


def test_long_sweep_runs_in_bounded_memory():
    # the merged kernel pass holds a bounded block of weight rows and
    # values at a time, so the column's length does not set its memory; it
    # exits 0, or 3 on one line, never with a traceback
    src = str(Path(sqherald.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = OVERSIZED_SCRIPT.format(limit=LONG_COLUMN_AS)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([LONG_COLUMN])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    [(code, err)] = json.loads(proc.stdout)
    assert "Traceback" not in err
    if code == cli.EXIT_USAGE:
        assert err.startswith("invalid parameter: ") and err.count("\n") == 1, err
    else:
        assert code == cli.EXIT_OK, err


def test_fixed_metadata_lists_only_what_is_not_swept(capsys):
    # a swept variable with a registered default used to be listed at that
    # default: tau_tilde in fig4a, r in fig5b, eta in fig9b
    for name, fixed in (("fig4a", {"alpha": 10.0}), ("fig5b", {"alpha": 10.0}), ("fig9b", {})):
        code, out, err = run_cli(capsys, "figure", name)
        assert code == cli.EXIT_OK, err
        meta, header, _ = parse_csv(out)
        assert json.loads(meta["fixed"]) == fixed, name
        assert not set(fixed) & set(header)
    code, out, err = run_cli(capsys, "sweep", "--quantity", "phase_ratio", "--var", "r",
                             "--lo", "0.5", "--hi", "1", "--points", "2", "--set", "sigma=0.3")
    assert code == cli.EXIT_OK, err
    assert json.loads(parse_csv(out)[0]["fixed"]) == {"alpha": 10.0, "sigma": 0.3}


@pytest.mark.parametrize("name", [name for name in registry.FIGURES if name != "fig5b"])
def test_csv_formats_each_value_as_its_repr(name):
    # the renderer formats each distinct value of a column once; the text
    # must be that of formatting every value
    table = registry.figure(name).build()
    metadata = {"figure": name, **table.metadata}
    plain = cli._metadata_lines(metadata) + [",".join(table.columns)]
    plain += [",".join(map(repr, row)) for row in table.rows.tolist()]
    assert cli._render_csv(table.columns, table.rows, metadata) == "\n".join(plain) + "\n"
    signed = np.array([[0.0, -0.0], [-0.0, 0.0], [1e-300, -1e-300]])
    assert cli._render_csv(("a", "b"), signed, {}) == "a,b\n0.0,-0.0\n-0.0,0.0\n1e-300,-1e-300\n"


@pytest.mark.parametrize("quantity", ("p0_cat_minus", "p1_cat_minus"))
def test_kerr_probabilities_vanish_at_zero_squeezing(capsys, quantity):
    # every pair weight g_n vanishes at r = 0, so no pair term survives
    code, out, err = run_cli(capsys, "sweep", "--quantity", quantity, "--var", "r",
                             "--lo", "0", "--hi", "1", "--points", "3")
    assert code == cli.EXIT_OK, err
    _, _, rows = parse_csv(out)
    assert rows[0] == [0.0, 0.0]
    assert all(row[1] > 0.0 for row in rows[1:])
    # phase_ratio has no reference probability there
    code, out, err = run_cli(capsys, "sweep", "--quantity", "phase_ratio", "--var", "r",
                             "--lo", "0", "--hi", "1", "--points", "3", "--set", "sigma=0.001")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "lost its digits at r = 0.0" in err


def test_subnormal_click_probability_exits_numerical(capsys):
    # at eta = 1e-320 both click probabilities are subnormal, and their
    # ratio would keep about three digits
    code, out, err = run_cli(capsys, "sweep", "--quantity", "pclickc_cat_minus", "--var", "r",
                             "--lo", "0.5", "--hi", "0.6", "--points", "2", "--eta", "1e-320")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "click probability vanished" in err


def test_non_finite_closed_form_exits_numerical(capsys):
    # 2/eta overflows at eta = 1e-320; analytic values are checked for
    # finiteness like the cutoff-bearing ones, and the overflow itself
    # prints no RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "sweep", "--quantity", "g2_tmss", "--var", "r",
                                 "--lo", "0.1", "--hi", "0.5", "--points", "2",
                                 "--eta", "1e-320")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "g2_tmss is not finite (inf) at" in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--quantity", "phase_ratio", "--var", "sigma", "--lo", "0.001", "--hi", "0.002",
         "--points", "2"),
        ("figure", "fig5a"),
    ],
)
def test_dim_override_keeps_the_series_tail_tolerance(capsys, argv):
    # at dim 24 the r = 0.725 series leaves 2.1e-6 of its mass out: within
    # the matrix default 1e-3, beyond the series tolerance 1e-9
    code, out, err = run_cli(capsys, *argv, "--dim", "24")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "does not fit in dim = 24" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("sweep", "--quantity", "p11_tmss", "--var", "r", "--lo", "0.1", "--hi", "0.5",
          "--points", "3", "--set", "foo=1"), "takes no parameter foo"),
        (("sweep", "--quantity", "p11_tmss", "--var", "r", "--lo", "0.1", "--hi", "0.5",
          "--points", "3", "--alpha", "10"), "takes no parameter alpha"),
        (("figure", "fig3b", "--eta", "0.8"), "takes no parameter eta"),
        (("sweep", "--quantity", "p0_cat_minus", "--var", "tau_tilde", "--lo", "0.0",
          "--hi", "1.0", "--points", "2"), "needs a value for r"),
        (("figure", "fig2", "--eta", "0.8"), "no eta or alpha override"),
        (("figure", "fig5a", "--alpha", "9"), "no eta or alpha override"),
        (("figure", "fig7a", "--eta", "0.8"), "cannot both sweep and fix eta"),
        (("sweep", "--quantity", "p11_tmss", "--var", "r", "--lo", "0.1", "--hi", "0.5",
          "--points", "3", "--set", "r=0.2"), "cannot both sweep and fix r"),
    ],
)
def test_bad_parameters_exit_usage(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "invalid parameter" in err and reason in err


def test_repeat_runs_are_byte_identical(capsys):
    argv = ("sweep", "--quantity", "pclickc_cat_minus", "--var", "r",
            "--lo", "0.2", "--hi", "1.0", "--points", "7")
    code, first, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK
    code, second, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK
    assert first == second


def test_csv_rows_match_per_value_formatting():
    # the rows are formatted in one pass over rows.tolist(); each value
    # must read as repr(float(v)) did, signed zeros and subnormals included
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([
        [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-300],
        [1e-300 / 3.0, 0.1, 1.0 / 3.0, 12345678.9, 1e22, -2.5e-17],
    ])
    text = cli._render_csv(("a", "b", "c", "d", "e", "f"), values, {})
    per_value = "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in values
    )
    assert text == "a,b,c,d,e,f\n" + per_value
    assert "-0.0,5e-324,-5e-324" in text


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("sqherald 0.1.0")


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch, tmp_path):
    # cli.main builds its parser once; a usage error between two figure
    # runs leaves it as it was, and both tables match a fresh process's
    first, second, fresh = (tmp_path / f"{name}.csv" for name in ("first", "second", "fresh"))
    assert cli.main(["figure", "fig3a", "--out", str(first)]) == cli.EXIT_OK

    def refuse():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", refuse)
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["figure", "fig3a", "--points", "3"])
    assert info.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["usage: sqherald [-h] [--version] {figure,sweep,verify,list} ...",
                                "sqherald: error: unrecognized arguments: --points 3"]
    assert cli.main(["figure", "fig3a", "--out", str(second)]) == cli.EXIT_OK
    src = str(Path(sqherald.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sqherald.cli", "figure", "fig3a",
                           "--out", str(fresh)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert first.read_bytes() == second.read_bytes() == fresh.read_bytes()


def test_unknown_subcommand_exits_usage(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == cli.EXIT_USAGE


def test_no_subcommand_prints_help_and_exits_usage(capsys):
    code = cli.main([])
    out = capsys.readouterr().out
    assert code == cli.EXIT_USAGE
    assert "figure" in out and "sweep" in out and "verify" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "fig6b", "--dim", "8", "--tail-tol", "0"),
        ("sweep", "--quantity", "pclick_tmss", "--var", "r", "--lo", "0.1", "--hi", "5",
         "--points", "2", "--dim", "2"),
    ],
)
def test_cutoff_overrides_on_cutoff_free_work_exit_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "no cutoff" in err


@pytest.mark.parametrize("name", ["fig7a", "fig7b", "fig9a", "fig9b"])
def test_mixed_figures_take_cutoff_overrides(capsys, name):
    # these figures mix the split odd superposition with the benchmark;
    # both sides are closed forms now, so like every cutoff-free figure
    # they refuse a cutoff override instead of ignoring it
    code, out, err = run_cli(capsys, "figure", name, "--dim", "240", "--tail-tol", "1e-3")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "no cutoff" in err


SCIPY_FREE_RUN = """
import os, sys
sys.modules["scipy"] = None
from sqherald import cli, registry
for name in registry.FIGURES:
    if name != "fig5b":
        assert cli.main(["figure", name, "--out", os.devnull]) == 0, name
assert cli.main(["sweep", "--quantity", "phase_ratio", "--var", "sigma", "--lo", "0",
                 "--hi", "0.004", "--points", "2", "--out", os.devnull]) == 0
sys.exit(cli.main(["verify"]))
"""


def test_figures_and_verify_run_without_scipy():
    # scipy is a test dependency only: with every scipy import refused,
    # the figures, a phase-noise column and verify still run, and verify
    # fails only the known criterion 12
    src = str(Path(sqherald.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == cli.EXIT_VERIFY, proc.stderr
    verdicts = [line[:4] + line[5:9] for line in proc.stdout.splitlines()
                if line.startswith(("PASS", "FAIL"))]
    assert verdicts == [f"PASS[{i:2d}]" for i in range(1, 12)] + ["FAIL[12]"]


def test_verify_with_inadequate_cutoff_reports_failures(capsys):
    code, out, err = run_cli(capsys, "verify", "--dim", "8")
    assert code == cli.EXIT_VERIFY
    assert "FAIL" in out
    for index in range(1, 13):
        assert f"[{index:2d}]" in out


def test_fig2_honours_a_zero_tail_tolerance(capsys):
    # the herald rows are single closed-form coefficients with no cutoff,
    # so a tail tolerance is refused rather than ignored
    code, out, err = run_cli(capsys, "figure", "fig2", "--tail-tol", "0")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "no cutoff" in err


def test_fig2_gates_its_move_between_cutoffs(capsys):
    # with no cutoff there is nothing to move: every one of the 12 levels
    # is its closed form, recorded as such, and a forced dim is refused
    code, out, err = run_cli(capsys, "figure", "fig2")
    assert code == cli.EXIT_OK, err
    meta, header, rows = parse_csv(out)
    assert meta["dims"] == '"analytic"' and meta["max_move"] == "0.0"
    assert [row[0] for row in rows] == list(range(12))
    code, out, err = run_cli(capsys, "figure", "fig2", "--dim", "8", "--tail-tol", "0.9")
    assert code == cli.EXIT_USAGE
    assert out == "" and "no cutoff" in err


@pytest.mark.parametrize("quantity", ["p11_cat_minus", "pc_cat_minus"])
def test_matrix_quantities_above_r_2_ask_for_a_cutoff(capsys, quantity):
    # these quantities once ran on matrix cutoffs, whose defaults stop at
    # r = 2 and asked for --dim beyond; in closed form they run up to
    # SQUEEZE_LIMIT = 3 and ask for no cutoff, so --dim is refused
    argv = ("sweep", "--quantity", quantity, "--var", "r", "--lo", "2.5", "--hi", "3",
            "--points", "2")
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK, err
    meta, header, rows = parse_csv(out)
    assert meta["dims"] == '"analytic"'
    assert [row[0] for row in rows] == [2.5, 3.0]
    assert all(0.0 < row[1] < 1.0 for row in rows)
    code, out, err = run_cli(capsys, *argv, "--dim", "2000")
    assert code == cli.EXIT_USAGE
    assert out == "" and "no cutoff" in err


P1N_ARGV = ("sweep", "--quantity", "p1n_cat_minus", "--var", "n", "--set", "r=0.725",
            "--points", "1")


@pytest.mark.parametrize("n", ["0.5", "-1", "inf", "nan"])
def test_p1n_rejects_an_n_that_is_not_a_nonnegative_integer(capsys, n):
    code, out, err = run_cli(capsys, *P1N_ARGV, f"--lo={n}", f"--hi={n}")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "invalid parameter: n must be a finite nonnegative integer" in err


@pytest.mark.parametrize("n", ["64", "1e300"])
def test_p1n_beyond_the_cutoff_is_zero(capsys, n):
    # the total 65 is odd, and the total 1e300 lies beyond
    # optics.HERALD_ROW_TOTALS, so no coefficient is formed and no integer
    # cast is made; a cast warning would be an error under the suite's
    # warning filter
    code, out, err = run_cli(capsys, *P1N_ARGV, f"--lo={n}", f"--hi={n}")
    assert code == cli.EXIT_OK, err
    _, header, rows = parse_csv(out)
    assert header == ["n", "p1n_cat_minus"]
    assert rows == [[float(n), 0.0]]


@pytest.mark.parametrize(
    "flags, failing",
    [
        (("--dim", "8"), (5, 7, 9, 11)),
        (("--tail-tol", "0"), (5, 7, 9, 11)),
    ],
)
def test_verify_overrides_reach_every_criterion(capsys, flags, failing):
    # every criterion that takes a cutoff runs at the overridden one, so an
    # inadequate one fails it: the dense oracles of criteria 5, 9 and 11
    # and the decay-rate fit of criterion 7; the maximization and crossover
    # criteria run on closed forms, which take none
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == cli.EXIT_VERIFY
    verdicts = {
        int(line[6:8]): line.startswith("PASS")
        for line in out.splitlines()
        if line.startswith(("PASS", "FAIL"))
    }
    assert len(verdicts) == 12
    for index in failing:
        assert not verdicts[index], out


def test_verify_stability_check_reports_evaluates_message(capsys):
    # at dim 40 every check of criterion 11 runs, and the closed forms
    # against the dense split fail at r = 2, where the oracle's truncated
    # g2 is off by the move the old dim versus 1.5 dim gate reported
    code, out, err = run_cli(capsys, "verify", "--dim", "40", "--tail-tol", "0.9")
    assert code == cli.EXIT_VERIFY
    line = next(line for line in out.splitlines() if line.startswith("FAIL [11]"))
    assert "closed form vs dense split: max gap 4.730e-08 (margin 473%);" in line


def test_verify_reports_the_known_small_r_floor_failure(capsys):
    # criterion 12's lower bound sits marginally above the exact yield at
    # the left edge of its r-range, so a faithful evaluation must fail it
    # (and only it) while the other eleven pass
    code, out, err = run_cli(capsys, "verify")
    assert code == cli.EXIT_VERIFY
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 12
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1
    assert "[12]" in failing[0]


def test_console_script_is_installed():
    exe = shutil.which("sqherald")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "figure", "--list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fig9b" in proc.stdout


FUZZ_VALUES = ("0", "-1", "1e-320", "nan", "inf", "-inf", "3.0000001", "1e300", "abc", "",
               "0.5", "1")
FUZZ_POINTS = ("-1", "0", "1", "2", "3", "abc")
FUZZ_VARIABLES = sorted(
    {v for q in registry.QUANTITIES.values() for v in (*q.variables, *q.defaults)}
) + ["foo"]
# fig5b takes seconds, far beyond the per-example deadline
FUZZ_FIGURES = sorted(set(registry.FIGURES) - {"fig5b"}) + ["foo"]


# the domain of every parameter, but sigma stays within half of fig5b's
# range: three phase_ratio points at r = 3, alpha = 12 and sigma = 0.004
# take about 1.8 s, near the deadline
FUZZ_DOMAINS = {
    "alpha": st.floats(1.0, 12.0),
    "eta": st.floats(0.0, 1.0, exclude_min=True),
    "n": st.integers(0, 11),
    "r": st.floats(0.0, 3.0),
    "sigma": st.floats(0.0, 0.002),
    "tau_tilde": st.floats(0.0, 2.0 * math.pi),
}


@st.composite
def _in_domain_sweep(draw):
    """A sweep argument list for a registered quantity that draws each of
    its variables, and some of its defaulted parameters, from their
    domains."""
    q = registry.QUANTITIES[draw(st.sampled_from(sorted(registry.QUANTITIES)))]
    names = list(q.variables) + [v for v in q.defaults
                                 if v not in q.variables and draw(st.booleans())]
    var = draw(st.sampled_from(names))
    points = draw(st.integers(1, 3))
    lo, hi = sorted((draw(FUZZ_DOMAINS[var]), draw(FUZZ_DOMAINS[var])))
    if var == "n":  # an integer grid
        hi = lo + points - 1
    elif lo == hi:
        points = 1
    argv = ["sweep", "--quantity", q.name, "--var", var, "--lo", repr(lo), "--hi", repr(hi),
            "--points", str(points)]
    for name in names:
        if name != var:
            argv += ["--set", f"{name}={draw(FUZZ_DOMAINS[name])!r}"]
    return argv


@st.composite
def _cli_arguments(draw):
    """A sweep or figure argument list: every quantity, variable and
    figure plus an unknown one, with values at the edges of each domain;
    or, about half the time, an in-domain sweep."""
    if draw(st.sampled_from(("edges", "in-domain", "in-domain"))) == "in-domain":
        return draw(_in_domain_sweep())
    value = st.sampled_from(FUZZ_VALUES)
    if draw(st.sampled_from(("figure", "sweep", "sweep"))) == "figure":
        argv = ["figure", draw(st.sampled_from(FUZZ_FIGURES))]
    else:
        argv = ["sweep", "--quantity", draw(st.sampled_from(sorted(registry.QUANTITIES) + ["foo"])),
                "--var", draw(st.sampled_from(FUZZ_VARIABLES)),
                "--lo", draw(value), "--hi", draw(value),
                "--points", draw(st.sampled_from(FUZZ_POINTS))]
        for name in draw(st.lists(st.sampled_from(FUZZ_VARIABLES), max_size=2)):
            argv += ["--set", f"{name}={draw(value)}"]
    flags = st.sampled_from(("--eta", "--alpha", "--dim", "--tail-tol"))
    for flag in draw(st.lists(flags, max_size=2, unique=True)):
        argv += [flag, draw(st.sampled_from(FUZZ_VALUES + (("8",) if flag == "--dim" else ())))]
    return argv


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(argv=_cli_arguments())
# past about 1,000 levels at small eta, (1 + x)^N in the click kernels
# overflows unless the 2^-N scaling moves into the exponent
@example(argv=["sweep", "--quantity", "pclick_cat_minus", "--var", "r", "--lo", "2", "--hi", "2",
               "--points", "1", "--dim", "1100", "--eta", "0.0625"])
def test_cli_returns_a_table_or_its_exit_code(argv):
    # every argument list gives a documented exit code and no traceback or
    # RuntimeWarning, and exit 0 comes with a table of finite values
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY, cli.EXIT_NUMERICAL, cli.EXIT_USAGE), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_OK:
        _, header, rows = parse_csv(out.getvalue())
        assert rows and all(len(row) == len(header) for row in rows)
        assert all(math.isfinite(v) for row in rows for v in row)
