"""Benchmark of the sqherald command line: closed-loop workloads, each pass
in a fresh interpreter, with outputs checked against stored references.

    python3 bench/run.py --workload {tables,kerr_noise,verify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  One client runs the workload's jobs one after the
other, each job only after the previous one has finished, through
`sqherald.cli.main([...])` with `--out` set to a file in a fresh
temporary working directory.  Passes repeat until `--seconds` have
elapsed, with at least two and at most three; two passes of the same code
and seed must write byte-identical outputs.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
and one traced pass and prints the per-module metrics.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it are diagnostics.  Exit code 2
means the benchmark could not run at all (no package source, no
references), and then no result is printed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"

# the program's own convergence gate (analysis.CONVERGENCE_TOL)
TOLERANCE = 1e-8
# two passes are the least that can check determinism; a third steadies
# the medians, and more would not let a comparison of two commits (about
# twenty runs of each workload) finish within the hour
MIN_PASSES, MAX_PASSES = 2, 3
SETUP_SPAWNS = 5
# every run must end within 180 s; no pass starts that would end after this
RUN_BUDGET_S = 165.0

TABLES = ("fig3a", "fig2", "fig3b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b")
KERR_FIGURES = ("fig4a", "fig4b", "fig5a")
# fig5b's r grid and the index of its last sigma (0.004), which reaches the
# deepest Gauss-Hermite rungs at r = 2
FIG5B_R = ("0.05", "2.0", "40")
FIG5B_SIGMAS = 41
DEEPEST_SIGMA = 40
# the seed draws a pair of sigma indices from the upper half of the grid,
# mirrored about its middle (i and 59 - i): a column's cost grows with
# sigma, so mirrored pairs keep every seed's run at about the same work
SEEDED_SIGMAS = (20, 39)
VERIFY_EXPECTED = {i: "PASS" for i in range(1, 12)} | {12: "FAIL"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "first_output_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
}
LAYER_UNITS = {
    "optics.calls": "count", "optics.self_s": "s", "optics.cutoffs": "count",
    "optics.split_first_s": "s",
    "sources.calls": "count", "sources.self_s": "s", "sources.distinct_ratio": "ratio",
    "detect.calls": "count", "detect.self_s": "s", "detect.distinct_ratio": "ratio",
    "analysis.self_s": "s", "analysis.recheck_share": "ratio",
    "registry.evals": "count", "registry.eval_p50_s": "s", "registry.eval_tail_s": "s",
    "registry.distinct_ratio": "ratio",
    "kerr.calls": "count", "kerr.self_s": "s", "kerr.avg_ratio_calls": "count",
    "kerr.avg_ratio_p50_s": "s", "kerr.avg_ratio_tail_s": "s", "kerr.series_pairs": "count",
    "kerr.p0_self_s": "s",
    **{f"verification.c{i}_s": "s" for i in range(1, 13)},
    "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


class Unrunnable(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


# ------------------------------------------------------------ workloads


def read_table(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a CSV table written by the CLI."""
    header: list[str] | None = None
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split(",")
            if header is None:
                header = cells
            else:
                rows.append([float(x) for x in cells])
    return header or [], rows


def figure_job(name: str) -> dict:
    out = f"{name}.csv"
    return {"name": name, "argv": ["figure", name, "--out", out], "out": out,
            "expect_rc": 0, "ref": {"file": out}}


def fig5b_column_job(index: int, sigmas: list[float]) -> dict:
    sigma = repr(sigmas[index])
    out = f"fig5b_sigma{index}.csv"
    argv = ["sweep", "--quantity", "phase_ratio", "--var", "r",
            "--lo", FIG5B_R[0], "--hi", FIG5B_R[1], "--points", FIG5B_R[2],
            "--set", "alpha=10", "--set", f"sigma={sigma}", "--out", out]
    return {"name": f"fig5b[sigma={sigma}]", "argv": argv, "out": out,
            "expect_rc": 0, "ref": {"file": "fig5b.csv", "sigma_index": index}}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's jobs in execution order; only kerr_noise uses the seed."""
    if workload == "tables":
        return [figure_job(name) for name in TABLES]
    if workload == "kerr_noise":
        _, rows = read_table(REFERENCE / "fig5b.csv")
        sigmas = [row[1] for row in rows[:FIG5B_SIGMAS]]
        low, high = SEEDED_SIGMAS
        first = random.Random(seed).randrange(low, (low + high + 1) // 2)
        drawn = [first, low + high - first]
        return ([figure_job(name) for name in KERR_FIGURES]
                + [fig5b_column_job(i, sigmas) for i in [DEEPEST_SIGMA] + drawn])
    if workload == "verify":
        return [{"name": "verify", "argv": ["verify"], "out": "verify.txt", "stdout": True,
                 "expect_rc": 1, "ref": {"file": "verify.txt"}}]
    raise ValueError(workload)


# --------------------------------------------------------------- checks


def table_deviation(job: dict, path: Path) -> float:
    """Largest absolute gap between an output table and its reference."""
    header, rows = read_table(path)
    ref_header, ref_rows = read_table(REFERENCE / job["ref"]["file"])
    index = job["ref"].get("sigma_index")
    if index is not None:
        # a fig5b column: rows (r, ratio) at one sigma of the full table
        ref_header = [ref_header[0], ref_header[2]]
        ref_rows = [[row[0], row[2]] for row in ref_rows[index::FIG5B_SIGMAS]]
    if header != ref_header or len(rows) != len(ref_rows):
        return float("inf")
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref):
            return float("inf")
        for a, b in zip(row, ref):
            gap = abs(a - b)
            if not gap <= worst:  # also catches NaN
                worst = gap if gap == gap else float("inf")
    return worst


def verify_verdicts(text: str) -> dict[int, str]:
    verdicts = {}
    for line in text.splitlines():
        status, _, rest = line.partition(" [")
        if status in ("PASS", "FAIL") and "]" in rest:
            verdicts[int(rest.split("]", 1)[0])] = status
    return verdicts


def verify_deviation(path: Path) -> float:
    """Largest gap between the numbers a verify report prints and the
    reference report's; the report rounds to 6 digits."""
    def numbers(text):
        out = []
        for token in text.replace(",", " ").replace("(", " ").replace(")", " ").split():
            try:
                out.append(float(token.rstrip(";:")))
            except ValueError:
                pass
        return out

    got = numbers(path.read_text(encoding="utf-8"))
    ref = numbers((REFERENCE / "verify.txt").read_text(encoding="utf-8"))
    if len(got) != len(ref):
        return float("inf")
    return max((abs(a - b) for a, b in zip(got, ref)), default=0.0)


def check_job(job: dict, record: dict, out: Path) -> tuple[list[str], float | None]:
    """Failure reasons for one finished job, and its deviation."""
    if record.get("error"):
        return [f"raised: {record['error'].strip().splitlines()[-1]}"], None
    if record["rc"] != job["expect_rc"]:
        return [f"exit code {record['rc']}, expected {job['expect_rc']}"], None
    if not out.is_file():
        return ["wrote no output"], None
    if job.get("stdout"):
        verdicts = verify_verdicts(out.read_text(encoding="utf-8"))
        if verdicts != VERIFY_EXPECTED:
            return [f"verdicts {verdicts}, expected {VERIFY_EXPECTED}"], None
        deviation = verify_deviation(out)
        # the report's rounded numbers are a diagnostic only
        return [], deviation
    deviation = table_deviation(job, out)
    if not deviation <= TOLERANCE:
        return [f"deviates from reference by {deviation:.3e}"], deviation
    return [], deviation


# ---------------------------------------------------------------- passes


def child_env(home: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["HOME"] = str(home)
    env["XDG_CACHE_HOME"] = str(home / ".cache")
    return env


def spawn(run_dir: Path, mode: str, jobs: list[dict] | None, timeout: float) -> dict:
    """Run one worker in a fresh interpreter and directory; its result
    plus the parent's spawn time, or an "error" entry."""
    pass_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=run_dir))
    home = pass_dir / "home"
    home.mkdir()
    if jobs is not None:
        (pass_dir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(pass_dir), mode]
    with open(pass_dir / "stdout.txt", "wb") as out, open(pass_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=pass_dir, env=child_env(home), stdout=out,
                                  stderr=err, timeout=max(timeout, 1.0), check=False)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    result_path = pass_dir / "result.json"
    if code != 0 or not result_path.is_file():
        tail = (pass_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return {"error": f"worker exit {code}: {tail.strip()[-400:]}", "dir": pass_dir,
                "t_spawn": t_spawn}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(dir=pass_dir, t_spawn=t_spawn)
    return result


def setup_time(result: dict) -> float:
    return result["t_import"] - result["t_spawn"]


def pass_wall(result: dict) -> float:
    return result["jobs"][-1]["t1"] - result["t_import"]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqherald").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    # only the checkout's own repository: git would otherwise search the
    # directories above it
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=False)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


# ------------------------------------------------------------------ main


class Outcome:
    """Failures, deviations and first-pass bytes across the passes of a run."""

    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.worst = (0.0, None)
        self.first_bytes: dict[str, bytes] = {}
        self.bytes_out = 0

    def add_pass(self, label: str, result: dict) -> None:
        self.attempted += len(self.jobs)
        if "error" in result:
            self.failures += [f"{label} {job['name']}: {result['error']}" for job in self.jobs]
            return
        self.bytes_out = 0
        for job, record in zip(self.jobs, result["jobs"]):
            out = result["dir"] / job["out"]
            reasons, deviation = check_job(job, record, out)
            if deviation is not None and deviation > self.worst[0]:
                self.worst = (deviation, job["name"])
            if out.is_file():
                data = out.read_bytes()
                self.bytes_out += len(data)
                first = self.first_bytes.setdefault(job["name"], data)
                if data != first:
                    reasons.append("output differs byte-wise from the first pass")
            if reasons:
                self.failures.append(f"{label} {job['name']}: {'; '.join(reasons)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_passes(run_dir: Path, jobs: list[dict], seconds: float, t_begin: float,
               outcome: Outcome) -> list[dict]:
    passes: list[dict] = []
    t_measure = time.monotonic()
    while True:
        now = time.monotonic()
        remaining = t_begin + RUN_BUDGET_S - now
        if passes:
            enough = len(passes) >= MAX_PASSES or (
                len(passes) >= MIN_PASSES and now - t_measure >= seconds)
            last_pass = now - passes[-1]["t_spawn"]
            if enough or last_pass * 1.2 > remaining:
                break
        result = spawn(run_dir, "run", jobs, remaining)
        outcome.add_pass(f"pass {len(passes) + 1}", result)
        passes.append(result)
        if "error" in result:
            break
    return passes


def end_to_end(setups: list[float], passes: list[dict], outcome: Outcome,
               notes: list[str]) -> dict:
    good = [p for p in passes if "error" not in p]
    if not good:
        raise Unrunnable("no pass completed")
    walls = [pass_wall(p) for p in good]
    firsts = [p["jobs"][0]["t1"] - p["t_spawn"] for p in good]
    latencies = [j["t1"] - j["t0"] for p in good for j in p["jobs"]]
    setups = setups + [setup_time(p) for p in good]
    notes.append(f"setup_s is the median of {len(setups)} fresh interpreters; wall_s, "
                 f"first_output_s and peak_rss_mb are medians over {len(good)} passes")
    notes.append(f"job_p50_s is the median of {len(latencies)} job latencies")
    for i, job in enumerate(outcome.jobs):
        lat = [p["jobs"][i]["t1"] - p["jobs"][i]["t0"] for p in good]
        notes.append(f"  job {job['name']}: median {statistics.median(lat):.3f} s "
                     f"over {len(lat)} passes")
    notes.append("wall_s per pass: " + ", ".join(f"{w:.3f}" for w in walls))
    notes.append("process CPU seconds per pass: "
                 + ", ".join(f"{p['cpu_s']:.2f}" for p in good))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "first_output_s": statistics.median(firsts),
        "job_p50_s": statistics.median(latencies),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024.0 for p in good),
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
    }


def per_layer(passes: list[dict], outcome: Outcome, workload: str, notes: list[str]) -> dict:
    plain, traced = passes
    if "error" in plain or "error" in traced:
        raise Unrunnable("the traced run did not complete")
    spans = json.loads((traced["dir"] / "spans.json").read_text(encoding="utf-8"))
    kept = WORK / f"spans-{workload}.json"
    shutil.copyfile(traced["dir"] / "spans.json", kept)
    metrics, layer_notes = tracing.layer_metrics(spans)
    notes += layer_notes
    notes.append(f"{len(spans)} spans kept in {kept.relative_to(ROOT)}")
    metrics["cli.bytes_out"] = float(outcome.bytes_out)
    metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
    notes.append(f"tracing overhead: traced wall_s {pass_wall(traced):.3f} s minus "
                 f"untraced {pass_wall(plain):.3f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "kerr_noise", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_begin = time.monotonic()
    try:
        if not (SRC / "sqherald" / "cli.py").is_file():
            raise Unrunnable(f"no package source at {SRC / 'sqherald'}")
        if not REFERENCE.is_dir():
            raise Unrunnable(f"no reference outputs at {REFERENCE}")
        jobs = make_jobs(args.workload, args.seed)
        WORK.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
        try:
            lines, metrics, outcome = measure(args, jobs, run_dir, t_begin)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except Unrunnable as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    for line in lines:
        print(line)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def measure(args, jobs: list[dict], run_dir: Path, t_begin: float):
    # the first interpreter compiles bytecode and warms the file cache,
    # which a user pays once, not on every call
    warm = spawn(run_dir, "setup", None, RUN_BUDGET_S)
    if "error" in warm:
        raise Unrunnable(f"sqherald.cli does not import: {warm['error']}")
    outcome = Outcome(jobs)
    notes: list[str] = []
    if args.trace:
        plain = spawn(run_dir, "run", jobs, t_begin + RUN_BUDGET_S - time.monotonic())
        outcome.add_pass("untraced pass", plain)
        traced = spawn(run_dir, "trace", jobs, t_begin + RUN_BUDGET_S - time.monotonic())
        outcome.add_pass("traced pass", traced)
        passes = [plain, traced]
        metrics = per_layer(passes, outcome, args.workload, notes)
    else:
        setups = []
        for _ in range(SETUP_SPAWNS):
            result = spawn(run_dir, "setup", None, RUN_BUDGET_S)
            if "error" not in result:
                setups.append(setup_time(result))
        passes = run_passes(run_dir, jobs, args.seconds, t_begin, outcome)
        metrics = end_to_end(setups, passes, outcome, notes)

    env = next((p["env"] for p in passes if "env" in p), {})
    lines = [
        f"bench: workload={args.workload} seed={args.seed} passes={len(passes)} "
        f"jobs/pass={len(jobs)} trace={args.trace}",
        "source: " + json.dumps(source_identity(), sort_keys=True),
        "env: " + json.dumps(env, sort_keys=True),
    ]
    lines += notes
    worst, where = outcome.worst
    lines.append(f"largest deviation from reference: {worst:.3e}"
                 + (f" ({where})" if where else "") + f"; gate {TOLERANCE:g}")
    if args.workload == "verify":
        lines.append("verify: criterion 12 FAIL is the expected verdict (known red) "
                     "and counts as correct")
    lines.append(f"determinism: {len(passes)} passes compared byte-wise with the first")
    lines += [f"FAILED {reason}" for reason in outcome.failures]
    return lines, metrics, outcome


if __name__ == "__main__":
    sys.exit(main())
