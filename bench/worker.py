"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py PASS_DIR {setup|run|trace}

The working directory is PASS_DIR.  `setup` imports `sqherald.cli` and
stops.  `run` then executes the jobs in PASS_DIR/jobs.json in order, one
after the other, through `sqherald.cli.main`; `trace` does the same with
the span wrappers of tracing.py installed.  Timestamps are
`time.monotonic()`, which is one clock for every process on the machine,
so the parent can measure from the moment it spawned this process.  The
pass writes PASS_DIR/result.json, and PASS_DIR/spans.json when traced.
"""
import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "GOTO")


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_ENV_PREFIXES)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_job(cli, job: dict) -> dict:
    record = {"name": job["name"], "rc": None, "error": None}
    record["t0"] = time.monotonic()
    try:
        if job.get("stdout"):
            with open(job["out"], "w", encoding="utf-8") as handle, \
                    contextlib.redirect_stdout(handle):
                record["rc"] = cli.main(job["argv"])
        else:
            record["rc"] = cli.main(job["argv"])
    except SystemExit as exc:
        record["rc"] = exc.code
    except Exception:  # a raising job is a failed job; keep going
        record["error"] = traceback.format_exc()
    record["t1"] = time.monotonic()
    return record


def main(argv) -> int:
    pass_dir, mode = argv[1], argv[2]
    from sqherald import cli

    result = {"t_start": T_START, "t_import": time.monotonic()}
    if mode != "setup":
        with open(os.path.join(pass_dir, "jobs.json"), encoding="utf-8") as handle:
            jobs = json.load(handle)
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result["jobs"] = [run_job(cli, job) for job in jobs]
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["maxrss_kb"] = usage.ru_maxrss
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        if tracer is not None:
            tracer.uninstall()
            tracer.annotate_series_pairs()
            with open(os.path.join(pass_dir, "spans.json"), "w", encoding="utf-8") as handle:
                json.dump(tracer.spans, handle, separators=(",", ":"))
        result["env"] = environment()
    with open(os.path.join(pass_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
