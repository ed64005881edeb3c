"""Span tracing installed from outside the package, and the per-module
metrics computed from the spans.

`Tracer.install()` replaces, at run time, the public functions of
`sources`, `optics`, `detect`, `kerr` and `analysis`, every
`registry.QUANTITIES[name].fn`, `registry.Figure.build`, every entry of
`verification.CRITERIA` and `cli.main` with wrappers that record one span
per call: (id, parent id, name, start, end, info, enter).  `enter` is
when the wrapper was entered, before it described the call's inputs;
a parent's self time excludes each child's whole [enter, end] interval,
so the tracer's own work is not charged to the calling module.  Spans
stay in memory until the pass ends.  The package itself is not modified on disk.

`fockspace` is not wrapped: the other modules bind its names with
`from .fockspace import ...` at import time, so patching the module
attribute would not reach their calls.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import math
import statistics
import time
from collections import defaultdict

UNWRAPPED_NOTE = (
    "fockspace is not wrapped: its names are bound by `from .fockspace import` "
    "at import time, so its time counts as self time of the calling module"
)

WRAPPED_MODULES = ("sources", "optics", "detect", "kerr", "analysis")
# modules whose distinct-input ratio is reported, so their spans carry an
# input key
KEYED_MODULES = ("sources", "detect")
BLOCK_FUNCTIONS = ("optics.split", "optics.apply_beam_splitter")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _norm(value):
    """Hashable, repr-stable stand-in for one call argument."""
    if value is None or isinstance(value, (bool, int, float, complex, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _norm(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    tobytes = getattr(value, "tobytes", None)
    if tobytes is not None:
        digest = hashlib.blake2b(tobytes(), digest_size=12).hexdigest()
        return ("array", value.shape, str(value.dtype), digest)
    return repr(value)


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=8).hexdigest()


def _bound_key(sig: inspect.Signature, args, kwargs) -> str:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return _digest(tuple((k, _norm(v)) for k, v in bound.arguments.items()))


class Tracer:
    """Records spans around the package's public entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list = []

    def _wrap(self, name: str, fn, describe=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            info = describe(args, kwargs) if describe is not None else None
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append([sid, parent, name, start, end, info, enter])

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        pkg = "sqherald"
        for short in WRAPPED_MODULES:
            mod = importlib.import_module(f"{pkg}.{short}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._patch(mod, attr, self._wrap(name, obj, _describer(short, name, obj)))

        registry = importlib.import_module(f"{pkg}.registry")
        for qname, q in sorted(registry.QUANTITIES.items()):
            wrapped = dataclasses.replace(
                q, fn=self._wrap(f"registry.eval.{qname}", q.fn, _eval_describer(qname))
            )
            self._restore.append((registry.QUANTITIES, qname, q))
            registry.QUANTITIES[qname] = wrapped
        self._patch(registry.Figure, "build",
                    self._wrap("registry.Figure.build", registry.Figure.build))

        verification = importlib.import_module(f"{pkg}.verification")
        self._patch(verification, "CRITERIA", tuple(
            self._wrap(f"verification.{fn.__name__}", fn) for fn in verification.CRITERIA
        ))

        cli = importlib.import_module(f"{pkg}.cli")
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def annotate_series_pairs(self) -> None:
        """Attach the pair-term count to every gaussian_averaged_ratio span.

        Calls without a dim use `kerr.series_truncation(r)`; run after
        `uninstall()` so those lookups record no spans.
        """
        from sqherald import kerr

        cache: dict[float, int] = {}
        for span in self.spans:
            if span[2] != "kerr.gaussian_averaged_ratio":
                continue
            info = span[5]
            if info["sigma"] == 0.0:
                # sigma = 0 returns 1 exactly without touching the series
                info["pairs"] = 0
                continue
            dim = info["dim"]
            if dim is None:
                r = info["r"]
                if r not in cache:
                    cache[r] = kerr.series_truncation(r).dim
                dim = cache[r]
            info["pairs"] = (dim + 1) // 2


def _describer(short: str, name: str, fn):
    sig = inspect.signature(fn)
    if short in KEYED_MODULES:
        return lambda args, kwargs: {"key": _bound_key(sig, args, kwargs)}
    if name in BLOCK_FUNCTIONS:
        return lambda args, kwargs: {"dim": int(args[0].dim if args else kwargs["state"].dim)}
    if name == "kerr.gaussian_averaged_ratio":
        def describe(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return {"r": float(a["r"]), "sigma": float(a["sigma"]), "dim": a["dim"]}
        return describe
    return None


def _eval_describer(qname: str):
    def describe(args, kwargs):
        trunc = args[0] if args else kwargs.get("trunc")
        params = tuple(sorted((k, _norm(v)) for k, v in kwargs.items() if k != "trunc"))
        return {
            "key": _digest((qname, _norm(trunc), params)),
            "params": _digest((qname, params)),
            "dim": None if trunc is None else int(trunc.dim),
        }

    return describe


# ---------------------------------------------------------------- metrics


def tail_percentile(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (nearest
    rank), and a note naming it and the sample count; the median when
    there are fewer than twenty samples, and 0 when there are none."""
    n = len(values)
    if n == 0:
        return 0.0, "0 (no samples)"
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p:g} of {n} samples"
    return statistics.median(ordered), f"p50 of {n} samples"


def layer_metrics(spans) -> tuple[dict[str, float], list[str]]:
    """Per-module metrics from one traced pass, plus notes naming the
    percentile and sample count behind each tail figure."""
    child = defaultdict(float)
    for sid, parent, name, start, end, info, enter in spans:
        if parent is not None:
            child[parent] += end - enter
    spans = sorted(spans, key=lambda s: s[0])

    def dur(s):
        return s[4] - s[3]

    def self_time(s):
        return dur(s) - child[s[0]]

    by_module: dict[str, list] = defaultdict(list)
    for s in spans:
        by_module[s[2].split(".", 1)[0]].append(s)

    m: dict[str, float] = {}
    notes: list[str] = []

    def module_totals(mod):
        group = by_module.get(mod, [])
        m[f"{mod}.calls"] = float(len(group))
        m[f"{mod}.self_s"] = float(sum(self_time(s) for s in group))
        return group

    def distinct_ratio(group):
        keys = [s[5]["key"] for s in group]
        return len(set(keys)) / len(keys) if keys else 0.0

    # optics: cold block builds at each new cutoff
    optics = module_totals("optics")
    block_calls: dict[int, list] = defaultdict(list)
    for s in optics:
        if s[2] in BLOCK_FUNCTIONS:
            block_calls[s[5]["dim"]].append(s)
    m["optics.cutoffs"] = float(len(block_calls))
    first_excess = 0.0
    for calls in block_calls.values():
        first = calls[0]
        later = [dur(s) for s in calls[1:] if s[2] == first[2]]
        first_excess += dur(first) - (statistics.median(later) if later else 0.0)
    m["optics.split_first_s"] = first_excess

    for mod in KEYED_MODULES:
        m[f"{mod}.distinct_ratio"] = distinct_ratio(module_totals(mod))

    # analysis self time, and the share of quantity-evaluation time spent
    # on the 1.5x-cutoff recheck: an evaluation is a recheck when it
    # repeats the previous evaluation's quantity and parameters under the
    # same caller at ceil(1.5 * dim)
    module_totals("analysis")
    evals = [s for s in spans if s[2].startswith("registry.eval.")]
    recheck_time = 0.0
    prev = None
    for s in evals:
        info = s[5]
        if (
            prev is not None
            and prev[1] == s[1]
            and prev[5]["params"] == info["params"]
            and prev[5]["dim"] is not None
            and info["dim"] == math.ceil(prev[5]["dim"] * 1.5)
        ):
            recheck_time += dur(s)
        prev = s
    eval_time = sum(dur(s) for s in evals)
    m["analysis.recheck_share"] = recheck_time / eval_time if eval_time else 0.0

    eval_durs = [dur(s) for s in evals]
    m["registry.evals"] = float(len(evals))
    m["registry.eval_p50_s"] = statistics.median(eval_durs) if eval_durs else 0.0
    m["registry.eval_tail_s"], label = tail_percentile(eval_durs)
    notes.append(f"registry.eval_tail_s (Quantity.fn latency) is {label}")
    m["registry.distinct_ratio"] = distinct_ratio(evals)

    kerr = module_totals("kerr")
    ratio = [s for s in kerr if s[2] == "kerr.gaussian_averaged_ratio"]
    ratio_durs = [dur(s) for s in ratio]
    m["kerr.avg_ratio_calls"] = float(len(ratio))
    m["kerr.avg_ratio_p50_s"] = statistics.median(ratio_durs) if ratio_durs else 0.0
    m["kerr.avg_ratio_tail_s"], label = tail_percentile(ratio_durs)
    notes.append(f"kerr.avg_ratio_tail_s (gaussian_averaged_ratio latency) is {label}")
    m["kerr.series_pairs"] = float(sum(s[5]["pairs"] for s in ratio))
    m["kerr.p0_self_s"] = float(sum(self_time(s) for s in kerr if s[2] == "kerr.p0_generation"))

    for index in range(1, 13):
        name = f"verification.criterion_{index}"
        m[f"verification.c{index}_s"] = float(sum(dur(s) for s in spans if s[2] == name))

    m["cli.self_s"] = float(sum(self_time(s) for s in by_module.get("cli", [])))
    notes.append(UNWRAPPED_NOTE)
    return m, notes
