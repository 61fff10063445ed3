"""Spans around the package's layers, installed from outside the package.

`Tracer.install` wraps every public function of the `simulate`, `ranks`,
`representations` and `stats` modules, the validating constructors of
`PairedSample` and `UniformPairs`, `StreamKey.generator` and `cli.main`.
A function imported by name into another module (``from .ranks import
footrule_coefficient`` in `simulate`) is replaced there as well, since
that binding is the one the caller uses. The thread pool `simulate`
creates is swapped for one whose tasks record a span whose parent is
the span that submitted them. `Tracer.uninstall` puts every original
object back.

A span is (id, name, start ns, end ns, parent id, run id, thread, depth,
attribute), nine int64 values in one flat array. Spans stay in memory
and are saved when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("simulate", "ranks", "representations", "stats")

# Attribute recorded on a span: the sample size for per-call kernel
# timings, and the computed number of kernel evaluations for the KDE.
_ATTRS = {
    "ranks.footrule_coefficient": lambda sample, *a, **k: sample.n,
    "representations.double_sum_representation": lambda pairs: pairs.n,
    "representations.hajek_representation": lambda pairs: pairs.n,
    "stats.gaussian_kde": lambda samples, grid_size=512: len(samples) * grid_size,
}

_METHODS = (
    ("ranks", "PairedSample", "__post_init__", "ranks.PairedSample"),
    ("representations", "UniformPairs", "__post_init__", "representations.UniformPairs"),
    ("simulate", "StreamKey", "generator", "simulate.StreamKey.generator"),
)

POOL_TASK = "simulate.pool_task"

# Per-layer self-time metrics: metric -> span names whose self time it sums.
SELF_TIME = {
    "simulate.stream_s": ("simulate.StreamKey.generator", "simulate.uniform_open"),
    "simulate.self_s": ("simulate.run_moment_study", "simulate.run_ks_study",
                        "simulate.run_curve_study", "simulate.draw_statistic", POOL_TASK),
    "ranks.validate_s": ("ranks.PairedSample",),
    "ranks.rank_s": ("ranks.compute_ranks",),
    "ranks.exact_build_s": ("ranks.enumerate_null_distribution", "ranks.max_distance"),
    "representations.validate_s": ("representations.UniformPairs",),
    "stats.kde_s": ("stats.gaussian_kde", "stats.bandwidth"),
    "stats.ecdf_s": ("stats.ecdf_curve",),
    "stats.ks_s": ("stats.ks_one_sample", "stats.ks_two_sample", "stats.kolmogorov_sf"),
    "stats.summary_s": ("stats.summarize",),
    "stats.normal_s": ("stats.normal_cdf", "stats.normal_pdf"),
    "cli.self_s": ("cli.main",),
}

# Mean inclusive microseconds per call, for calls at the given sample size.
PER_CALL_US = {
    "ranks.coefficient_us": "ranks.footrule_coefficient",
    "representations.double_sum_us": "representations.double_sum_representation",
    "representations.hajek_us": "representations.hajek_representation",
}
PER_CALL_SIZES = (10, 100)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._task = self.traced(POOL_TASK, lambda fn, *a, **k: fn(*a, **k))

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def traced(self, name: str, fn, attr=None):
        """`fn` wrapped so that each call records one span called `name`."""
        index = len(self.names)
        self.names.append(name)
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, index, start, end, parent, self.run_id,
                              threading.get_ident(), len(stack),
                              attr(*args, **kwargs) if attr else 0))
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli = importlib.import_module("footrule.cli")
        package = sys.modules["footrule"]
        modules = [package] + [m for k, m in sorted(sys.modules.items())
                               if k.startswith("footrule.") and m is not None]
        for layer in LAYERS:
            module = importlib.import_module(f"footrule.{layer}")
            for fname, fn in sorted(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                span = f"{layer}.{fname}"
                wrapper = self.traced(span, fn, _ATTRS.get(span))
                for owner in modules:
                    for attr, value in sorted(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        for layer, cls_name, method, span in _METHODS:
            cls = getattr(importlib.import_module(f"footrule.{layer}"), cls_name)
            self._patch(cls, method, self.traced(span, vars(cls)[method]))
        self._patch(cli, "main", self.traced("cli.main", vars(cli)["main"]))
        self._patch(importlib.import_module("footrule.simulate"),
                    "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def run(*a, **k):
                    # The submitting span becomes the task span's parent.
                    own = tracer._stack()
                    own.append(parent)
                    try:
                        return tracer._task(fn, *a, **k)
                    finally:
                        own.pop()
                return super().submit(run, *args, **kwargs)
        return TracedPool

    def rows(self, run: int) -> list[tuple]:
        """The spans of one run as tuples."""
        it = iter(self.spans)
        return [row for row in zip(*[it] * 9) if row[5] == run]

    def save(self, path) -> None:
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 9)
        np.savez_compressed(path, names=np.array(self.names),
                            columns=np.array(["id", "name", "start_ns", "end_ns", "parent",
                                              "run", "thread", "depth", "attr"]),
                            spans=table)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Seconds of wall time attributed to each span id.

    A sweep over span boundaries gives each interval to the innermost
    open span of every thread, shared equally among threads. A span
    waiting on open spans of another thread (a study waiting for its
    pool tasks) takes no share while they run. The shares of all spans
    sum to the time covered by the outermost spans, so they never exceed
    the wall time, whatever the thread count.
    """
    thread_of = {s[0]: s[6] for s in spans}
    events = []
    for sid, _, start, end, parent, _, thread, depth, _ in spans:
        cross = parent if parent and thread_of.get(parent, thread) != thread else 0
        events.append((start, 1, depth, sid, thread, cross))
        events.append((end, 0, -depth, sid, thread, cross))
    events.sort()
    stacks: dict[int, list[int]] = defaultdict(list)
    waiting: dict[int, int] = defaultdict(int)
    share: dict[int, float] = defaultdict(float)
    open_spans = 0
    prev = 0
    for t, kind, _, sid, thread, cross in events:
        if open_spans and t > prev:
            tops = [st[-1] for st in stacks.values() if st]
            running = [s for s in tops if not waiting[s]] or tops
            dt = (t - prev) / len(running) / 1e9
            for s in running:
                share[s] += dt
        prev = t
        if kind:
            stacks[thread].append(sid)
            open_spans += 1
            if cross:
                waiting[cross] += 1
        else:
            stacks[thread].pop()
            open_spans -= 1
            if cross:
                waiting[cross] -= 1
    return share


def layer_metrics(tracer: Tracer, runs: list[dict], measured: range) -> dict[str, float]:
    """Per-layer metrics over the measured runs.

    Times are medians over runs of each run's self time; `_us` figures
    are means over every call in the measured runs; counts are means per
    run, which repeat exactly because the traced plan is fixed.
    """
    names = tracer.names
    per_run: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, int] = defaultdict(int)
    calls: dict[tuple[str, int], list[float]] = defaultdict(list)
    kde_evals = 0
    for run in measured:
        spans = tracer.rows(run)
        share = self_times(spans)
        for sid, index, start, end, _, _, _, _, attr in spans:
            name = names[index]
            per_run[name][run] += share.get(sid, 0.0)
            counts[name] += 1
            if name == "stats.gaussian_kde":
                kde_evals += attr
            elif attr in PER_CALL_SIZES:
                calls[(name, attr)].append((end - start) / 1e3)

    def run_median(span_names) -> float:
        return statistics.median(
            sum(per_run[name].get(run, 0.0) for name in span_names) for run in measured)

    k = len(measured)
    metrics = {metric: run_median(span_names) for metric, span_names in SELF_TIME.items()}
    metrics["simulate.streams"] = counts["simulate.StreamKey.generator"] / k
    metrics["simulate.tie_redraws"] = (counts["simulate.uniform_open"]
                                       - counts["simulate.StreamKey.generator"]) / k
    metrics["ranks.exact_builds"] = counts["ranks.enumerate_null_distribution"] / k
    metrics["stats.kde_evals"] = kde_evals / k
    kde_total = sum(per_run[n].get(run, 0.0) for n in SELF_TIME["stats.kde_s"] for run in measured)
    metrics["stats.kde_ns_per_eval"] = kde_total * 1e9 / kde_evals if kde_evals else 0.0
    metrics["stats.normal_calls"] = (counts["stats.normal_cdf"] + counts["stats.normal_pdf"]) / k
    for metric, span in PER_CALL_US.items():
        for n in PER_CALL_SIZES:
            durations = calls.get((span, n))
            metrics[f"{metric}.n{n}"] = statistics.fmean(durations) if durations else 0.0
    metrics["cli.bytes_out"] = sum(op["bytes_out"] for i in measured for op in runs[i]["ops"]) / k
    return metrics

