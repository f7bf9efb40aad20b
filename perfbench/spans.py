"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the program, in the module namespace
where each function is looked up at call time, so the program itself
carries no tracing code.  A span is (name, start, end, parent);
spans stay in memory and the operation reports them when it ends.

Self time of a span is its duration minus the part of that interval its
direct child spans cover.  Spans opened in a worker thread with no open
span of their own take the main thread's innermost open span as parent
(the call that started the pool).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

# Namespace -> functions wrapped there.  Each entry is the module whose
# globals the caller reads the name from, not the defining module.
HOOKS = {
    "eprsim.cli": ("run_experiment", "tabulate", "chsh", "write_tags", "read_tags",
                   "window_sweep", "correlation_curve", "chsh_exact"),
    "eprsim.analysis": ("run_experiment", "tabulate", "chsh"),
    "eprsim.coincidence": ("pair_filter", "stream_match"),
    "eprsim.oracle": ("correlation_exact",),
    "eprsim.events": ("outcome_from_uniform", "delay_from_uniform", "hidden_from_uniform"),
}
ROOT = "cli.op"
MATCHERS = ("coincidence.pair_filter", "coincidence.stream_match")
KERNELS = ("model.outcome_from_uniform", "model.delay_from_uniform", "model.hidden_from_uniform")


def span_name(fn) -> str:
    """Layer-qualified name: the defining module without the package prefix."""
    return f"{fn.__module__.removeprefix('eprsim.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.matches: list[tuple] = []  # (event log, window, matched, emitted) per matcher call
        self.generated = 0  # pairs returned by run_experiment
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name in MATCHERS:
                self.matches.append((args[0], float(args[1]), len(out), int(out.n_source_pairs)))
            elif name == "events.run_experiment":
                self.generated += out.n_pairs
            return out

        return traced


def install(tracer: Tracer) -> list[str]:
    """Install span wrappers; returns the hooks not found in this version."""
    import importlib

    missing = []
    wrapped = {}
    for modname, names in HOOKS.items():
        mod = importlib.import_module(modname)
        for name in names:
            fn = getattr(mod, name, None)
            if not callable(fn):
                missing.append(f"{modname}.{name}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.wrap(fn)
            setattr(mod, name, wrapped[id(fn)])

    events = importlib.import_module("eprsim.events")
    log_cls = getattr(events, "EventLog", None)
    prop = vars(log_cls).get("paired_view") if log_cls else None
    if isinstance(prop, functools.cached_property):
        # Re-wrapped on the class: the cached value is computed on first access only.
        new = functools.cached_property(tracer.wrap(prop.func, "events.paired_view"))
        new.__set_name__(log_cls, "paired_view")
        log_cls.paired_view = new
    else:
        missing.append("eprsim.events.EventLog.paired_view")
    return missing


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [end - start - _covered(children.get(k, [])) for k, (_, start, end, _) in enumerate(spans)]


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, total self seconds and call count."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        rec["s"] += end - start
        rec["self_s"] += own
        rec["calls"] += 1
    return out


def cluster_stats(matches: list[tuple]) -> tuple[int, int, int]:
    """Stream clusters at every window a matcher ran at.

    The merged time-tag stream of both stations is split wherever two
    consecutive tags are more than the window apart; no coincidence can
    cross such a gap.  Returns (events in clusters of exactly one event
    per station, all events, largest cluster size), summed or maximised
    over the matcher calls.
    """
    import numpy as np

    in_1x1 = total = biggest = 0
    by_log: dict[int, tuple] = {}
    for log, window, _, _ in matches:
        by_log.setdefault(id(log), (log, []))[1].append(window)
    for log, windows in by_log.values():
        t1, t2 = log.station1.time_tag, log.station2.time_tag
        t = np.concatenate([t1, t2])
        first = np.concatenate([np.ones(len(t1), np.int64), np.zeros(len(t2), np.int64)])
        order = np.argsort(t, kind="stable")
        gaps = np.diff(t[order])
        first = first[order]
        for w in windows:
            cid = np.concatenate([[0], np.cumsum(gaps > w)])
            size = np.bincount(cid)
            n_first = np.bincount(cid, weights=first)
            in_1x1 += 2 * int(np.count_nonzero((size == 2) & (n_first == 1)))
            total += len(t)
            biggest = max(biggest, int(size.max()))
    return in_1x1, total, biggest
