"""Span recording around banditrank's public functions, from outside the library.

Each traced function is rebound, in every loaded ``banditrank`` module that
holds it, to a wrapper that records one span: its name, the span that was
open when it was called (its parent), start and end on the monotonic clock,
whether it raised, and optional counts taken from the call's arguments or
result. The library's source is not modified.

Spans are kept in memory as small lists ``[name, parent, start, end,
error, counts]``; ``summarize`` turns a slice of them into per-function
totals, including self time (a span's duration minus its children's).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

NAME, PARENT, START, END, ERROR, COUNTS = range(6)


def _len(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


# Counts recorded per call, keyed by traced function. Each takes
# (args, kwargs, result) and returns a dict of integers.
COUNTERS = {
    "policy.batch_probabilities": lambda a, k, r: {"rows": r.shape[0]},
    "data.parse_bandit_log": lambda a, k, r: {"records": len(r)},
    "data.write_bandit_log": lambda a, k, r: {"records": int(r)},
    "data.read_supervised": lambda a, k, r: {"rows": len(r)},
    "aggregation.aggregate_feedback": lambda a, k, r: {
        "events": _len(_arg(a, k, 0, "impressions")) + _len(_arg(a, k, 1, "positives"))
    },
    "aggregation.build_supervised": lambda a, k, r: {"rows": len(r)},
    # lambda_search returns (lam, params, sweep); sweep has one entry per
    # distinct probed lambda, each of which got one full training run.
    "training.lambda_search": lambda a, k, r: {"sweep": len(r[2])},
}

# The public functions the benchmark times, as "<module>.<function>".
TRACED = (
    "data.parse_bandit_log",
    "data.write_bandit_log",
    "data.read_supervised",
    "data.write_supervised",
    "aggregation.aggregate_feedback",
    "aggregation.build_supervised",
    "policy.batch_probabilities",
    "estimators.lagrangian_risk",
    "estimators.snips_denominator",
    "estimators.lagrangian_gradient",
    "training.evaluate_policy",
    "training.adam_step",
    "training.train_crm",
    "training.lambda_search",
    "evaluation.rank_metrics",
    "simulator.generate_world",
    "simulator.simulate_log",
    "simulator.true_risk",
)


class Tracer:
    """Records spans for the functions it wraps while ``active`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, clock(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, names=TRACED) -> None:
        """Rebind each named function in every loaded banditrank module."""
        importlib.import_module("banditrank.cli")  # loads every module
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "banditrank" or key.startswith("banditrank.")
        ]
        for name in names:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"banditrank.{module_name}"], fn_name)
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    @contextmanager
    def paused(self):
        """Calls made inside this block are not recorded (output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def add(self, name, start, end, error) -> int:
        """Record a root span measured by the caller; returns its index."""
        self.spans.append([name, None, start, end, error, None])
        return len(self.spans) - 1

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans recorded in another process under ``parent``.

        Child parents are indices into ``child_spans``; the child process's
        root spans become children of ``parent``. Both processes use the
        system-wide monotonic clock, so times are comparable.
        """
        base = len(self.spans)
        for name, p, start, end, error, counts in child_spans:
            self.spans.append(
                [name, parent if p is None else base + p, start, end, error, counts]
            )


def summarize(spans, lo: int, hi: int) -> dict[str, dict]:
    """Per-function totals over spans[lo:hi].

    Returns name -> {"calls", "s", "self_s", "errors", "durations",
    "counts", "children"}, where "children" counts direct child spans by
    name.
    """
    out: dict[str, dict] = {}
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        span = spans[i]
        p = span[PARENT]
        if p is not None and lo <= p < hi:
            child_time[p - lo] += span[END] - span[START]
    for i in range(lo, hi):
        name, p, start, end, error, counts = spans[i]
        dur = end - start
        entry = out.setdefault(
            name,
            {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0, "durations": [],
             "counts": {}, "children": {}},
        )
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - child_time[i - lo]
        entry["errors"] += int(error)
        entry["durations"].append(dur)
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if p is not None and lo <= p < hi:
            parent = out[spans[p][NAME]]
            parent["children"][name] = parent["children"].get(name, 0) + 1
    return out
