"""Spans around the public functions of ``ctqsched``, recorded from outside.

The package imports functions by name (``ctq``, ``experiment``, ``cli`` and
the package itself each hold their own reference to ``best_quantum``), so a
wrapper replaces the function at every module attribute that holds it, and
leaving the ``with`` block puts every original back before any untraced op.

Spans stay in memory: ``(name, start_ns, end_ns, parent, op, counts)``, where
``parent`` is the index of the enclosing span (-1 for none) and ``counts``
holds the work a call did, read off its arguments and result.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict


def _scan_counts(args, result):
    n = args[0].n
    return {"candidates": result.candidates_evaluated,
            "cells": n * n * result.candidates_evaluated}


def _ctq_counts(args, result):
    sequence = result.quantum_sequence
    return {"rounds": len(sequence),
            "rescans": len(sequence) - 1,
            "rescans_changed": sum(a != b for a, b in zip(sequence, sequence[1:]))}


def _schedule_counts(args, result):
    return {"slices": len(result.slices)}


def _metrics_counts(args, result):
    return {"slices": len(args[0].slices)}


# Wrapped functions, as "module.function", with what each call counts.
# cli.main's self time is parsing, formatting and the write.
SPANS = {
    "cli.main": None,
    "workload.load_tasks": None,
    "workload.generate": None,
    "experiment.run_comparison": None,
    "experiment.compare_workload": None,
    "experiment.rows_to_csv": None,
    "analytic.best_quantum": _scan_counts,
    "ctq.run_ctq": _ctq_counts,
    "ctq.run_round": None,
    "simulate.simulate_fixed_rr": _schedule_counts,
    "simulate.simulate_fcfs": _schedule_counts,
    "model.metrics_from_schedule": _metrics_counts,
}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "ctqsched" or name.startswith("ctqsched.")]


class Patch:
    """Replace functions at every ``ctqsched`` module attribute holding them."""

    def __init__(self, wrappers: dict[str, object]):
        originals = {}
        self.missing = []
        for qualified, make in wrappers.items():
            module, _, attr = qualified.partition(".")
            fn = getattr(sys.modules.get(f"ctqsched.{module}"), attr, None)
            if fn is None:
                self.missing.append(qualified)
            else:
                originals[id(fn)] = (fn, make(qualified, fn))
        self.undo = []
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self.undo:
            setattr(module, attr, value)
        self.undo = []


class Tracer:
    """Records a span for every call of a function in SPANS inside ``with tracer:``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1  # advanced by the client before each traced op
        self._open: list[int] = []
        self.patch: Patch | None = None
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        count = SPANS[name]
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if count is not None:
                spans[index] = (name, start, end, parent, self.op, count(args, result))
            return result

        return traced

    def __enter__(self):
        self.patch = Patch(dict.fromkeys(SPANS, self._wrap))
        self.missing = self.patch.missing
        return self

    def __exit__(self, *exc):
        self.patch.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, counts in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op, "counts": counts}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op means of self time and counts, plus the CTQ ratios."""
        duration = [end - start for _, start, end, *_ in self.spans]
        child_time = [0] * len(self.spans)
        for (_, _, _, parent, _, _), d in zip(self.spans, duration):
            if parent >= 0:
                child_time[parent] += d
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for (name, _, _, _, _, c), d, child in zip(self.spans, duration, child_time):
            self_ns[name] += d - child
            calls[name] += 1
            for key, value in (c or {}).items():
                counts[f"{name}.{key}"] += value

        per_op = lambda total: total / ops
        metrics = {f"{name}.self_ms": per_op(self_ns[name]) / 1e6 for name in SPANS}
        metrics["analytic.best_quantum.calls"] = per_op(calls["analytic.best_quantum"])
        for key in ("analytic.best_quantum.candidates", "analytic.best_quantum.cells"):
            metrics[key] = per_op(counts[key])
        metrics["ctq.rounds"] = per_op(counts["ctq.run_ctq.rounds"])
        metrics["simulate.slices"] = per_op(
            counts["simulate.simulate_fixed_rr.slices"] + counts["simulate.simulate_fcfs.slices"])
        metrics["model.metrics_from_schedule.slices"] = per_op(
            counts["model.metrics_from_schedule.slices"])
        rescans = counts["ctq.run_ctq.rescans"]
        metrics["ctq.rescan_changed_share"] = (
            counts["ctq.run_ctq.rescans_changed"] / rescans if rescans else 0.0)
        ctq_runs = [c["rounds"] for name, *_, c in self.spans if name == "ctq.run_ctq"]
        metrics["ctq.multi_round_share"] = (
            sum(r > 1 for r in ctq_runs) / len(ctq_runs) if ctq_runs else 0.0)
        return metrics

    def rounds_per_op(self, ops: int) -> list[int]:
        """CTQ rounds run by each traced op (0 for an op without CTQ)."""
        rounds = [0] * ops
        for name, _, _, _, op, c in self.spans:
            if name == "ctq.run_ctq":
                rounds[op] += c["rounds"]
        return rounds


class ScanAllocation:
    """``tracemalloc`` peak inside each ``best_quantum`` call, in its own pass
    because tracing allocations slows every other layer."""

    def __init__(self):
        self.op = -1  # advanced by the client before each op
        self.peaks: dict[int, int] = defaultdict(int)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peaks[self.op] = max(self.peaks[self.op], peak)
            return result

        return measured

    def __enter__(self):
        self.patch = Patch({"analytic.best_quantum": self._wrap})
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self.patch.uninstall()

    def mean_peak_mib(self, ops: int) -> float:
        return statistics.fmean([self.peaks.get(op, 0) for op in range(ops)]) / 2**20
