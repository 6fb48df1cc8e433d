"""Spans around the public functions of the fusim modules, recorded from outside.

A Tracer replaces every public function of the fusim modules with a wrapper
that records one span per call, under every module attribute that is bound
to the function.  Callers look a function up either through its own module
(``nncore.batch_loss_and_gradient``) or through a name they imported
(``experiment.synth_domain``); wrapping every binding with the same wrapper
makes both paths record the same span name, so span parentage attributes time
to the caller that really made the call.  The program itself is not changed:
``uninstall`` puts every original object back.

A span is ``[name, parent, start, end, work, iteration]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``start``/``end`` are
``time.perf_counter`` readings, and ``work`` is the call's work count where
WORK defines one (rows, bytes, rounds, units or records), else None.  Spans
stay in memory until the caller writes them out.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import inspect
import os
import statistics
import time

MODULES = ("config", "datasets", "partition", "nncore", "fedsim", "unlearn_routes",
           "fedcccu", "evalkit", "experiment", "cli")

# The stage functions; their self times are the per-stage wall times.
STAGES = ("experiment.ensure_partition", "experiment.ensure_train",
          "experiment.ensure_unlearn", "experiment.ensure_evaluate")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    return lambda args, kwargs, result: len(_arg(args, kwargs, index, name))


# Work count of one call, per span name, and the unit it is reported in.
WORK = {
    "nncore.batch_loss_and_gradient": ("rows", _rows(2, "inputs")),
    "nncore.predict_probs": ("rows", _rows(2, "inputs")),
    "nncore.batch_unit_gradients": ("rows", _rows(2, "inputs")),
    "nncore.batch_unit_activations": ("rows", _rows(2, "inputs")),
    "nncore.save_checkpoint": (
        "bytes", lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, 0, "path"))),
    "evalkit.evaluate_client": ("rows", _rows(2, "shard")),
    "fedsim.run_training": ("rounds", lambda args, kwargs, result: len(result.logs)),
    "fedsim.fair_unlearn_rounds": ("rounds", lambda args, kwargs, result: len(result[1])),
    "fedcccu.probe_examples": ("rows", lambda args, kwargs, result: len(result)),
    "fedcccu.sensitivity_scores": ("units", lambda args, kwargs, result: len(result)),
    "fedcccu.top_n_report": (
        "records", lambda args, kwargs, result: sum(map(len, result.per_class.values()))),
}


def fusim_modules() -> list:
    return [importlib.import_module(f"fusim.{name}") for name in MODULES]


class Tracer:
    """Records spans for the wrapped functions; install() and uninstall() pair up."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.names: set[str] = set()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), 0.0, None, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        work = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work is not None:
                rec[4] = work(args, kwargs, result)
            return result
        return wrapper

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every public fusim function, or only the span names in `only`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in fusim_modules():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("fusim.")
                        or value.__name__.startswith("_")):
                    continue
                name = f"{value.__module__[len('fusim.'):]}.{value.__name__}"
                if only is not None and name not in only:
                    continue
                self.names.add(name)
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, parent, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of each span's root span; parents always precede their children."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span[1] < 0 else out[span[1]])
    return out


def layer_totals(spans: list[list], selfs: list[float],
                 names=()) -> dict[str, dict]:
    """Per span name: calls, summed work, inclusive busy time and self time.

    Every name in `names` gets an entry, zero when it has no spans.
    """
    def zero():
        return {"calls": 0, "work": 0, "busy_s": 0.0, "self_s": 0.0}
    totals = {name: zero() for name in names}
    for span, own in zip(spans, selfs):
        name, _, start, end, work = span[:5]
        t = totals.setdefault(name, zero())
        t["calls"] += 1
        t["work"] += work or 0
        t["busy_s"] += end - start
        t["self_s"] += own
    return totals


def warp(samples: list[list[float]], ref_s: float | None):
    """A clock that stops while the calibration kernel runs and, given `ref_s`,
    runs at the host speed the kernel measured nearby: ref_s / kernel seconds.

    `samples` are the kernel's (start, end) times.  Span times mapped through
    the clock give durations with the calibration cut out (and normalised), so
    self times and totals follow from the same arithmetic as raw spans.
    """
    samples = sorted(samples)
    if not samples:
        return lambda t: t
    starts = [s for s, _ in samples]
    durations = [e - s for s, e in samples]
    # speed[k + 1] holds for the gap after sample k, from the 4 samples around it
    speed = [ref_s / statistics.mean(durations[max(0, k - 1):k + 3]) if ref_s else 1.0
             for k in range(-1, len(samples))]
    at_start = [0.0]
    for k in range(len(samples) - 1):
        at_start.append(at_start[-1] + (starts[k + 1] - samples[k][1]) * speed[k + 1])

    def clock(t: float) -> float:
        k = bisect.bisect_right(starts, t) - 1
        if k < 0:
            return (t - starts[0]) * speed[0]
        return at_start[k] + max(0.0, t - samples[k][1]) * speed[k + 1]
    return clock
