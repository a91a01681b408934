"""In-memory spans around calls into thzbsa, recorded from outside the package.

Each layer is one thzbsa module. A span is opened around a call by replacing
the module-level name the *caller* looks up (``thzbsa.omp.scale_analog_matrix``
and ``thzbsa.bsa.scale_analog_matrix`` are two entries for one layer
function), so the package source is never edited. Installing the wrappers is
process-global state, because the patched modules are; :func:`install` and
:func:`uninstall` bracket it and pool workers inherit it through ``fork``.

A span is ``[name, start, end, parent_index, trial_id]``; self time is the
span's duration minus that of its direct children, which run serially and
nest, so the self times of a trial's spans sum to its root span.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import resource
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from functools import partial

# (module whose global is replaced, global name, span name = defining layer)
PATCHES = (
    ("thzbsa.config", "build_config", "config.build_config"),
    ("thzbsa.cli", "build_config", "config.build_config"),
    ("thzbsa.cli", "run_sweep", "harness.run_sweep"),
    ("thzbsa.cli", "emit", "harness.emit"),
    ("thzbsa.harness", "run_trial", "harness.run_trial"),
    ("thzbsa.harness", "draw_paths", "channel.draw_paths"),
    ("thzbsa.harness", "generate_channel", "channel.generate_channel"),
    ("thzbsa.harness", "build_dictionaries", "omp.build_dictionaries"),
    ("thzbsa.harness", "omp_hybrid_beamformer", "omp.omp_hybrid_beamformer"),
    ("thzbsa.harness", "apply_bsa", "bsa.apply_bsa"),
    ("thzbsa.harness", "sd_oracle_beamformers", "bsa.sd_oracle_beamformers"),
    ("thzbsa.harness", "sum_rate", "metrics.sum_rate"),
    ("thzbsa.harness", "sum_rate_sd_analog", "metrics.sum_rate_sd_analog"),
    ("thzbsa.harness", "fully_digital_yardstick", "metrics.fully_digital_yardstick"),
    ("thzbsa.omp", "build_dictionaries", "omp.build_dictionaries"),
    ("thzbsa.omp", "unconstrained_precoders", "omp.unconstrained_precoders"),
    ("thzbsa.omp", "unconstrained_combiners", "omp.unconstrained_combiners"),
    ("thzbsa.omp", "omp_select", "omp.omp_select"),
    ("thzbsa.omp", "effective_channel", "omp.effective_channel"),
    ("thzbsa.omp", "baseband_zf", "omp.baseband_zf"),
    ("thzbsa.omp", "scale_analog_matrix", "phase_ops.scale_analog_matrix"),
    ("thzbsa.bsa", "effective_channel", "omp.effective_channel"),
    ("thzbsa.bsa", "baseband_zf", "omp.baseband_zf"),
    ("thzbsa.bsa", "scale_analog_matrix", "phase_ops.scale_analog_matrix"),
)


class Tracer:
    """Span buffer plus the stack of spans currently open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = None

    def reset(self) -> None:
        self.spans, self.stack = [], []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.trial])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced


_installed: tuple[Tracer, list] | None = None


def install(tracer: Tracer) -> None:
    """Replace every name in PATCHES with a span-recording wrapper."""
    global _installed
    if _installed is not None:
        raise RuntimeError("tracing is already installed")
    saved = []
    for module_name, attr, span_name in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original))
    _installed = (tracer, saved)


def uninstall() -> None:
    global _installed
    if _installed is None:
        return
    for module, attr, original in reversed(_installed[1]):
        setattr(module, attr, original)
    _installed = None


def active() -> Tracer | None:
    return _installed[0] if _installed is not None else None


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_trial(spans: list[list]) -> dict:
    """trial id -> {span name -> [inclusive seconds, self seconds, calls]}."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for (name, start, end, _, trial), own in zip(spans, selfs):
        if trial is None:
            continue
        entry = table[trial][name]
        entry[0] += end - start
        entry[1] += own
        entry[2] += 1
    return table


def _worker_call(fn, traced: bool, task):
    """Run one pool task in a worker; return its output with its timings.

    The worker's peak RSS rides along so the parent can add pool children
    to its own peak. Under tracing the worker's copy of the tracer is
    emptied first: ``fork`` hands it the parent's open spans.
    """
    tracer = active() if traced else None
    if tracer is not None:
        tracer.reset()
        tracer.trial = (task[0], task[1])
    start = time.perf_counter()
    out = fn(task)
    busy = time.perf_counter() - start
    recorded = tracer.spans if tracer is not None else []
    rss = (os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return out, busy, recorded, rss


class PoolRecord:
    """What the pool workers of one sweep sent back besides their outputs."""

    def __init__(self) -> None:
        self.busy_s: list[float] = []
        self.spans: list[list] = []
        self.worker_rss_kb: dict[int, int] = {}

    def pool_class(self, traced: bool):
        """A ProcessPoolExecutor whose ``map`` records each task's timings."""
        record = self

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                call = partial(_worker_call, fn, traced)
                for out, busy, recorded, (pid, rss_kb) in super().map(call, *iterables, **kwargs):
                    record.busy_s.append(busy)
                    record.spans.extend(spans_with_offset(recorded, len(record.spans)))
                    record.worker_rss_kb[pid] = max(record.worker_rss_kb.get(pid, 0), rss_kb)
                    yield out

        return RecordingPool


def spans_with_offset(spans: list[list], offset: int) -> list[list]:
    return [[n, s, e, p + offset if p >= 0 else -1, t] for n, s, e, p, t in spans]


@contextlib.contextmanager
def pool_recording(traced: bool):
    """Give ``thzbsa.harness`` a recording pool for the duration of the block."""
    harness = importlib.import_module("thzbsa.harness")
    original = harness.ProcessPoolExecutor
    record = PoolRecord()
    harness.ProcessPoolExecutor = record.pool_class(traced)
    try:
        yield record
    finally:
        harness.ProcessPoolExecutor = original
