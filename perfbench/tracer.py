"""In-memory span tracer and the privagg entry points it wraps.

A span records a name, a start, an end and the span that was open when it
began. Spans are kept in a list while an operation runs and folded into
per-name totals when it ends; nothing is written during the run.

`instrument(tracer)` replaces the module attributes that privagg looks up
at call time with wrappers that open a span around each call, and puts the
originals back on exit. An entry point that no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

LAYERS = ("topology", "weights", "noise", "backend", "engine", "harness", "privacy", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root


def self_times(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total time, self time, calls).

    Self time is a span's duration minus the part of it that its child
    spans cover; overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, tuple[float, float, int]] = {}
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        total, own, calls = out.get(s.name, (0.0, 0.0, 0))
        duration = s.end - s.start
        out[s.name] = (total + duration, own + duration - covered, calls + 1)
    return out


class Tracer:
    """Single-threaded span recorder with named counters."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._open: list[tuple[int, str, float]] = []

    def begin(self, name: str) -> None:
        self._open.append((len(self.spans), name, time.perf_counter()))
        self.spans.append(None)

    def end(self) -> None:
        end = time.perf_counter()
        idx, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans[idx] = Span(name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """fn with a span around every call; after(tracer, result, args) runs
        outside the span on success."""

        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over the finished spans and counters and start afresh."""
        if self._open:
            raise RuntimeError(f"spans still open: {[o[1] for o in self._open]}")
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts  # type: ignore[return-value]


class NullTracer:
    """Stands in for Tracer in untraced operations; records nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        return fn


# --- privagg instrumentation -------------------------------------------------


def count_rounds(tracer: Tracer, trace, _args) -> None:
    """Rounds of a finished RunTrace."""
    tracer.count("engine.rounds", trace.k_stop)


def _count_file_bytes(tracer: Tracer, _result, args) -> None:
    tracer.count("harness.bytes_written", os.path.getsize(args[1]))


def _traced_backend(backend, tracer: Tracer):
    dense, neighbor = backend.dense_step, backend.neighbor_step

    # flops and bytes are computed from the argument shapes, not measured:
    # one multiply and one add per weight used, 8-byte floats, and the
    # arrays the call is handed (the whole dense W for the dense form).
    def dense_step(w, v, out):
        n = len(v)
        tracer.count("backend.flops", 2 * n * n)
        tracer.count("backend.bytes", 8 * (n * n + 2 * n))
        tracer.begin("backend.dense_step")
        try:
            return dense(w, v, out)
        finally:
            tracer.end()

    def neighbor_step(w, indptr, indices, v, out):
        n, nnz = len(v), int(indptr[-1])
        tracer.count("backend.flops", 2 * nnz)
        tracer.count(
            "backend.bytes",
            8 * nnz + indices.itemsize * nnz + indptr.nbytes + 16 * n,
        )
        tracer.begin("backend.neighbor_step")
        try:
            return neighbor(w, indptr, indices, v, out)
        finally:
            tracer.end()

    return backend._replace(dense_step=dense_step, neighbor_step=neighbor_step)


def _traced_get_backend(get_backend: Callable, tracer: Tracer) -> Callable:
    def traced(*args, **kwargs):
        backend = get_backend(*args, **kwargs)
        try:
            return _traced_backend(backend, tracer)
        except (AttributeError, TypeError, ValueError):
            tracer.absent.add("privagg.backend.Backend")
            return backend

    return traced


def _traced_noise_bank(cls, tracer: Tracer):
    class TracedNoiseBank(cls):
        def __init__(self, *args, **kwargs):
            tracer.begin("noise.bank_init")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end()
            raw = getattr(self, "_raw", None)
            # computed: the size of the noise block drawn up front
            mb = raw.nbytes / 2**20 if raw is not None else 0.0
            tracer.counts["noise.predraw_mb"] = max(tracer.counts["noise.predraw_mb"], mb)
            self._traced_scalar = raw is None and getattr(self, "scheme", "") != "zero"

        def round_values(self, k):
            tracer.begin("noise.round_values")
            try:
                theta = super().round_values(k)
            finally:
                tracer.end()
            if self._traced_scalar:  # computed: one scalar draw per node per round
                tracer.count("noise.scalar_draws", len(theta))
            return theta

    return TracedNoiseBank


def _wrap(name: str, after: Callable | None = None):
    return lambda orig, tracer: tracer.wrap(orig, name, after)


# (module, attribute path, replacement factory). Every attribute is read by
# privagg at call time, so replacing it reroutes calls made after the patch.
ENTRY_POINTS: tuple[tuple[str, str, Callable], ...] = (
    ("privagg.engine", "metropolis", _wrap("weights.metropolis")),
    ("privagg.engine", "NoiseBank", _traced_noise_bank),
    ("privagg.engine", "apply_event", _wrap("topology.apply_event")),
    ("privagg.engine", "is_connected", _wrap("topology.is_connected")),
    ("privagg.engine", "get_backend", _traced_get_backend),
    ("privagg.privacy", "get_backend", _traced_get_backend),
    ("privagg.harness", "run", _wrap("engine.run", count_rounds)),
    ("privagg.harness", "generate", _wrap("topology.generate")),
    ("privagg.cli", "run_experiment", _wrap("harness.run_experiment")),
    ("privagg.cli", "load_config", _wrap("harness.load_config")),
    ("privagg.privacy", "metropolis", _wrap("weights.metropolis")),
    ("privagg.privacy", "make_noise", _wrap("noise.make_noise")),
    ("privagg.engine", "RunTrace.write_trace_csv",
     _wrap("harness.write_trace_csv", _count_file_bytes)),
    ("privagg.engine", "RunTrace.write_summary_csv",
     _wrap("harness.write_summary_csv", _count_file_bytes)),
)


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


@contextmanager
def instrument(tracer: Tracer, entry_points=ENTRY_POINTS):
    """Wrap every entry point for the duration of the block, then restore.

    Entry points that cannot be found, or whose wrapper cannot be built,
    are listed in tracer.absent and left alone.
    """
    saved = []
    try:
        for module, path, factory in entry_points:
            found = _resolve(module, path)
            if found is None:
                tracer.absent.add(f"{module}.{path}")
                continue
            owner, attr, orig = found
            try:
                replacement = factory(orig, tracer)
            except (TypeError, AttributeError):
                tracer.absent.add(f"{module}.{path}")
                continue
            saved.append((owner, attr, orig))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
