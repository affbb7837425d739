"""Span recording around the program's layer entry points.

A traced pass installs :class:`Tracer` wrappers on the public entry
points listed in :data:`ENTRY_POINTS` (nothing under ``src/`` changes;
the wrappers replace module and class attributes for the length of the
pass and are removed afterwards).  Each wrapper records one
:class:`~perfbench.stats.Span` per call, and the work the call reports
(events, blocks, bytes) as span counts.  :func:`layer_metrics` turns the
spans into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

from perfbench.stats import Span, inclusive_seconds, self_times

#: Layers a span can belong to, in report order.
LAYERS = ("cli", "tune", "micro", "hw", "sim", "cache", "model", "apps")

_TIME, _WORK, _GOOD = ("s", "lower"), ("count", "lower"), ("count", "higher")

#: Per-layer metric -> (unit, which way is better), as ``BENCHMARK.json``
#: lists them.  ``*_s`` entries of one entry point are inclusive times.
METRICS = {
    "hw.cluster_s": _TIME,
    "hw.cluster_runs": _WORK,
    "hw.events": _WORK,
    "hw.events_per_s": ("1/s", "higher"),
    "hw.measure_s": _TIME,
    "hw.cluster_sims": _WORK,
    "hw.signature_hits": _GOOD,
    "hw.measured_hits": _GOOD,
    "micro.calibrate_s": _TIME,
    "micro.replays": _WORK,
    "micro.replay_events": _WORK,
    "sim.engine_s": _TIME,
    "sim.blocks_simulated": _WORK,
    "sim.blocks_total": _WORK,
    "sim.dedup_ratio": ("ratio", "higher"),
    "sim.instructions": _WORK,
    "sim.instr_per_s": ("1/s", "higher"),
    "sim.trace_hits": _GOOD,
    "cache.load_s": _TIME,
    "cache.loads": _WORK,
    "cache.load_hits": _GOOD,
    "cache.store_s": _TIME,
    "cache.stores": _WORK,
    "cache.bytes_written": ("B", "lower"),
    "tune.ensure_profile_s": _TIME,
    "model.analyze_s": _TIME,
    "apps.prepare_s": _TIME,
    "cli.import_s": _TIME,
    **{f"{layer}.self_s": _TIME for layer in LAYERS},
    "bench.unattributed_s": _TIME,
    "bench.unattributed_frac": ("ratio", "lower"),
    # Traced against untraced wall_s; computed by run.py across runs.
    "bench.trace_overhead_frac": ("ratio", "lower"),
}


def _cluster_counts(args, result):
    return {"events": result.events}


def _measure_counts(args, result):
    if result.from_cache:  # the stored counts describe the run that stored it
        return {"measured_hits": 1}
    return {"cluster_sims": result.cluster_sims, "signature_hits": result.signature_hits}


def _replay_counts(args, result):
    return {"replay_events": result.events}


def _engine_counts(args, result):
    stats = result.engine_stats
    if stats.cache_hit:
        return {"trace_hits": 1}
    share = stats.simulated_blocks / stats.total_blocks
    return {
        "blocks_simulated": stats.simulated_blocks,
        "blocks_total": stats.total_blocks,
        "instructions": round(result.totals.total_instructions * share),
    }


def _load_counts(args, result):
    return {"hits": int(result is not None)}


def _store_counts(args, result):
    cache, key = args[0], args[1]
    try:
        return {"bytes_written": os.path.getsize(cache._path(key))}
    except OSError:
        return {"bytes_written": 0}


#: (module, class or None, attribute, layer, span name, counts function).
ENTRY_POINTS = (
    ("repro.hw.cluster", "ClusterSimulator", "run", "hw", "hw.cluster", _cluster_counts),
    ("repro.hw.gpu", "HardwareGpu", "measure", "hw", "hw.measure", _measure_counts),
    ("repro.hw.gpu", "HardwareGpu", "measure_uniform_sm", "micro", "micro.replay",
     _replay_counts),
    ("repro.micro.cache", None, "load_or_calibrate", "micro", "micro.load_or_calibrate", None),
    ("repro.sim.engine", "SimulationEngine", "run", "sim", "sim.engine", _engine_counts),
    ("repro.util", "VersionedPickleCache", "load_payload", "cache", "cache.load", _load_counts),
    ("repro.util", "VersionedPickleCache", "store_payload", "cache", "cache.store",
     _store_counts),
    ("repro.tune", None, "ensure_profile", "tune", "tune.ensure_profile", None),
    ("repro.model.performance", "PerformanceModel", "analyze", "model", "model.analyze", None),
    ("repro.apps.matmul", None, "prepare_problem", "apps", "apps.prepare", None),
    ("repro.apps.tridiag", None, "prepare_problem", "apps", "apps.prepare", None),
    ("repro.apps.spmv", None, "prepare_problem", "apps", "apps.prepare", None),
    ("repro.apps.matrices", None, "qcd_like", "apps", "apps.prepare", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(layer, name, time.monotonic_ns(), 0, parent)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = time.monotonic_ns()

    @contextmanager
    def span(self, layer: str, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._open(layer, name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, layer: str, name: str, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, class_name, attr, layer, name, counts in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, name, counts))

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all are the originals."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        restored = all(
            owner.__dict__[attr] is original
            for owner, attr, original in self._installed
        )
        self._installed.clear()
        return restored


def _total(spans, name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time is ``wall_s``.

    ``<layer>.self_s`` is the layer's self time; the self times plus
    ``bench.unattributed_s`` add up to ``wall_s``.
    """
    selfs = self_times(spans)
    cluster_s = inclusive_seconds(spans, "hw.cluster")
    engine_s = inclusive_seconds(spans, "sim.engine")
    events = _total(spans, "hw.cluster", "events")
    simulated = _total(spans, "sim.engine", "blocks_simulated")
    blocks = _total(spans, "sim.engine", "blocks_total")
    instructions = _total(spans, "sim.engine", "instructions")
    attributed = sum(selfs.values())
    metrics = {
        "hw.cluster_s": cluster_s,
        "hw.cluster_runs": _calls(spans, "hw.cluster"),
        "hw.events": events,
        "hw.events_per_s": _rate(events, cluster_s),
        "hw.measure_s": inclusive_seconds(spans, "hw.measure"),
        "hw.cluster_sims": _total(spans, "hw.measure", "cluster_sims"),
        "hw.signature_hits": _total(spans, "hw.measure", "signature_hits"),
        "hw.measured_hits": _total(spans, "hw.measure", "measured_hits"),
        "micro.calibrate_s": inclusive_seconds(spans, "micro.load_or_calibrate"),
        "micro.replays": _calls(spans, "micro.replay"),
        "micro.replay_events": _total(spans, "micro.replay", "replay_events"),
        "sim.engine_s": engine_s,
        "sim.blocks_simulated": simulated,
        "sim.blocks_total": blocks,
        "sim.dedup_ratio": blocks / simulated if simulated else float(blocks),
        "sim.instructions": instructions,
        "sim.instr_per_s": _rate(instructions, engine_s),
        "sim.trace_hits": _total(spans, "sim.engine", "trace_hits"),
        "cache.load_s": inclusive_seconds(spans, "cache.load"),
        "cache.loads": _calls(spans, "cache.load"),
        "cache.load_hits": _total(spans, "cache.load", "hits"),
        "cache.store_s": inclusive_seconds(spans, "cache.store"),
        "cache.stores": _calls(spans, "cache.store"),
        "cache.bytes_written": _total(spans, "cache.store", "bytes_written"),
        "tune.ensure_profile_s": inclusive_seconds(spans, "tune.ensure_profile"),
        "model.analyze_s": inclusive_seconds(spans, "model.analyze"),
        "apps.prepare_s": inclusive_seconds(spans, "apps.prepare"),
        "cli.import_s": inclusive_seconds(spans, "cli.import"),
        **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS},
        "bench.unattributed_s": wall_s - attributed,
        "bench.unattributed_frac": (wall_s - attributed) / wall_s,
    }
    return metrics
