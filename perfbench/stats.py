"""Pure metric code: quartiles, span self time, golden comparison.

Nothing here imports :mod:`repro`; the orchestrator, the pass worker and
the tests share it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when constant)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


@dataclass
class Span:
    """One call into a layer entry point, on one process's monotonic clock.

    ``parent`` is the index of the enclosing span in the same list, or
    ``None`` for a top-level span.  ``counts`` holds the work the call
    reported (events, blocks, bytes, ...).
    """

    layer: str
    name: str
    start: int
    end: int
    parent: int | None = None
    counts: dict = field(default_factory=dict)


def self_times(spans, before: int | None = None) -> dict[str, float]:
    """Per-layer self time in seconds: each span's duration minus the
    durations of its direct children, summed by layer.  With ``before``,
    only spans that ended by that clock reading are summed."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for span, children in zip(spans, child_ns):
        if before is not None and span.end > before:
            continue
        own = span.end - span.start - children
        totals[span.layer] = totals.get(span.layer, 0.0) + own / 1e9
    return totals


def covered_seconds(spans) -> float:
    """Length of the union of all span intervals, in seconds.

    Computed from the intervals alone, independently of the parent
    links, so it checks :func:`self_times`: for properly nested spans the
    two agree.
    """
    total = 0
    reach = None
    for start, end in sorted((s.start, s.end) for s in spans):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total / 1e9


def inclusive_seconds(spans, name: str) -> float:
    """Time inside calls to entry point ``name``, counting a call made
    from inside another call to ``name`` only once."""
    total = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            total += span.end - span.start
    return total / 1e9


def canonical(value) -> bytes:
    """Byte form under which outputs are compared and digested."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys of ``actual`` whose value differs, byte for byte in canonical
    form, from ``expected``; keys missing from ``expected`` are not
    compared."""
    return sorted(
        key
        for key, value in actual.items()
        if key in expected and canonical(expected[key]) != canonical(value)
    )
