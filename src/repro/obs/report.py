"""``repro obs report``: summarize one exported observability run.

Pure functions over the files :mod:`repro.obs.export` wrote -- no
clocks, no environment -- so a fixture directory pins the exact report
in tests.  The summary answers the triage questions the ISSUE lists:

* **Where did the wall-clock go?**  Top spans by *self* time (span
  duration minus the duration of its direct children), aggregated by
  span name across the whole run, worker lanes included.
* **Which caches hit?**  Hit rates derived from the
  ``cache.<kind>.hits``/``cache.<kind>.misses`` counter pairs.
* **What degraded?**  Every nonzero ``*.health.*`` counter plus every
  warning/error log record.
* **How hard did the cluster replay work?**  Runs, issued events and
  heap pops per issued event, from the ``hw.cluster_*`` counters.
"""

from __future__ import annotations

import json
import os

#: Report schema stamp.
REPORT_SCHEMA = "obs_report/1"


class ObsReportError(Exception):
    """The directory does not contain a readable observability run."""


def load_events(directory: str | os.PathLike) -> list[dict]:
    path = os.path.join(os.fspath(directory), "events.jsonl")
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ObsReportError(f"cannot read {path}: {exc}") from exc
    events = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue  # torn tail line: fail open, keep the rest
        if isinstance(event, dict):
            events.append(event)
    return events


def _load_json(directory: str | os.PathLike, name: str) -> dict:
    path = os.path.join(os.fspath(directory), name)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def span_summary(events: list[dict]) -> list[dict]:
    """Per-name aggregation with self-time, sorted by self-time desc."""
    spans = [e for e in events if e.get("type") == "span"]
    child_time: dict[str, int] = {}
    for span in spans:
        parent = span.get("parent")
        if parent:
            child_time[parent] = child_time.get(parent, 0) + max(
                span["t1"] - span["t0"], 0
            )
    totals: dict[str, dict] = {}
    for span in spans:
        duration = max(span["t1"] - span["t0"], 0)
        self_time = max(duration - child_time.get(span["id"], 0), 0)
        entry = totals.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "total_ms": 0.0,
             "self_ms": 0.0, "errors": 0},
        )
        entry["count"] += 1
        entry["total_ms"] += duration / 1e6
        entry["self_ms"] += self_time / 1e6
        if span.get("error"):
            entry["errors"] += 1
    ordered = sorted(
        totals.values(), key=lambda e: (-e["self_ms"], e["name"])
    )
    for entry in ordered:
        entry["total_ms"] = round(entry["total_ms"], 3)
        entry["self_ms"] = round(entry["self_ms"], 3)
    return ordered


def cache_summary(metrics: dict) -> dict:
    """Hit rates per cache kind from the counter registry."""
    counters = metrics.get("counters", {}) if isinstance(metrics, dict) else {}
    kinds: dict[str, dict] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if len(parts) != 3 or parts[0] != "cache":
            continue
        if parts[2] not in ("hits", "misses"):
            continue
        entry = kinds.setdefault(parts[1], {"hits": 0, "misses": 0})
        entry[parts[2]] = value
    for entry in kinds.values():
        lookups = entry["hits"] + entry["misses"]
        entry["hit_rate"] = (
            round(entry["hits"] / lookups, 4) if lookups else None
        )
    return dict(sorted(kinds.items()))


def replay_summary(metrics: dict) -> dict:
    """Cluster event-loop work; empty when no replay was recorded."""
    counters = metrics.get("counters", {}) if isinstance(metrics, dict) else {}
    runs = counters.get("hw.cluster_runs", 0)
    if not runs:
        return {}
    events = counters.get("hw.cluster_events", 0)
    pops = counters.get("hw.cluster_heap_pops", 0)
    return {
        "runs": runs,
        "events": events,
        "heap_pops": pops,
        "pops_per_event": round(pops / events, 3) if events else None,
    }


def degradation_summary(events: list[dict], metrics: dict) -> dict:
    counters = metrics.get("counters", {}) if isinstance(metrics, dict) else {}
    health = {
        name: value
        for name, value in sorted(counters.items())
        if ".health." in name and value
    }
    warnings = [
        {
            "level": event.get("level"),
            "message": event.get("message", ""),
        }
        for event in events
        if event.get("type") == "log"
        and event.get("level") in ("warning", "error")
    ]
    return {"health_counters": health, "warnings": warnings}


def build_report(
    directory: str | os.PathLike, top_spans: int = 15
) -> dict:
    events = load_events(directory)
    metrics = _load_json(directory, "metrics.json")
    manifest = _load_json(directory, "manifest.json")
    spans = span_summary(events)
    return {
        "schema": REPORT_SCHEMA,
        "directory": os.fspath(directory),
        "command": manifest.get("command"),
        "manifest": manifest,
        "totals": {
            "events": len(events),
            "spans": sum(1 for e in events if e.get("type") == "span"),
            "logs": sum(1 for e in events if e.get("type") == "log"),
            "lanes": len({e.get("lane", "main") for e in events}),
        },
        "top_spans": spans[:top_spans],
        "caches": cache_summary(metrics),
        "replay": replay_summary(metrics),
        "degradations": degradation_summary(events, metrics),
        "counters": metrics.get("counters", {}),
        "histograms": metrics.get("histograms", {}),
    }


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def _replay_line(replay: dict) -> str:
    rate = replay["pops_per_event"]
    rendered = f"{rate:.2f}" if rate is not None else "n/a"
    return (
        f"{replay['runs']:.0f} runs, {replay['events']:.0f} events, "
        f"{replay['heap_pops']:.0f} heap pops ({rendered} per issued event)"
    )


def render_text(report: dict) -> str:
    lines = []
    command = report.get("command") or "?"
    totals = report["totals"]
    lines.append(f"observed command     : {command}")
    manifest = report.get("manifest") or {}
    if manifest.get("git_describe"):
        lines.append(f"source               : {manifest['git_describe']}")
    lines.append(
        f"events               : {totals['events']} "
        f"({totals['spans']} spans, {totals['logs']} logs, "
        f"{totals['lanes']} lanes)"
    )
    if report["top_spans"]:
        lines.append("top spans by self-time:")
        for entry in report["top_spans"]:
            lines.append(
                f"  {entry['name']:<28} x{entry['count']:<5} "
                f"self {entry['self_ms']:>10.3f} ms  "
                f"total {entry['total_ms']:>10.3f} ms"
                + (f"  ({entry['errors']} errors)" if entry["errors"] else "")
            )
    if report["caches"]:
        lines.append("cache hit rates:")
        for kind, entry in report["caches"].items():
            rate = entry["hit_rate"]
            rendered = f"{rate:.1%}" if rate is not None else "n/a"
            lines.append(
                f"  {kind:<12} {rendered:>7} "
                f"({entry['hits']:.0f} hits / {entry['misses']:.0f} misses)"
            )
    replay = report.get("replay")
    if replay:
        lines.append(f"cluster replay       : {_replay_line(replay)}")
    degradations = report["degradations"]
    if degradations["health_counters"] or degradations["warnings"]:
        lines.append("degradation events:")
        for name, value in degradations["health_counters"].items():
            lines.append(f"  {name} = {value:g}")
        for entry in degradations["warnings"]:
            lines.append(f"  [{entry['level']}] {entry['message']}")
    else:
        lines.append("degradation events   : none")
    return "\n".join(lines)


def render_markdown(report: dict) -> str:
    totals = report["totals"]
    lines = ["# repro observability report", ""]
    command = report.get("command") or "?"
    lines.append(f"Command: `{command}`")
    manifest = report.get("manifest") or {}
    if manifest.get("git_describe"):
        lines.append(f"Source: `{manifest['git_describe']}`")
    lines.append(
        f"{totals['events']} events ({totals['spans']} spans, "
        f"{totals['logs']} logs) across {totals['lanes']} lane(s)."
    )
    lines.append("")
    if report["top_spans"]:
        lines.append("## Top spans by self-time")
        lines.append("")
        lines.append("| span | count | self (ms) | total (ms) |")
        lines.append("|---|---:|---:|---:|")
        for entry in report["top_spans"]:
            lines.append(
                f"| {entry['name']} | {entry['count']} | "
                f"{entry['self_ms']:.3f} | {entry['total_ms']:.3f} |"
            )
        lines.append("")
    if report["caches"]:
        lines.append("## Cache hit rates")
        lines.append("")
        lines.append("| cache | hit rate | hits | misses |")
        lines.append("|---|---:|---:|---:|")
        for kind, entry in report["caches"].items():
            rate = entry["hit_rate"]
            rendered = f"{rate:.1%}" if rate is not None else "n/a"
            lines.append(
                f"| {kind} | {rendered} | {entry['hits']:.0f} | "
                f"{entry['misses']:.0f} |"
            )
        lines.append("")
    replay = report.get("replay")
    if replay:
        lines.append(f"Cluster replay: {_replay_line(replay)}.")
        lines.append("")
    degradations = report["degradations"]
    if degradations["health_counters"] or degradations["warnings"]:
        lines.append("## Degradation events")
        lines.append("")
        for name, value in degradations["health_counters"].items():
            lines.append(f"- `{name}` = {value:g}")
        for entry in degradations["warnings"]:
            lines.append(f"- **{entry['level']}**: {entry['message']}")
        lines.append("")
    else:
        lines.append("No degradation events recorded.")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
