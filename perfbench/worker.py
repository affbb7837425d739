"""One benchmark pass: a fresh process that sets up and runs a case list.

``python3 perfbench/worker.py PASS.json`` -- written and spawned by
``perfbench/run.py``, never run by hand.  The pass makes the same public
calls the CLI case commands make (``HardwareGpu`` with the measured-run
cache, ``load_or_calibrate``, ``PerformanceModel``, ``ensure_profile``,
then ``run_matmul`` / ``run_cr`` / ``run_spmv`` with the trace cache, all
at ``workers=0``), in one process, back to back.  It writes its marks,
output records and (when traced) spans to the result path in PASS.json.

Marks are ``time.monotonic_ns()`` readings; on Linux that clock is
shared by all processes, so the parent's spawn mark and these marks lie
on one time line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import Tracer  # noqa: E402
from perfbench.stats import canonical, sha256  # noqa: E402


def _case_functions(repro, seed: int, gpu, model, spec, trace_cache: str) -> dict:
    """The CLI case commands at their default sizes, keyed by case name."""
    engine = {"workers": 0, "trace_cache": trace_cache, "task_timeout": None}
    shared = {"model": model, "gpu": gpu, "spec": spec, "seed": seed, **engine}
    apps = repro.apps

    def spmv(fmt):
        # `repro spmv` builds the matrix per invocation.
        matrix = apps.matrices.qcd_like(seed=seed)
        return apps.spmv.run_spmv(matrix, fmt, use_cache=False, sample_blocks=None, **shared)

    return {
        "matmul": lambda: apps.matmul.run_matmul(512, 16, representative=True, **shared),
        "tridiag-full": lambda: apps.tridiag.run_cr(
            512, 512, padded=False, representative=False, **shared
        ),
        "tridiag-padded-full": lambda: apps.tridiag.run_cr(
            512, 512, padded=True, representative=False, **shared
        ),
        "spmv-full": lambda: spmv("bell_imiv"),
        "spmv-ell-full": lambda: spmv("ell"),
    }


def output_record(run, spec) -> dict:
    """The outputs a case is checked on; timing fields are left out."""
    stats = run.trace.engine_stats
    predicted = run.report.predicted_seconds
    return {
        "predicted_seconds": predicted,
        "predicted_cycles": predicted * spec.core_clock_ghz * 1e9,
        "measured_cycles": run.measured.cycles,
        "model_error": run.model_error,
        "engine": {
            "mode": stats.mode,
            "total_blocks": stats.total_blocks,
            "simulated_blocks": stats.simulated_blocks,
            "replicated_blocks": stats.replicated_blocks,
            "block_classes": stats.block_classes,
            "proved_classes": stats.proved_classes,
            "synthesized_classes": stats.synthesized_classes,
            "interpreted_classes": stats.interpreted_classes,
            "probe_fallbacks": stats.probe_fallbacks,
        },
    }


def _span(tracer, layer: str, name: str):
    return tracer.span(layer, name) if tracer is not None else nullcontext()


def run_pass(config: dict) -> dict:
    """Set up, then run ``config["cases"]`` (none for a set-up probe)."""
    tracer = Tracer() if config["trace"] else None
    marks = {"spawn": config["spawn_ns"], "start": time.monotonic_ns()}

    with _span(tracer, "cli", "cli.import"):
        import repro.__main__  # noqa: F401  (what the CLI imports first)
        import repro.apps.matmul
        import repro.apps.matrices
        import repro.apps.spmv
        import repro.apps.tridiag
        import repro.micro.cache
        import repro.tune
        from repro.arch.registry import BASELINE, get_spec
        from repro.hw import HardwareGpu
        from repro.model import PerformanceModel
    if tracer is not None:
        tracer.install()
    micro_cache = repro.micro.cache

    spec = get_spec(BASELINE)
    gpu = HardwareGpu(
        spec=spec,
        workers=0,
        cache_dir=str(micro_cache.default_measure_cache_dir()),
        task_timeout=None,
    )
    tables = micro_cache.load_or_calibrate(
        gpu, path=micro_cache.default_calibration_path(spec)
    )
    with _span(tracer, "model", "model.build"):
        model = PerformanceModel(tables, spec=spec)
    repro.tune.ensure_profile(spec=spec)
    marks["ready"] = time.monotonic_ns()
    calibration = sha256(tables.to_json().encode())

    records: dict[str, dict] = {}
    errors: dict[str, str] = {}
    case_seconds: dict[str, float] = {}
    functions = _case_functions(
        repro, config["seed"], gpu, model, spec,
        str(micro_cache.default_trace_cache_dir()),
    )
    marks["cases_start"] = time.monotonic_ns()
    for name in config["cases"]:
        started = time.perf_counter()
        try:
            records[name] = output_record(functions[name](), spec)
        except Exception:  # a failing case is counted, the pass goes on
            errors[name] = traceback.format_exc()
            print(errors[name], file=sys.stderr)
        case_seconds[name] = time.perf_counter() - started
    marks["cases_end"] = time.monotonic_ns()

    restored = tracer.uninstall() if tracer is not None else True
    marks["end"] = time.monotonic_ns()
    return {
        "marks": marks,
        "calibration_sha256": calibration,
        "records": records,
        "errors": errors,
        "case_seconds": case_seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wrappers_removed": restored,
        "spans": [
            [s.layer, s.name, s.start, s.end, s.parent, s.counts]
            for s in (tracer.spans if tracer is not None else ())
        ],
    }


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text())
    Path(config["result"]).write_bytes(canonical(run_pass(config)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
