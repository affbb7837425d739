"""Benchmark entry point: one closed-loop run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload first-use|cases-cold|cases-warm \\
        --seed N --seconds S --trace 0|1

Each timed pass is a fresh process (``perfbench/worker.py``) with
``workers=0`` that sets up (import, calibration, tuning) and issues the
workload's cases back to back.  Passes repeat until ``--seconds`` have
elapsed (at least one).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the layer entry points and prints per-layer metrics.
The last line of standard output is the JSON result; a fuller record
with provenance is written under ``.perfbench/runs/``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import METRICS as LAYER_METRICS  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Span,
    canonical,
    covered_seconds,
    mean,
    median,
    mismatches,
    self_times,
)

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
CASES = ("matmul", "tridiag-full", "tridiag-padded-full", "spmv-full", "spmv-ell-full")

#: name -> (case list, first-use tuning left on, caches primed before timing)
WORKLOADS = {
    "first-use": (("matmul",), True, False),
    "cases-cold": (CASES, False, False),
    "cases-warm": (CASES, False, True),
}

#: cases-warm primes its caches with these two halves of CASES at once.
PRIME_SPLIT = (CASES[:3], CASES[3:])

#: Layers the traced run must find dominant, per workload, and the
#: share of the phase they must cover together (see README.md).
DOMINANT = {
    "first-use": (("micro", "hw"), "setup", 0.5),
    "cases-cold": (("hw", "sim"), "cases", 0.5),
    "cases-warm": (("cache", "model", "cli"), "wall", 0.3),
}

#: Set-up probes per untraced cases-* run, for a median set-up time.
SETUP_PROBES = 4
#: Timed passes per untraced cases-* run, at least: the machine's speed
#: drifts over tens of seconds, so a run averages over two back-to-back
#: passes even past ``--seconds``.
MIN_PASSES = 2
#: A run must end within 180 s; passes are killed past this budget.
RUN_BUDGET_S = 170.0
MB = 1e6

UNITS = {
    "setup_s": "s",
    "cases_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
    "model_error_pct": "%",
}


class Run:
    """State of one benchmark run: its scratch root and its clock."""

    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.state = root / ".perfbench"
        self.started = time.monotonic()
        (self.state / "tmp").mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=self.state / "tmp"))
        self.roots = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def new_cache(self, calibration: bool) -> Path:
        """A fresh cache root (plus sibling tune directory), optionally
        holding the checkout's calibration tables."""
        self.roots += 1
        base = self.scratch / f"root-{self.roots}"
        (base / "cache").mkdir(parents=True)
        (base / "tune").mkdir()
        if calibration:
            shutil.copyfile(self.state / "calibration.json", base / "cache" / "calibration.json")
        return base

    def env(self, base: Path, tune_auto: bool) -> dict:
        """The pass environment: no ambient ``REPRO_*`` setting survives."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(base)
        env.update(pinned_env(base, tune_auto))
        return env

    def start(self, base: Path, cases, tune_auto: bool, trace: bool) -> dict:
        """Start one pass in a fresh process; :meth:`finish` collects it."""
        index = len(list(self.scratch.glob("pass-*.json")))
        config_path = self.scratch / f"pass-{index}.json"
        spawn_ns = time.monotonic_ns()
        config = {
            "cases": list(cases),
            "seed": self.args.seed,
            "trace": trace,
            "spawn_ns": spawn_ns,
            "result": str(self.scratch / f"result-{index}.json"),
        }
        config_path.write_bytes(canonical(config))
        log_path = self.scratch / f"pass-{index}.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(config_path)],
                cwd=self.root,
                env=self.env(base, tune_auto),
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        return {"proc": proc, "config": config, "log": log_path, "base": base}

    def finish(self, handle: dict) -> dict:
        """Wait for a pass; its result plus ``wall_s`` and ``cache_bytes``.

        A pass that fails or overruns the run's budget comes back with
        ``crashed`` set; every process it started is gone on return.
        """
        proc, config = handle["proc"], handle["config"]
        try:
            code = proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _kill_group(proc)
        end_ns = time.monotonic_ns()
        result_path = Path(config["result"])
        if code != 0 or not result_path.is_file():
            tail = handle["log"].read_text(errors="replace")[-2000:]
            print(f"pass failed (exit {code}):\n{tail}", file=sys.stderr)
            return {"crashed": True, "cases": config["cases"]}
        result = json.loads(result_path.read_text())
        result["wall_s"] = (end_ns - config["spawn_ns"]) / 1e9
        result["cache_bytes"] = dir_bytes(handle["base"] / "cache")
        return result

    def spawn(self, base: Path, cases, tune_auto: bool, trace: bool) -> dict:
        """Run one pass to completion (see :meth:`finish`)."""
        return self.finish(self.start(base, cases, tune_auto, trace))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the pass and anything it spawned (pool workers), then reap."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def pinned_env(base: Path, tune_auto: bool) -> dict:
    env = {
        "REPRO_CACHE_DIR": str(base / "cache"),
        "REPRO_TUNE_DIR": str(base / "tune"),
    }
    if not tune_auto:
        env["REPRO_TUNE_AUTO"] = "0"
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def ensure_calibration(run: Run) -> bool:
    """Build the checkout's GT200 calibration tables once (untimed).

    The cases-* workloads start from these tables; first-use leaves its
    own behind, so whichever workload runs first in a checkout builds.
    """
    if (run.state / "calibration.json").is_file():
        return True
    base = run.new_cache(calibration=False)
    if run.spawn(base, (), tune_auto=False, trace=False).get("crashed"):
        return False
    save_calibration(run, base)
    return True


def save_calibration(run: Run, base: Path) -> None:
    target = run.state / "calibration.json"
    if target.is_file():
        return
    partial = target.with_suffix(".partial")
    shutil.copyfile(base / "cache" / "calibration.json", partial)
    os.replace(partial, target)


class Checker:
    """Compares every pass's outputs with the goldens, with earlier runs
    of the same seed in this checkout, and with earlier passes of this
    run.  Counts operations (the calibration tables and each case of a
    pass) attempted and failed; ``problems`` also lists failed
    self-checks."""

    def __init__(self, run: Run, golden: dict | None) -> None:
        self.calibration = golden["calibration_sha256"] if golden else None
        self.references = []
        if golden and run.args.seed == golden["seed"]:
            self.references.append(golden["cases"])
        self.seed_file = run.state / "digests" / f"seed-{run.args.seed}.json"
        self.stored = (
            json.loads(self.seed_file.read_text()) if self.seed_file.is_file() else {}
        )
        self.references.append(self.stored)
        self.local: dict = {}
        self.references.append(self.local)
        self.observed_calibration = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: dict, label: str) -> None:
        if result.get("crashed"):
            ops = 1 + len(result["cases"])
            self.attempted += ops
            self.failed += ops
            self.problems.append(f"{label}: pass crashed")
            return
        records = result["records"]
        self.attempted += 1 + len(records) + len(result["errors"])
        observed = result["calibration_sha256"]
        self.observed_calibration = self.observed_calibration or observed
        if observed != (self.calibration or self.observed_calibration):
            self.failed += 1
            self.problems.append(f"{label}: calibration tables differ")
        bad = set(result["errors"])
        for reference in self.references:
            bad.update(mismatches(reference, records))
        self.failed += len(bad)
        self.problems += [f"{label}: {name} raised or its output differs" for name in sorted(bad)]
        for name, record in records.items():
            self.local.setdefault(name, record)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def remember(self) -> None:
        """Add this seed's new outputs to those later runs must agree with."""
        merged = {**self.local, **self.stored}
        if self.problems or merged == self.stored:
            return
        self.seed_file.parent.mkdir(parents=True, exist_ok=True)
        partial = self.seed_file.with_suffix(".partial")
        partial.write_bytes(canonical(merged))
        os.replace(partial, self.seed_file)


def pass_metrics(result: dict) -> dict:
    marks = result["marks"]
    records = result["records"].values()
    errors = [r["model_error"] for r in records]
    return {
        "setup_s": (marks["ready"] - marks["spawn"]) / 1e9,
        "cases_s": (marks["cases_end"] - marks["cases_start"]) / 1e9,
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / MB,
        "cache_mb": result["cache_bytes"] / MB,
        "model_error_pct": 100.0 * sum(errors) / len(errors) if errors else float("nan"),
    }


def traced_metrics(result: dict, workload: str, checker: Checker, label: str) -> dict:
    """Per-layer metrics of one traced pass, after its self-checks."""
    spans = [Span(*fields) for fields in result["spans"]]
    wall = result["wall_s"]
    metrics = layer_metrics(spans, wall)
    attributed = sum(self_times(spans).values())
    if abs(attributed - covered_seconds(spans)) > 1e-6:
        checker.fail(f"{label}: self times do not add up to the spans' extent")
    if metrics["bench.unattributed_s"] < 0:
        checker.fail(f"{label}: spans extend past the pass's wall time")
    if not result["wrappers_removed"]:
        checker.fail(f"{label}: layer wrappers were not removed")
    layers, phase, share = DOMINANT[workload]
    marks = result["marks"]
    if phase == "setup":
        phase_s = (marks["ready"] - marks["spawn"]) / 1e9
        selfs = self_times(spans, before=marks["ready"])
    elif phase == "cases":
        phase_s = (marks["cases_end"] - marks["cases_start"]) / 1e9
        before = self_times(spans, before=marks["cases_start"])
        selfs = {k: v - before.get(k, 0.0) for k, v in self_times(spans).items()}
    else:
        phase_s = wall
        selfs = self_times(spans)
    dominant = sum(selfs.get(layer, 0.0) for layer in layers)
    result["dominant_frac"] = dominant / phase_s
    if dominant < share * phase_s:
        checker.fail(
            f"{label}: {'+'.join(layers)} cover {dominant / phase_s:.1%} of {phase}, "
            f"expected at least {share:.0%}"
        )
    return metrics


def untraced_reference(run: Run, workload: str) -> float | None:
    """Median untraced ``wall_s`` of ``workload``: over this checkout's
    earlier runs, else from the committed baseline."""
    walls = []
    for path in sorted((run.state / "runs").glob(f"{workload}-seed*-trace0-*.json")):
        metrics = json.loads(path.read_text())["metrics"]
        if "wall_s" in metrics:
            walls.append(metrics["wall_s"]["value"])
    if walls:
        return median(walls)
    baseline = BENCH_DIR / "baseline" / f"{workload}.json"
    if baseline.is_file():
        return json.loads(baseline.read_text())["summary"]["wall_s"]["median"]
    return None


def provenance(root: Path, args) -> dict:
    describe = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=root, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            describe = "unknown (git describe failed)"
    return {
        "git_describe": describe,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cleared_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "pinned_env": pinned_env(Path("<pass root>"), WORKLOADS[args.workload][1]),
    }


class Samples:
    """What a run measured: full passes, set-up times, case-list times."""

    def __init__(self) -> None:
        self.passes: list[dict] = []
        self.setup_s: list[float] = []
        self.cases_s: list[float] = []

    def add(self, result: dict) -> None:
        self.passes.append(result)
        metrics = pass_metrics(result)
        self.setup_s.append(metrics["setup_s"])
        self.cases_s.append(metrics["cases_s"])


def execute(run: Run, workload: str, checker: Checker) -> Samples:
    """Run the workload's passes until ``--seconds`` have elapsed."""
    cases, tune_auto, warm = WORKLOADS[workload]
    trace = bool(run.args.trace)
    samples = Samples()
    if tune_auto:
        first_use(run, cases, trace, checker, samples)
        return samples
    if not ensure_calibration(run):
        checker.fail("building the calibration tables failed")
        return samples
    primed = None
    if warm:
        # Two concurrent priming passes over disjoint halves of the case
        # list fill the caches in about half the time; priming is untimed.
        primed = run.new_cache(calibration=True)
        handles = [run.start(primed, half, False, trace=False) for half in PRIME_SPLIT]
        for handle in handles:
            checker.check(run.finish(handle), "prime")

    probes = 0 if trace else SETUP_PROBES

    def probe() -> bool:
        base = primed if warm else run.new_cache(calibration=True)
        result = run.spawn(base, (), False, trace=False)
        if result.get("crashed") or result["calibration_sha256"] != checker.observed_calibration:
            checker.fail("set-up probe failed")
            return False
        samples.setup_s.append(pass_metrics(result)["setup_s"])
        return True

    # Probes alternate with passes, so the set-up samples span the run.
    deadline = time.monotonic() + run.args.seconds
    repeats = 1 if trace else MIN_PASSES
    while len(samples.passes) < repeats or time.monotonic() < deadline:
        base = primed if warm else run.new_cache(calibration=True)
        result = run.spawn(base, cases, False, trace)
        checker.check(result, f"pass {len(samples.passes)}")
        if result.get("crashed"):
            return samples
        samples.add(result)
        if probes:
            probes -= 1
            if not probe():
                return samples
    while probes:
        probes -= 1
        if not probe():
            break
    return samples


def first_use(run: Run, cases, trace: bool, checker: Checker, samples: Samples) -> None:
    """One first-use pass, then (untraced) case-list reruns for ``--seconds``.

    The reruns start where the first pass left the install -- its
    calibration tables and tune profile -- with empty trace and
    measured-run caches, so they repeat the pass's case list under the
    same cache state and give ``cases_s`` more than one sample.
    """
    base = run.new_cache(calibration=False)
    result = run.spawn(base, cases, True, trace)
    checker.check(result, "first-use pass")
    if result.get("crashed"):
        return
    samples.add(result)
    save_calibration(run, base)
    deadline = time.monotonic() + run.args.seconds
    rerun = 0
    while not trace and (rerun == 0 or time.monotonic() < deadline):
        again = run.new_cache(calibration=True)
        shutil.copytree(base / "tune", again / "tune", dirs_exist_ok=True)
        result = run.spawn(again, cases, True, trace=False)
        checker.check(result, f"case rerun {rerun}")
        if result.get("crashed"):
            return
        samples.cases_s.append(pass_metrics(result)["cases_s"])
        rerun += 1


def summarize(run: Run, samples: Samples, checker: Checker) -> tuple[dict, dict]:
    """Metrics for stdout, and the fuller record for the result file."""
    workload = run.args.workload
    passes = [pass_metrics(r) for r in samples.passes]
    record = {
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_metrics": passes,
        "setup_samples_s": samples.setup_s,
        "cases_samples_s": samples.cases_s,
        "case_seconds": [r["case_seconds"] for r in samples.passes],
    }
    metrics: dict = {}
    if run.args.trace:
        per_pass = [
            traced_metrics(r, workload, checker, f"traced pass {i}")
            for i, r in enumerate(samples.passes)
        ]
        if per_pass:
            metrics = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
            reference = untraced_reference(run, workload)
            metrics["bench.trace_overhead_frac"] = (
                (median(record["pass_wall_s"]) - reference) / reference if reference else 0.0
            )
            record["trace_reference_wall_s"] = reference
        record["dominant_frac"] = [r["dominant_frac"] for r in samples.passes]
        record["layer_metrics_per_pass"] = per_pass
        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    else:
        if passes:
            metrics = {k: median([p[k] for p in passes]) for k in UNITS}
            metrics["setup_s"] = median(samples.setup_s)
            # Means, not medians: the run's whole measured time counts, so
            # a stretch of slow or fast machine moves the figure only by
            # its share of the run (see README.md, "Noise and bounds").
            metrics["cases_s"] = mean(samples.cases_s)
            metrics["wall_s"] = mean([p["wall_s"] for p in passes])
        units = UNITS
    shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return shown, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help=f"record this run's outputs as {GOLDEN.name} instead of checking them",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    golden = None if args.write_golden else json.loads(GOLDEN.read_text())

    info = provenance(root, args)
    run = Run(root, args)
    checker = Checker(run, golden)
    try:
        samples = execute(run, args.workload, checker)
        metrics, record = summarize(run, samples, checker)
        if not samples.passes:
            checker.fail("no pass completed")
        checker.remember()
    finally:
        run.close()

    correct = not checker.problems
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    (run.state / "runs").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = run.state / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    out.write_text(json.dumps(
        {**info, **record, **result, "failed_frac": failed_frac, "problems": checker.problems},
        indent=2, sort_keys=True,
    ))
    if args.write_golden and correct:
        GOLDEN.write_text(json.dumps({
            "seed": args.seed,
            "calibration_sha256": checker.observed_calibration,
            "cases": checker.local,
        }, indent=2, sort_keys=True) + "\n")
    for problem in checker.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
