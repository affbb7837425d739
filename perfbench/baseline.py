"""Repeat the benchmark over seeds and summarize each metric's spread.

Usage, from the repository root::

    python3 perfbench/baseline.py [--workloads first-use,cases-cold]
        [--seeds 10] [--first-seed 0] [--seconds S] [--trace 0|1] [--out DIR]

Runs ``perfbench/run.py`` once per (workload, seed), as a regression check would,
and prints, per end-to-end metric, the median, the quartiles and the
spread (interquartile distance over the median) next to the bound in
``BENCHMARK.json``.  With ``--out`` it writes one JSON file per workload
with every run's metrics and the provenance of the first run; the
committed ``perfbench/baseline/`` files come from this command (traced runs go to
``traced-<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartiles, spread  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def latest_record(workload: str, seed: int, trace: int) -> dict:
    runs = Path(".perfbench") / "runs"
    paths = sorted(runs.glob(f"{workload}-seed{seed}-trace{trace}-*.json"))
    return json.loads(paths[-1].read_text()) if paths else {}


def summarize(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": spread(values),
            "bound": bounds.get(name),
            "samples": len(values),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]
    ]
    status = 0
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            result["seed"] = seed
            results.append(result)
            if not result["correct"]:
                status = 1
        summary = summarize(results, bounds)
        print(f"{workload}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed operations")
        for name, row in summary.items():
            bound = row["bound"]
            flag = "" if bound is None or row["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:28s} median {row['median']:.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f}"
                  f"{'' if bound is None else f' bound {bound}'}{flag}", flush=True)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            first = latest_record(workload, args.first_seed, args.trace)
            provenance = {k: first.get(k) for k in (
                "git_describe", "python", "nproc", "loadavg_start", "pinned_env", "seconds")}
            name = f"{'traced-' if args.trace else ''}{workload}.json"
            (args.out / name).write_text(json.dumps({
                "workload": workload,
                "trace": args.trace,
                "provenance": provenance,
                "summary": summary,
                "runs": results,
            }, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
