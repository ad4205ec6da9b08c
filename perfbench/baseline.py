"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json: one ``--trace 0`` run for each of
the seeds 1 to 10, then one ``--trace 1`` run on seed 1.  Prints, for
each end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, which is the run-to-run spread that the metric's bound in
BENCHMARK.json must exceed.  The same summary, the per-layer values and
the fingerprint go to ``baseline.json`` next to this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result object and the fingerprint of one benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = done.stdout.strip().splitlines()
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, attempted, failed = {}, 0, 0
        for seed in SEEDS:
            result, fingerprint = run_once(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  flush=True)
        end_to_end = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "values": series}
            print(f"  {name:14s} median {median:10.5g} spread "
                  f"{end_to_end[name]['spread']:.4f} (bound {bounds[name]})",
                  flush=True)
        traced, _ = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        summary["workloads"][workload] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        summary["fingerprint"] = fingerprint
    (HERE / "baseline.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
