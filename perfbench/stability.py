"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/stability.py --seeds 1-10 [--workloads warm-cli ...] [--out FILE]

Run from the checkout root.  Each run is a fresh `run.py` process with
--trace 0 and BENCHMARK.json's run_seconds.  For each metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the interquartile
spread as a share of the median beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"]
            runs.append({"seed": seed, "result": result, "info": info})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[name], "values": values}
            print(f"  {name:12s} median {median:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                  f"spread {summary[name]['spread']:.4f}  bound {bounds[name]}", flush=True)
        report[workload] = {
            "metrics": summary,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "machine": runs[0]["info"]["machine"],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
