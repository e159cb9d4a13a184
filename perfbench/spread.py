"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 0-9] [--seconds S]

Runs the benchmark once per (workload, seed), untraced, and prints for each
end-to-end metric the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json; --out keeps them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every value, median and spread, and each run's named figures, to this JSON file")
    args = parser.parse_args()
    report: dict = {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        named = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            details, line = proc.stdout.strip().splitlines()[-2:]
            result = json.loads(line)
            named.append(json.loads(details)["named"])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        report[workload] = {"named": named}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            report[workload][name] = {"values": vals, "median": med, "spread": share}
            print(f"{workload:14s} {name:18s} median {med:12.4f}  spread {share:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if share < bounds[name] / 3 else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
