"""Smoke test of the benchmark itself: every metric name and unit is printed.

    python3 perfbench/smoke.py [--seconds 2]

For each workload run.py accepts (those in BENCHMARK.json and serve_live,
which is kept out of it), runs one short untraced and one short
traced run and checks that the last stdout line is the result object with
exactly the expected keys, that its metrics are exactly the end-to-end
(untraced) or per-layer (traced) metrics with their declared units, and that
every correctness gate held. Then checks that a directory holding only
BENCHMARK.json and the benchmark, without the minirec sources, makes the
benchmark exit non-zero without printing a result. Exits non-zero on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, seconds: float, expected: dict[str, str], cwd: Path) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), float) or not math.isfinite(m["value"]):
            errors.append(f"{where}: {name} = {m}")
    return errors


def check_bare(tmp: Path) -> list[str]:
    """Without ./src the benchmark must fail fast and print no result."""
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "train_publish", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            found = check_run(workload, trace, args.seconds, expected, ROOT)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    found = check_bare(ROOT / ".perfbench_work" / "bare")
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
