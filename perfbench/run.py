"""minirec benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is imported from
./src; nothing is installed. Workloads:

  train_publish  trainer.train with file:// delta publishing, then replay
                 into a fresh ServingModel (in-process)
  serve_batch    `minirec serve`, closed loop, 2 keep-alive connections,
                 1 user x 64 items per request
  serve_live     `minirec serve --queue tcp://...`, open loop of 1-item
                 requests beside a fixed schedule of delta frames
  join_events    sample_stream.run_pipeline over a jittered JSON-lines log

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run is split into an untraced and a traced half and the last
line carries the per-layer metrics plus the tracing overhead. The line
before it holds the workload's own named figures and gate results.
Exit code 0 means the run completed; `correct` says whether every
correctness gate held and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("train_publish", "serve_batch", "serve_live", "join_events")
WORK_DIR = common.ROOT / ".perfbench_work"


def _runner(name: str):
    if name == "train_publish":
        import train_publish
        return train_publish.run
    if name in ("serve_batch", "serve_live"):
        import serve
        return serve.run_batch if name == "serve_batch" else serve.run_live
    import join_events
    return join_events.run


def _result(outcomes, metrics: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(metrics))
    unknown = sorted(set(metrics) - set(units))
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing or unknown or bad:
        raise RuntimeError(f"metrics missing {missing}, not declared {unknown}, not finite {bad}")
    gates_ok = all(ok for o in outcomes for ok in o.gates.values())
    failed = sum(o.failed for o in outcomes) + sum(not ok for o in outcomes for ok in o.gates.values())
    return {
        "correct": gates_ok and failed == 0,
        "attempted": max(sum(o.attempted for o in outcomes), 1),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run = _runner(args.workload)
    # A terminated run still unwinds, so the server process it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Servers are stopped with SIGINT. A caller that started this run with
    # SIGINT ignored would pass that on to them, so restore Python's handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    for phase in ("run", "plain", "traced"):
        (work / phase).mkdir(parents=True)
    try:
        if args.trace == 0:
            outcome = run(work / "run", args.seed, args.seconds, None)
            outcomes = [outcome]
            result = _result(outcomes, outcome.e2e, e2e_units)
        else:
            half = max(args.seconds / 2, 1.0)
            plain = run(work / "plain", args.seed, half, None, setup_reps=1)
            tracer = common.Tracer()
            traced = run(work / "traced", args.seed, half, tracer, setup_reps=1)
            tracer.write(common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
            layers = {name: 0.0 for name in layer_units}
            layers.update(traced.layers)
            layers["trace.overhead_pct"] = 100.0 * (traced.cost - plain.cost) / plain.cost
            outcome = traced
            outcomes = [plain, traced]
            result = _result(outcomes, layers, layer_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "named": outcome.named, "gates": outcome.gates,
               "end_to_end": outcome.e2e if args.trace == 0 else {}}
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
