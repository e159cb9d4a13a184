"""join_events: sample_stream.run_pipeline over a seeded, jittered event log.

Requests have Zipf-drawn users and 1-5 impressions each; the log holds
clicks inside the label window, late clicks after it, exact duplicates and
requests whose feature log never arrives. Arrival order is event time plus
jitter inside half the allowed lateness, except for a share of straggler
impressions that arrive far beyond it and must be counted late_dropped.

The gate compares the jittered log with the same events in time order
(stragglers keeping their late arrival): the joiner must give the same
samples and the same stats, and drop exactly the stragglers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import common

WINDOW_MS = 50
LATENESS_MS = 20
REQUESTS = 2500
GAP_MS = 8
STRAGGLER_SHARE = 0.01
STRAGGLER_DELAY_MS = WINDOW_MS + 4 * LATENESS_MS
SETUP_REPS = 15
SETUP_EVENTS = 300


def make_events(seed: int) -> tuple[list[tuple[float, float, dict]], int]:
    """Events as (arrival key, time-order key, event); returns them with the straggler count."""
    world = common.World(seed)
    rng = np.random.default_rng([seed, 5])
    users = world.draw_users(rng, REQUESTS)
    span = REQUESTS * GAP_MS
    events: list[tuple[float, float, dict]] = []
    stragglers = 0

    def add(event: dict, straggler: bool = False) -> None:
        t = event["event_time"]
        if straggler:
            events.append((t + STRAGGLER_DELAY_MS, t + STRAGGLER_DELAY_MS, event))
        else:
            events.append((t + rng.uniform(-LATENESS_MS / 2, LATENESS_MS / 2), t, event))

    for r, u in enumerate(users.tolist()):
        rid = f"r{r:06d}"
        t0 = int(rng.integers(0, span))
        if rng.random() < 0.85:
            log = {"kind": "feature_log", "event_time": max(t0 + int(rng.integers(-LATENESS_MS, WINDOW_MS + LATENESS_MS + 1)), 0),
                   "request_id": rid, "payload": world.user_features(u)}
            add(log)
            if rng.random() < 0.05:
                add(dict(log))
        for j, item in enumerate(world.draw_items(rng, int(rng.integers(1, 6))).tolist()):
            imp = {"kind": "impression", "event_time": t0 + j, "request_id": rid, "item_key": f"i{item}-{j}"}
            straggler = t0 < span - 1000 and rng.random() < STRAGGLER_SHARE
            stragglers += straggler
            add(imp, straggler)
            if not straggler and rng.random() < 0.05:
                add(dict(imp))
            roll = rng.random()
            if roll < 0.3:
                add({**imp, "kind": "click", "event_time": t0 + j + int(rng.integers(0, WINDOW_MS + 1))})
                if rng.random() < 0.2:
                    add({**imp, "kind": "click", "event_time": t0 + j + int(rng.integers(0, WINDOW_MS + 1))})
            elif roll < 0.4:
                add({**imp, "kind": "click", "event_time": t0 + j + WINDOW_MS + 1 + int(rng.integers(0, 40))})
    return events, stragglers


def write_log(path: Path, events, key: int) -> None:
    order = sorted(range(len(events)), key=lambda i: (events[i][key], i))
    with open(path, "w") as fh:
        for i in order:
            fh.write(json.dumps(events[i][2]) + "\n")


def _trace(tracer) -> None:
    from minirec import sample_stream

    def buffered(t, args, _):
        joiner = args[0]
        if t.count["sample_stream.feed"] % 64 == 0:
            t.record("sample_stream.buffered",
                     joiner.buffered_impressions + joiner.buffered_logs + joiner.buffered_pairs)

    tracer.wrap(sample_stream, "run_pipeline", "sample_stream.run_pipeline")
    tracer.wrap(sample_stream.Joiner, "feed", "sample_stream.feed", buffered)


def run(work: Path, seed: int, seconds: float, tracer, setup_reps: int = SETUP_REPS) -> common.Outcome:
    from minirec import sample_stream
    from minirec.sample_stream import JoinConfig

    out = common.Outcome()
    events, stragglers = make_events(seed)
    jittered, ordered = work / "events.jsonl", work / "events-sorted.jsonl"
    write_log(jittered, events, 0)
    write_log(ordered, events, 1)
    cfg = JoinConfig(label_window_ms=WINDOW_MS, allowed_lateness_ms=LATENESS_MS)

    # Set-up is the cost of starting one join job, measured as a job over a
    # short log: on a one-line log, file system calls dominate and their time
    # varied twofold between runs.
    short, short_out = work / "short.jsonl", work / "short.csv"
    write_log(short, events[:SETUP_EVENTS], 0)
    out.e2e["setup_s"] = common.timed_median(
        lambda: sample_stream.run_pipeline(str(short), cfg, str(short_out)), setup_reps, out.probe)

    if tracer is not None:
        _trace(tracer)
    samples_csv = work / "samples.csv"
    times, wall, first = [], [], None
    deadline = time.perf_counter() + seconds
    out.probe.factor()
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        stats = sample_stream.run_pipeline(str(jittered), cfg, str(samples_csv))
        wall.append(time.perf_counter() - start)
        times.append(wall[-1] / out.probe.factor())
        output = (stats.to_plain(), samples_csv.read_bytes())
        first = first or output
        out.attempted += len(events)
        out.failed += len(events) if output != first else 0
    if tracer is not None:
        tracer.restore()

    reference = sample_stream.run_pipeline(str(ordered), cfg, str(work / "reference.csv"))
    same_rows = sorted(samples_csv.read_text().splitlines()) == sorted(
        (work / "reference.csv").read_text().splitlines())
    out.gate("jittered_equals_time_order", same_rows and stats.to_plain() == reference.to_plain())
    out.gate("stragglers_late_dropped", stats.late_dropped == stragglers > 0)

    out.e2e["peak_rss_mb"] = common.self_peak_rss_mb()
    out.e2e["throughput_per_s"] = len(events) / common.median(times)
    out.e2e["latency_p50_ms"] = common.percentile(times, 50) * 1e3
    out.e2e["latency_p90_ms"] = common.percentile(times, 90) * 1e3
    out.cost = common.median(times)
    out.named.update({
        "join_events_per_s": out.e2e["throughput_per_s"],
        "join_events_per_s_wall": len(events) / common.median(wall),
        "speed_factor": common.median(out.probe.factors),
        "events": len(events),
        "repetitions": len(times),
        "stats": stats.to_plain(),
    })
    if tracer is not None:
        out.layers.update({
            "sample_stream.feed_us_per_event": tracer.mean_us("sample_stream.feed"),
            "sample_stream.buffered_peak": float(max(tracer.values["sample_stream.buffered"])),
            "sample_stream.late_dropped": float(stats.late_dropped),
        })
    return out
