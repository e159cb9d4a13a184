"""train_publish: DeepFM training that publishes deltas to a file queue, then replay.

Each repetition trains one epoch plus an eval pass on the same seeded CSV,
publishing a delta every few steps to a fresh file:// queue, and then a
fresh ServingModel loaded from the exported version-0 artifact drains the
queue from offset 0. Training is a pure function of (config, data, seed),
so every repetition must end in the same artifact bytes.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import common

TRAIN_ROWS = 1024
EVAL_ROWS = 512
SETUP_REPS = 25


class TimedSink:
    """Delta sink that times each delta period and probes machine speed between them.

    The trainer calls publish() once per period, so the time from one call
    resuming the trainer to the next call's publish returning is one period
    of training plus emitting, encoding and publishing its delta. The speed
    probe runs after each publish; its time is excluded from every figure.
    """

    def __init__(self, publisher, probe: common.SpeedProbe):
        self.publisher = publisher
        self.probe = probe
        self.returned: list[float] = []
        self.resumed: list[float] = []
        self.speeds: list[float] = []
        self.probe_s = 0.0

    def publish(self, frame: bytes) -> None:
        self.publisher.publish(frame)
        self.returned.append(time.perf_counter())
        self.speeds.append(self.probe.sample())
        self.resumed.append(time.perf_counter())
        self.probe_s += self.resumed[-1] - self.returned[-1]

    def periods(self) -> list[float]:
        """Each period's wall time divided by the mean probe factor at its two ends."""
        return [(self.returned[i + 1] - self.resumed[i]) * 2 / (self.speeds[i] + self.speeds[i + 1])
                for i in range(len(self.returned) - 1)]

    def close(self) -> None:
        self.publisher.close()


def _trace(tracer) -> None:
    import os

    from minirec import artifact, delta_stream, optim, serving, trainer

    def rows_per_step(t, args, _):
        grad = args[2]
        rows = sum(len(r) for r in grad.emb_rows.values()) + sum(len(r) for r in grad.fo_rows.values())
        t.record("optim.rows", rows)

    tracer.wrap(trainer, "train", "trainer.train")
    tracer.wrap(trainer, "load_dataset", "trainer.load_dataset")
    tracer.wrap(trainer, "evaluate_params", "trainer.eval")
    tracer.wrap(trainer, "generate", "features.generate")
    tracer.wrap(trainer, "forward", "model.forward")
    tracer.wrap(trainer, "backward", "model.backward")
    tracer.wrap(optim.AdamOptimizer, "apply", "optim.apply", rows_per_step)
    tracer.wrap(trainer, "emit_delta", "delta_stream.emit")
    tracer.wrap(trainer, "encode_delta", "delta_stream.encode")
    tracer.wrap(delta_stream.FilePublisher, "publish", "delta_stream.publish",
                lambda t, args, _: t.record("delta_stream.frame_bytes", len(args[1])))
    # FilePublisher.publish is the only caller of fsync in this process.
    tracer.wrap(os, "fsync", "delta_stream.fsync")
    tracer.wrap(delta_stream, "decode_delta", "delta_stream.decode")
    tracer.wrap(serving.ServingModel, "apply_delta", "serving.apply_delta")
    tracer.wrap(artifact, "save_artifact", "artifact.save")
    tracer.wrap(serving, "load_artifact", "artifact.load")


def run(work: Path, seed: int, seconds: float, tracer, setup_reps: int = SETUP_REPS) -> common.Outcome:
    from minirec import artifact, delta_stream, serving, trainer
    from minirec.config import build_config
    from minirec.model import auc, init_params, params_equal

    out = common.Outcome()
    world = common.World(seed)
    rng = np.random.default_rng([seed, 1])
    train_csv, eval_csv = work / "train.csv", work / "eval.csv"
    common.write_training_csv(train_csv, world, rng, TRAIN_ROWS)
    eval_logits = common.write_training_csv(eval_csv, world, rng, EVAL_ROWS)
    cfg = build_config(common.pipeline_config(seed))

    # Set-up is what `minirec export` does, plus loading the result into a
    # ServingModel: the work before the first training step or replay.
    v0_path = str(work / "model-v0.erm")

    def export_and_load() -> None:
        params = init_params(cfg, np.random.default_rng([seed, 0]))
        artifact.save_artifact(artifact.ModelArtifact(cfg, params, seed, 0), v0_path)
        serving.load_model(v0_path)

    out.e2e["setup_s"] = common.timed_median(export_and_load, setup_reps, out.probe)

    if tracer is not None:
        _trace(tracer)
    train_rates, raw_rates, replay_rates, intervals, digests, aucs = [], [], [], [], set(), set()
    steps = frames = 0
    speeds: list[float] = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        base = work / f"queue{rep}"
        sink = TimedSink(delta_stream.open_publisher(f"file://{base}"), out.probe)
        start = time.perf_counter()
        try:
            art, report = trainer.train(cfg, str(train_csv), str(eval_csv), sink=sink)
        finally:
            sink.close()
        train_s = time.perf_counter() - start - sink.probe_s
        steps, frames = report.steps, len(sink.returned)
        speeds += sink.speeds
        out.attempted += frames

        model = serving.load_model(v0_path)
        consumer = delta_stream.open_consumer(f"file://{base}")
        start = time.perf_counter()
        replayed = 0
        while (frame := consumer.consume(timeout=0)) is not None:
            replayed += 1
            if model.apply_delta(delta_stream.decode_delta(frame)) is None:
                out.failed += 1
        replay_s = time.perf_counter() - start
        consumer.close()
        raw_rates.append(TRAIN_ROWS / train_s)
        train_rates.append(TRAIN_ROWS / train_s * float(np.mean(sink.speeds)))
        replay_rates.append(TRAIN_ROWS / replay_s * out.probe.factor())
        intervals += sink.periods()
        out.attempted += replayed
        out.failed += frames - replayed

        out.gate("replay_params_equal", params_equal(model.snapshot(), art.params)
                 and model.version == art.params.model_version == frames)
        final_path = work / f"final{rep}.erm"
        artifact.save_artifact(art, str(final_path))
        digests.add(hashlib.sha256(final_path.read_bytes()).hexdigest())
        aucs.add(report.final_metrics["auc"])
        rep += 1
    if tracer is not None:
        tracer.restore()

    labels = [int(line.split(",", 1)[0]) for line in eval_csv.read_text().splitlines()[1:]]
    oracle_auc = auc(eval_logits, labels)
    auc_floor = 0.5 + (oracle_auc - 0.5) / 2
    eval_auc = min(aucs)
    out.gate("deterministic_artifact", len(digests) == 1 and len(aucs) == 1)
    out.gate("eval_auc_floor", eval_auc >= auc_floor)

    out.e2e["peak_rss_mb"] = common.self_peak_rss_mb()
    out.e2e["throughput_per_s"] = common.median(train_rates)
    out.e2e["latency_p50_ms"] = common.percentile(intervals, 50) * 1e3
    out.e2e["latency_p90_ms"] = common.percentile(intervals, 90) * 1e3
    out.cost = 1.0 / out.e2e["throughput_per_s"]
    out.named.update({
        "train_rows_per_s": out.e2e["throughput_per_s"],
        "train_rows_per_s_wall": common.median(raw_rates),
        "speed_factor": common.median(speeds),
        "replay_rows_per_s": common.median(replay_rates),
        "eval_auc": eval_auc,
        "eval_auc_floor": auc_floor,
        "planted_rule_auc": oracle_auc,
        "artifact_sha256": sorted(digests),
        "repetitions": rep,
        "steps_per_rep": steps,
        "frames_per_rep": frames,
        "delta_period_p50_ms": out.e2e["latency_p50_ms"],
    })
    if tracer is not None:
        t = tracer
        trains = max(t.count["trainer.train"], 1)
        out.layers.update({
            "features.generate_us": t.mean_us("features.generate"),
            "model.forward_us": t.mean_us("model.forward"),
            "model.backward_us": t.mean_us("model.backward"),
            "optim.apply_us": t.mean_us("optim.apply"),
            "optim.rows_per_step": float(np.mean(t.values["optim.rows"])),
            "trainer.load_dataset_s": t.total_ns["trainer.load_dataset"] / trains / 1e9,
            "trainer.eval_s": t.total_ns["trainer.eval"] / trains / 1e9,
            "delta_stream.emit_us": t.mean_us("delta_stream.emit"),
            "delta_stream.encode_us": t.mean_us("delta_stream.encode"),
            "delta_stream.publish_us": t.mean_us("delta_stream.publish"),
            "delta_stream.fsync_us": t.mean_us("delta_stream.fsync"),
            "delta_stream.frame_bytes": float(np.mean(t.values["delta_stream.frame_bytes"])),
            "delta_stream.decode_us": t.mean_us("delta_stream.decode"),
            "serving.apply_delta_us": t.mean_us("serving.apply_delta"),
            "artifact.save_s": t.mean_us("artifact.save") / 1e6,
            "artifact.load_s": t.mean_us("artifact.load") / 1e6,
            "artifact.bytes": float(Path(v0_path).stat().st_size),
        })
    return out

