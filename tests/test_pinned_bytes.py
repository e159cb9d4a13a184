"""Training bytes are pinned: the benchmark's train_publish job trains to recorded digests.

Training is a pure function of (config, data, seed), and a speed-up must
keep every bit. This test trains perfbench's train_publish config on its
seeded CSVs, publishing a delta every 4 steps to a file:// queue as the
benchmark does, and compares what comes out with literals recorded before
the training step was restructured:
- the sha256 of the artifact's tensor payload (its header embeds the data
  paths, so it is left out),
- the sha256 of the queue file, every `.dq` frame in order,
- the eval metrics, as exact float hex.

Seed 53 was not used while the training path was being changed.
"""

import hashlib
import importlib
import struct
from pathlib import Path

import numpy as np
import pytest

from minirec import delta_stream, trainer
from minirec.artifact import save_artifact
from minirec.config import build_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# seed -> (payload sha256, queue sha256, eval auc, eval logloss)
PINNED = {
    0: ("2eaa9be2c77d80a44479ef314f44796cf0ddcf631e2bdc9b3eecbc1293aea88c",
        "65cd719a0c3c152368a738988d5ccaadecfeccd9b793df52590a77de8a5c1e44",
        "0x1.837b8f9935a83p-1", "0x1.34d8544989fc9p-1"),
    1: ("186287039f2ae83fed5a269fb4e243e09df67bae5601f75c1db1547e95352229",
        "83d9ebfb6aa872a83243aa34e9ff334488366582ff2c810f4f6d1cf005710333",
        "0x1.8dd425161dd06p-1", "0x1.2749865d88cdfp-1"),
    2: ("d2ec2f4e215aef729abc917835559c03eff0ead8089474a57c88d63db7a4d33f",
        "2fc839f1d0679cf29b8f95f35497a391612b8b6948d31539966d3c42c357632f",
        "0x1.57e488c82523dp-1", "0x1.3e19883edd1bbp-1"),
    53: ("4a806ced6837593da74637b0b8b5d9d70f48e59ee792dc14baf3f13c8cc4a95e",
         "0d001b1905d3bdb3a93815673dd13ab357d2a9f6b3f41c81559dcd9045995900",
         "0x1.53d084fa13201p-1", "0x1.5ade46410b69dp-1"),
}


def train_publish_digests(work: Path, seed: int) -> tuple[str, str, str, str]:
    """Train the train_publish job of `seed` under `work`; its payload and queue digests and eval metrics."""
    common = importlib.import_module("common")
    train_publish = importlib.import_module("train_publish")
    world = common.World(seed)
    rng = np.random.default_rng([seed, 1])
    train_csv, eval_csv = work / "train.csv", work / "eval.csv"
    common.write_training_csv(train_csv, world, rng, train_publish.TRAIN_ROWS)
    common.write_training_csv(eval_csv, world, rng, train_publish.EVAL_ROWS)
    cfg = build_config(common.pipeline_config(seed))
    sink = delta_stream.open_publisher(f"file://{work / 'queue'}")
    try:
        art, report = trainer.train(cfg, str(train_csv), str(eval_csv), sink=sink)
    finally:
        sink.close()
    save_artifact(art, str(work / "model.erm"))
    data = (work / "model.erm").read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    metrics = report.final_metrics
    return (
        hashlib.sha256(data[12 + header_len:]).hexdigest(),
        hashlib.sha256((work / "queue.dq").read_bytes()).hexdigest(),
        float(metrics["auc"]).hex(),
        float(metrics["logloss"]).hex(),
    )


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_train_publish_bytes_are_pinned(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert train_publish_digests(tmp_path, seed) == PINNED[seed]
