"""Mini-batch training loop with evaluation, export, and delta emission.

Training is a pure function of (config, data bytes, seed). Three seeded
RNG streams keep the sources of randomness independent and reproducible:
[seed, 0] initializes parameters, [seed, 1] shuffles epochs, [seed, 2] is
reserved for gate noise in feature selection. Feature vectors are
generated once up front; epochs only permute indices.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .artifact import ModelArtifact
from .config import PipelineConfig
from .delta_stream import DeltaAccumulator, emit_delta, encode_delta
from .errors import DataError, IoError
from .features import FeatureVector, generate
from .model import (
    ModelParams,
    SparseGradient,
    assemble,
    backward,
    compute_parts,
    evaluate_metrics,
    forward,
    init_params,
)
from .optim import AdamOptimizer


@dataclass
class TrainReport:
    curves: list[dict] = field(default_factory=list)
    final_metrics: dict | None = None
    epochs_run: int = 0
    steps: int = 0
    deltas_emitted: int = 0


def load_records(path: str, delimiter: str = ",") -> list[dict[str, str]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, delimiter=delimiter)
            if reader.fieldnames is None:
                raise DataError(0, "missing header row")
            return [dict(row) for row in reader]
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from exc


def load_dataset(cfg: PipelineConfig, path: str) -> tuple[list[FeatureVector], np.ndarray]:
    """Read a CSV and generate features once; labels as a 0/1 array."""
    d = cfg.data_config
    records = load_records(path, d.delimiter)
    fvs: list[FeatureVector] = []
    labels = np.zeros(len(records), dtype=np.int64)
    for i, record in enumerate(records):
        row = i + 1
        text = record.get(d.label_column)
        if text is None:
            raise DataError(row, f"missing label column {d.label_column!r}")
        try:
            value = float(text)
        except ValueError:
            raise DataError(row, f"non-numeric label {text!r}") from None
        if value not in (0.0, 1.0):
            raise DataError(row, f"label must be 0 or 1, got {text!r}")
        labels[i] = int(value)
        fvs.append(generate(record, cfg.feature_config))
    return fvs, labels


def score_all(params: ModelParams, fvs: list[FeatureVector]) -> list[float]:
    """Probabilities of every row, assembled in one pass; each equals its own `forward`."""
    if not fvs:
        return []
    return assemble(params, compute_parts(params, fvs)).probability.tolist()


def evaluate_params(
    cfg: PipelineConfig, params: ModelParams, fvs: list[FeatureVector], labels: np.ndarray
) -> dict[str, float]:
    scores = score_all(params, fvs)
    metrics = evaluate_metrics(scores, labels.tolist())
    return {name: metrics[name] for name in cfg.eval_config.metrics}


def train_step(
    params: ModelParams,
    optimizer: AdamOptimizer,
    batch: Sequence[tuple[FeatureVector, int]],
    reg: float,
    slot_scale: Mapping[str, np.ndarray] | None = None,
) -> SparseGradient:
    """One optimizer step on the batch's mean gradient, which it returns.

    The whole batch goes through one forward and one backward call.
    slot_scale, when given, holds each slot's per-sample scales (the
    feature-selection gates). forward and backward are looked up in this
    module, so wrappers installed on trainer.forward/backward see every
    training batch of both loops.
    """
    trace = forward(params, [fv for fv, _ in batch], slot_scale)
    grad = backward(trace, [label for _, label in batch], reg)
    optimizer.apply(params, grad)
    return grad


def train(
    cfg: PipelineConfig,
    train_path: str | None = None,
    eval_path: str | None = None,
    sink=None,
    epoch_callback=None,
) -> tuple[ModelArtifact, TrainReport]:
    """Run the full seeded training loop.

    sink: optional delta publisher; a delta is emitted and published every
    train_config.delta_period_steps optimizer steps, plus a final partial
    period. epoch_callback(epoch, metrics) may return True to stop after
    the current epoch (the HPO stopping hook).
    """
    t = cfg.train_config
    effective_train = train_path if train_path is not None else cfg.data_config.train_path
    effective_eval = eval_path if eval_path is not None else cfg.data_config.eval_path
    if effective_train != cfg.data_config.train_path or effective_eval != cfg.data_config.eval_path:
        cfg = dataclasses.replace(
            cfg,
            data_config=dataclasses.replace(
                cfg.data_config, train_path=effective_train, eval_path=effective_eval
            ),
        )

    init_rng = np.random.default_rng([t.seed, 0])
    shuffle_rng = np.random.default_rng([t.seed, 1])
    params = init_params(cfg, init_rng)
    optimizer = AdamOptimizer(t.learning_rate, t.adam_beta1, t.adam_beta2, t.adam_epsilon)
    acc = DeltaAccumulator()
    report = TrainReport()

    fvs, labels = load_dataset(cfg, effective_train) if t.num_epochs > 0 else ([], np.zeros(0))
    eval_data = None
    if effective_eval:
        eval_data = load_dataset(cfg, effective_eval)

    reg = cfg.model_config.embedding_regularization
    for epoch in range(1, t.num_epochs + 1):
        order = shuffle_rng.permutation(len(fvs))
        for start in range(0, len(order), t.batch_size):
            batch = [(fvs[i], int(labels[i])) for i in order[start : start + t.batch_size]]
            acc.add(train_step(params, optimizer, batch, reg))
            report.steps += 1
            if sink is not None and report.steps % t.delta_period_steps == 0:
                sink.publish(encode_delta(emit_delta(acc, params)))
                report.deltas_emitted += 1
        report.epochs_run = epoch

        metrics = None
        if eval_data is not None and epoch % cfg.eval_config.eval_interval == 0:
            metrics = evaluate_params(cfg, params, eval_data[0], eval_data[1])
            report.curves.append({"epoch": epoch, **metrics})
            report.final_metrics = metrics
        if epoch_callback is not None and epoch_callback(epoch, metrics):
            break

    if sink is not None and acc.steps_since_emit > 0:
        sink.publish(encode_delta(emit_delta(acc, params)))
        report.deltas_emitted += 1

    artifact = ModelArtifact(config=cfg, params=params, seed=t.seed, step_count=report.steps)
    return artifact, report
