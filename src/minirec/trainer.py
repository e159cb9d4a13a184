"""Mini-batch training loop with evaluation, export, and delta emission.

Training is a pure function of (config, data bytes, seed), and one loop,
`fit`, runs it on loaded datasets for `train`, HPO and feature selection.
Three seeded RNG streams keep the sources of randomness independent:
[seed, 0] initializes parameters, [seed, 1] shuffles epochs, [seed, 2] is
reserved for gate noise in feature selection.

Features are generated once per file: `load_dataset` reads the CSV into
columns and makes one `generate` call, whose FeatureBatch holds every
row. Each epoch is planned once: the batch is gathered in its shuffled
order and `model.plan_steps` looks up its table rows in one call and
splits them into one stretch per step, with the (row, sample) pairs that
`backward` folds by. A step then does only the work that reads the
parameters: gather, fold and update. No Python loop runs per row.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .artifact import ModelArtifact
from .config import PipelineConfig
from .delta_stream import DeltaAccumulator, emit_delta, encode_delta
from .errors import DataError, IoError, MinirecError, NonFinite
from .features import Columns, FeatureBatch, generate, is_utf8
from .model import (
    ModelParams,
    SparseGradient,
    StepEntries,
    assemble,
    backward,
    compute_parts,
    evaluate_metrics,
    forward,
    init_params,
    plan_steps,
)
from .optim import AdamOptimizer


@dataclass
class TrainReport:
    curves: list[dict] = field(default_factory=list)
    final_metrics: dict | None = None
    epochs_run: int = 0
    steps: int = 0
    deltas_emitted: int = 0


def read_columns(path: str, delimiter: str = ",") -> Columns:
    """A CSV file's columns by header name, data rows in file order.

    Blank lines are skipped; a short row's missing cells are empty and a
    long row's extra cells are dropped. When a name repeats in the
    header, its last column wins. A row that is not UTF-8, or that the
    csv module cannot parse (a field over its size limit), raises
    DataError naming its data row (0 for the header).
    """
    header: list[str] | None = None
    rows: list[list[str]] = []
    try:
        # surrogateescape keeps a bad byte as a lone surrogate, found below per row.
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header = next(reader, None)
            if header is None:
                raise DataError(0, "missing header row")
            rows.extend(row for row in reader if row)
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(0 if header is None else len(rows) + 1, f"unreadable CSV row: {exc}") from None
    if not is_utf8("".join(chain(header, *rows))):
        bad = next(i for i, row in enumerate([header, *rows]) if not is_utf8("".join(row)))
        raise DataError(bad, "row is not valid UTF-8")
    width = len(header)
    if any(len(row) != width for row in rows):
        rows = [(row + [""] * width)[:width] for row in rows]
    cells = dict(zip(header, zip(*rows))) if rows else {name: () for name in header}
    return Columns(len(rows), cells)


def raise_first_error(errors: Mapping[int, MinirecError]) -> None:
    """Raise the lowest failing row's error, as a DataError naming its 1-based data row."""
    if errors:
        row = min(errors)
        error = errors[row]
        raise error if isinstance(error, DataError) else DataError(row + 1, str(error))


def _labels(texts: Sequence[str], errors: dict[int, MinirecError]) -> np.ndarray:
    """0/1 labels as int64; a row whose label is not 0 or 1 gets an error."""
    labels = np.zeros(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        try:
            value = float(text)
        except ValueError:
            errors[i] = DataError(i + 1, f"non-numeric label {text!r}")
            continue
        if value not in (0.0, 1.0):
            errors[i] = DataError(i + 1, f"label must be 0 or 1, got {text!r}")
            continue
        labels[i] = int(value)
    return labels


def load_dataset(cfg: PipelineConfig, path: str) -> tuple[FeatureBatch, np.ndarray]:
    """Read a CSV and generate its features in one call; labels as a 0/1 array.

    The lowest bad row raises DataError; within a row the label is
    checked before the features.
    """
    d = cfg.data_config
    columns = read_columns(path, d.delimiter)
    if columns.rows and d.label_column not in columns.cells:
        raise DataError(1, f"missing label column {d.label_column!r}")
    batch = generate(columns, cfg.feature_config)
    label_errors: dict[int, MinirecError] = {}
    labels = _labels(columns.cells.get(d.label_column, ()), label_errors)
    raise_first_error({**batch.errors, **label_errors})
    return batch, labels


def require_rows(what: str, path: str, data: tuple[FeatureBatch, np.ndarray]) -> tuple[FeatureBatch, np.ndarray]:
    """The dataset loaded from `path`; DataError naming it the `what` file if it has no data rows."""
    if not len(data[1]):
        raise DataError(0, f"{what} file {path!r} has no data rows")
    return data


def score_all(params: ModelParams, batch: FeatureBatch) -> list[float]:
    """Probabilities of every row, assembled in one pass; each equals its own `forward`.

    A row whose logit is not finite has no score: the lowest such row
    raises DataError naming its 1-based data row.
    """
    if not len(batch):
        return []
    trace = assemble(params, compute_parts(params, batch))
    bad = np.flatnonzero(~np.isfinite(trace.logit))
    if len(bad):
        raise DataError(int(bad[0]) + 1, f"logit {float(trace.logit[bad[0]])!r} is not finite")
    return trace.probability.tolist()


def evaluate_params(
    cfg: PipelineConfig, params: ModelParams, batch: FeatureBatch, labels: np.ndarray
) -> dict[str, float]:
    scores = score_all(params, batch)
    metrics = evaluate_metrics(scores, labels.tolist())
    return {name: metrics[name] for name in cfg.eval_config.metrics}


def train_step(
    params: ModelParams,
    optimizer: AdamOptimizer,
    batch: FeatureBatch | StepEntries,
    labels: np.ndarray,
    rows: np.ndarray,
    reg: float,
    slot_scale: np.ndarray | None = None,
) -> SparseGradient:
    """One optimizer step on the batch's mean gradient, which it returns.

    The batch, a step of `plan_steps` or a FeatureBatch, goes through one
    forward and one backward call. `rows` holds the batch's 1-based data
    row numbers; if any logit is not finite, NonFinite names them and
    nothing is updated. slot_scale, when given, is the (S, N) scales of
    each slot in each sample (the feature-selection gates). forward and
    backward are looked up in this module, so wrappers installed on
    trainer.forward/backward see every training batch.
    """
    trace = forward(params, batch, slot_scale)
    finite = np.isfinite(trace.logit)
    if not finite.all():
        raise NonFinite(float(trace.logit[~finite][0]), rows=rows.tolist())
    grad = backward(trace, labels, reg)
    optimizer.apply(params, grad)
    return grad


def load_splits(cfg: PipelineConfig) -> tuple:
    """cfg's train dataset, None when no epoch runs, and eval dataset, None without a path.

    A train dataset without data rows raises DataError before any step.
    """
    d = cfg.data_config
    data = None
    if cfg.train_config.num_epochs > 0:
        data = require_rows("training", d.train_path, load_dataset(cfg, d.train_path))
    return data, load_dataset(cfg, d.eval_path) if d.eval_path else None


def train(
    cfg: PipelineConfig,
    train_path: str | None = None,
    eval_path: str | None = None,
    sink=None,
    epoch_callback=None,
) -> tuple[ModelArtifact, TrainReport]:
    """`fit` on the config's files, or on the paths given, which the artifact's config then names."""
    d = cfg.data_config
    d = dataclasses.replace(d, train_path=d.train_path if train_path is None else train_path,
                            eval_path=d.eval_path if eval_path is None else eval_path)
    cfg = dataclasses.replace(cfg, data_config=d)
    return fit(cfg, *load_splits(cfg), sink=sink, epoch_callback=epoch_callback)


def fit(
    cfg: PipelineConfig,
    data: tuple[FeatureBatch, np.ndarray] | None,
    eval_data: tuple[FeatureBatch, np.ndarray] | None = None,
    sink=None,
    epoch_callback=None,
    gates=None,
) -> tuple[ModelArtifact, TrainReport]:
    """Run the seeded training loop over loaded `(batch, labels)` datasets.

    sink: optional delta publisher; a delta is emitted and published every
    train_config.delta_period_steps optimizer steps, plus a final partial
    period. epoch_callback(epoch, metrics) may return True to stop after
    the current epoch (the HPO stopping hook). gates: the feature-selection
    gate step; `gates.scales(n)` gives the slot scales of a weight step's
    n samples, and `gates.step(params, shuffle_rng)` runs after that step.
    """
    t = cfg.train_config
    init_rng = np.random.default_rng([t.seed, 0])
    shuffle_rng = np.random.default_rng([t.seed, 1])
    params = init_params(cfg, init_rng)
    optimizer = AdamOptimizer(t.learning_rate, t.adam_beta1, t.adam_beta2, t.adam_epsilon)
    acc = DeltaAccumulator(params.layout.rows)
    report = TrainReport()

    reg = cfg.model_config.embedding_regularization
    for epoch in range(1, t.num_epochs + 1):
        batch, labels = data
        order = shuffle_rng.permutation(len(labels))
        steps = plan_steps(params, batch.take(order), t.batch_size)
        shuffled_labels, rows = labels[order], order + 1
        for start, step in zip(range(0, len(order), t.batch_size), steps):
            stop = start + step.n
            scale = None if gates is None else gates.scales(step.n)
            acc.add(train_step(params, optimizer, step, shuffled_labels[start:stop], rows[start:stop], reg, scale))
            report.steps += 1
            if scale is not None:
                gates.step(params, shuffle_rng)
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
