"""Shared oracles and data builders for the test suite.

Everything here is an independent re-computation: reference hashes via
functools.reduce, AUC by explicit pair counting, the forward pass as a
straight-line float64 program, and a naive list-based LRU. None of it
shares code with the package under test beyond reading its data types.
"""

import csv
import json
import math
from functools import reduce

import numpy as np

from minirec.config import parse_config


# ---------------------------------------------------------------------
# Reference hashes and RNG streams
# ---------------------------------------------------------------------

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64_reference(data: bytes) -> int:
    return reduce(lambda h, b: ((h ^ b) * FNV_PRIME) & U64, data, FNV_OFFSET)


def splitmix64_reference(seed: int, count: int) -> list[int]:
    x = seed & U64
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & U64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
        out.append(z ^ (z >> 31))
    return out


# ---------------------------------------------------------------------
# Metric oracles
# ---------------------------------------------------------------------

def pairwise_auc(scores, labels) -> float:
    """O(P*N) pair counting: wins + half-credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def mean_logloss(scores, labels) -> float:
    total = 0.0
    for s, y in zip(scores, labels):
        p = min(max(float(s), 1e-7), 1.0 - 1e-7)
        total += -math.log(p) if y == 1 else -math.log(1.0 - p)
    return total / len(scores)


# ---------------------------------------------------------------------
# Straight-line float64 forward/loss reference
# ---------------------------------------------------------------------

def straight_line_pooled(params, specs, fv, scale=None):
    pooled = []
    fo_total = float(params.tensors["bias"][0])
    for spec in specs:
        values = params.tensors[f"emb:{spec.name}"].astype(np.float64)
        first = params.tensors[f"fo:{spec.name}"].astype(np.float64)
        factor = 1.0 if scale is None else float(scale[spec.name])
        if spec.kind == "numeric_raw":
            v = float(fv.dense.get(spec.name, 0.0))
            pooled.append(factor * v * values[0])
            fo_total += factor * v * first[0, 0]
            continue
        ids = fv.ids.get(spec.name, ())
        vec = np.zeros(values.shape[1], dtype=np.float64)
        fo_slot = 0.0
        for row in ids:
            vec += values[row]
            fo_slot += first[row, 0]
        if spec.pooling == "mean" and ids:
            vec /= len(ids)
        pooled.append(factor * vec)
        fo_total += factor * fo_slot
    return pooled, fo_total


def straight_line_probability(params, specs, fv, scale=None) -> float:
    """Independent float64 re-computation of the forward probability."""
    pooled, fo_total = straight_line_pooled(params, specs, fv, scale)
    logit = fo_total
    if params.model_type == "deepfm":
        fm = 0.0
        for i in range(len(pooled)):
            for j in range(i + 1, len(pooled)):
                fm += float(pooled[i] @ pooled[j])
        x = np.concatenate(pooled)
        depth = sum(name.startswith("mlp:W") for name in params.tensors)
        last = depth - 1
        for i in range(depth):
            w, b = params.tensors[f"mlp:W{i}"], params.tensors[f"mlp:b{i}"]
            x = x @ w.astype(np.float64) + b.astype(np.float64)
            if i < last:
                x = np.maximum(x, 0.0)
        logit += fm + float(x[0])
    p = 1.0 / (1.0 + math.exp(-logit))
    return min(max(p, 1e-7), 1.0 - 1e-7)


def straight_line_loss(params, specs, fv, label, reg) -> float:
    p = straight_line_probability(params, specs, fv)
    loss = -math.log(p) if label == 1 else -math.log(1.0 - p)
    if reg > 0.0 and params.model_type == "deepfm":
        for spec in specs:
            values = params.tensors[f"emb:{spec.name}"]
            rows = set(fv.ids.get(spec.name, ()))
            if spec.kind == "numeric_raw" and fv.dense.get(spec.name, 0.0) != 0.0:
                rows = {0}
            for row in rows:
                vec = values[row].astype(np.float64)
                loss += reg * float(vec @ vec)
    return loss


# ---------------------------------------------------------------------
# Reference LRU simulator
# ---------------------------------------------------------------------

class LruSimulator:
    """Deliberately naive LRU over a plain list, most recent last."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.order: list = []

    def access(self, key) -> bool:
        if key in self.order:
            self.order.remove(key)
            self.order.append(key)
            return True
        self.order.append(key)
        if len(self.order) > self.capacity:
            self.order.pop(0)
        return False


# ---------------------------------------------------------------------
# Config and dataset builders
# ---------------------------------------------------------------------

def two_slot_feature_config():
    return [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 2000},
        {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 2000},
    ]


def config_dict(tmp_path, feature_config=None, **tweaks):
    cfg = {
        "data_config": {
            "train_path": str(tmp_path / "train.csv"),
            "eval_path": str(tmp_path / "eval.csv"),
            "format": "csv",
            "label_column": "label",
            "delimiter": ",",
        },
        "feature_config": feature_config or two_slot_feature_config(),
        "model_config": {
            "model_type": "deepfm",
            "embedding_dim": 8,
            "mlp_hidden_dims": [16],
            "embedding_regularization": 0.0,
        },
        "train_config": {
            "learning_rate": 0.01,
            "batch_size": 64,
            "num_epochs": 2,
            "seed": 42,
            "delta_period_steps": 100,
        },
        "eval_config": {"metrics": ["auc", "logloss"], "eval_interval": 1},
    }
    for section, fields in tweaks.items():
        cfg[section].update(fields)
    return cfg


def make_config(tmp_path, feature_config=None, **tweaks):
    return parse_config(json.dumps(config_dict(tmp_path, feature_config, **tweaks)))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_logistic_dataset(tmp_path, n_train=4000, n_eval=1000, n_users=60,
                           n_items=60, scale=10.0, seed=2026):
    """Two-slot dataset whose labels follow a known logistic rule.

    Returns (train_path, eval_path, eval_bayes_scores, eval_labels); the
    generating rule itself is the oracle for what is learnable.
    """
    rng = np.random.default_rng(seed)
    w_user = rng.uniform(-1.0, 1.0, n_users)
    w_item = rng.uniform(-1.0, 1.0, n_items)

    def emit(path, count, stream):
        logits, labels, rows = [], [], []
        for _ in range(count):
            u = int(stream.integers(n_users))
            i = int(stream.integers(n_items))
            logit = scale * (w_user[u] + w_item[i])
            label = int(stream.random() < 1.0 / (1.0 + math.exp(-logit)))
            rows.append([label, f"u{u}", f"i{i}"])
            logits.append(logit)
            labels.append(label)
        write_csv(path, ["label", "user_id", "item_id"], rows)
        return logits, labels

    train_path = tmp_path / "train.csv"
    eval_path = tmp_path / "eval.csv"
    emit(train_path, n_train, np.random.default_rng(seed + 1))
    logits, labels = emit(eval_path, n_eval, np.random.default_rng(seed + 2))
    return str(train_path), str(eval_path), logits, labels


def informative_feature_config(n_slots, vocab=500):
    return [
        {"name": f"cat_{j:02d}", "kind": "id",
         "source_columns": [f"cat_{j:02d}"], "vocab_size": vocab}
        for j in range(n_slots)
    ]


def write_informative_dataset(path, n_slots, informative, n_rows, seed,
                              n_values=30, scale=2.0, rule_seed=7):
    """Planted-signal dataset: only the `informative` slots move the label.

    The labelling rule depends only on rule_seed so that train and
    validation files written with different row seeds share one rule.
    """
    rule_rng = np.random.default_rng(rule_seed)
    weights = {
        j: rule_rng.uniform(-1.0, 1.0, n_values) for j in informative
    }
    rng = np.random.default_rng(seed)
    header = ["label"] + [f"cat_{j:02d}" for j in range(n_slots)]
    rows = []
    for _ in range(n_rows):
        choice = rng.integers(0, n_values, n_slots)
        logit = scale * sum(weights[j][choice[j]] for j in informative)
        label = int(rng.random() < 1.0 / (1.0 + math.exp(-logit)))
        rows.append([label] + [f"s{j}_v{choice[j]}" for j in range(n_slots)])
    write_csv(path, header, rows)
