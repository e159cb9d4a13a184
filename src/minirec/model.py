"""DeepFM-style CTR model: lookup, FM interaction, MLP, manual gradients.

Parameters are 32-bit floats and every reduction runs in a fixed
sequential order, so a forward pass is bitwise reproducible on one
platform and scores survive the 32-bit serving wire format unchanged.

The forward pass is split into `compute_parts` (per-slot pooled embedding
and first-order sums) and `assemble` (FM + MLP + bias on top of the
parts). The serving cache stores per-slot parts and re-assembles, so the
cached path runs the exact same float operations as the uncached one.
`assemble` also takes many rows' parts stacked by `stack_parts` and
scores them in one pass; every row gets the bits its own pass would give.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateLabels,
    DimensionMismatch,
    IndexOutOfRange,
    SlotMismatch,
)
from .features import FeatureSpec, FeatureVector

PROB_CLIP = 1e-7

_F32 = np.float32


@dataclass
class ModelParams:
    """Model state: every parameter tensor by name, in `tensor_shapes` order.

    A tensor's position in `tensors` is its wire index in delta messages
    and its position in the artifact payload.
    """

    specs: tuple[FeatureSpec, ...]
    model_type: str
    embedding_dim: int
    tensors: dict[str, np.ndarray]
    model_version: int = 0

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)


class SlotPart(NamedTuple):
    """Per-slot forward intermediates: pooled embedding and first-order sum.

    `pooled` is None for the logreg model type, which never reads the
    embedding tables. Stacked parts (see `stack_parts`) hold N rows: `fo`
    of shape (N,) and `pooled` of shape (N, D).
    """

    pooled: np.ndarray | None
    fo: np.float32 | np.ndarray


@dataclass
class ForwardTrace:
    """Intermediates of `assemble`; `fm`, `logit` and `probability` are (N,) for stacked parts."""

    params: ModelParams
    parts: dict[str, SlotPart]
    slot_scale: Mapping[str, float] | None
    scaled_pooled: list[np.ndarray]
    fm: np.float32
    mlp_input: np.ndarray | None
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logit: np.float32
    probability: np.float32


@dataclass
class SparseGradient:
    """Per-slot rows of the emb/fo tables, and whole dense tensors by name."""

    emb_rows: dict[str, dict[int, np.ndarray]]
    fo_rows: dict[str, dict[int, np.float32]]
    dense: dict[str, np.ndarray]
    slot_scale: dict[str, float] | None = None


def tensor_shapes(cfg: PipelineConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in canonical order.

    Per slot in config order an embedding table `emb:<slot>` and a
    first-order table `fo:<slot>`; for deepfm the MLP layers `mlp:W<i>`,
    `mlp:b<i>` from the pooled-embedding concatenation down to one output;
    then the global `bias`. This is the only place the order is decided.
    """
    m = cfg.model_config
    shapes: dict[str, tuple[int, ...]] = {}
    for spec in cfg.feature_config:
        shapes[f"emb:{spec.name}"] = (spec.table_vocab_size, m.embedding_dim)
        shapes[f"fo:{spec.name}"] = (spec.table_vocab_size, 1)
    if m.model_type == "deepfm":
        dims = [len(cfg.feature_config) * m.embedding_dim, *m.mlp_hidden_dims, 1]
        for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            shapes[f"mlp:W{i}"] = (fan_in, fan_out)
            shapes[f"mlp:b{i}"] = (fan_out,)
    shapes["bias"] = (1,)
    return shapes


def init_params(cfg: PipelineConfig, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: embeddings U(-0.01, 0.01), MLP Glorot, rest zero.

    Draws follow tensor order (tables in config order, then MLP layers),
    so a seeded generator produces identical parameters on every run.
    """
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(cfg).items():
        if name.startswith("emb:"):
            tensors[name] = rng.uniform(-0.01, 0.01, size=shape).astype(_F32)
        elif name.startswith("mlp:W"):
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-limit, limit, size=shape).astype(_F32)
        else:
            tensors[name] = np.zeros(shape, dtype=_F32)
    m = cfg.model_config
    return ModelParams(
        specs=cfg.feature_config,
        model_type=m.model_type,
        embedding_dim=m.embedding_dim,
        tensors=tensors,
    )


def mlp_layers(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) of each MLP layer, input side first; empty for logreg."""
    t = params.tensors
    layers = []
    while f"mlp:W{len(layers)}" in t:
        i = len(layers)
        layers.append((t[f"mlp:W{i}"], t[f"mlp:b{i}"]))
    return layers


def is_sparse_tensor(name: str) -> bool:
    """Sparse tensors are row-addressable in deltas; dense ones ship whole."""
    return name.startswith("emb:") or name.startswith("fo:")


def copy_params(params: ModelParams, names: Iterable[str] | None = None) -> ModelParams:
    """Copy with fresh arrays for the `names` tensors (default all); the rest are shared."""
    tensors = dict(params.tensors)
    for name in tensors if names is None else names:
        tensors[name] = tensors[name].copy()
    return dataclasses.replace(params, tensors=tensors)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    if list(a.tensors) != list(b.tensors):
        return False
    return all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a.tensors.values(), b.tensors.values())
    )


def pooled_lookup(table: np.ndarray, ids: Sequence[int], pooling: str = "sum") -> np.ndarray:
    """Sum (or mean) of table rows, accumulated in id-list position order."""
    vocab_size, dim = table.shape
    out = np.zeros(dim, dtype=_F32)
    for row_id in ids:
        if not 0 <= row_id < vocab_size:
            raise IndexOutOfRange(row_id, vocab_size)
        out += table[row_id]
    if pooling == "mean" and ids:
        out /= _F32(len(ids))
    return out


def first_order_sum(table: np.ndarray, ids: Sequence[int]) -> np.float32:
    vocab_size = table.shape[0]
    total = _F32(0.0)
    for row_id in ids:
        if not 0 <= row_id < vocab_size:
            raise IndexOutOfRange(row_id, vocab_size)
        total = total + table[row_id, 0]
    return total


def fm_second_order(pooled: Sequence[np.ndarray]) -> np.float32:
    """Second-order FM term via 0.5 * sum_k[(sum_i e_ik)^2 - sum_i e_ik^2].

    Equal to the sum of pairwise dot products of the vectors. Vectors of
    shape (N, D) give one term per row; the sum over k runs in the same
    order for every row, so a row's term does not depend on the others.
    """
    vectors = list(pooled)
    if not vectors:
        return _F32(0.0)
    dim = vectors[0].shape[-1]
    total = np.zeros(vectors[0].shape, dtype=_F32)
    total_sq = np.zeros(vectors[0].shape, dtype=_F32)
    for v in vectors:
        if v.shape[-1] != dim:
            raise DimensionMismatch(f"expected dim {dim}, got {v.shape[-1]}")
        total += v
        total_sq += v * v
    # Transposed so that [k] is a scalar for one row and a column for N rows.
    terms = (total * total - total_sq).T
    acc = _F32(0.0)
    for k in range(dim):
        acc = acc + terms[k]
    return _F32(0.5) * acc


def compute_parts(
    params: ModelParams, fv: FeatureVector, specs: Sequence[FeatureSpec] | None = None
) -> dict[str, SlotPart]:
    """Per-slot pooled embeddings and first-order sums.

    This is the cacheable unit in serving: a slot's part depends only on
    that slot's features and tables, never on other slots. `specs`
    restricts computation to a subset of the model's slots (serving
    computes user-side, item-side, and cross parts separately).
    """
    known = set(params.slot_names)
    for name in set(fv.ids) | set(fv.dense):
        if name not in known:
            raise SlotMismatch(f"feature vector has undeclared slot {name!r}")
    need_pooled = params.model_type == "deepfm"
    parts: dict[str, SlotPart] = {}
    for spec in params.specs if specs is None else specs:
        emb = params.tensors[f"emb:{spec.name}"]
        fo = params.tensors[f"fo:{spec.name}"]
        if spec.kind == "numeric_raw":
            value = _F32(fv.dense.get(spec.name, 0.0))
            pooled = value * emb[0] if need_pooled else None
            parts[spec.name] = SlotPart(pooled, value * fo[0, 0])
        else:
            ids = fv.ids.get(spec.name, ())
            pooled = pooled_lookup(emb, ids, spec.pooling) if need_pooled else None
            parts[spec.name] = SlotPart(pooled, first_order_sum(fo, ids))
    return parts


def stack_parts(rows: Sequence[dict[str, SlotPart]]) -> dict[str, SlotPart]:
    """Stack the parts of N rows, slot by slot, for one `assemble` pass."""
    stacked: dict[str, SlotPart] = {}
    for name, first in rows[0].items():
        pooled = None
        if first.pooled is not None:
            pooled = np.array([r[name].pooled for r in rows], dtype=_F32)
        stacked[name] = SlotPart(pooled, np.array([r[name].fo for r in rows], dtype=_F32))
    return stacked


def _clip_probability(logit: float) -> float:
    p = 1.0 / (1.0 + math.exp(-logit))
    return min(max(p, PROB_CLIP), 1.0 - PROB_CLIP)


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w with one matrix-vector product per row of a 2-D x.

    A 2-D `x @ w` is a gemm whose blocking, and so its rounding, changes
    with the number of rows. Stacked as (N, 1, in) it runs the same gemv
    per row as a 1-D `x @ w`, so a row's bits do not depend on its batch.
    """
    if x.ndim == 1:
        return x @ w
    return (x[:, None, :] @ w)[:, 0, :]


def assemble(
    params: ModelParams,
    parts: dict[str, SlotPart],
    slot_scale: Mapping[str, float] | None = None,
) -> ForwardTrace:
    """Combine per-slot parts into the final logit and probability.

    `parts` holds one row (scalar `fo`, `pooled` of shape (D,)) or N rows
    stacked by `stack_parts`, which give (N,) logits and probabilities.
    Every operation is elementwise or per row, so each stacked row's
    result is bit-identical to assembling that row alone.

    `slot_scale` multiplies a slot's pooled embedding and first-order
    contribution before they enter the logit; the feature-selection gates
    drive this hook. Absent slots default to scale 1.
    """
    logit = params.tensors["bias"][0]
    for spec in params.specs:
        scale = _F32(1.0) if slot_scale is None else _F32(slot_scale.get(spec.name, 1.0))
        logit = logit + scale * parts[spec.name].fo

    scaled_pooled: list[np.ndarray] = []
    fm = _F32(0.0)
    mlp_input: np.ndarray | None = None
    pre_activations: list[np.ndarray] = []
    activations: list[np.ndarray] = []
    if params.model_type == "deepfm":
        for spec in params.specs:
            scale = _F32(1.0) if slot_scale is None else _F32(slot_scale.get(spec.name, 1.0))
            scaled_pooled.append(scale * parts[spec.name].pooled)
        fm = fm_second_order(scaled_pooled)
        logit = logit + fm
        mlp_input = (
            np.concatenate(scaled_pooled, axis=-1) if scaled_pooled else np.zeros(0, dtype=_F32)
        )
        x = mlp_input
        layers = mlp_layers(params)
        last = len(layers) - 1
        for i, (w, b) in enumerate(layers):
            pre = _rowwise_matmul(x, w) + b
            pre_activations.append(pre)
            x = pre if i == last else np.maximum(pre, _F32(0.0))
            activations.append(x)
        logit = logit + x.T[0]

    if np.ndim(logit):
        # math.exp per row: np.exp need not round like it.
        probability = np.array([_clip_probability(v) for v in logit.tolist()], dtype=_F32)
    else:
        logit = _F32(logit)
        probability = _F32(_clip_probability(float(logit)))
    return ForwardTrace(
        params=params,
        parts=parts,
        slot_scale=dict(slot_scale) if slot_scale is not None else None,
        scaled_pooled=scaled_pooled,
        fm=fm,
        mlp_input=mlp_input,
        pre_activations=pre_activations,
        activations=activations,
        logit=logit,
        probability=probability,
    )


def forward(
    params: ModelParams, fv: FeatureVector, slot_scale: Mapping[str, float] | None = None
) -> ForwardTrace:
    return assemble(params, compute_parts(params, fv), slot_scale)


def backward(trace: ForwardTrace, fv: FeatureVector, label: int, reg: float = 0.0) -> SparseGradient:
    """Exact gradient of logloss + reg * sum_touched ||row||^2.

    Sparse entries cover exactly the rows fv references; for the logreg
    model type the embedding tables never enter the loss, so only
    first-order rows and the bias appear.
    """
    params = trace.params
    d = _F32(trace.probability - _F32(label))

    grad = SparseGradient(
        emb_rows={},
        fo_rows={},
        dense={"bias": np.array([d], dtype=_F32)},
        slot_scale={} if trace.slot_scale is not None else None,
    )

    grad_input: np.ndarray | None = None
    layers = mlp_layers(params)
    if layers:
        delta = np.array([d], dtype=_F32)
        for i in range(len(layers) - 1, -1, -1):
            x = trace.activations[i - 1] if i > 0 else trace.mlp_input
            grad.dense[f"mlp:W{i}"] = np.outer(x, delta).astype(_F32)
            grad.dense[f"mlp:b{i}"] = delta.copy()
            delta = delta @ layers[i][0].T
            if i > 0:
                delta = delta * (trace.pre_activations[i - 1] > 0)
        grad_input = delta

    fm_total: np.ndarray | None = None
    if params.model_type == "deepfm":
        fm_total = np.zeros(params.embedding_dim, dtype=_F32)
        for u in trace.scaled_pooled:
            fm_total += u

    dim = params.embedding_dim
    for slot_index, spec in enumerate(params.specs):
        part = trace.parts[spec.name]
        scale = _F32(1.0)
        if trace.slot_scale is not None:
            scale = _F32(trace.slot_scale.get(spec.name, 1.0))

        grad_pooled = None
        grad_scaled = None
        if params.model_type == "deepfm":
            u = trace.scaled_pooled[slot_index]
            grad_scaled = d * (fm_total - u)
            if grad_input is not None:
                grad_scaled = grad_scaled + grad_input[slot_index * dim : (slot_index + 1) * dim]
            grad_pooled = scale * grad_scaled

        if grad.slot_scale is not None:
            gate = d * part.fo
            if grad_scaled is not None:
                gate = gate + float(np.dot(grad_scaled, part.pooled))
            grad.slot_scale[spec.name] = float(gate)

        emb_slot: dict[int, np.ndarray] = {}
        fo_slot: dict[int, np.float32] = {}
        if spec.kind == "numeric_raw":
            value = _F32(fv.dense.get(spec.name, 0.0))
            if value != 0.0:
                fo_slot[0] = d * scale * value
                if grad_pooled is not None:
                    emb_slot[0] = grad_pooled * value
        else:
            ids = fv.ids.get(spec.name, ())
            # The float32 reciprocal, not a division: dividing rounds differently.
            inv = _F32(1.0) / _F32(len(ids)) if spec.pooling == "mean" and ids else _F32(1.0)
            for row_id in ids:
                fo_slot[row_id] = fo_slot.get(row_id, _F32(0.0)) + d * scale
                if grad_pooled is not None:
                    contrib = grad_pooled * inv
                    if row_id in emb_slot:
                        emb_slot[row_id] = emb_slot[row_id] + contrib
                    else:
                        emb_slot[row_id] = contrib.copy()
        if reg > 0.0 and params.model_type == "deepfm":
            emb = params.tensors[f"emb:{spec.name}"]
            for row_id in list(emb_slot):
                emb_slot[row_id] = emb_slot[row_id] + _F32(2.0 * reg) * emb[row_id]
        if emb_slot:
            grad.emb_rows[spec.name] = emb_slot
        if fo_slot:
            grad.fo_rows[spec.name] = fo_slot
    return grad


def logloss(scores: Iterable[float], labels: Iterable[float]) -> float:
    """Mean binary cross-entropy in 64-bit floats, probabilities clipped."""
    total = 0.0
    count = 0
    for score, label in zip(scores, labels):
        p = min(max(float(score), PROB_CLIP), 1.0 - PROB_CLIP)
        total += -(label * math.log(p) + (1.0 - label) * math.log(1.0 - p))
        count += 1
    if count == 0:
        raise DimensionMismatch("empty score list")
    return total / count


def auc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties 0.5.

    Computed with average ranks: for P positives and N negatives,
    AUC = (sum of positive ranks - P(P+1)/2) / (P*N). With average ranks
    for tied scores this equals pairwise counting with half credit.
    """
    if len(scores) != len(labels):
        raise DimensionMismatch("scores and labels differ in length")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    pos = sum(1 for y in labels if y == 1)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise DegenerateLabels(logloss(scores, labels))
    rank_sum = 0.0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        avg_rank = (i + 1 + j) / 2.0
        for k in range(i, j):
            if labels[order[k]] == 1:
                rank_sum += avg_rank
        i = j
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def evaluate_metrics(scores: Sequence[float], labels: Sequence[float]) -> dict[str, float]:
    if len(scores) != len(labels):
        raise DimensionMismatch("scores and labels differ in length")
    return {"auc": auc(scores, labels), "logloss": logloss(scores, labels)}
