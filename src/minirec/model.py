"""DeepFM-style CTR model: lookup, FM interaction, MLP, manual gradients.

Parameters are 32-bit floats and every reduction runs in a fixed
sequential order, so a forward pass is bitwise reproducible on one
platform and scores survive the 32-bit serving wire format unchanged.

The forward pass is split into `compute_parts` (per-slot pooled embedding
and first-order sums) and `assemble` (FM + MLP + bias on top of the
parts). Both `forward` and `compute_parts` read a `FeatureBatch`, whose
per-slot CSR ids become the table rows each sample reads. Serving
computes the user, item and cross slots' parts in separate calls and
assembles them in one pass; its cache holds item features, not parts, so
cached and uncached scores run the same float operations. Both work on
N rows at once, and training's `backward` and the optimizer take a whole
batch in one pass; every row gets the bits its own one-row pass would
give.
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
    NonFinite,
    SlotMismatch,
)
from .features import FeatureBatch, FeatureSpec

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


class SlotRows(NamedTuple):
    """One slot's table rows over N samples in CSR form, flat in sample order.

    Entry e reads row `ids[e]` for sample `owner[e]` with weight `value[e]`:
    1 for a hashed or bucketized id, the raw value for numeric_raw, whose
    one row 0 every sample reads. `divisor[n]` is sample n's float32 entry
    count for mean pooling, 1 for a sample without entries.
    """

    ids: np.ndarray
    owner: np.ndarray
    value: np.ndarray
    divisor: np.ndarray


class SlotPart(NamedTuple):
    """Per-slot forward intermediates of N rows: pooled embeddings and first-order sums.

    `pooled` is (N, D), or None for the logreg model type, which never
    reads the embedding tables; `fo` is (N,).
    """

    pooled: np.ndarray | None
    fo: np.ndarray


@dataclass
class ForwardTrace:
    """Intermediates of `assemble` over N rows; `logit` and `probability` are (N,).

    `slot_scale` holds each slot's float32 scale, a scalar or one per row;
    `rows` is set by `forward` for `backward`.
    """

    params: ModelParams
    parts: dict[str, SlotPart]
    slot_scale: dict[str, np.ndarray] | None
    scaled_pooled: list[np.ndarray]
    mlp_input: np.ndarray | None
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logit: np.ndarray
    probability: np.ndarray
    rows: dict[str, SlotRows] | None = None


@dataclass
class SparseRows:
    """Gradient of some rows of one table: sorted unique row ids, one value row each."""

    ids: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SparseGradient:
    """Per-slot rows of the emb/fo tables, and whole dense tensors by name.

    `slot_scale`, present when the forward pass had slot scales, holds the
    gradient of each slot's scale, one per sample.
    """

    emb_rows: dict[str, SparseRows]
    fo_rows: dict[str, SparseRows]
    dense: dict[str, np.ndarray]
    slot_scale: dict[str, np.ndarray] | None = None


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


def _fold(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum `values` into `size` bins by `index`; each bin is a left fold from zero in input order."""
    out = np.zeros((size, *values.shape[1:]), dtype=_F32)
    np.add.at(out, index, values)
    return out


def _sum_samples(values: np.ndarray) -> np.ndarray:
    """Sum over the first axis as a left fold from zero in row order.

    np.sum may sum pairwise along a contiguous axis, which rounds differently.
    """
    out = np.zeros(values.shape[1:], dtype=_F32)
    for row in values:
        out += row
    return out


def csr_rows(ids: np.ndarray, offsets: np.ndarray, vocab_size: int) -> SlotRows:
    """SlotRows of one hashed or bucketized slot from its int64 CSR ids.

    Raises IndexOutOfRange on an id outside the slot's table.
    """
    # As unsigned, a negative id is larger than any vocab_size.
    if len(ids) and ids.view(np.uint64).max() >= vocab_size:
        raise IndexOutOfRange(int(ids[(ids < 0) | (ids >= vocab_size)][0]), vocab_size)
    counts = offsets[1:] - offsets[:-1]
    return SlotRows(
        ids=ids,
        owner=np.arange(len(counts)).repeat(counts),
        value=np.ones(len(ids), dtype=_F32),
        divisor=np.maximum(counts, 1).astype(_F32),
    )


def pooled_lookup(table: np.ndarray, rows: SlotRows, pooling: str = "sum") -> np.ndarray:
    """(N, D) sums (or means) of each sample's rows, accumulated in id-list position order."""
    out = _fold(rows.owner, table[rows.ids], len(rows.divisor))
    if pooling == "mean":
        out /= rows.divisor[:, None]
    return out


def first_order_sum(table: np.ndarray, rows: SlotRows) -> np.ndarray:
    """(N,) sums of each sample's first-order weights, in id-list position order."""
    return _fold(rows.owner, table[rows.ids, 0], len(rows.divisor))


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


def _slot_rows(
    params: ModelParams, batch: FeatureBatch, specs: Sequence[FeatureSpec] | None = None
) -> dict[str, SlotRows]:
    """Each slot's table rows over the batch's samples, ids range-checked.

    A numeric_raw slot reads its single row 0 once per sample, weighted by
    the raw value. `specs` restricts the result to a subset of the slots,
    each of which the batch must hold.
    """
    known = set(params.slot_names)
    for name in (*batch.ids, *batch.dense):
        if name not in known:
            raise SlotMismatch(f"feature batch has undeclared slot {name!r}")
    n = len(batch)
    rows: dict[str, SlotRows] = {}
    for spec in params.specs if specs is None else specs:
        held = batch.dense if spec.kind == "numeric_raw" else batch.ids
        if spec.name not in held:
            raise SlotMismatch(f"feature batch has no slot {spec.name!r}")
        if spec.kind == "numeric_raw":
            value = batch.dense[spec.name].astype(_F32)
            rows[spec.name] = SlotRows(np.zeros(n, np.intp), np.arange(n), value, np.ones(n, _F32))
        else:
            vocab_size = params.tensors[f"fo:{spec.name}"].shape[0]
            rows[spec.name] = csr_rows(*batch.ids[spec.name], vocab_size)
    return rows


def _pool(params: ModelParams, rows: dict[str, SlotRows]) -> dict[str, SlotPart]:
    need_pooled = params.model_type == "deepfm"
    parts: dict[str, SlotPart] = {}
    for spec in params.specs:
        if spec.name not in rows:
            continue
        r = rows[spec.name]
        emb = params.tensors[f"emb:{spec.name}"]
        fo = params.tensors[f"fo:{spec.name}"]
        if spec.kind == "numeric_raw":
            pooled = r.value[:, None] * emb[0] if need_pooled else None
            parts[spec.name] = SlotPart(pooled, r.value * fo[0, 0])
        else:
            pooled = pooled_lookup(emb, r, spec.pooling) if need_pooled else None
            parts[spec.name] = SlotPart(pooled, first_order_sum(fo, r))
    return parts


def compute_parts(
    params: ModelParams, batch: FeatureBatch, specs: Sequence[FeatureSpec] | None = None
) -> dict[str, SlotPart]:
    """Per-slot pooled embeddings and first-order sums of the batch's N samples, stacked.

    A slot's part depends only on that slot's features and tables, never
    on other slots, and a row's part never on the other rows. `specs`
    restricts computation to a subset of the model's slots: serving
    computes the user-side, item-side and cross parts of a request in
    three calls, over features that may come from its item cache. Parts
    read the parameters, so they are computed afresh for every request.
    """
    return _pool(params, _slot_rows(params, batch, specs))


def _clip_probability(logit: float) -> float:
    # Past -700 the probability clips to PROB_CLIP anyway; math.exp(709.8) overflows.
    p = 1.0 / (1.0 + math.exp(min(-logit, 700.0)))
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
    slot_scale: Mapping[str, float | np.ndarray] | None = None,
) -> ForwardTrace:
    """Combine the stacked per-slot parts of N rows into (N,) logits and probabilities.

    Every operation is elementwise or per row, so each row's result is
    bit-identical to assembling that row alone.

    `slot_scale` multiplies a slot's pooled embedding and first-order
    contribution before they enter the logit: one scale for every row, or
    an (N,) array of per-row scales. The feature-selection gates drive this
    hook. Absent slots default to scale 1.
    """
    scales = None
    if slot_scale is not None:
        scales = {s.name: np.asarray(slot_scale.get(s.name, 1.0), dtype=_F32) for s in params.specs}
    logit = params.tensors["bias"][0]
    for spec in params.specs:
        fo = parts[spec.name].fo
        logit = logit + (fo if scales is None else scales[spec.name] * fo)

    scaled_pooled: list[np.ndarray] = []
    mlp_input: np.ndarray | None = None
    pre_activations: list[np.ndarray] = []
    activations: list[np.ndarray] = []
    if params.model_type == "deepfm":
        for spec in params.specs:
            pooled = parts[spec.name].pooled
            scaled_pooled.append(pooled if scales is None else scales[spec.name][..., None] * pooled)
        logit = logit + fm_second_order(scaled_pooled)
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

    # math.exp per row: np.exp need not round like it.
    probability = np.array([_clip_probability(v) for v in logit.tolist()], dtype=_F32)
    return ForwardTrace(
        params=params,
        parts=parts,
        slot_scale=scales,
        scaled_pooled=scaled_pooled,
        mlp_input=mlp_input,
        pre_activations=pre_activations,
        activations=activations,
        logit=logit,
        probability=probability,
    )


def forward(
    params: ModelParams,
    batch: FeatureBatch,
    slot_scale: Mapping[str, float | np.ndarray] | None = None,
) -> ForwardTrace:
    """Forward pass over the batch's N samples; one sample is a one-row batch."""
    rows = _slot_rows(params, batch)
    trace = assemble(params, _pool(params, rows), slot_scale)
    trace.rows = rows
    return trace


def backward(trace: ForwardTrace, labels: Sequence[int], reg: float = 0.0) -> SparseGradient:
    """Exact gradient of the batch mean of logloss + reg * sum_touched ||row||^2.

    `trace` comes from `forward` over the samples that `labels` label.
    Every gradient is a left fold from zero over the samples in batch
    order, times the float32 1/N. Sparse entries cover exactly the rows the
    samples reference; for the logreg model type the embedding tables never
    enter the loss, so only first-order rows and the bias appear. With
    gates on, `slot_scale` holds each sample's own gate gradient, unscaled.
    """
    params = trace.params
    n = len(trace.logit)
    mean = _F32(1.0 / n)
    d = trace.probability - np.asarray(labels, dtype=_F32)

    grad = SparseGradient(
        emb_rows={},
        fo_rows={},
        dense={"bias": _sum_samples(d[:, None]) * mean},
        slot_scale={} if trace.slot_scale is not None else None,
    )

    grad_input: np.ndarray | None = None
    layers = mlp_layers(params)
    if layers:
        delta = d[:, None]
        for i in range(len(layers) - 1, -1, -1):
            x = trace.activations[i - 1] if i > 0 else trace.mlp_input
            grad.dense[f"mlp:W{i}"] = _sum_samples(x[:, :, None] * delta[:, None, :]) * mean
            grad.dense[f"mlp:b{i}"] = _sum_samples(delta) * mean
            delta = _rowwise_matmul(delta, layers[i][0].T)
            if i > 0:
                delta = delta * (trace.pre_activations[i - 1] > 0)
        grad_input = delta

    fm_total: np.ndarray | None = None
    if params.model_type == "deepfm":
        fm_total = np.zeros((n, params.embedding_dim), dtype=_F32)
        for u in trace.scaled_pooled:
            fm_total += u

    dim = params.embedding_dim
    for slot_index, spec in enumerate(params.specs):
        part = trace.parts[spec.name]
        scale = None if trace.slot_scale is None else trace.slot_scale[spec.name]

        grad_pooled = None
        grad_scaled = None
        if params.model_type == "deepfm":
            u = trace.scaled_pooled[slot_index]
            grad_scaled = d[:, None] * (fm_total - u)
            if grad_input is not None:
                grad_scaled = grad_scaled + grad_input[:, slot_index * dim : (slot_index + 1) * dim]
            grad_pooled = grad_scaled if scale is None else scale[..., None] * grad_scaled

        if grad.slot_scale is not None:
            gate = d * part.fo
            if grad_scaled is not None:
                # One dot per row: a batched reduction need not round like it.
                gate = gate + np.array([np.dot(g, p) for g, p in zip(grad_scaled, part.pooled)], dtype=_F32)
            grad.slot_scale[spec.name] = gate

        r = trace.rows[spec.name]
        # A numeric_raw value of zero reads its row but has no gradient there.
        touched = r.value != 0.0
        owner, value = r.owner[touched], r.value[touched]
        if not len(owner):
            continue
        # Entries fold per (sample, row) pair in id-list order: a sample's
        # own gradient of the row, where the regularizer joins once. Pairs
        # sort sample-major, so each row then folds its samples in order.
        vocab_size = params.tensors[f"fo:{spec.name}"].shape[0]
        pairs, pair_of_entry = np.unique(owner * vocab_size + r.ids[touched], return_inverse=True)
        pair_rows = pairs % vocab_size
        ids, row_of_pair = np.unique(pair_rows, return_inverse=True)
        ds = d if scale is None else d * scale
        fo_pair = _fold(pair_of_entry, ds[owner] * value, len(pairs))
        grad.fo_rows[spec.name] = SparseRows(ids, _fold(row_of_pair, fo_pair, len(ids))[:, None] * mean)
        if grad_pooled is not None:
            weight = value
            if spec.pooling == "mean" and spec.kind != "numeric_raw":
                # The float32 reciprocal, not a division: dividing rounds differently.
                weight = _F32(1.0) / r.divisor[owner]
            emb_pair = _fold(pair_of_entry, grad_pooled[owner] * weight[:, None], len(pairs))
            if reg > 0.0:
                emb_pair += _F32(2.0 * reg) * params.tensors[f"emb:{spec.name}"][pair_rows]
            grad.emb_rows[spec.name] = SparseRows(ids, _fold(row_of_pair, emb_pair, len(ids)) * mean)
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
    A NaN score raises NonFinite.
    """
    if len(scores) != len(labels):
        raise DimensionMismatch("scores and labels differ in length")
    # NaN equals nothing, not even itself, so the tie scan below would never end.
    nan = next((s for s in scores if math.isnan(s)), None)
    if nan is not None:
        raise NonFinite(nan)
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
