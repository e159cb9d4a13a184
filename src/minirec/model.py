"""DeepFM-style CTR model: lookup, FM interaction, MLP, manual gradients.

Parameters are 32-bit floats and every reduction runs in a fixed
sequential order, so a forward pass is bitwise reproducible on one
platform and scores survive the 32-bit serving wire format unchanged.

Every parameter lives in one of three arenas (`ArenaLayout`): the slots'
embedding tables are row ranges of one `emb` array of shape (total rows,
D), their first-order tables the same row ranges of one `fo` array of
shape (total rows, 1), and the MLP weights and the bias lie end to end in
one flat `dense` vector. Slot i's tables start at the global row
`base[i]`, so training works on global rows: `backward` dedups every
slot's rows at once, and the optimizer and the delta stream make one
update or one gather per arena. `ModelParams.tensors` names a view of
each table and dense tensor for the callers that read one by name.

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
from dataclasses import dataclass, field
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


class ArenaLayout:
    """Where each tensor of `tensor_shapes` lies in the three parameter arenas.

    Slot i's `emb:` and `fo:` tables are rows `base[i]` to `base[i + 1]` of
    the emb and fo arenas, slots in config order, so row r of either table
    is the global row `base[i] + r` of its arena. The dense tensors lie end
    to end, in tensor order, in the flat dense vector. `spans` gives each
    tensor's (arena, start, stop), in rows or in values.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        self.spans: dict[str, tuple[str, int, int]] = {}
        bases: dict[str, int] = {}
        rows = size = 0
        for name, shape in self.shapes.items():
            arena, _, slot = name.partition(":")
            if is_sparse_tensor(name):
                if slot not in bases:
                    bases[slot] = rows
                    rows += shape[0]
                self.spans[name] = (arena, bases[slot], bases[slot] + shape[0])
            else:
                self.spans[name] = ("dense", size, size + math.prod(shape))
                size += math.prod(shape)
        self.rows, self.dense_size = rows, size
        self.base = np.array([*bases.values(), rows], dtype=np.int64)
        index = {name: i for i, name in enumerate(self.shapes)}
        # Per sparse arena, the tensor index of each slot's table, in slot order.
        self.table_index = {
            arena: np.array([index[f"{arena}:{slot}"] for slot in bases], dtype=np.int64)
            for arena in ("emb", "fo")
        }
        self.slots = tuple(bases)
        self.dense_spans = [(index[name], start, stop)
                            for name, (arena, start, stop) in self.spans.items() if arena == "dense"]

    def views(self, emb: np.ndarray, fo: np.ndarray, dense: np.ndarray) -> dict[str, np.ndarray]:
        """Every tensor by name, as a view into its arena."""
        arenas = {"emb": emb, "fo": fo, "dense": dense}
        return {name: arenas[arena][start:stop].reshape(self.shapes[name])
                for name, (arena, start, stop) in self.spans.items()}

    def locate(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slot position and the table row of each global row."""
        slot = np.searchsorted(self.base, rows, side="right") - 1
        return slot, rows - self.base[slot]


@dataclass
class ModelParams:
    """Model state: the three arenas of `layout`, and a view of every tensor by name.

    `emb` is (total rows, D), `fo` is (total rows, 1) and `dense` is flat.
    `tensors` lists every tensor in `tensor_shapes` order as a view into
    its arena, so writes through either show in both. A tensor's position
    in `tensors` is its wire index in delta messages and its position in
    the artifact payload.
    """

    specs: tuple[FeatureSpec, ...]
    model_type: str
    embedding_dim: int
    layout: ArenaLayout
    emb: np.ndarray
    fo: np.ndarray
    dense: np.ndarray
    model_version: int = 0
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tensors = self.layout.views(self.emb, self.fo, self.dense)

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


class ArenaEntries(NamedTuple):
    """Every slot's entries over N samples in one flat list, slot after slot.

    Entry e reads the global row `row[e]` of the emb and fo arenas for
    sample `owner[e]` of the slot at position `slot[e]`. `value[e]` weighs
    its first-order row; `weight[e]` weighs its embedding row in the pooled
    sum: the value, or the float32 reciprocal of the sample's entry count
    in a mean-pooled slot.
    """

    row: np.ndarray
    owner: np.ndarray
    slot: np.ndarray
    value: np.ndarray
    weight: np.ndarray


@dataclass
class ForwardTrace:
    """Intermediates of `assemble` over N rows; `logit` and `probability` are (N,).

    Per-slot intermediates are sequences in slot order: `fo` holds (N,)
    arrays, and `pooled` and `scaled_pooled` (N, D) arrays, or are None
    for logreg. `scale` holds each slot's float32 scale for each row,
    (N,), or is None without slot scales. `entries` is set by `forward`
    for `backward`.
    """

    params: ModelParams
    fo: Sequence[np.ndarray]
    pooled: Sequence[np.ndarray] | None
    scale: list[np.ndarray] | None
    scaled_pooled: Sequence[np.ndarray] | None
    mlp_input: np.ndarray | None
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logit: np.ndarray
    probability: np.ndarray
    entries: ArenaEntries | None = None


@dataclass
class SparseRows:
    """Gradient of some rows of a table or an arena: sorted unique row ids, one value row each."""

    ids: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SparseGradient:
    """Gradient in the arena layout: global rows of the emb and fo arenas, the whole dense vector.

    `emb_rows`, `fo_rows` and `dense_tensors` are the same gradient per
    table and per tensor by name, for callers that read one by name.
    `slot_scale`, present when the forward pass had slot scales, holds the
    gradient of each slot's scale, one per sample.
    """

    layout: ArenaLayout
    emb: SparseRows
    fo: SparseRows
    dense: np.ndarray
    slot_scale: dict[str, np.ndarray] | None = None

    def _by_table(self, rows: SparseRows) -> dict[str, SparseRows]:
        """Each slot's rows of `rows` as table rows; slots without rows are left out."""
        base = self.layout.base
        cuts = np.searchsorted(rows.ids, base).tolist()
        return {slot: SparseRows(rows.ids[a:b] - base[i], rows.values[a:b])
                for i, (slot, a, b) in enumerate(zip(self.layout.slots, cuts, cuts[1:])) if b > a}

    @property
    def emb_rows(self) -> dict[str, SparseRows]:
        return self._by_table(self.emb)

    @property
    def fo_rows(self) -> dict[str, SparseRows]:
        return self._by_table(self.fo)

    @property
    def dense_tensors(self) -> dict[str, np.ndarray]:
        return {name: self.dense[start:stop].reshape(self.layout.shapes[name])
                for name, (arena, start, stop) in self.layout.spans.items() if arena == "dense"}


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


def empty_params(cfg: PipelineConfig) -> ModelParams:
    """Parameters of the config's shapes in unwritten arenas; the caller writes every tensor."""
    m = cfg.model_config
    layout = ArenaLayout(tensor_shapes(cfg))
    return ModelParams(
        specs=cfg.feature_config,
        model_type=m.model_type,
        embedding_dim=m.embedding_dim,
        layout=layout,
        emb=np.empty((layout.rows, m.embedding_dim), dtype=_F32),
        fo=np.empty((layout.rows, 1), dtype=_F32),
        dense=np.empty(layout.dense_size, dtype=_F32),
    )


def init_params(cfg: PipelineConfig, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: embeddings U(-0.01, 0.01), MLP Glorot, rest zero.

    Draws follow tensor order (tables in config order, then MLP layers),
    each into its tensor's slice of an arena, so a seeded generator
    produces identical parameters on every run.
    """
    params = empty_params(cfg)
    for name, tensor in params.tensors.items():
        if name.startswith("emb:"):
            tensor[...] = rng.uniform(-0.01, 0.01, size=tensor.shape)
        elif name.startswith("mlp:W"):
            limit = math.sqrt(6.0 / (tensor.shape[0] + tensor.shape[1]))
            tensor[...] = rng.uniform(-limit, limit, size=tensor.shape)
        else:
            tensor[...] = 0.0
    return params


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


def copy_params(params: ModelParams, arenas: Iterable[str] = ("emb", "fo", "dense")) -> ModelParams:
    """Copy with fresh arrays for the named arenas (default all); the rest are shared."""
    return dataclasses.replace(params, **{arena: getattr(params, arena).copy() for arena in arenas})


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Same tensors in the same order, and bit-equal arenas."""
    if list(a.layout.shapes.items()) != list(b.layout.shapes.items()):
        return False
    return all(np.array_equal(getattr(a, arena), getattr(b, arena)) for arena in ("emb", "fo", "dense"))


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
    pooled, fo = zip(*[parts[spec.name] for spec in params.specs])
    scale = None
    if slot_scale is not None:
        scale = [np.broadcast_to(np.asarray(slot_scale.get(spec.name, 1.0), dtype=_F32), fo[0].shape)
                 for spec in params.specs]
    logit = params.tensors["bias"][0]
    for term in fo if scale is None else [s * f for s, f in zip(scale, fo)]:
        logit = logit + term

    scaled_pooled: Sequence[np.ndarray] | None = None
    mlp_input: np.ndarray | None = None
    pre_activations: list[np.ndarray] = []
    activations: list[np.ndarray] = []
    if params.model_type == "deepfm":
        scaled_pooled = pooled if scale is None else [s[:, None] * p for s, p in zip(scale, pooled)]
        logit = logit + fm_second_order(scaled_pooled)
        mlp_input = np.concatenate(scaled_pooled, axis=-1)
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
        fo=fo,
        pooled=pooled if params.model_type == "deepfm" else None,
        scale=scale,
        scaled_pooled=scaled_pooled,
        mlp_input=mlp_input,
        pre_activations=pre_activations,
        activations=activations,
        logit=logit,
        probability=probability,
    )


def _arena_entries(params: ModelParams, rows: dict[str, SlotRows]) -> ArenaEntries:
    """The SlotRows of every slot, in slot order, as one ArenaEntries."""
    slots = [rows[spec.name] for spec in params.specs]
    slot = np.repeat(np.arange(len(slots)), [len(r.ids) for r in slots])
    weight = [
        # The float32 reciprocal, not a division: dividing rounds differently.
        _F32(1.0) / r.divisor[r.owner] if spec.pooling == "mean" and spec.kind != "numeric_raw" else r.value
        for spec, r in zip(params.specs, slots)
    ]
    return ArenaEntries(
        row=np.concatenate([r.ids for r in slots]) + params.layout.base[slot],
        owner=np.concatenate([r.owner for r in slots]),
        slot=slot,
        value=np.concatenate([r.value for r in slots]),
        weight=np.concatenate(weight),
    )


def forward(
    params: ModelParams,
    batch: FeatureBatch,
    slot_scale: Mapping[str, float | np.ndarray] | None = None,
) -> ForwardTrace:
    """Forward pass over the batch's N samples; one sample is a one-row batch."""
    rows = _slot_rows(params, batch)
    trace = assemble(params, _pool(params, rows), slot_scale)
    trace.entries = _arena_entries(params, rows)
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

    scale = None if trace.scale is None else np.stack(trace.scale)
    # Dense gradients from the output side in, so reversed they are in tensor order.
    dense = [_sum_samples(d[:, None]) * mean]
    grad_pooled: np.ndarray | None = None
    grad_scaled: np.ndarray | None = None
    if params.model_type == "deepfm":
        layers = mlp_layers(params)
        delta = d[:, None]
        for i in range(len(layers) - 1, -1, -1):
            x = trace.activations[i - 1] if i > 0 else trace.mlp_input
            dense.append(_sum_samples(delta) * mean)
            dense.append((_sum_samples(x[:, :, None] * delta[:, None, :]) * mean).reshape(-1))
            delta = _rowwise_matmul(delta, layers[i][0].T)
            if i > 0:
                delta = delta * (trace.pre_activations[i - 1] > 0)
        # The slots' scaled pooled embeddings as (S, N, D), folded over the slots in order.
        u = np.stack(trace.scaled_pooled)
        fm_total = np.add.reduce(u, axis=0, initial=_F32(0.0))
        grad_scaled = d[None, :, None] * (fm_total - u) + delta.reshape(n, len(u), -1).transpose(1, 0, 2)
        grad_pooled = grad_scaled if scale is None else scale[..., None] * grad_scaled

    slot_scale = None
    if scale is not None:
        gate = d * np.stack(trace.fo)
        if grad_scaled is not None:
            dim = params.embedding_dim
            pooled = np.stack(trace.pooled).reshape(-1, dim)
            # One dot per (slot, row): a batched reduction need not round like it.
            dots = [np.dot(g, p) for g, p in zip(grad_scaled.reshape(-1, dim), pooled)]
            gate = gate + np.array(dots, dtype=_F32).reshape(gate.shape)
        slot_scale = dict(zip(params.slot_names, gate))

    e = trace.entries
    # A numeric_raw value of zero reads its row but has no gradient there.
    touched = e.value != 0.0
    row, owner, slot, value = e.row[touched], e.owner[touched], e.slot[touched], e.value[touched]
    # Entries fold per (row, sample) pair in id-list order: a sample's own
    # gradient of the row, where the regularizer joins once. Pairs sort
    # row-major, so each row then folds its samples in batch order.
    pairs, pair_of_entry = np.unique(row * n + owner, return_inverse=True)
    pair_rows = pairs // n
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pair_rows[1:] != pair_rows[:-1]
    ids, row_of_pair = pair_rows[first], np.cumsum(first) - 1
    ds = d[owner] if scale is None else d[owner] * scale[slot, owner]
    fo_pair = _fold(pair_of_entry, ds * value, len(pairs))
    fo = SparseRows(ids, _fold(row_of_pair, fo_pair, len(ids))[:, None] * mean)
    emb = SparseRows(ids[:0], np.zeros((0, params.embedding_dim), dtype=_F32))
    if grad_pooled is not None:
        emb_pair = _fold(pair_of_entry, grad_pooled[slot, owner] * e.weight[touched][:, None], len(pairs))
        if reg > 0.0:
            emb_pair += _F32(2.0 * reg) * params.emb[pair_rows]
        emb = SparseRows(ids, _fold(row_of_pair, emb_pair, len(ids)) * mean)
    return SparseGradient(params.layout, emb, fo, np.concatenate(dense[::-1]), slot_scale)


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
