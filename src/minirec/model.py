"""DeepFM-style CTR model: lookup, FM interaction, MLP, manual gradients.

Parameters are 32-bit floats and every reduction runs in a fixed
sequential order, so a forward pass is bitwise reproducible on one
platform and scores survive the 32-bit serving wire format unchanged.

Every parameter lives in one of three arenas (`ArenaLayout`): the slots'
embedding tables are row ranges of one `emb` array of shape (total rows,
D), their first-order tables the same row ranges of one `fo` array of
shape (total rows, 1), and the MLP weights and the bias lie end to end in
one flat `dense` vector. Slot i's tables start at the global row
`base[i]`, so training works on global rows: a step's rows of every
slot are deduplicated at once, the optimizer makes one update for the
emb and fo arenas together, and the delta stream one gather per arena.
`ModelParams.tensors` names a view of each table and dense tensor for
the callers that read one by name.

The forward pass is split into `compute_parts` (every slot's pooled
embedding and first-order sum) and `assemble` (FM + MLP + bias on top of
the parts, and the probabilities of every row in one pass). Per-slot
values are slot-major arrays for S slots and N rows, from pooling to the
gate gradients: (S, N, D) pooled embeddings, and (S, N) first-order
sums, slot scales and gate gradients. Features become
one `ArenaEntries` list in `lookup_entries`: every table row that the
samples read, as a global arena row, weighed by its value and binned by
(slot, sample). Pooling is one fold per arena over those bins. Training
plans an epoch once: `plan_steps` sorts the shuffled batch's entries
sample-major, one stretch per step, and finds each step's (row, sample)
pairs, so `forward` pools a planned step and `backward` folds its
gradient by the planned pairs; both only gather, fold and multiply.
Serving computes a request's parts over every slot in
one call and assembles them in one pass; its cache holds item features,
not parts, so cached and uncached scores run the same float operations.
Both work on N rows at once, and training's `backward` and the optimizer
take a whole batch in one pass; every row gets the bits its own one-row
pass would give.
"""

from __future__ import annotations

import itertools
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
        # Each slot's first global row and table size, by slot name.
        self.tables = {slot: (bases[slot], self.shapes[f"fo:{slot}"][0]) for slot in bases}
        self.dense_spans = [(index[name], start, stop)
                            for name, (arena, start, stop) in self.spans.items() if arena == "dense"]

    def views(self, emb: np.ndarray, fo: np.ndarray, dense: np.ndarray) -> dict[str, np.ndarray]:
        """Every tensor by name, as a view into its arena."""
        arenas = {"emb": emb, "fo": fo, "dense": dense}
        return {name: arenas[arena][start:stop].reshape(self.shapes[name])
                for name, (arena, start, stop) in self.spans.items()}

    def split(self, rows: np.ndarray) -> list[tuple[int, int, int]]:
        """(slot position, start, stop) of each slot's stretch of the sorted global rows; empty ones left out."""
        cuts = np.searchsorted(rows, self.base).tolist()
        return [(i, a, b) for i, (a, b) in enumerate(zip(cuts, cuts[1:])) if b > a]


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


class Parts(NamedTuple):
    """Every slot's forward intermediates over N rows, slot-major, slots in config order.

    `fo` is the (S, N) first-order sums; `pooled` is the (S, N, D) pooled
    embeddings, or None for the logreg model type, which never reads the
    embedding tables.
    """

    fo: np.ndarray
    pooled: np.ndarray | None


class ArenaEntries(NamedTuple):
    """The table rows that N samples read, as one flat list.

    Entry e reads the global row `row[e]` of the emb and fo arenas into the
    bin `bin[e]`, which is `k * N + sample` for the model's k-th slot, and
    each bin's entries are in id-list order. `lookup_entries` lists them
    slot after slot, a step of `plan_steps` sample after sample. `value[e]`
    weighs the row: 1 for a hashed or bucketized id, the raw value for
    numeric_raw, whose one row every sample reads. `divisor[b]` is bin b's
    float32 entry count in a mean-pooled slot; it is 1 in a sum-pooled
    slot or an empty bin.
    """

    row: np.ndarray
    bin: np.ndarray
    value: np.ndarray
    divisor: np.ndarray


class StepEntries(NamedTuple):
    """One training step's `n` samples: the entries `forward` pools and the pair map `backward` folds by.

    The other fields cover the entries with a nonzero value, the ones with
    a gradient, in `entries` order: each one's `bin`, `sample`, `value`
    and pooling `weight` (value over its bin's divisor), and `pair`, its
    (row, sample) pair. Pairs sort by row, then by sample: `pair_row` is
    each pair's global row, `ids` the sorted distinct rows and `pair_id`
    the position of each pair's row in `ids`.
    """

    n: int
    entries: ArenaEntries
    bin: np.ndarray
    sample: np.ndarray
    value: np.ndarray
    weight: np.ndarray
    pair: np.ndarray
    pair_row: np.ndarray
    pair_id: np.ndarray
    ids: np.ndarray


@dataclass
class ForwardTrace:
    """Intermediates of `assemble` over N rows; `logit` and `probability` are (N,).

    Per-slot intermediates are slot-major arrays, slots in config order:
    `fo` is (S, N), and `pooled` and `scaled_pooled` are (S, N, D), or None
    for logreg. `scale` is the (S, N) float32 slot scales, or None without
    them. `step` is set by `forward` for `backward`: the step it pooled.
    """

    params: ModelParams
    fo: np.ndarray
    pooled: np.ndarray | None
    scale: np.ndarray | None
    scaled_pooled: np.ndarray | None
    mlp_input: np.ndarray | None
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logit: np.ndarray
    probability: np.ndarray
    step: StepEntries | None = None


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

    `emb_rows` and `fo_rows` are the same sparse gradient per table by
    name, for callers that read one by name.
    `slot_scale`, present when the forward pass had slot scales, is the
    (S, N) gradient of each slot's scale for each sample.
    """

    layout: ArenaLayout
    emb: SparseRows
    fo: SparseRows
    dense: np.ndarray
    slot_scale: np.ndarray | None = None

    def _by_table(self, rows: SparseRows) -> dict[str, SparseRows]:
        """Each slot's rows of `rows` as table rows; slots without rows are left out."""
        layout = self.layout
        return {layout.slots[i]: SparseRows(rows.ids[a:b] - layout.base[i], rows.values[a:b])
                for i, a, b in layout.split(rows.ids)}

    @property
    def emb_rows(self) -> dict[str, SparseRows]:
        return self._by_table(self.emb)

    @property
    def fo_rows(self) -> dict[str, SparseRows]:
        return self._by_table(self.fo)


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


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Same tensors in the same order, and bit-equal arenas."""
    if list(a.layout.shapes.items()) != list(b.layout.shapes.items()):
        return False
    return all(np.array_equal(getattr(a, arena), getattr(b, arena)) for arena in ("emb", "fo", "dense"))


def _fold(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum `values` into `size` bins by `index`; each bin is a left fold from zero in input order.

    (E, D) values fold as one 1-D np.add.at over the flat positions
    `bin * D + k`: each element still folds in input order, so the bits
    are those of a 2-D np.add.at, which is several times slower.
    """
    if values.ndim == 1:
        out = np.zeros(size, dtype=_F32)
        np.add.at(out, index, values)
        return out
    dim = values.shape[1]
    out = np.zeros(size * dim, dtype=_F32)
    np.add.at(out, (index[:, None] * dim + np.arange(dim)).reshape(-1), values.reshape(-1))
    return out.reshape(size, dim)


def _sum_samples(values: np.ndarray) -> np.ndarray:
    """Sum over the first axis as a left fold from zero in row order.

    np.add.reduce over the first axis of a C-ordered array adds one whole
    row after another into the result, unless a row is a single value: then
    it sums the column pairwise, which rounds differently. np.cumsum adds
    in order; its fold starts at the first row, not at zero, which differs
    only where every row is -0.0, and adding zero gives the +0.0 a fold
    from zero would. `_sum_outer` gives these bits for a sum of outer
    products without building the (N, a, b) products.
    """
    if values[0].size == 1:
        return np.cumsum(values, axis=0)[-1] + _F32(0.0)
    return np.add.reduce(np.ascontiguousarray(values), axis=0, initial=_F32(0.0))


def _sum_outer(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Sum over n of outer(x[n], delta[n]), with the bits of `_sum_samples` over the (N, a, b) products.

    np.einsum without optimize runs numpy's own iterator, never a BLAS
    call. On C-ordered inputs the output's zero stride on the sample
    axis keeps that axis outermost, so each element takes one separately
    rounded multiply and add per sample, in order, from zero. A 1x1
    output makes the sample axis einsum's inner loop, which sums with
    several accumulators, so it is folded from the products instead.
    """
    if x.shape[1] == delta.shape[1] == 1:
        return _sum_samples(x[:, :, None] * delta[:, None, :])
    return np.einsum("na,nb->ab", np.ascontiguousarray(x), np.ascontiguousarray(delta), optimize=False)


def fm_second_order(pooled: np.ndarray) -> np.float32 | np.ndarray:
    """Second-order FM term via 0.5 * sum_k[(sum_i e_ik)^2 - sum_i e_ik^2].

    Equal to the sum of pairwise dot products of the S vectors along the
    first axis: (S, D) gives one term, (S, N, D) one per row. Each sum is a
    `_sum_samples` fold from zero, over the slots and then over k, which
    runs in the same order for every row, so a row's term does not depend
    on the others. No vectors give 0.
    """
    if not len(pooled):
        return _F32(0.0)
    total = _sum_samples(pooled)
    # Transposed so that the fold over k runs down the first axis.
    return _F32(0.5) * _sum_samples((total * total - _sum_samples(pooled * pooled)).T)


def lookup_entries(params: ModelParams, batch: FeatureBatch) -> ArenaEntries:
    """The entries of every slot of the model over the batch's samples, in slot order.

    Raises SlotMismatch when the batch holds a slot the model lacks or
    lacks one of the model's, and IndexOutOfRange on an id outside its table.
    """
    tables, specs = params.layout.tables, params.specs
    for name in (*batch.ids, *batch.dense):
        if name not in tables:
            raise SlotMismatch(f"feature batch has undeclared slot {name!r}")
    n = len(batch)
    rows, counts, raw, entries = [], [], [], 0
    divisor = np.ones(len(specs) * n, dtype=_F32)
    for k, spec in enumerate(specs):
        held = batch.dense if spec.kind == "numeric_raw" else batch.ids
        if spec.name not in held:
            raise SlotMismatch(f"feature batch has no slot {spec.name!r}")
        start, size = tables[spec.name]
        if spec.kind == "numeric_raw":
            raw.append((entries, batch.dense[spec.name]))
            rows.append(np.full(n, start))
            counts.append(np.ones(n, np.int64))
            entries += n
            continue
        ids, offsets = batch.ids[spec.name]
        # As unsigned, a negative id is larger than any table size.
        if len(ids) and ids.view(np.uint64).max() >= size:
            raise IndexOutOfRange(int(ids[(ids < 0) | (ids >= size)][0]), size)
        count = offsets[1:] - offsets[:-1]
        rows.append(ids + start)
        counts.append(count)
        entries += len(ids)
        if spec.pooling == "mean":
            divisor[k * n : (k + 1) * n] = np.maximum(count, 1)
    value = np.ones(entries, dtype=_F32)
    for at, dense in raw:
        value[at : at + n] = dense
    return ArenaEntries(
        row=np.concatenate(rows),
        bin=np.arange(len(divisor)).repeat(np.concatenate(counts)),
        value=value,
        divisor=divisor,
    )


@np.errstate(over="ignore", invalid="ignore")
def _pool(params: ModelParams, entries: ArenaEntries, n: int) -> Parts:
    """Every slot's parts over N samples: one fold per arena over the entries' bins.

    A value too large for float32 arithmetic overflows to a non-finite
    part without a warning; the logit it reaches tells the caller.
    """
    e, specs = entries, params.specs
    fo = _fold(e.bin, params.fo[:, 0][e.row] * e.value, len(e.divisor)).reshape(len(specs), n)
    pooled = None
    if params.model_type == "deepfm":
        summed = _fold(e.bin, np.take(params.emb, e.row, axis=0) * e.value[:, None], len(e.divisor))
        summed /= e.divisor[:, None]
        pooled = summed.reshape(len(specs), n, params.embedding_dim)
    return Parts(fo, pooled)


def compute_parts(params: ModelParams, batch: FeatureBatch) -> Parts:
    """Every slot's pooled embeddings and first-order sums over the batch's N samples.

    A slot's part depends only on that slot's features and tables, never
    on other slots, and a row's part never on the other rows. Serving
    computes a request's parts over every slot in one call, over features
    that may come from its item cache; parts read the parameters, so they
    are computed afresh for every request.
    """
    return _pool(params, lookup_entries(params, batch), len(batch))


def plan_steps(params: ModelParams, batch: FeatureBatch, size: int) -> list[StepEntries]:
    """The batch's samples in steps of `size`, the last one ragged, each ready for `forward`.

    One `lookup_entries` call covers the batch. A stable sort puts its
    entries sample-major, so each step's entries are one stretch and each
    (slot, sample) bin keeps its id-list order: every fold runs as it
    would over the step's own lookup. One more sort finds the (row,
    sample) pairs of every step, ordered by step, row and sample.
    """
    e = lookup_entries(params, batch)
    n, rows = len(batch), params.layout.rows
    # An empty batch is one empty step.
    slot, sample = np.divmod(e.bin, max(n, 1))
    order = np.argsort(sample, kind="stable")
    slot, sample, row, value, bins = slot[order], sample[order], e.row[order], e.value[order], e.bin[order]
    starts = np.arange(0, max(n, 1), size)
    step, local = np.divmod(sample, size)
    local_bin = slot * (np.minimum(starts + size, n) - starts)[step] + local

    touched = np.flatnonzero(value != 0.0)
    t_step, t_row, t_local = step[touched], row[touched], local[touched]
    pairs, pair = np.unique((t_step * rows + t_row) * size + t_local, return_inverse=True)
    step_row = pairs // size
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = step_row[1:] != step_row[:-1]
    pair_step = step_row // rows
    bounds = np.arange(len(starts) + 1)
    pair_cut = np.searchsorted(pair_step, bounds)
    id_cut = np.searchsorted(pair_step[first], bounds)
    # Pair and row positions within each step.
    pair = pair - pair_cut[t_step]
    pair_id = np.cumsum(first) - 1 - id_cut[pair_step]
    pair_row = step_row % rows
    t_bin, t_value = local_bin[touched], value[touched]
    weight = t_value / e.divisor[bins[touched]]
    ids = pair_row[first]
    divisor = e.divisor.reshape(len(params.specs), n)

    cuts = zip([*starts.tolist(), n], np.searchsorted(step, bounds).tolist(),
               np.searchsorted(t_step, bounds).tolist(), pair_cut.tolist(), id_cut.tolist())
    plan = []
    for (a, ea, ta, pa, ia), (b, eb, tb, pb, ib) in itertools.pairwise(cuts):
        entries = ArenaEntries(row[ea:eb], local_bin[ea:eb], value[ea:eb], divisor[:, a:b].reshape(-1))
        plan.append(StepEntries(
            b - a, entries, t_bin[ta:tb], t_local[ta:tb], t_value[ta:tb], weight[ta:tb],
            pair[ta:tb], pair_row[pa:pb], pair_id[pa:pb], ids[ia:ib],
        ))
    return plan


def _probability(logit: np.ndarray) -> np.ndarray:
    """Each logit's probability, clipped to [PROB_CLIP, 1 - PROB_CLIP], as float32.

    math.exp runs per row, since np.exp need not round like it; the
    add, divide and clip run in float64 numpy, which rounds as Python
    floats do. Past -700 the probability clips to PROB_CLIP anyway, and
    math.exp(709.8) overflows. A NaN logit gives a NaN probability.
    """
    e = np.array(list(map(math.exp, np.minimum(-logit.astype(np.float64), 700.0).tolist())))
    return np.minimum(np.maximum(1.0 / (1.0 + e), PROB_CLIP), 1.0 - PROB_CLIP).astype(_F32)


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w with one matrix-vector product per row of a 2-D x.

    A 2-D `x @ w` is a gemm whose blocking, and so its rounding, changes
    with the number of rows. Stacked as (N, 1, in) it runs the same gemv
    per row as a 1-D `x @ w`, so a row's bits do not depend on its batch.
    """
    if x.ndim == 1:
        return x @ w
    return (x[:, None, :] @ w)[:, 0, :]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each pair of last-axis vectors of two same-shaped arrays, in one call.

    Stacked as (R, 1, D) @ (R, D, 1), numpy computes each product with the
    vector dot that a 1-D np.dot runs, so every value has np.dot's bits.
    """
    dim = a.shape[-1]
    return (a.reshape(-1, 1, dim) @ b.reshape(-1, dim, 1)).reshape(a.shape[:-1])


@np.errstate(over="ignore", invalid="ignore")
def assemble(params: ModelParams, parts: Parts, slot_scale: np.ndarray | None = None) -> ForwardTrace:
    """Combine the slot-major parts of N rows into (N,) logits and probabilities.

    Every operation is elementwise or per row, so each row's result is
    bit-identical to assembling that row alone. Parts without pooled
    embeddings (logreg) have no FM or MLP term.

    `slot_scale`, an (S, N) array, multiplies each slot's pooled embedding
    and first-order contribution in each row, as float32, before they
    enter the logit; the feature-selection gates drive this hook. A
    non-finite part or an overflow gives a non-finite logit, without a
    numpy warning.
    """
    fo, pooled = parts
    scale = None if slot_scale is None else slot_scale.astype(_F32)
    logit = params.tensors["bias"][0]
    for term in fo if scale is None else scale * fo:
        logit = logit + term

    scaled_pooled: np.ndarray | None = None
    mlp_input: np.ndarray | None = None
    pre_activations: list[np.ndarray] = []
    activations: list[np.ndarray] = []
    if pooled is not None:
        scaled_pooled = pooled if scale is None else scale[..., None] * pooled
        logit = logit + fm_second_order(scaled_pooled)
        slots, n, dim = scaled_pooled.shape
        # Each row's slots end to end.
        mlp_input = scaled_pooled.transpose(1, 0, 2).reshape(n, slots * dim)
        x = mlp_input
        layers = mlp_layers(params)
        last = len(layers) - 1
        for i, (w, b) in enumerate(layers):
            pre = _rowwise_matmul(x, w) + b
            pre_activations.append(pre)
            x = pre if i == last else np.maximum(pre, _F32(0.0))
            activations.append(x)
        logit = logit + x.T[0]

    probability = _probability(logit)
    return ForwardTrace(
        params=params,
        fo=fo,
        pooled=pooled,
        scale=scale,
        scaled_pooled=scaled_pooled,
        mlp_input=mlp_input,
        pre_activations=pre_activations,
        activations=activations,
        logit=logit,
        probability=probability,
    )


def forward(
    params: ModelParams,
    batch: FeatureBatch | StepEntries,
    slot_scale: np.ndarray | None = None,
) -> ForwardTrace:
    """Forward pass over N samples: a step of `plan_steps`, or a batch, planned as one step.

    One sample is a one-row batch.
    """
    step = batch if isinstance(batch, StepEntries) else plan_steps(params, batch, max(len(batch), 1))[0]
    trace = assemble(params, _pool(params, step.entries, step.n), slot_scale)
    trace.step = step
    return trace


def backward(trace: ForwardTrace, labels: Sequence[int], reg: float = 0.0) -> SparseGradient:
    """Exact gradient of the batch mean of logloss + reg * sum_touched ||row||^2.

    `trace` comes from `forward` over the samples that `labels` label.
    Every gradient is a left fold from zero over the samples in batch
    order, times the float32 1/N; an MLP weight's is one `_sum_outer`
    contraction of the layer's inputs and deltas. Sparse entries cover
    exactly the rows the samples reference; for the logreg model type the
    embedding tables never enter the loss, so only first-order rows and
    the bias appear. With
    gates on, `slot_scale` is the (S, N) gradient of each slot's scale in
    each sample, its own and unscaled.
    """
    params = trace.params
    n = len(trace.logit)
    mean = _F32(1.0 / n)
    d = trace.probability - np.asarray(labels, dtype=_F32)

    scale = trace.scale
    # Dense gradients from the output side in, so reversed they are in tensor order.
    dense = [_sum_samples(d[:, None]) * mean]
    grad_pooled: np.ndarray | None = None
    grad_scaled: np.ndarray | None = None
    if trace.pooled is not None:
        layers = mlp_layers(params)
        delta = d[:, None]
        for i in range(len(layers) - 1, -1, -1):
            x = trace.activations[i - 1] if i > 0 else trace.mlp_input
            dense.append(_sum_samples(delta) * mean)
            dense.append((_sum_outer(x, delta) * mean).reshape(-1))
            delta = _rowwise_matmul(delta, layers[i][0].T)
            if i > 0:
                delta = delta * (trace.pre_activations[i - 1] > 0)
        # The (S, N, D) scaled pooled embeddings, folded over the slots in order.
        u = trace.scaled_pooled
        fm_total = np.add.reduce(u, axis=0, initial=_F32(0.0))
        grad_scaled = d[None, :, None] * (fm_total - u) + delta.reshape(n, len(u), -1).transpose(1, 0, 2)
        grad_pooled = grad_scaled if scale is None else scale[..., None] * grad_scaled

    gate = None
    if scale is not None:
        gate = d * trace.fo
        if grad_scaled is not None:
            gate = gate + _row_dots(grad_scaled, trace.pooled)

    # Only entries with a nonzero value: a numeric_raw zero reads its row
    # but has no gradient there. Entries fold per (row, sample) pair in
    # id-list order: a sample's own gradient of the row, where the
    # regularizer joins once. Each row then folds its samples in batch order.
    s = trace.step
    ds = d[s.sample] if scale is None else d[s.sample] * scale.reshape(-1)[s.bin]
    fo_pair = _fold(s.pair, ds * s.value, len(s.pair_row))
    fo = SparseRows(s.ids, _fold(s.pair_id, fo_pair, len(s.ids))[:, None] * mean)
    emb = SparseRows(s.ids[:0], np.zeros((0, params.embedding_dim), dtype=_F32))
    if grad_pooled is not None:
        # In a mean slot the weight is the float32 reciprocal of the count:
        # multiplying by it rounds differently from dividing by the count.
        grad_entries = np.take(grad_pooled.reshape(-1, params.embedding_dim), s.bin, axis=0) * s.weight[:, None]
        emb_pair = _fold(s.pair, grad_entries, len(s.pair_row))
        if reg > 0.0:
            emb_pair += _F32(2.0 * reg) * params.emb[s.pair_row]
        emb = SparseRows(s.ids, _fold(s.pair_id, emb_pair, len(s.ids)) * mean)
    return SparseGradient(params.layout, emb, fo, np.concatenate(dense[::-1]), gate)


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
