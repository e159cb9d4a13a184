"""Deterministic columnar feature generation shared by the trainer and the server.

`generate` turns N raw records, given as columns of text cells, into a
`FeatureBatch`: per slot a flat id array with row offsets (CSR), or one
float per row for numeric_raw. The trainer calls it once per file; the
server calls it once per request side, and a lone record is a one-row
batch. Every operator is pure and per row: a row's features depend only
on its own cells and the slot's spec, never on the other rows, on the
slot order or on which process computes them, which is what makes
offline and online features identical by construction. Row r of a slot
is its ids between offsets r and r + 1; the test suite serializes rows
to bytes to compare them (`row_bytes` in tests/helpers.py).

Hashing is FNV-1a 64 over each value's UTF-8 bytes, reduced modulo the
slot's vocab_size. It runs one byte position at a time over all of a
slot's values at once; the few values longer than the rest finish byte
by byte in Python. A row whose cell cannot be read (a number that is not
finite as a float32, text that is not a number, or text with a lone
surrogate, which has no UTF-8 bytes to hash) gets no features in that
slot and an error in `FeatureBatch.errors`: callers decide whether that
fails the file, the request or one item.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidValue, MinirecError, NonFinite

FEATURE_KINDS = ("id", "multi_id", "numeric_bucket", "numeric_raw", "cross")
POOLING_KINDS = ("sum", "mean")

# '|' separates values inside a multi-value CSV cell; 0x01 joins the two
# halves of a crossed value and cannot appear in printable input.
MULTI_VALUE_SEPARATOR = "|"
CROSS_SEPARATOR = "\x01"
MAX_CROSS_COMBINATIONS = 100

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# With this many values or fewer left at a byte position, a Python loop
# per byte is cheaper than three numpy calls.
_SCALAR_TAIL = 48
# The smallest magnitude that rounds to infinity as a float32: halfway
# between the largest float32 (2^128 - 2^104) and 2^128.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


@dataclass(frozen=True)
class FeatureSpec:
    """Declaration of one feature slot.

    kind:
      id             one hashed categorical value
      multi_id       '|'-separated hashed values, pooled at lookup time
      numeric_bucket boundary-bucketized number, bucket index used as the id
      numeric_raw    raw float, scales the slot's single embedding row
      cross          hashed cartesian product of two source columns
    """

    name: str
    kind: str
    source_columns: tuple[str, ...]
    vocab_size: int = 0
    boundaries: tuple[float, ...] = ()
    pooling: str = "sum"

    def validate(self, path: str = "") -> None:
        where = path or f"feature:{self.name}"
        if not self.name:
            raise InvalidValue(f"{where}.name", "must be non-empty")
        if self.kind not in FEATURE_KINDS:
            raise InvalidValue(f"{where}.kind", f"unknown kind {self.kind!r}")
        if self.pooling not in POOLING_KINDS:
            raise InvalidValue(f"{where}.pooling", f"unknown pooling {self.pooling!r}")
        expected_sources = 2 if self.kind == "cross" else 1
        if len(self.source_columns) != expected_sources:
            raise InvalidValue(
                f"{where}.source_columns",
                f"kind {self.kind!r} needs exactly {expected_sources} source column(s)",
            )
        if self.kind in ("id", "multi_id", "cross") and self.vocab_size < 2:
            raise InvalidValue(f"{where}.vocab_size", "hashed kinds need vocab_size >= 2")
        if self.kind == "numeric_bucket":
            if not self.boundaries:
                raise InvalidValue(f"{where}.boundaries", "numeric_bucket needs boundaries")
            for lo, hi in zip(self.boundaries, self.boundaries[1:]):
                if not lo < hi:
                    raise InvalidValue(f"{where}.boundaries", "must be strictly increasing")
            for b in self.boundaries:
                if not math.isfinite(b):
                    raise InvalidValue(f"{where}.boundaries", "must be finite")

    @property
    def table_vocab_size(self) -> int:
        """Number of rows in this slot's embedding / first-order tables."""
        if self.kind in ("id", "multi_id", "cross"):
            return self.vocab_size
        if self.kind == "numeric_bucket":
            return len(self.boundaries) + 1
        return 1  # numeric_raw: one row, scaled by the dense value


class Columns(NamedTuple):
    """N raw records as text columns; a column absent from `cells` is empty in every row."""

    rows: int
    cells: Mapping[str, Sequence[str]]


class SlotIds(NamedTuple):
    """One hashed or bucketized slot over N rows: row r's ids are `ids[offsets[r]:offsets[r + 1]]`."""

    ids: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, slots=True)
class FeatureBatch:
    """Generated features of `size` rows.

    `ids` holds each hashed or bucketized slot in CSR form (int64 ids,
    int64 offsets of length size + 1), `dense` each numeric_raw slot's
    float64 value per row. `errors` maps a row that failed to the error
    of its first failing slot in spec order; that row has no features in
    the failing slot.
    """

    size: int
    ids: dict[str, SlotIds]
    dense: dict[str, np.ndarray]
    errors: dict[int, MinirecError] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.size

    def slice(self, start: int, stop: int) -> FeatureBatch:
        """Rows start..stop-1, in order."""
        ids = {}
        for name, s in self.ids.items():
            offsets = s.offsets[start : stop + 1]
            ids[name] = SlotIds(s.ids[offsets[0] : offsets[-1]], offsets - offsets[0])
        errors = {r - start: e for r, e in self.errors.items() if start <= r < stop}
        dense = {name: values[start:stop] for name, values in self.dense.items()}
        return FeatureBatch(stop - start, ids, dense, errors)

    def take(self, index: np.ndarray) -> FeatureBatch:
        """The rows `index` names, in that order."""
        index = np.asarray(index, dtype=np.int64)
        ids = {}
        for name, s in self.ids.items():
            starts = s.offsets[index]
            ids[name] = gather_runs(s.ids, starts, s.offsets[index + 1] - starts)
        errors = {}
        if self.errors:
            errors = {k: self.errors[r] for k, r in enumerate(index.tolist()) if r in self.errors}
        dense = {name: values[index] for name, values in self.dense.items()}
        return FeatureBatch(len(index), ids, dense, errors)


def gather_runs(ids: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> SlotIds:
    """The runs `ids[starts[r] : starts[r] + counts[r]]`, one per row, end to end as one slot."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    entries = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
    return SlotIds(ids[entries], offsets)


def columns_of(records: Sequence[Mapping[str, str]], specs: Sequence[FeatureSpec]) -> Columns:
    """The columns `specs` read from the records; a key missing from a record is an empty cell."""
    names = {name for spec in specs for name in spec.source_columns}
    return Columns(len(records), {n: [r.get(n, "") for r in records] for n in names})


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash of a byte string, continued from state h."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash_ids(values: Sequence[str], vocab_size: int) -> np.ndarray:
    """Each value's table row as int64: FNV-1a 64 of its UTF-8 bytes modulo vocab_size.

    The hash runs one byte position at a time across values, each value
    over its own encoded length, so NUL bytes and multi-byte characters
    count like any other byte. Values are ordered longest first, so the
    values still running at a byte position are a prefix of that order.
    Once no more than _SCALAR_TAIL values are left running (at once, for a
    short list), they finish in `fnv1a64`.
    """
    if len(values) <= _SCALAR_TAIL:
        return np.array([fnv1a64(v.encode("utf-8")) % vocab_size for v in values], dtype=np.int64)
    text = "".join(values)
    if text.isascii():
        data = text.encode("ascii")
        lengths = np.fromiter(map(len, values), np.int64, len(values))
    else:
        encoded = [v.encode("utf-8") for v in values]
        data = b"".join(encoded)
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    order = np.argsort(-lengths, kind="stable")
    length = lengths[order]
    start = (np.cumsum(lengths) - lengths)[order]
    # running[j]: how many values are longer than j bytes.
    running = np.searchsorted(-length, -np.arange(length[0]), "left").tolist()
    buf = np.frombuffer(data, np.uint8)
    h = np.full(len(values), _FNV_OFFSET, np.uint64)
    prime = np.uint64(_FNV_PRIME)
    j = 0
    while j < len(running) and running[j] > _SCALAR_TAIL:
        k = running[j]
        h[:k] ^= buf[start[:k] + j]
        h[:k] *= prime
        j += 1
    tail = running[j] if j < len(running) else 0
    h[:tail] = [fnv1a64(data[s + j : s + n], int(g))
                for s, n, g in zip(start[:tail].tolist(), length[:tail].tolist(), h[:tail].tolist())]
    out = np.empty_like(h)
    out[order] = h % np.uint64(vocab_size)
    return out.astype(np.int64)


def bucketize(value: float, boundaries: Sequence[float]) -> int:
    """Count of boundaries <= value.

    Buckets are (-inf, b0), [b0, b1), ..., [b_last, +inf): a value equal to
    a boundary falls in the bucket to its right.
    """
    if not math.isfinite(value):
        raise NonFinite(value)
    return bisect_right(boundaries, value)


def _split_cells(cells: Sequence[str]) -> list[list[str]]:
    """Each cell's '|'-separated values, empty parts skipped."""
    split = [cell.split(MULTI_VALUE_SEPARATOR) if cell else [] for cell in cells]
    if "" in chain.from_iterable(split):
        split = [[part for part in row if part] for row in split]
    return split


def cross_values(a_values: Sequence[str], b_values: Sequence[str]) -> list[str]:
    """Cartesian product of two value lists, a-major order, capped."""
    combos = (a + CROSS_SEPARATOR + b for a in a_values for b in b_values)
    return list(islice(combos, MAX_CROSS_COMBINATIONS))


def _cross_cells(a_cells: Sequence[str], b_cells: Sequence[str]) -> list[list[str]]:
    """Each row's crossed values.

    Without a '|' in either column a non-empty cell is one value, so a row
    crosses into one value when both of its cells are non-empty.
    """
    if MULTI_VALUE_SEPARATOR in "".join(a_cells) or MULTI_VALUE_SEPARATOR in "".join(b_cells):
        return [cross_values(a, b) for a, b in zip(_split_cells(a_cells), _split_cells(b_cells))]
    return [[a + CROSS_SEPARATOR + b] if a and b else [] for a, b in zip(a_cells, b_cells)]


def _parse_number(text: str, slot: str) -> float:
    """A cell's number; InvalidValue unless it is finite once cast to float32.

    Parameters and features are float32, so a value that is finite only
    as a float64 would train into infinities.
    """
    try:
        value = float(text)
    except ValueError:
        raise InvalidValue(slot, f"non-numeric text {text!r}") from None
    if not abs(value) < _FLOAT32_OVERFLOW:
        raise InvalidValue(slot, f"numeric value {text!r} is not finite as a float32")
    return value


def _offsets(counts, n: int) -> np.ndarray:
    """Row offsets from n per-row counts."""
    return np.fromiter(accumulate(counts, initial=0), np.int64, n + 1)


def _numbers(cells: Sequence[str], slot: str, errors: dict) -> list[float | None]:
    """Each row's number, None for an empty cell or a bad one; a bad cell's error goes into `errors`."""
    values: list[float | None] = []
    for row, cell in enumerate(cells):
        try:
            values.append(_parse_number(cell, slot) if cell else None)
        except InvalidValue as exc:
            errors.setdefault(row, exc)
            values.append(None)
    return values


def generate(columns: Columns, specs: Sequence[FeatureSpec]) -> FeatureBatch:
    """Apply every spec to every row of `columns`, slot by slot.

    A missing or empty cell yields no ids (hashed and bucketized kinds) or
    dense 0.0 (numeric_raw), so "feature absent" and "feature contributes
    nothing" coincide downstream. A row's ids keep the cell's value order:
    multi_id parts left to right, empty parts skipped; crosses a-major,
    capped at MAX_CROSS_COMBINATIONS. A row whose number cell fails
    `_parse_number` gets that error in `errors` and nothing in that slot.
    """
    n = columns.rows
    empty = [""] * n
    errors: dict[int, MinirecError] = {}
    ids: dict[str, SlotIds] = {}
    dense: dict[str, np.ndarray] = {}
    for spec in specs:
        cells = columns.cells.get(spec.source_columns[0], empty)
        if spec.kind == "numeric_raw":
            values = _numbers(cells, spec.name, errors)
            dense[spec.name] = np.array([0.0 if v is None else v for v in values], dtype=np.float64)
            continue
        if spec.kind == "numeric_bucket":
            values = _numbers(cells, spec.name, errors)
            buckets = [bucketize(v, spec.boundaries) for v in values if v is not None]
            counts = (v is not None for v in values)
            ids[spec.name] = SlotIds(np.array(buckets, dtype=np.int64), _offsets(counts, n))
            continue
        other = columns.cells.get(spec.source_columns[1], empty) if spec.kind == "cross" else empty
        try:
            ids[spec.name] = _hashed(spec, cells, other)
        except UnicodeEncodeError:
            ids[spec.name] = _hashed(spec, _encodable(cells, spec.name, errors), _encodable(other, spec.name, errors))
    return FeatureBatch(n, ids, dense, errors)


def _hashed(spec: FeatureSpec, cells: Sequence[str], other: Sequence[str]) -> SlotIds:
    """A hashed slot's CSR ids; `other` is a cross slot's second source column."""
    if spec.kind == "id":
        values, counts = [c for c in cells if c], map(bool, cells)
    else:
        per_row = _split_cells(cells) if spec.kind == "multi_id" else _cross_cells(cells, other)
        values, counts = list(chain.from_iterable(per_row)), map(len, per_row)
    return SlotIds(hash_ids(values, spec.vocab_size), _offsets(counts, len(cells)))


def is_utf8(text: str) -> bool:
    """Whether the text has a UTF-8 form; a lone surrogate has none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _encodable(cells: Sequence[str], slot: str, errors: dict) -> list[str]:
    """The cells with each one that is not `is_utf8` emptied and its row's error recorded."""
    out = list(cells)
    for row, cell in enumerate(cells):
        if not is_utf8(cell):
            errors.setdefault(row, InvalidValue(slot, "text is not valid Unicode"))
            out[row] = ""
    return out


def json_cell(value) -> str:
    """A JSON value as a raw cell: null is an empty (missing) cell; other non-strings go through str()."""
    return value if isinstance(value, str) else "" if value is None else str(value)


def record_from_json(obj: Mapping) -> dict[str, str]:
    """A JSON object as a raw record, each value a `json_cell`."""
    return {str(k): json_cell(v) for k, v in obj.items()}
