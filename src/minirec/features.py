"""Deterministic feature generation shared by the trainer and the server.

The same `generate` function runs in both places, which is what makes
offline and online features identical by construction. All operators are
pure: a (record, specs) pair maps to exactly one FeatureVector, no matter
which process computes it or in which order the slots are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import InvalidValue, NonFinite

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


@dataclass
class FeatureVector:
    """Per-slot generated features.

    Slots of hashed/bucketized kinds appear in `ids` (possibly empty when
    the source column is missing). numeric_raw slots appear in `dense`.
    """

    ids: dict[str, tuple[int, ...]] = field(default_factory=dict)
    dense: dict[str, float] = field(default_factory=dict)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash_id(raw: str | bytes, vocab_size: int) -> int:
    """Map a raw value to a table row: FNV-1a 64 reduced modulo vocab_size."""
    if vocab_size < 2:
        raise InvalidValue("vocab_size", "must be >= 2")
    data = raw.encode("utf-8") if isinstance(raw, str) else raw
    return fnv1a64(data) % vocab_size


def bucketize(value: float, boundaries: Sequence[float]) -> int:
    """Count of boundaries <= value.

    Buckets are (-inf, b0), [b0, b1), ..., [b_last, +inf): a value equal to
    a boundary falls in the bucket to its right.
    """
    if not math.isfinite(value):
        raise NonFinite(value)
    count = 0
    for b in boundaries:
        if value >= b:
            count += 1
    return count


def cross_values(a_values: Sequence[str], b_values: Sequence[str]) -> list[str]:
    """Cartesian product of two value lists, a-major order, capped."""
    out: list[str] = []
    for a in a_values:
        for b in b_values:
            if len(out) >= MAX_CROSS_COMBINATIONS:
                return out
            out.append(a + CROSS_SEPARATOR + b)
    return out


def _split_multi(cell: str) -> list[str]:
    if not cell:
        return []
    return [part for part in cell.split(MULTI_VALUE_SEPARATOR) if part]


def _parse_number(text: str, slot: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidValue(slot, f"non-numeric text {text!r}") from None
    if not math.isfinite(value):
        raise InvalidValue(slot, f"non-finite numeric value {text!r}")
    return value


def generate(record: Mapping[str, str], specs: Sequence[FeatureSpec]) -> FeatureVector:
    """Apply every spec to a raw record, independently per slot.

    A missing or empty source column yields an empty id list (hashed and
    bucketized kinds) or dense 0.0 (numeric_raw), so "feature absent" and
    "feature contributes nothing" coincide downstream.
    """
    fv = FeatureVector()
    for spec in specs:
        if spec.kind == "id":
            cell = record.get(spec.source_columns[0], "")
            fv.ids[spec.name] = (hash_id(cell, spec.vocab_size),) if cell else ()
        elif spec.kind == "multi_id":
            cell = record.get(spec.source_columns[0], "")
            fv.ids[spec.name] = tuple(
                hash_id(part, spec.vocab_size) for part in _split_multi(cell)
            )
        elif spec.kind == "numeric_bucket":
            cell = record.get(spec.source_columns[0], "")
            if not cell:
                fv.ids[spec.name] = ()
            else:
                fv.ids[spec.name] = (bucketize(_parse_number(cell, spec.name), spec.boundaries),)
        elif spec.kind == "numeric_raw":
            cell = record.get(spec.source_columns[0], "")
            fv.dense[spec.name] = _parse_number(cell, spec.name) if cell else 0.0
        else:  # cross
            col_a, col_b = spec.source_columns
            a_vals = _split_multi(record.get(col_a, ""))
            b_vals = _split_multi(record.get(col_b, ""))
            fv.ids[spec.name] = tuple(
                hash_id(raw, spec.vocab_size) for raw in cross_values(a_vals, b_vals)
            )
    return fv


def record_from_json(obj: Mapping) -> dict[str, str]:
    """A JSON object as a raw record: keys and non-string values through str()."""
    return {str(k): v if isinstance(v, str) else str(v) for k, v in obj.items()}


def canonical_bytes(fv: FeatureVector) -> bytes:
    """Canonical serialization used for byte-level consistency checks.

    One line per slot, sorted by slot name:
      <name>=ids:<comma-separated decimal ids>
      <name>=dense:<repr of float>
    Floats use Python repr (shortest round-trip form), so equal values
    serialize to equal bytes.
    """
    lines = []
    for name in sorted(set(fv.ids) | set(fv.dense)):
        if name in fv.ids:
            line = f"{name}=ids:" + ",".join(str(i) for i in fv.ids[name])
        else:
            line = f"{name}=dense:{float(fv.dense[name])!r}"
        lines.append(line)
    return "\n".join(lines).encode("utf-8")
