"""Shared oracles and data builders for the test suite.

Everything here is an independent re-computation: reference hashes via
functools.reduce, the feature generator one record at a time, AUC by
explicit pair counting, the forward pass as a
straight-line float64 program, the float32 training step one sample at a
time, a naive list-based LRU, an unchecked in-place delta replay, the
delta wire format one record at a time with struct, and the stream join
as a time-sorted batch program, and feature selection's alternating
weight/gate loop on the per-sample step, and the joiner's event
validation rules one by one (`event_fields_reference`). None of it shares
code with the package under test beyond reading its data types.

It also holds the plain views that tests compare with: a message's
records one by one (`records_of`), a feature row in canonical bytes
(`row_bytes`) and a gradient's dense tensors by name (`dense_grads`),
and a deep copy of the parameters (`copy_params`) to compare against.
"""

import csv
import dataclasses
import itertools
import json
import math
import struct
import time
import zlib
from functools import reduce
from typing import NamedTuple

import numpy as np

from minirec.config import parse_config
from minirec.delta_stream import DeltaMessage, DenseRun, SparseRun
from minirec.errors import IndexOutOfRange, InvalidValue, MalformedEvent
from minirec.features import FeatureBatch, SlotIds
from minirec.sample_stream import Event, JoinStats, LabeledSample


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
# Per-record feature generation: the columnar generator's oracle
# ---------------------------------------------------------------------

class ReferenceFeatures:
    """One record's features: `ids` per hashed or bucketized slot, `dense` per numeric_raw slot."""

    def __init__(self, ids=None, dense=None):
        self.ids = {} if ids is None else ids
        self.dense = {} if dense is None else dense


def row_of(batch, i):
    """Row i of a FeatureBatch as ReferenceFeatures: each slot's ids as a tuple of ints, each dense value a float."""
    return ReferenceFeatures(
        ids={name: tuple(s.ids[s.offsets[i]:s.offsets[i + 1]].tolist()) for name, s in batch.ids.items()},
        dense={name: float(values[i]) for name, values in batch.dense.items()},
    )


def feature_bytes(fv) -> bytes:
    """Canonical serialization for byte-level consistency checks.

    One line per slot, sorted by slot name:
      <name>=ids:<comma-separated decimal ids>
      <name>=dense:<repr of float>
    Floats use Python repr (shortest round-trip form), so equal values
    serialize to equal bytes.
    """
    lines = []
    for name in sorted(set(fv.ids) | set(fv.dense)):
        if name in fv.ids:
            lines.append(f"{name}=ids:" + ",".join(str(i) for i in fv.ids[name]))
        else:
            lines.append(f"{name}=dense:{float(fv.dense[name])!r}")
    return "\n".join(lines).encode("utf-8")


def row_bytes(batch, i) -> bytes:
    """Row i of a FeatureBatch in `feature_bytes` form."""
    return feature_bytes(row_of(batch, i))


def _reference_number(text, slot):
    try:
        value = float(text)
    except ValueError:
        raise InvalidValue(slot, f"non-numeric text {text!r}") from None
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32(value)):
            raise InvalidValue(slot, f"{text!r} is not finite as a float32")
    return value


def _reference_parts(cell):
    return [part for part in cell.split("|") if part] if cell else []


def generate_reference(record, specs):
    """Features of one record, slot by slot; the first failing slot raises.

    FNV-1a 64 of each value's UTF-8 bytes modulo vocab_size; multi_id
    parts left to right, empty parts skipped; crosses joined by 0x01 in
    a-major order, the first 100 kept; a bucket is the count of
    boundaries <= the value; a number must be finite as a float32.
    """
    fv = ReferenceFeatures()
    for spec in specs:
        cell = record.get(spec.source_columns[0], "")
        if spec.kind == "numeric_raw":
            fv.dense[spec.name] = _reference_number(cell, spec.name) if cell else 0.0
            continue
        if spec.kind == "numeric_bucket":
            if cell:
                value = _reference_number(cell, spec.name)
                fv.ids[spec.name] = (sum(1 for b in spec.boundaries if value >= b),)
            else:
                fv.ids[spec.name] = ()
            continue
        if spec.kind == "id":
            values = [cell] if cell else []
        elif spec.kind == "multi_id":
            values = _reference_parts(cell)
        else:
            other = record.get(spec.source_columns[1], "")
            values = [a + "\x01" + b for a in _reference_parts(cell) for b in _reference_parts(other)]
            values = values[:100]
        fv.ids[spec.name] = tuple(fnv1a64_reference(v.encode("utf-8")) % spec.vocab_size
                                  for v in values)
    return fv


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
# Unchecked in-place delta replay: the delta applier's oracle
# ---------------------------------------------------------------------

def copy_params(params):
    """A deep copy: fresh emb, fo and dense arenas, and the tensor views into them."""
    return dataclasses.replace(params, emb=params.emb.copy(), fo=params.fo.copy(), dense=params.dense.copy())


def replay_reference(params, msg):
    """Write each record's values into params in place, unchecked, then the version.

    The delta format's meaning read straight off the wire: a record's
    tensor_index is a position in params.tensors, a sparse record replaces
    one row and a dense record the whole tensor.
    """
    arrays = list(params.tensors.values())
    records = records_of(msg)
    for rec in records.sparse:
        arrays[rec.tensor_index][rec.row_id] = rec.values
    for rec in records.dense:
        arr = arrays[rec.tensor_index]
        arr[...] = np.reshape(rec.values, arr.shape)
    params.model_version = msg.model_version


# ---------------------------------------------------------------------
# Messages from records, and the per-record wire codec: the columnar codec's oracle
# ---------------------------------------------------------------------

class SparseRecord(NamedTuple):
    tensor_index: int
    row_id: int
    values: tuple


class DenseRecord(NamedTuple):
    tensor_index: int
    values: tuple


class Records(NamedTuple):
    """A message's version and its records one by one, in frame order."""

    model_version: int
    sparse: tuple
    dense: tuple


def records_of(msg) -> Records:
    """The version and records of a DeltaMessage; messages are equal when these are, however cut into runs."""
    sparse = tuple(SparseRecord(run.tensor_index, row, tuple(values))
                   for run in msg.sparse_runs
                   for row, values in zip(run.rows.tolist(), run.values.tolist()))
    dense = tuple(DenseRecord(run.tensor_index, tuple(run.values.tolist())) for run in msg.dense_runs)
    return Records(msg.model_version, sparse, dense)


def message_of(model_version, sparse=(), dense=()):
    """A DeltaMessage of (tensor_index, row_id, values) and (tensor_index, values) records.

    Each stretch of consecutive sparse records with one tensor and dim is
    one run; each dense record is one run.
    """
    runs = []
    for (tensor_index, dim), group in itertools.groupby(sparse, lambda rec: (rec[0], len(rec[2]))):
        group = list(group)
        runs.append(SparseRun(tensor_index, np.array([rec[1] for rec in group], dtype=np.uint64),
                              np.array([rec[2] for rec in group], dtype=np.float32).reshape(len(group), dim)))
    dense_runs = tuple(DenseRun(index, np.array(values, dtype=np.float32)) for index, values in dense)
    return DeltaMessage(model_version, tuple(runs), dense_runs)


def encode_reference(msg) -> bytes:
    """The frame of msg, packed one record and one struct call at a time."""
    records = records_of(msg)
    buf = bytearray(b"ERDU")
    buf += struct.pack("<IQII", 1, msg.model_version, len(records.sparse), len(records.dense))
    for rec in records.sparse:
        buf += struct.pack("<HQH", rec.tensor_index, rec.row_id, len(rec.values))
        buf += struct.pack(f"<{len(rec.values)}f", *rec.values)
    for rec in records.dense:
        buf += struct.pack("<HI", rec.tensor_index, len(rec.values))
        buf += struct.pack(f"<{len(rec.values)}f", *rec.values)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


def decode_reference(frame: bytes) -> Records:
    """The records of a valid frame, unpacked one record at a time; asserts on any other frame."""
    pos = 24
    magic, fmt_version, model_version, sparse_count, dense_count = struct.unpack_from("<4sIQII", frame)
    assert (magic, fmt_version) == (b"ERDU", 1)
    sparse, dense = [], []
    for _ in range(sparse_count):
        tensor_index, row_id, dim = struct.unpack_from("<HQH", frame, pos)
        values = struct.unpack_from(f"<{dim}f", frame, pos + 12)
        sparse.append(SparseRecord(tensor_index, row_id, values))
        pos += 12 + 4 * dim
    for _ in range(dense_count):
        tensor_index, length = struct.unpack_from("<HI", frame, pos)
        dense.append(DenseRecord(tensor_index, struct.unpack_from(f"<{length}f", frame, pos + 6)))
        pos += 6 + 4 * length
    assert pos + 4 == len(frame) and struct.unpack_from("<I", frame, pos)[0] == zlib.crc32(frame[:pos])
    return Records(model_version, tuple(sparse), tuple(dense))


# ---------------------------------------------------------------------
# Time-sorted batch join: the stream joiner's oracle
# ---------------------------------------------------------------------
#
# The joiner's contract as one batch pass over the whole log, written
# without the Joiner: sort by event time, dedupe, label each impression
# by its key's earliest click, then join each labeled pair to its
# request's first feature log.

# JSON texts that json.loads refuses with a ValueError or RecursionError
# that is not a JSONDecodeError: arrays nested past the recursion limit, and
# an event_time past Python's 4,300-digit integer conversion limit.
def nested(depth, leaf="x"):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


# JSON values a client may send in any position of a /v1/predict body; as text they
# are also hostile CSV cells.
HOSTILE_VALUES = (
    None, True, False, math.nan, math.inf, -math.inf, 0, -1, 3.5,
    1e30, -1e30, 1e-30, 1e300, -1e300, 1e-300, 2**70, -(2**70), 1e20, -1e20,
    "", "abc", "1e300", "nan", "-inf", "t1||t2|", "\ud800", "a\udfffb", "x" * 5000,
    [], {}, ["a", 1], {"a": {"b": [1]}}, nested(50), nested(900),
)


# ---------------------------------------------------------------------
# HTTP replies read off a bare socket
# ---------------------------------------------------------------------

class HttpReply(NamedTuple):
    status: int
    headers: dict  # lower-cased name -> value
    body: bytes


class HttpReplies:
    """The replies that arrive on a socket, one at a time, parsed without an HTTP library.

    A reply's head is a status line "HTTP/1.1 NNN reason" and header lines
    "Name: value", each name at most once, then an empty line; a 1xx reply
    has no body and any other one exactly Content-Length bytes of it. Bytes
    past a reply stay for the next. Anything else fails an assertion, and a
    reply not whole by its deadline raises TimeoutError.
    """

    def __init__(self, sock):
        self.sock, self.buffer = sock, b""

    def _recv(self, deadline: float) -> bytes:
        self.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
        return self.sock.recv(65536)

    def _fill(self, deadline: float) -> None:
        chunk = self._recv(deadline)
        assert chunk, f"connection ended inside a reply: {self.buffer[:200]!r}"
        self.buffer += chunk

    def next(self, timeout: float = 1.0) -> HttpReply:
        deadline = time.monotonic() + timeout
        while b"\r\n\r\n" not in self.buffer:
            self._fill(deadline)
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("ascii").split("\r\n")
        version, code, reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and len(code) == 3 and code.isdigit() and reason, status_line
        headers = {}
        for line in lines:
            name, sep, value = line.partition(": ")
            assert sep and name.isascii() and name.replace("-", "").isalnum(), line
            assert name.lower() not in headers, f"{name} twice"
            headers[name.lower()] = value
        status = int(code)
        if status < 200:
            assert "content-length" not in headers, head
            return HttpReply(status, headers, b"")
        length = headers["content-length"]
        assert length.isdigit(), head
        while len(self.buffer) < int(length):
            self._fill(deadline)
        body, self.buffer = self.buffer[: int(length)], self.buffer[int(length):]
        return HttpReply(status, headers, body)

    def ended(self, timeout: float = 1.0) -> bool:
        """Whether the peer ends the connection, with no more bytes, within `timeout`."""
        try:
            return not self.buffer and self._recv(time.monotonic() + timeout) == b""
        except TimeoutError:
            return False


UNPARSABLE_JSON = {
    "deep_nesting": "[" * 100_000,
    "long_integer": '{"kind": "impression", "event_time": ' + "1" * 5001
                    + ', "request_id": "r", "item_key": "i"}',
}


def event_fields_reference(obj) -> tuple:
    """An event object's (kind, event_time, request_id, item_key, payload); raises MalformedEvent.

    The joiner's validation rules restated one at a time, in the joiner's
    order and with its messages: the first broken rule names the error.
    A time is an int or a finite float, not a bool, and not negative; it
    is truncated to an int. A payload becomes a dict of str keys (via
    str) and str values: None is empty, a str is kept as it is, anything
    else goes through str.
    """
    if not isinstance(obj, dict):
        raise MalformedEvent("event must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("impression", "click", "feature_log"):
        raise MalformedEvent(f"unknown kind {kind!r}")
    t = obj.get("event_time")
    if isinstance(t, bool):
        good_time = False
    elif isinstance(t, int):
        good_time = t >= 0
    elif isinstance(t, float):
        good_time = math.isfinite(t) and t >= 0
    else:
        good_time = False
    if not good_time:
        raise MalformedEvent(f"bad event_time {t!r}")
    request_id = obj.get("request_id")
    if not isinstance(request_id, str) or len(request_id) == 0:
        raise MalformedEvent("missing request_id")
    item_key = obj.get("item_key", "")
    if not isinstance(item_key, str):
        raise MalformedEvent("item_key must be a string")
    if kind != "feature_log":
        if len(item_key) == 0:
            raise MalformedEvent(f"{kind} needs an item_key")
        return kind, int(t), request_id, item_key, None
    raw = obj.get("payload")
    if not isinstance(raw, dict):
        raise MalformedEvent("feature_log needs a payload object")
    payload = {}
    for key, value in raw.items():
        if value is None:
            value = ""
        elif not isinstance(value, str):
            value = str(value)
        payload[str(key)] = value
    return kind, int(t), request_id, item_key, payload


def parse_event(obj) -> Event:
    """A decoded JSON object as an Event, by `event_fields_reference`; raises MalformedEvent."""
    return Event(*event_fields_reference(obj))


def event_time_of(obj):
    return obj.event_time if isinstance(obj, Event) else obj.get("event_time", 0)


def sample_key(sample):
    return (sample.request_id, sample.item_key, sample.label, sample.event_time,
            tuple(sorted(sample.payload.items())))


def aggregate_events(events) -> tuple[list[Event], JoinStats]:
    """Batch dedup: first impression and log per key, earliest click per key.

    Output preserves arrival order (a kept click stays at its first
    arrival position with the earliest observed time).
    """
    stats = JoinStats()
    out: list[Event] = []
    impressions: set[tuple[str, str]] = set()
    clicks: dict[tuple[str, str], int] = {}
    logs: set[str] = set()
    for obj in events:
        try:
            event = obj if isinstance(obj, Event) else parse_event(obj)
        except MalformedEvent:
            stats.malformed += 1
            continue
        key = (event.request_id, event.item_key)
        if event.kind == "impression":
            if key in impressions:
                stats.dup_impressions += 1
                continue
            impressions.add(key)
            out.append(event)
        elif event.kind == "click":
            if key in clicks:
                stats.dup_clicks += 1
                clicks[key] = min(clicks[key], event.event_time)
                for i, kept in enumerate(out):
                    if kept.kind == "click" and (kept.request_id, kept.item_key) == key:
                        out[i] = Event("click", clicks[key], event.request_id, event.item_key)
                        break
                continue
            clicks[key] = event.event_time
            out.append(event)
        else:
            if event.request_id in logs:
                stats.dup_logs += 1
                continue
            logs.add(event.request_id)
            out.append(event)
    return out, stats


def earliest_click_labels(events, cfg) -> list[tuple[str, str, int, int]]:
    """(request_id, item_key, label, t0) per impression.

    The label is 1 iff the key's earliest click lies in [t0, t0 + W].
    """
    clicks: dict[tuple[str, str], int] = {}
    for e in events:
        if e.kind == "click":
            key = (e.request_id, e.item_key)
            clicks[key] = min(clicks.get(key, e.event_time), e.event_time)
    pairs = []
    for e in events:
        if e.kind == "impression":
            t0 = e.event_time
            click = clicks.get((e.request_id, e.item_key))
            label = int(click is not None and t0 <= click <= t0 + cfg.label_window_ms)
            pairs.append((e.request_id, e.item_key, label, t0))
    return pairs


def join_features(pairs, logs, cfg) -> list[LabeledSample]:
    """Join each pair to its request's first log when the log lies in [t0 - L, t0 + W + L]."""
    first: dict[str, Event] = {}
    for log in logs:
        first.setdefault(log.request_id, log)
    w, lateness = cfg.label_window_ms, cfg.allowed_lateness_ms
    samples = []
    for rid, item_key, label, t0 in pairs:
        log = first.get(rid)
        if log is not None and t0 - lateness <= log.event_time <= t0 + w + lateness:
            samples.append(LabeledSample(rid, item_key, label, log.payload or {}, t0))
    return samples


def batch_join_reference(events, cfg) -> tuple[list[LabeledSample], JoinStats]:
    """The samples and stats a Joiner must give for `events` in any order within the lateness."""
    kept, stats = aggregate_events(sorted(events, key=event_time_of))
    pairs = earliest_click_labels(kept, cfg)
    samples = join_features(pairs, [e for e in kept if e.kind == "feature_log"], cfg)
    stats.samples = len(samples)
    stats.feature_missing = len(pairs) - len(samples)
    return samples, stats


# ---------------------------------------------------------------------
# Config and dataset builders
# ---------------------------------------------------------------------

def two_slot_feature_config():
    return [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 2000},
        {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 2000},
    ]


def five_kind_feature_config():
    """All five feature kinds over user, item and cross slots."""
    return [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 200},
        {"name": "user_tags", "kind": "multi_id", "source_columns": ["user_tags"],
         "vocab_size": 50, "pooling": "mean"},
        {"name": "user_age", "kind": "numeric_bucket", "source_columns": ["user_age"],
         "boundaries": [18, 30, 50]},
        {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 200},
        {"name": "item_cats", "kind": "multi_id", "source_columns": ["item_cats"],
         "vocab_size": 30},
        {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
        {"name": "user_x_item", "kind": "cross",
         "source_columns": ["user_id", "item_id"], "vocab_size": 500},
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


# ---------------------------------------------------------------------
# Per-sample training step: the batched step's bitwise oracle
# ---------------------------------------------------------------------
#
# The training step as it ran before it was batched: one float32 forward
# and backward per sample, per-sample gradients as dicts of rows folded
# across the batch, and lazy Adam one row at a time. Every reduction runs
# in the order that code used, so the batched step must match it bit for
# bit. It reads `ModelParams` and writes a plain dict-of-rows gradient.

F32 = np.float32


def stack_rows(rows):
    """One-row batches as the rows of one batch, in order; all must hold the same slots."""
    if any(r.size != 1 for r in rows):
        raise ValueError("stack_rows takes one-row batches")
    ids = {}
    for name in rows[0].ids:
        arrays = [r.ids[name].ids for r in rows]
        offsets = np.array([0, *itertools.accumulate(map(len, arrays))], dtype=np.int64)
        ids[name] = SlotIds(np.concatenate(arrays), offsets)
    dense = {name: np.concatenate([r.dense[name] for r in rows]) for name in rows[0].dense}
    errors = {k: r.errors[0] for k, r in enumerate(rows) if r.errors}
    return FeatureBatch(len(rows), ids, dense, errors)


def dense_grads(grad):
    """A SparseGradient's dense gradient by tensor name: the tensors other than tables, end to end in shape order."""
    out, start = {}, 0
    for name, shape in grad.layout.shapes.items():
        if not name.startswith(("emb:", "fo:")):
            size = math.prod(shape)
            out[name] = grad.dense[start:start + size].reshape(shape)
            start += size
    assert start == len(grad.dense)
    return out


def per_slot_parts(params, batch, specs=None):
    """Each slot's (pooled, first-order) parts over the batch's N rows, one slot at a time.

    A hashed or bucketized slot folds its rows from zero in id-list order
    with np.add.at, and a mean slot then divides by its float32 count, 1
    for an empty row; a numeric_raw slot multiplies its one row by the
    raw values. pooled is None for logreg. Slots are `specs`, default all.
    """
    parts = {}
    n = len(batch)
    for spec in params.specs if specs is None else specs:
        emb, fo = params.tensors[f"emb:{spec.name}"], params.tensors[f"fo:{spec.name}"]
        if spec.kind == "numeric_raw":
            value = batch.dense[spec.name].astype(F32)
            pooled, first = value[:, None] * emb[0], value * fo[0, 0]
        else:
            ids, offsets = batch.ids[spec.name]
            counts = np.diff(offsets)
            owner = np.repeat(np.arange(n), counts)
            pooled, first = np.zeros((n, emb.shape[1]), dtype=F32), np.zeros(n, dtype=F32)
            np.add.at(pooled, owner, emb[ids])
            np.add.at(first, owner, fo[ids, 0])
            if spec.pooling == "mean":
                pooled /= np.maximum(counts, 1).astype(F32)[:, None]
        parts[spec.name] = (pooled if params.model_type == "deepfm" else None, first)
    return parts


def _oracle_layers(params):
    t = params.tensors
    return [(t[f"mlp:W{i}"], t[f"mlp:b{i}"]) for i in range(sum(n.startswith("mlp:W") for n in t))]


def _oracle_parts(params, fv):
    parts = {}
    for spec in params.specs:
        emb = params.tensors[f"emb:{spec.name}"]
        fo = params.tensors[f"fo:{spec.name}"]
        if spec.kind == "numeric_raw":
            value = F32(fv.dense.get(spec.name, 0.0))
            parts[spec.name] = (value * emb[0], value * fo[0, 0])
            continue
        ids = fv.ids.get(spec.name, ())
        pooled = np.zeros(emb.shape[1], dtype=F32)
        total = F32(0.0)
        for row in ids:
            if not 0 <= row < emb.shape[0]:
                raise IndexOutOfRange(row, emb.shape[0])
            pooled += emb[row]
            total = total + fo[row, 0]
        if spec.pooling == "mean" and ids:
            pooled /= F32(len(ids))
        parts[spec.name] = (pooled, total)
    return parts


def clip_probability(logit: float) -> float:
    """One logit's probability in Python floats, clipped to [1e-7, 1 - 1e-7]: the per-row form of assemble's pass."""
    # Past -700 the probability clips to 1e-7 anyway; math.exp(709.8) overflows.
    p = 1.0 / (1.0 + math.exp(min(-logit, 700.0)))
    return min(max(p, 1e-7), 1.0 - 1e-7)


def oracle_forward(params, fv, scale=None):
    """One sample's float32 forward; returns the intermediates backward needs."""
    parts = _oracle_parts(params, fv)
    scales = {s.name: F32(1.0 if scale is None else scale.get(s.name, 1.0)) for s in params.specs}
    logit = params.tensors["bias"][0]
    for spec in params.specs:
        logit = logit + scales[spec.name] * parts[spec.name][1]
    trace = {"parts": parts, "scales": scales, "gated": scale is not None,
             "scaled": [], "pre": [], "act": [], "mlp_input": None}
    if params.model_type == "deepfm":
        scaled = [scales[s.name] * parts[s.name][0] for s in params.specs]
        total = np.zeros(params.embedding_dim, dtype=F32)
        total_sq = np.zeros(params.embedding_dim, dtype=F32)
        for v in scaled:
            total += v
            total_sq += v * v
        terms = total * total - total_sq
        acc = F32(0.0)
        for k in range(params.embedding_dim):
            acc = acc + terms[k]
        logit = logit + F32(0.5) * acc
        x = np.concatenate(scaled)
        trace["scaled"], trace["mlp_input"] = scaled, x
        layers = _oracle_layers(params)
        for i, (w, b) in enumerate(layers):
            pre = x @ w + b
            trace["pre"].append(pre)
            x = pre if i == len(layers) - 1 else np.maximum(pre, F32(0.0))
            trace["act"].append(x)
        logit = logit + x[0]
    p = 1.0 / (1.0 + math.exp(-float(logit)))
    trace["probability"] = F32(min(max(p, 1e-7), 1.0 - 1e-7))
    return trace


def oracle_backward(params, trace, fv, label, reg):
    """One sample's gradient: {"emb"/"fo": {slot: {row: value}}, "dense": {...}, "gate": {...}}."""
    d = F32(trace["probability"] - F32(label))
    grad = {"emb": {}, "fo": {}, "dense": {"bias": np.array([d], dtype=F32)}, "gate": {}}
    grad_input = None
    layers = _oracle_layers(params)
    if layers:
        delta = np.array([d], dtype=F32)
        for i in range(len(layers) - 1, -1, -1):
            x = trace["act"][i - 1] if i > 0 else trace["mlp_input"]
            grad["dense"][f"mlp:W{i}"] = np.outer(x, delta).astype(F32)
            grad["dense"][f"mlp:b{i}"] = delta.copy()
            delta = delta @ layers[i][0].T
            if i > 0:
                delta = delta * (trace["pre"][i - 1] > 0)
        grad_input = delta
    fm_total = np.zeros(params.embedding_dim, dtype=F32)
    for u in trace["scaled"]:
        fm_total += u
    dim = params.embedding_dim
    for index, spec in enumerate(params.specs):
        pooled, fo_part = trace["parts"][spec.name]
        scale = trace["scales"][spec.name]
        grad_pooled = grad_scaled = None
        if params.model_type == "deepfm":
            grad_scaled = d * (fm_total - trace["scaled"][index])
            grad_scaled = grad_scaled + grad_input[index * dim:(index + 1) * dim]
            grad_pooled = scale * grad_scaled
        if trace["gated"]:
            gate = d * fo_part
            if grad_scaled is not None:
                gate = gate + float(np.dot(grad_scaled, pooled))
            grad["gate"][spec.name] = float(gate)
        emb_slot, fo_slot = {}, {}
        if spec.kind == "numeric_raw":
            value = F32(fv.dense.get(spec.name, 0.0))
            if value != 0.0:
                fo_slot[0] = d * scale * value
                if grad_pooled is not None:
                    emb_slot[0] = grad_pooled * value
        else:
            ids = fv.ids.get(spec.name, ())
            inv = F32(1.0) / F32(len(ids)) if spec.pooling == "mean" and ids else F32(1.0)
            for row in ids:
                fo_slot[row] = fo_slot.get(row, F32(0.0)) + d * scale
                if grad_pooled is not None:
                    contrib = grad_pooled * inv
                    emb_slot[row] = emb_slot[row] + contrib if row in emb_slot else contrib.copy()
        if reg > 0.0 and params.model_type == "deepfm":
            table = params.tensors[f"emb:{spec.name}"]
            for row in list(emb_slot):
                emb_slot[row] = emb_slot[row] + F32(2.0 * reg) * table[row]
        if emb_slot:
            grad["emb"][spec.name] = emb_slot
        if fo_slot:
            grad["fo"][spec.name] = fo_slot
    return grad


def oracle_average(grads):
    """Mean of per-sample gradients over the union of their rows."""
    scale = F32(1.0 / len(grads))
    out = {"emb": {}, "fo": {}, "dense": {n: np.zeros_like(g) for n, g in grads[0]["dense"].items()}}
    for g in grads:
        for slot, rows in g["emb"].items():
            acc = out["emb"].setdefault(slot, {})
            for row, vec in rows.items():
                acc[row] = acc[row] + vec if row in acc else vec.copy()
        for slot, rows in g["fo"].items():
            acc = out["fo"].setdefault(slot, {})
            for row, value in rows.items():
                acc[row] = acc.get(row, F32(0.0)) + value
        for name, arr in g["dense"].items():
            out["dense"][name] += arr
    for kind in ("emb", "fo"):
        for rows in out[kind].values():
            for row in rows:
                rows[row] = rows[row] * scale
    for arr in out["dense"].values():
        arr *= scale
    return out


class OracleAdam:
    """Lazy Adam one row at a time; per-row state in dicts keyed by table name."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, epsilon
        self.sparse = {}  # name -> {row: (m, v, step)}
        self.dense = {}  # name -> [m, v, step]

    def _step(self, value, m, v, t, g):
        b1, b2 = F32(self.beta1), F32(self.beta2)
        m = b1 * m + (F32(1.0) - b1) * g
        v = b2 * v + (F32(1.0) - b2) * (g * g)
        m_hat = m / F32(1.0 - self.beta1 ** t)
        v_hat = v / F32(1.0 - self.beta2 ** t)
        value -= F32(self.lr) * m_hat / (np.sqrt(v_hat) + F32(self.eps))
        return m, v

    def apply(self, params, grad):
        for prefix in ("emb", "fo"):
            for slot, rows in grad[prefix].items():
                name = f"{prefix}:{slot}"
                table = params.tensors[name]
                state = self.sparse.setdefault(name, {})
                for row in sorted(rows):
                    g = np.asarray(rows[row], dtype=F32).reshape(table.shape[1:])
                    m, v, t = state.get(row, (np.zeros_like(table[row]), np.zeros_like(table[row]), 0))
                    m, v = self._step(table[row], m, v, t + 1, g)
                    state[row] = (m, v, t + 1)
        for name, g in grad["dense"].items():
            m, v, t = self.dense.get(name, (np.zeros_like(g), np.zeros_like(g), 0))
            m, v = self._step(params.tensors[name], m, v, t + 1, g)
            self.dense[name] = (m, v, t + 1)


def oracle_train_step(params, optimizer, batch, reg, scales=None):
    """The per-sample step: forward and backward per sample, average, one Adam update."""
    grads = []
    for i, (fv, label) in enumerate(batch):
        trace = oracle_forward(params, fv, None if scales is None else scales[i])
        grads.append(oracle_backward(params, trace, fv, label, reg))
    avg = oracle_average(grads)
    optimizer.apply(params, avg)
    return avg, grads


# ---------------------------------------------------------------------
# Feature selection: the alternating weight/gate loop, scalar by scalar
# ---------------------------------------------------------------------

def _reference_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _reference_gates(log_alpha, names, rng, count, tau):
    """Gates of `count` samples; one rng.random() per gate, sample by sample in slot order."""
    gates = []
    for _ in range(count):
        z = {}
        for name in names:
            u = min(max(rng.random(), 1e-12), 1.0 - 1e-12)
            z[name] = _reference_sigmoid((log_alpha[name] + math.log(u) - math.log(1.0 - u)) / tau)
        gates.append(z)
    return gates


def _reference_samples(cfg, path):
    """A CSV's rows as (features, label) pairs, each row generated on its own."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter=cfg.data_config.delimiter))
    label = cfg.data_config.label_column
    return [(generate_reference(row, cfg.feature_config), int(float(row[label]))) for row in rows]


class _ReferenceScalarAdam:
    """Adam on Python floats, one value at a time."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, epsilon
        self.m, self.v, self.t = {}, {}, 0

    def apply(self, values, grads):
        self.t += 1
        for key, g in grads.items():
            m = self.beta1 * self.m.get(key, 0.0) + (1.0 - self.beta1) * g
            v = self.beta2 * self.v.get(key, 0.0) + (1.0 - self.beta2) * (g * g)
            self.m[key], self.v[key] = m, v
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            values[key] -= self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


def train_with_gates_reference(cfg, params, tau=0.5, lambda_g=1e-3, gate_learning_rate=0.05):
    """Feature selection on the config's files from `params`, the [seed, 0] initial weights.

    Even steps update the weights on a train batch with sampled gates (the
    per-sample step); odd steps update the gates on a validation batch,
    whose order cycles through permutations drawn from the epoch shuffle
    stream [seed, 1] when a row of a new one is needed. Gate noise comes
    from [seed, 2]. Returns (importances, steps); `params` ends trained.
    """
    t = cfg.train_config
    shuffle_rng = np.random.default_rng([t.seed, 1])
    noise_rng = np.random.default_rng([t.seed, 2])
    names = [spec.name for spec in cfg.feature_config]
    log_alpha = {name: 0.0 for name in names}
    weight_opt = OracleAdam(t.learning_rate, t.adam_beta1, t.adam_beta2, t.adam_epsilon)
    gate_opt = _ReferenceScalarAdam(gate_learning_rate)
    train = _reference_samples(cfg, cfg.data_config.train_path)
    valid = _reference_samples(cfg, cfg.data_config.eval_path)
    reg = cfg.model_config.embedding_regularization

    valid_order, valid_pos, steps = [], 0, 0
    for _ in range(t.num_epochs):
        order = shuffle_rng.permutation(len(train)).tolist()
        for start in range(0, len(order), t.batch_size):
            batch = [train[i] for i in order[start:start + t.batch_size]]
            scales = _reference_gates(log_alpha, names, noise_rng, len(batch), tau)
            oracle_train_step(params, weight_opt, batch, reg, scales)
            steps += 1

            picked = []
            for _ in range(min(t.batch_size, len(valid))):
                if valid_pos >= len(valid_order):
                    valid_order = shuffle_rng.permutation(len(valid)).tolist()
                    valid_pos = 0
                picked.append(valid_order[valid_pos])
                valid_pos += 1
            z = _reference_gates(log_alpha, names, noise_rng, len(picked), tau)
            grads = []
            for row, zs in zip(picked, z):
                fv, label = valid[row]
                grads.append(oracle_backward(params, oracle_forward(params, fv, zs), fv, label, 0.0)["gate"])
            gate_grad = {}
            for name in names:
                total = 0.0
                for g, zs in zip(grads, z):
                    total += g[name] * zs[name] * (1.0 - zs[name]) / tau
                p = _reference_sigmoid(log_alpha[name])
                gate_grad[name] = total / len(picked) + lambda_g * p * (1.0 - p)
            gate_opt.apply(log_alpha, gate_grad)
            steps += 1

    return {name: _reference_sigmoid(a) for name, a in log_alpha.items()}, steps
