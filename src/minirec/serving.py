"""Low-latency scoring service with live incremental updates.

A server holds one copy of its parameters and one re-entrant lock,
`ServingModel.lock`. `delta_stream.apply_delta` checks a whole frame and
then writes it into that copy in place, under the lock; scoring reads
the parameters under the same lock. So no request sees a half-applied
frame, and a reply's `model_version` is the version its scores came
from. A frame is decoded before the lock is taken. A frame more than
one version ahead is refused and counted as `deltas_gap`: the server
stays at its last good version rather than report one whose earlier
rows it lacks.

A request's features come from one columnar `generate` call per side:
user, items, cross; with a cache, the item call covers only the keys it
misses. The item cache is an LRU map from the item key alone to a row of
a columnar store (`ItemStore`): per item slot a flat id buffer with a
start and a count per row, per numeric_raw slot a float64 column. A
request takes the cache lock once, looks its keys up in order and
gathers its items' rows with one gather per slot. Features do not depend
on the parameters, so entries survive deltas; the cache assumes that an
item's features are a pure function of its key. The user's row is
repeated to every item, and one `compute_parts` over every slot and one
`assemble` score the request. Cached or not, the features go through
the same calls, so cached and uncached scores are bit-identical.

The HTTP server scores one request at a time: the model's lock covers a
request from its JSON decode to its encoded reply, but no socket read or
write, so a client that stalls its body or its reply holds up no one
else. Two requests scored at once would trade the GIL mid-request and
both finish later than one after the other. At most `MAX_CONNECTIONS`
connections are served at once, each on its own thread; one more is
answered 503 without a thread.

The server reads a subset of HTTP/1.1 itself, on `socketserver`: GET
and POST, a request line and at most 100 header lines of at most 65,536
bytes each, and a body sized by `Content-Length` alone. HTTP/1.1
connections stay open unless the client sends `Connection: close`, and
HTTP/1.0 ones only with `Connection: keep-alive`; `Expect: 100-continue`
on HTTP/1.1 is answered `100 Continue` before the body is read. A head
outside the subset is refused with http.server's status and a JSON
error: 400 for a malformed request line or header line (a folded one
included) or two different `Content-Length` values, 414 for a request
line over the limit, 431 for a header line over it or too many headers,
501 for another method or any `Transfer-Encoding`, 505 for a version
other than HTTP/1.0 and HTTP/1.1, and 417 for another `Expect`. A reply
is one write: status line, `Content-Type`, `Content-Length`, `Date`,
`Connection: close` when the server closes after it, and the body.
A connection the server ends is half-closed and closed only after
`MAX_CONNECTIONS` later ones, so a client still sending when it is
refused reads its reply instead of a reset.
"""

from __future__ import annotations

import contextlib
import json
import logging
import itertools
import math
import socket
import socketserver
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from http import HTTPStatus
from typing import NamedTuple

import numpy as np

from .artifact import load_artifact
from .config import PipelineConfig
from .delta_stream import DeltaMessage, apply_delta, decode_delta
from .errors import InvalidValue, MinirecError, VersionGap
from .features import (
    Columns,
    FeatureBatch,
    FeatureSpec,
    SlotIds,
    columns_of,
    gather_runs,
    generate,
    json_cell,
    record_from_json,
)
from .model import ModelParams, assemble, compute_parts

log = logging.getLogger("minirec.serving")

METRICS_WINDOW = 10_000
# Largest /v1/predict body accepted; a longer Content-Length is refused unread.
MAX_BODY_BYTES = 1 << 20
# Seconds a /v1/predict body may take to arrive once its headers are read.
BODY_TIMEOUT_S = 5.0
# Connections served at once, one thread each; a connection over the cap is answered 503 and closed.
MAX_CONNECTIONS = 64
# Longest request or header line and most header lines in a request head, as http.server allows.
MAX_LINE_BYTES = 65_536
MAX_HEADERS = 100


@dataclass(frozen=True)
class SlotPartition:
    """Feature slots split by which request side determines them.

    A slot whose source columns all start with "user_" is user-side and
    computed once per request; all "item_" is item-side and cacheable per
    item; anything else (crosses, mixed sources) must be computed fresh
    per (user, item) pair.
    """

    user: tuple[FeatureSpec, ...]
    item: tuple[FeatureSpec, ...]
    cross: tuple[FeatureSpec, ...]


def partition_slots(specs: tuple[FeatureSpec, ...]) -> SlotPartition:
    user, item, cross = [], [], []
    for spec in specs:
        if all(c.startswith("user_") for c in spec.source_columns):
            user.append(spec)
        elif all(c.startswith("item_") for c in spec.source_columns):
            item.append(spec)
        else:
            cross.append(spec)
    return SlotPartition(user=tuple(user), item=tuple(item), cross=tuple(cross))


def _room(a: np.ndarray, size: int) -> np.ndarray:
    """`a`, or `a` in a zeroed array at least twice as long, with room for `size` entries."""
    if size <= len(a):
        return a
    grown = np.zeros(max(size, 2 * len(a), 16), dtype=a.dtype)
    grown[: len(a)] = a
    return grown


class _IdColumn:
    """One hashed or bucketized item slot of an `ItemStore`.

    Row r's ids are `buf[start[r] : start[r] + count[r]]`. A row's ids are
    written once, at the end of the used part of the buffer; a freed row's
    ids become garbage, and once garbage passes half of the used part the
    live rows are moved down, in row order.
    """

    def __init__(self):
        self.buf, self.start, self.count = (np.zeros(0, dtype=np.int64) for _ in range(3))
        self.used = self.garbage = 0

    def put(self, row: int, ids: np.ndarray) -> None:
        end = self.used + len(ids)
        self.buf = _room(self.buf, end)
        self.start, self.count = _room(self.start, row + 1), _room(self.count, row + 1)
        self.buf[self.used : end] = ids
        self.start[row], self.count[row], self.used = self.used, len(ids), end

    def free(self, rows: list[int]) -> None:
        self.garbage += int(self.count[rows].sum())
        self.count[rows] = 0
        if 2 * self.garbage > self.used:
            live = gather_runs(self.buf, self.start, self.count)
            self.used, self.garbage = len(live.ids), 0
            self.buf[: self.used] = live.ids
            self.start = live.offsets[:-1].copy()


class ItemStore:
    """Item-side features of cached items in columns, one row per item.

    Each hashed or bucketized slot is an `_IdColumn`, each numeric_raw slot
    a float64 column. Freed rows are reused. `take` gathers rows with one
    gather per slot.
    """

    def __init__(self, specs: tuple[FeatureSpec, ...]):
        self._ids = {s.name: _IdColumn() for s in specs if s.kind != "numeric_raw"}
        self._dense = {s.name: np.zeros(0) for s in specs if s.kind == "numeric_raw"}
        self._rows = 0
        self._free: list[int] = []

    def put(self, batch: FeatureBatch, k: int) -> int:
        """Row k of `batch` as a new row; raises that row's error if it has one."""
        if k in batch.errors:
            raise batch.errors[k]
        if self._free:
            row = self._free.pop()
        else:
            row, self._rows = self._rows, self._rows + 1
        for name, column in self._ids.items():
            ids, offsets = batch.ids[name]
            column.put(row, ids[offsets[k] : offsets[k + 1]])
        for name in self._dense:
            self._dense[name] = _room(self._dense[name], row + 1)
            self._dense[name][row] = batch.dense[name][k]
        return row

    def free(self, rows: list[int]) -> None:
        if rows:
            for column in self._ids.values():
                column.free(rows)
            self._free.extend(rows)

    def take(self, rows: list[int]) -> FeatureBatch:
        index = np.array(rows, dtype=np.int64)
        ids = {name: gather_runs(c.buf, c.start[index], c.count[index]) for name, c in self._ids.items()}
        dense = {name: values[index] for name, values in self._dense.items()}
        return FeatureBatch(len(rows), ids, dense)


class LruCache:
    """LRU map from an item key to its row of a columnar `ItemStore`.

    `score` keeps item features here through `item_rows`; the store binds
    to the item slots on first use.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._store: ItemStore | None = None

    def item_rows(
        self, specs: tuple[FeatureSpec, ...], keys: list[str], features, skip
    ) -> tuple[FeatureBatch, int, set[int]]:
        """Look up `keys` in order and gather their features, all under one hold of the lock.

        Key k is one get-or-insert: a miss stores the features of position
        k, unless they failed. `features(positions)` generates the item
        features of those positions of the request, one row each. The first
        miss, at position k of n, generates every later position whose key
        is not cached at that moment or may be evicted before its turn.
        Each position moves at most one key off the LRU end (a hit moves
        its key to the other end, a miss evicts one), so only the first
        n - k keys in LRU order can be evicted, and none when the cache has
        room for n - k more: a request makes one call. Returns the features
        of the keys that neither failed nor are in `skip`, in key order,
        the hit count and the failed positions.
        Rows evicted on the way are freed only after the gather, so a key
        evicted by a later key of the same request still reads its own row.
        """
        with self._lock:
            if self._store is None:
                self._store = ItemStore(specs)
            store, data = self._store, self._data
            # position -> (generated batch, its row there)
            generated: dict[int, tuple[FeatureBatch, int]] = {}
            rows, hits, failed, evicted = [], 0, set(), []
            for k, key in enumerate(keys):
                if key in data:
                    data.move_to_end(key)
                    row = data[key]
                    hits += 1
                else:
                    if k not in generated:
                        left = len(keys) - k
                        evictable = set(itertools.islice(data, left)) if left > self.capacity - len(data) else ()
                        todo = [j for j in range(k, len(keys)) if keys[j] not in data or keys[j] in evictable]
                        batch = features(todo)
                        generated.update((j, (batch, row)) for row, j in enumerate(todo))
                    try:
                        row = store.put(*generated[k])
                    except MinirecError:
                        failed.add(k)
                        continue
                    data[key] = row
                    if len(data) > self.capacity:
                        evicted.append(data.popitem(last=False)[1])
                if k not in skip:
                    rows.append(row)
            batch = store.take(rows)
            store.free(evicted)
        return batch, hits, failed

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class ScoreResponse:
    """A request's scores; `nulled` counts the rows nulled for a non-finite logit."""

    scores: list[float | None]
    model_version: int
    cache_hits: int
    nulled: int = 0

    def to_plain(self) -> dict:
        return {
            "scores": self.scores,
            "model_version": self.model_version,
            "cache_hits": self.cache_hits,
        }


class ServingModel:
    """One versioned copy of the parameters; frames apply in place under `lock`, which scoring also holds."""

    def __init__(self, params: ModelParams, config: PipelineConfig):
        self._params = params
        self.config = config
        self.partition = partition_slots(config.feature_config)
        self.lock = threading.RLock()

    @property
    def version(self) -> int:
        return self._params.model_version

    def snapshot(self) -> ModelParams:
        """The live parameters, not a copy: `apply_delta` writes into them, so hold `lock` to read one version."""
        return self._params

    def apply_delta(self, msg: DeltaMessage) -> int | None:
        """Apply one message in place; returns the new version, or None if already held.

        A rejected message raises and leaves version and parameters untouched.
        """
        with self.lock:
            return apply_delta(self._params, msg)


def load_model(path: str) -> ServingModel:
    artifact = load_artifact(path)
    return ServingModel(artifact.params, artifact.config)


def score(
    model: ServingModel, request: dict, cache: LruCache | None = None
) -> ScoreResponse:
    """Score every item in the request against the parameters at one version.

    Features come from one `generate` call per request side: the user's record
    as one row, the items' records (with a cache, only those of the keys it
    misses; see `LruCache.item_rows`), and the cross slots over every item,
    whose cells are the item's own or else the user's. A cached item's
    features are its row of the cache's columnar store. The user's row is
    repeated to every valid item, and one `compute_parts` over every slot
    and one `assemble` score all of them; no row's result depends on the
    others. A per-item feature failure yields a null score in that position,
    and so does a row whose logit is not finite (counted in `nulled`); a
    user-side feature failure raises. cache_hits counts item-side cache
    hits. The features are generated outside the model's lock, and the
    parameters and their version are read under it.
    """
    part = model.partition
    user_record = record_from_json(request.get("user") or {})
    user = generate(columns_of([user_record], part.user), part.user)
    if user.errors:
        raise user.errors[0]

    items = request.get("items") or []
    scores: list[float | None] = [None] * len(items)
    keys, raw, positions = [], [], []
    for position, item in enumerate(items):
        if not isinstance(item, dict) or "key" not in item:
            continue
        features = item.get("features") or {}
        if isinstance(features, dict):
            keys.append(str(item["key"]))
            raw.append(features)
            positions.append(position)

    # An item's cross cell is its own value, else the user's, as in the record {**user, **item}.
    cells = {name: [json_cell(f.get(name, user_record.get(name, ""))) for f in raw]
             for name in {c for spec in part.cross for c in spec.source_columns}}
    cross = generate(Columns(len(raw), cells), part.cross)

    def generate_items(positions) -> FeatureBatch:
        return generate(columns_of([record_from_json(raw[k]) for k in positions], part.item), part.item)

    hits, nulled = 0, 0
    if cache is None:
        item_batch = generate_items(range(len(raw)))
        failed = set(item_batch.errors)
    else:
        item_batch, hits, failed = cache.item_rows(part.item, keys, generate_items, cross.errors)
    valid = [k for k in range(len(keys)) if k not in failed and k not in cross.errors]
    with model.lock:
        params = model.snapshot()
        if valid:
            n = len(valid)
            if n < len(keys):
                cross = cross.take(np.array(valid))
            if cache is None and n < len(keys):
                item_batch = item_batch.take(np.array(valid))
            # The user's one row, repeated to every valid item.
            ids = {name: SlotIds(np.tile(ids, n), np.arange(n + 1, dtype=np.int64) * len(ids))
                   for name, (ids, _) in user.ids.items()}
            dense = {name: np.repeat(values, n) for name, values in user.dense.items()}
            for side in (item_batch, cross):
                ids.update(side.ids)
                dense.update(side.dense)
            trace = assemble(params, compute_parts(params, FeatureBatch(n, ids, dense)))
            for k, logit, probability in zip(valid, trace.logit.tolist(), trace.probability.tolist()):
                # A float32 overflow (a huge numeric_raw value) leaves no score to give.
                if math.isfinite(logit):
                    scores[positions[k]] = probability
                else:
                    nulled += 1
        version = params.model_version
    return ScoreResponse(scores=scores, model_version=version, cache_hits=hits, nulled=nulled)


class _Metrics:
    """Counters, and windows of the latest requests' timings.

    `latency_*` times `score` alone. `request_*` times a /v1/predict request
    from its request line read to its reply written, and `lock_wait_*` the
    part of it spent waiting for the model's lock, behind other requests
    and frame applies.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # The latest scores' (monotonic time, latency_us, cache_hits, items) and
        # requests' (request_us, lock_wait_us): rings of floats, 32 and 16 bytes an entry.
        self._window = np.zeros((METRICS_WINDOW, 4))
        self._scored = 0
        self._requests = np.zeros((METRICS_WINDOW, 2))
        # Frames applied, failed decode or validation, dropped as already held or
        # refused for a version gap; consume calls that raised; scores nulled;
        # /v1/predict requests whose body arrived.
        self.counters = {"deltas_applied": 0, "deltas_rejected": 0, "deltas_stale": 0,
                         "deltas_gap": 0, "queue_errors": 0, "scores_nulled": 0, "requests": 0}

    def record(self, latency_us: float, cache_hits: int, items: int) -> None:
        with self._lock:
            self._window[self._scored % METRICS_WINDOW] = time.monotonic(), latency_us, cache_hits, items
            self._scored += 1

    def record_request(self, request_us: float, lock_wait_us: float) -> None:
        with self._lock:
            self._requests[self.counters["requests"] % METRICS_WINDOW] = request_us, lock_wait_us
            self.counters["requests"] += 1

    def count(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1

    @staticmethod
    def _percentiles(name: str, values) -> dict:
        """Nearest-rank p50, p95 and p99 of `values` as `<name>_p<q>_us`, from one sort; 0.0 for no values."""
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        n = len(ordered)
        return {f"{name}_p{round(q * 100)}_us": float(ordered[max(1, min(n, round(q * n + 0.5))) - 1]) if n else 0.0
                for q in (0.50, 0.95, 0.99)}

    def snapshot(self) -> dict:
        with self._lock:
            window = self._window[: self._scored].copy()
            requests = self._requests[: self.counters["requests"]].copy()
            counters = dict(self.counters)
        times, latencies, hits, items = window.T
        # Times are taken under the lock, so the ring's oldest is its least and its newest its greatest.
        span = float(times.max() - times.min()) if len(times) > 1 else 0.0
        total_items = items.sum()
        return {
            "qps": len(window) / span if span > 0 else 0.0,
            "cache_hit_rate": float(hits.sum() / total_items) if total_items else 0.0,
            **self._percentiles("latency", latencies),
            **self._percentiles("request", requests[:, 0]),
            **self._percentiles("lock_wait", requests[:, 1]),
            **counters,
        }


class _Poller(threading.Thread):
    def __init__(self, model: ServingModel, consumer, metrics: _Metrics, interval_s: float):
        super().__init__(daemon=True, name="minirec-delta-poller")
        self.model = model
        self.consumer = consumer
        self.metrics = metrics
        self.interval_s = interval_s
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.is_set():
            try:
                frame = self.consumer.consume(timeout=self.interval_s)
            except MinirecError as exc:
                self.metrics.count("queue_errors")
                log.warning("queue consume failed: %s", exc)
                time.sleep(self.interval_s)
                continue
            if frame is None:
                continue
            try:
                version = self.model.apply_delta(decode_delta(frame))
            except VersionGap as exc:
                self.metrics.count("deltas_gap")
                log.warning("delta refused: %s", exc)
                continue
            except MinirecError as exc:
                self.metrics.count("deltas_rejected")
                log.warning("delta rejected: %s", exc)
                continue
            if version is None:
                self.metrics.count("deltas_stale")
            else:
                self.metrics.count("deltas_applied")
                log.info("applied delta, model_version=%d", version)


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _reply(status: int, body: bytes, close: bool = False) -> bytes:
    """A whole JSON reply: status line, headers, the `Date` in RFC 7231's form, and the body."""
    t = time.gmtime()
    return (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nDate: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} "
            f"{_MONTHS[t.tm_mon - 1]} {t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")).encode("ascii") + body


class _Refused(Exception):
    """A request head outside the served subset of HTTP/1.1; `status` is its reply's."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Head(NamedTuple):
    method: str
    path: str
    headers: dict[str, str]  # keyed by lower-cased name; a repeated header keeps its first value
    keep_alive: bool
    expects_continue: bool


def _read_head(request_line: bytes, rfile) -> _Head:
    """The request head that `request_line` starts, its header lines read from `rfile`.

    Raises `_Refused` with http.server's status for a head outside the
    subset served (see the module docstring).
    """
    if len(request_line) > MAX_LINE_BYTES:
        raise _Refused(414, f"request line longer than {MAX_LINE_BYTES} bytes")
    words = request_line.split()
    if len(words) != 3:
        raise _Refused(400, "malformed request line")
    method, target, protocol = words
    numbers = protocol[5:].split(b".") if protocol.startswith(b"HTTP/") else ()
    if len(numbers) != 2 or not all(n.isdigit() and len(n) <= 10 for n in numbers):
        raise _Refused(400, "malformed HTTP version")
    version = tuple(map(int, numbers))
    if version not in ((1, 0), (1, 1)):
        raise _Refused(505, "HTTP version not supported")
    headers: dict[str, str] = {}
    for count in itertools.count():
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(431, f"header line longer than {MAX_LINE_BYTES} bytes")
        if line in (b"\r\n", b"\n", b""):
            break
        if count == MAX_HEADERS:
            raise _Refused(431, f"more than {MAX_HEADERS} header lines")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            # A line starting with whitespace continues the previous one (obs-fold).
            raise _Refused(400, "malformed header line")
        name, value = name.lower(), value.strip(" \t\r\n")
        if name == "content-length" and headers.get(name, value) != value:
            raise _Refused(400, "two different Content-Length values")
        headers.setdefault(name, value)
    if method not in (b"GET", b"POST"):
        raise _Refused(501, f"method {method.decode('latin-1')!r} not implemented")
    if "transfer-encoding" in headers:
        raise _Refused(501, "Transfer-Encoding not implemented")
    expect = headers.get("expect")
    if expect is not None and expect.lower() != "100-continue":
        raise _Refused(417, f"expectation {expect!r} not supported")
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" if version == (1, 1) else connection == "keep-alive"
    return _Head(method.decode("ascii"), target.decode("latin-1"), headers, keep_alive,
                 expect is not None and version == (1, 1))


_BUSY_BODY = json.dumps({"error": "too many connections"}).encode("utf-8")


class _Server(socketserver.TCPServer):
    """A TCP server with one thread per connection and at most MAX_CONNECTIONS of them.

    A connection over the cap is answered 503 with `Connection: close` by
    the accepting thread, without blocking it; no thread starts for it.
    Every connection the server ends, refused or served, is half-closed
    and parked: it is closed once MAX_CONNECTIONS later ones are parked,
    or with the server. A client still sending its request when it is
    refused thus reads the reply, where a close with its bytes unread
    would answer them with a reset.
    """

    allow_reuse_address = True

    def __init__(self, bind, handler):
        super().__init__(bind, handler)
        self._free = threading.Semaphore(MAX_CONNECTIONS)
        self._parked: deque | None = deque()
        self._parked_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        if not self._free.acquire(blocking=False):
            request.setblocking(False)
            with contextlib.suppress(OSError):
                request.sendall(_reply(503, _BUSY_BODY, close=True))
            self.shutdown_request(request)
            return
        threading.Thread(target=self._serve, args=(request, client_address),
                         daemon=True, name="minirec-connection").start()

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self._free.release()

    def shutdown_request(self, request) -> None:
        """Half-close `request` and park it; close the oldest parked one past MAX_CONNECTIONS."""
        with contextlib.suppress(OSError):
            request.shutdown(socket.SHUT_WR)
        with self._parked_lock:
            if self._parked is not None:
                self._parked.append(request)
                if len(self._parked) <= MAX_CONNECTIONS:
                    return
                request = self._parked.popleft()
        request.close()

    def server_close(self) -> None:
        super().server_close()
        with self._parked_lock:
            parked, self._parked = self._parked or (), None
        for request in parked:
            request.close()


@dataclass
class ServerHandle:
    address: tuple[str, int]
    _server: _Server
    _server_thread: threading.Thread
    _poller: _Poller | None

    def shutdown(self) -> None:
        if self._poller is not None:
            self._poller.stop_event.set()
            self._poller.join(timeout=5.0)
        self._server.shutdown()
        self._server_thread.join(timeout=5.0)
        self._server.server_close()


def http_serve(
    model: ServingModel,
    cache: LruCache | None,
    consumer=None,
    bind: tuple[str, int] = ("127.0.0.1", 0),
    poll_interval_ms: int = 1000,
) -> ServerHandle:
    """Start the HTTP service and (when a consumer is given) the poller.

    Endpoints: POST /v1/predict, GET /v1/version, GET /v1/metrics.
    Returns a handle with the bound address and a shutdown method.
    Raises InvalidValue, before any thread starts, if poll_interval_ms < 1.
    """
    if poll_interval_ms < 1:
        raise InvalidValue("poll_interval_ms", "must be >= 1")
    metrics = _Metrics()

    def predict(body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body.decode("utf-8"))
            if not isinstance(request, dict) or not isinstance(request.get("items"), list):
                raise ValueError("request must be an object with an items array")
            if request.get("user") is not None and not isinstance(request["user"], dict):
                raise ValueError("user must be an object")
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8; RecursionError, arrays nested too deep.
            return 400, {"error": str(exc)}
        try:
            start = time.perf_counter()
            response = score(model, request, cache)
            latency_us = (time.perf_counter() - start) * 1e6
        except MinirecError as exc:
            # A user-side feature failure: per-item failures score null instead.
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500 path
            log.exception("predict failed")
            return 500, {"error": str(exc)}
        metrics.record(latency_us, response.cache_hits, len(response.scores))
        for _ in range(response.nulled):
            metrics.count("scores_nulled")
        return 200, response.to_plain()

    class Handler(socketserver.StreamRequestHandler):
        # A reply over one segment, or 100 Continue and then a reply, would
        # otherwise wait for the client's delayed ACK (about 40 ms).
        disable_nagle_algorithm = True

        def handle(self) -> None:
            # A client that resets the connection has left; there is no one to answer.
            with contextlib.suppress(ConnectionError):
                while self._serve_one():
                    pass

        def _serve_one(self) -> bool:
            """Read and answer one request; whether the connection stays open for the next."""
            request_line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not request_line:
                return False
            # A request's latency starts once its request line is read.
            started = time.perf_counter()
            try:
                head = _read_head(request_line, self.rfile)
            except _Refused as exc:
                self._send(exc.status, {"error": str(exc)}, close=True)
                return False
            if head.method == "GET":
                if head.path == "/v1/version":
                    self._send(200, {"model_version": model.version}, not head.keep_alive)
                elif head.path == "/v1/metrics":
                    self._send(200, metrics.snapshot(), not head.keep_alive)
                else:
                    self._send(404, {"error": f"no such path {head.path!r}"}, not head.keep_alive)
                return head.keep_alive
            # A refused POST leaves its body unread, so the connection cannot be reused.
            if head.path != "/v1/predict":
                self._send(404, {"error": f"no such path {head.path!r}"}, close=True)
                return False
            text = head.headers.get("content-length", "0")
            if not (text.isascii() and text.isdigit()) or int(text) > MAX_BODY_BYTES:
                self._send(400, {"error": f"Content-Length must be an integer in 0..{MAX_BODY_BYTES}"},
                           close=True)
                return False
            if head.expects_continue:
                self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = self._read_body(int(text))
            if body is None:
                return False
            # Held from the JSON decode to the encoded reply, never across a
            # socket read or write. Two requests scored at once hand the GIL
            # back and forth mid-request and both finish late.
            waited = time.perf_counter()
            with model.lock:
                locked = time.perf_counter()
                status, payload = predict(body)
                reply = json.dumps(payload).encode("utf-8")
            self._write(_reply(status, reply, not head.keep_alive))
            metrics.record_request((time.perf_counter() - started) * 1e6, (locked - waited) * 1e6)
            return head.keep_alive

        def _send(self, status: int, payload: dict, close: bool) -> None:
            self._write(_reply(status, json.dumps(payload).encode("utf-8"), close))

        def _write(self, data: bytes) -> None:
            # A client that has hung up gets no reply; the next read sees it gone.
            with contextlib.suppress(ConnectionError):
                self.connection.sendall(data)

        def _read_body(self, length: int) -> bytes | None:
            """The body, or None after a 400 if fewer than `length` bytes come within BODY_TIMEOUT_S.

            The timeout covers the body only, so idle keep-alive connections
            between requests are not affected.
            """
            self.connection.settimeout(BODY_TIMEOUT_S)
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                body = b""
            finally:
                self.connection.settimeout(None)
            if len(body) < length:
                self._send(400, {"error": f"body shorter than its Content-Length {length}"}, close=True)
                return None
            return body

    server = _Server(bind, Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True, name="minirec-http")
    thread.start()
    poller = None
    if consumer is not None:
        poller = _Poller(model, consumer, metrics, poll_interval_ms / 1000.0)
        poller.start()
    host, port = server.server_address[:2]
    log.info("serving on %s:%d", host, port)
    return ServerHandle(address=(host, port), _server=server, _server_thread=thread, _poller=poller)
