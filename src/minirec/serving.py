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
answered 503 and closed without a thread.
"""

from __future__ import annotations

import contextlib
import json
import logging
import itertools
import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer

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
        self._window: deque = deque(maxlen=METRICS_WINDOW)
        # The latest requests' (request_us, lock_wait_us), a ring of floats: 16 bytes a request.
        self._requests = np.zeros((METRICS_WINDOW, 2))
        # Frames applied, failed decode or validation, dropped as already held or
        # refused for a version gap; consume calls that raised; scores nulled;
        # /v1/predict requests whose body arrived.
        self.counters = {"deltas_applied": 0, "deltas_rejected": 0, "deltas_stale": 0,
                         "deltas_gap": 0, "queue_errors": 0, "scores_nulled": 0, "requests": 0}

    def record(self, latency_us: float, cache_hits: int, items: int) -> None:
        with self._lock:
            self._window.append((time.monotonic(), latency_us, cache_hits, items))

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
            window = list(self._window)
            requests = self._requests[: self.counters["requests"]].copy()
            counters = dict(self.counters)
        total_items = sum(w[3] for w in window)
        total_hits = sum(w[2] for w in window)
        span = window[-1][0] - window[0][0] if len(window) > 1 else 0.0
        return {
            "qps": len(window) / span if span > 0 else 0.0,
            "cache_hit_rate": total_hits / total_items if total_items else 0.0,
            **self._percentiles("latency", [w[1] for w in window]),
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


_BUSY_BODY = json.dumps({"error": "too many connections"}).encode("utf-8")
_BUSY_REPLY = (b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
               b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(_BUSY_BODY), _BUSY_BODY))


class _Server(HTTPServer):
    """An HTTP server with one thread per connection and at most MAX_CONNECTIONS of them.

    A connection over the cap is answered 503 with `Connection: close` by
    the accepting thread, without blocking it, and closed; no thread
    starts for it. Its request is left unread, so a client still sending
    it may see a reset in place of the reply.
    """

    def __init__(self, bind, handler):
        super().__init__(bind, handler)
        self._free = threading.Semaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self._free.acquire(blocking=False):
            request.setblocking(False)
            with contextlib.suppress(OSError):
                request.sendall(_BUSY_REPLY)
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

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two writes; with Nagle on, the second
        # waits for the client's delayed ACK (about 40 ms) on keep-alive.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            log.debug("http: " + fmt, *args)

        def parse_request(self) -> bool:
            # Called once the request line is read: a request's latency starts here.
            self.started = time.perf_counter()
            return super().parse_request()

        def _reply(self, status: int, payload: dict, close: bool = False) -> None:
            self._send(status, json.dumps(payload).encode("utf-8"), close)

        def _send(self, status: int, body: bytes, close: bool = False) -> None:
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                # The client has hung up; there is no one left to answer.
                self.close_connection = True

        def _read_body(self, length: int) -> bytes | None:
            """The body, or None after a 400 if fewer than `length` bytes come within BODY_TIMEOUT_S.

            The timeout covers the body only, so idle keep-alive connections
            between requests are not affected.
            """
            idle_timeout = self.connection.gettimeout()
            self.connection.settimeout(BODY_TIMEOUT_S)
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                body = b""
            finally:
                self.connection.settimeout(idle_timeout)
            if len(body) < length:
                self._reply(400, {"error": f"body shorter than its Content-Length {length}"}, close=True)
                return None
            return body

        def _body_length(self) -> int | None:
            """The declared body length, or None unless it is digits up to MAX_BODY_BYTES."""
            text = self.headers.get("Content-Length", "0")
            if not (text.isascii() and text.isdigit()) or int(text) > MAX_BODY_BYTES:
                return None
            return int(text)

        def do_GET(self) -> None:
            if self.path == "/v1/version":
                self._reply(200, {"model_version": model.version})
            elif self.path == "/v1/metrics":
                self._reply(200, metrics.snapshot())
            else:
                self._reply(404, {"error": f"no such path {self.path!r}"})

        def do_POST(self) -> None:
            if self.path != "/v1/predict":
                self._reply(404, {"error": f"no such path {self.path!r}"})
                return
            length = self._body_length()
            if length is None:
                # The body is left unread, so the connection cannot be reused.
                self._reply(
                    400, {"error": f"Content-Length must be an integer in 0..{MAX_BODY_BYTES}"},
                    close=True,
                )
                return
            body = self._read_body(length)
            if body is None:
                return
            # Held from the JSON decode to the encoded reply, never across a
            # socket read or write. Two requests scored at once hand the GIL
            # back and forth mid-request and both finish late.
            waited = time.perf_counter()
            with model.lock:
                locked = time.perf_counter()
                status, payload = predict(body)
                reply = json.dumps(payload).encode("utf-8")
            self._send(status, reply)
            metrics.record_request((time.perf_counter() - self.started) * 1e6, (locked - waited) * 1e6)

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
