"""Low-latency scoring service with live incremental updates.

Readers score against an immutable parameter snapshot grabbed once per
request; `delta_stream.apply_delta` builds the next snapshot, copying only
the parameter arenas a message touches, and the server publishes it with
a single reference swap. Readers never lock and never observe a
half-applied message. A frame more than one version ahead is refused and
counted as `deltas_gap`: the server stays at its last good version rather
than report one whose earlier rows it lacks.

A request's features come from one columnar `generate` call per side:
user, items, cross. The item cache stores each item's item-side features
as a one-row batch, keyed by the item key alone, and a request
concatenates its items' rows. Features do not depend on the parameters,
so entries survive deltas; the cache assumes that an item's features are
a pure function of its key. Cached or not, the features go through the
same `compute_parts` and `assemble` calls, so cached and uncached scores
are bit-identical.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .artifact import load_artifact
from .config import PipelineConfig
from .delta_stream import DeltaMessage, apply_delta, decode_delta
from .errors import InvalidValue, MinirecError, VersionGap
from .features import FeatureBatch, FeatureSpec, columns_of, generate, record_from_json, stack_rows
from .model import ModelParams, SlotPart, assemble, compute_parts

log = logging.getLogger("minirec.serving")

METRICS_WINDOW = 10_000
# Largest /v1/predict body accepted; a longer Content-Length is refused unread.
MAX_BODY_BYTES = 1 << 20
# Seconds a /v1/predict body may take to arrive once its headers are read.
BODY_TIMEOUT_S = 5.0


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


class LruCache:
    """Classic LRU with linearizable per-key get-or-insert accounting."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get_or_insert(self, key, compute) -> tuple[object, bool]:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key], True
            value = compute()
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
            return value, False

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
    """Versioned parameter store with copy-on-write delta application."""

    def __init__(self, params: ModelParams, config: PipelineConfig):
        self._params = params
        self.config = config
        self.partition = partition_slots(config.feature_config)
        self._write_lock = threading.Lock()

    @property
    def version(self) -> int:
        return self._params.model_version

    def snapshot(self) -> ModelParams:
        return self._params

    def apply_delta(self, msg: DeltaMessage) -> int | None:
        """Apply one message; returns the new version, or None if already held.

        A rejected message raises and leaves version and parameters untouched.
        """
        with self._write_lock:
            fresh = apply_delta(self._params, msg)
            if fresh is None:
                return None
            self._params = fresh
            return fresh.model_version


def load_model(path: str) -> ServingModel:
    artifact = load_artifact(path)
    return ServingModel(artifact.params, artifact.config)


def score(
    model: ServingModel, request: dict, cache: LruCache | None = None
) -> ScoreResponse:
    """Score every item in the request against one parameter snapshot.

    Features come from one `generate` call per request side: the user's
    record as one row, the items' records (only when the cache misses one
    of them), and the cross slots over every (user, item) record. A cached
    item's features are its one-row batch; the request concatenates the
    rows. The user slots' parts are computed on one row and repeated to
    every item, the item and cross slots' parts over all items, one call
    each; one assemble pass follows, and no row's result depends on the
    others. A per-item feature failure yields a null score in that
    position, and so does a row whose logit is not finite (counted in
    `nulled`); a user-side feature failure raises. cache_hits counts
    item-side cache hits.
    """
    params = model.snapshot()
    part = model.partition
    user_record = record_from_json(request.get("user") or {})
    user = generate(columns_of([user_record], part.user), part.user)
    if user.errors:
        raise user.errors[0]

    items = request.get("items") or []
    scores: list[float | None] = [None] * len(items)
    keys, item_records, positions = [], [], []
    for position, item in enumerate(items):
        if not isinstance(item, dict) or "key" not in item:
            continue
        features = item.get("features") or {}
        if isinstance(features, dict):
            keys.append(str(item["key"]))
            item_records.append(record_from_json(features))
            positions.append(position)

    # The request's item features, generated once, on the first cache miss.
    generated = functools.cache(lambda: generate(columns_of(item_records, part.item), part.item))

    def item_row(k: int) -> FeatureBatch:
        # A copy, not a view: a cached row must not keep the request's arrays alive.
        batch = generated()
        if k in batch.errors:
            raise batch.errors[k]
        return batch.take(np.array([k]))

    hits, nulled, rows, failed = 0, 0, {}, set()
    if cache is None:
        failed.update(generated().errors)
    else:
        for k, key in enumerate(keys):
            try:
                rows[k], hit = cache.get_or_insert(key, lambda: item_row(k))
                hits += hit
            except MinirecError:
                failed.add(k)
    cross = generate(columns_of([{**user_record, **r} for r in item_records], part.cross), part.cross)
    valid = [k for k in range(len(keys)) if k not in failed and k not in cross.errors]
    if valid:
        if cache is not None:
            item_batch = stack_rows([rows[k] for k in valid])
        else:
            item_batch = generated()
        if len(valid) < len(keys):
            index = np.array(valid, dtype=np.int64)
            cross = cross.take(index)
            if cache is None:
                item_batch = item_batch.take(index)
        n = len(valid)
        parts: dict[str, SlotPart] = {}
        for name, p in compute_parts(params, user, part.user).items():
            pooled = None if p.pooled is None else np.repeat(p.pooled, n, axis=0)
            parts[name] = SlotPart(pooled, np.repeat(p.fo, n))
        parts.update(compute_parts(params, item_batch, part.item))
        parts.update(compute_parts(params, cross, part.cross))
        trace = assemble(params, parts)
        for k, logit, probability in zip(valid, trace.logit.tolist(), trace.probability.tolist()):
            # A float32 overflow (a huge numeric_raw value) leaves no score to give.
            if math.isfinite(logit):
                scores[positions[k]] = probability
            else:
                nulled += 1
    return ScoreResponse(scores=scores, model_version=params.model_version, cache_hits=hits, nulled=nulled)


class _Metrics:
    def __init__(self):
        self._lock = threading.Lock()
        self._window: deque = deque(maxlen=METRICS_WINDOW)
        # Frames applied, failed decode or validation, dropped as already held or
        # refused for a version gap; consume calls that raised; scores nulled.
        self.counters = {"deltas_applied": 0, "deltas_rejected": 0, "deltas_stale": 0,
                         "deltas_gap": 0, "queue_errors": 0, "scores_nulled": 0}

    def record(self, latency_us: float, cache_hits: int, items: int) -> None:
        with self._lock:
            self._window.append((time.monotonic(), latency_us, cache_hits, items))

    def count(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1

    @staticmethod
    def _percentile(values: list[float], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        with self._lock:
            window = list(self._window)
            counters = dict(self.counters)
        latencies = [w[1] for w in window]
        total_items = sum(w[3] for w in window)
        total_hits = sum(w[2] for w in window)
        span = window[-1][0] - window[0][0] if len(window) > 1 else 0.0
        return {
            "qps": len(window) / span if span > 0 else 0.0,
            "cache_hit_rate": total_hits / total_items if total_items else 0.0,
            "latency_p50_us": self._percentile(latencies, 0.50),
            "latency_p95_us": self._percentile(latencies, 0.95),
            "latency_p99_us": self._percentile(latencies, 0.99),
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


@dataclass
class ServerHandle:
    address: tuple[str, int]
    _server: ThreadingHTTPServer
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

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two writes; with Nagle on, the second
        # waits for the client's delayed ACK (about 40 ms) on keep-alive.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            log.debug("http: " + fmt, *args)

        def _reply(self, status: int, payload: dict, close: bool = False) -> None:
            body = json.dumps(payload).encode("utf-8")
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
            try:
                request = json.loads(body.decode("utf-8"))
                if not isinstance(request, dict) or not isinstance(request.get("items"), list):
                    raise ValueError("request must be an object with an items array")
                if request.get("user") is not None and not isinstance(request["user"], dict):
                    raise ValueError("user must be an object")
            except (ValueError, RecursionError) as exc:
                # ValueError covers bad UTF-8; RecursionError, arrays nested too deep.
                self._reply(400, {"error": str(exc)})
                return
            try:
                start = time.perf_counter()
                response = score(model, request, cache)
                latency_us = (time.perf_counter() - start) * 1e6
                metrics.record(latency_us, response.cache_hits, len(response.scores))
                for _ in range(response.nulled):
                    metrics.count("scores_nulled")
                self._reply(200, response.to_plain())
            except MinirecError as exc:
                # A user-side feature failure: per-item failures score null instead.
                self._reply(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive 500 path
                log.exception("predict failed")
                self._reply(500, {"error": str(exc)})

    server = ThreadingHTTPServer(bind, Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True, name="minirec-http")
    thread.start()
    poller = None
    if consumer is not None:
        poller = _Poller(model, consumer, metrics, poll_interval_ms / 1000.0)
        poller.start()
    host, port = server.server_address[:2]
    log.info("serving on %s:%d", host, port)
    return ServerHandle(address=(host, port), _server=server, _server_thread=thread, _poller=poller)
