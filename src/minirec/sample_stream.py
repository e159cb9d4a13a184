"""Online-learning sample pipeline: dedup, windowed labels, feature join.

Event-time semantics, fixed so that a batch join over the same log is an
exact oracle for any arrival order within the allowed lateness:

  watermark  max observed event_time - allowed_lateness L; monotone.
  label      impression at t0 gets label 1 iff its key's earliest click
             falls in [t0, t0 + W]; the labeled pair is emitted when the
             watermark strictly passes t0 + W.
  join       a pair joins the first-arrival feature log of its request_id
             when the log's time tl lies in [t0 - L, t0 + W + L]; a pair
             with no such log once the watermark passes t0 + W + L is
             dropped and counted feature_missing.

Late events never trigger retractions: an impression arriving after its
window closed is dropped and counted; a click arriving after its key's
emission is counted late_dropped only when it lands inside the closed
window (it would have changed the label); post-emission clicks outside
the window are no-ops. Two maps are never evicted: the earliest click
per key and the impression time of every emitted key (key to integer
each), which duplicate and late-click detection read, so they grow with
every distinct (request_id, item_key) seen. The payload-heavy
impression, pair, and log buffers are evicted by watermark and drain to
zero after the final flush.

Boundaries sharing a timestamp are processed closes first, then pair
expiries, then log evictions, so a log is never evicted ahead of a pair
emitted at the same boundary.

Each event takes one pass through the joiner: `Joiner.feed` checks a
decoded object once with `_event_fields`, which returns its fields as a
plain tuple, and routes it by kind to the impression, click or
feature-log handler; an `Event` passed in takes the same route. Windows
that the watermark passes are closed inline in `_advance`. Samples are
immutable named tuples, and the CSV writer builds each payload's cells
once, since a request's samples share one payload.

The oracle is `batch_join_reference` in the test suite's helpers
(tests/helpers.py): a time-sorted batch join written without this
module's Joiner, which validates events with the same `_event_fields`.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidValue, IoError, MalformedEvent
from .features import is_utf8, record_from_json

EVENT_KINDS = ("impression", "click", "feature_log")

_CLOSE, _PAIR_EXPIRY, _LOG_EXPIRY = 0, 1, 2


class Event(NamedTuple):
    kind: str
    event_time: int
    request_id: str
    item_key: str = ""
    payload: dict | None = None


@dataclass(frozen=True)
class JoinConfig:
    label_window_ms: int
    allowed_lateness_ms: int = 0

    def __post_init__(self) -> None:
        if self.label_window_ms <= 0:
            raise InvalidValue("label_window_ms", "must be > 0")
        if self.allowed_lateness_ms < 0:
            raise InvalidValue("allowed_lateness_ms", "must be >= 0")


class LabeledSample(NamedTuple):
    request_id: str
    item_key: str
    label: int
    payload: dict
    event_time: int


@dataclass
class JoinStats:
    malformed: int = 0
    dup_impressions: int = 0
    dup_clicks: int = 0
    dup_logs: int = 0
    late_dropped: int = 0
    feature_missing: int = 0
    samples: int = 0

    def to_plain(self) -> dict:
        return {
            "malformed": self.malformed,
            "dup_impressions": self.dup_impressions,
            "dup_clicks": self.dup_clicks,
            "dup_logs": self.dup_logs,
            "late_dropped": self.late_dropped,
            "feature_missing": self.feature_missing,
            "samples": self.samples,
        }


def _event_fields(obj) -> tuple[str, int, str, str, dict | None]:
    """An event object's (kind, event_time, request_id, item_key, payload); raises MalformedEvent.

    The rules run in order, so the first broken one names the error; the
    time rule tries the exact int a JSON decoder gives before the rest.
    """
    if not isinstance(obj, dict):
        raise MalformedEvent("event must be a JSON object")
    kind = obj.get("kind")
    if kind not in EVENT_KINDS:
        raise MalformedEvent(f"unknown kind {kind!r}")
    t = obj.get("event_time")
    # An int is finite however long: math.isfinite would overflow converting one past float range.
    if type(t) is not int and (
        isinstance(t, bool) or not (isinstance(t, int) or isinstance(t, float) and math.isfinite(t))
    ) or t < 0:
        raise MalformedEvent(f"bad event_time {t!r}")
    request_id = obj.get("request_id")
    if not isinstance(request_id, str) or not request_id:
        raise MalformedEvent("missing request_id")
    item_key = obj.get("item_key", "")
    if not isinstance(item_key, str):
        raise MalformedEvent("item_key must be a string")
    if kind != "feature_log":
        if not item_key:
            raise MalformedEvent(f"{kind} needs an item_key")
        return kind, t if type(t) is int else int(t), request_id, item_key, None
    raw = obj.get("payload")
    if not isinstance(raw, dict):
        raise MalformedEvent("feature_log needs a payload object")
    return kind, t if type(t) is int else int(t), request_id, item_key, record_from_json(raw)


@dataclass(slots=True)
class _Pair:
    request_id: str
    item_key: str
    label: int
    event_time: int
    done: bool = False


class Joiner:
    """Single-threaded event-time joiner; deterministic per arrival order.

    feed() events in arrival order, then flush(); emitted samples append
    to .samples.
    """

    def __init__(self, cfg: JoinConfig):
        self.cfg = cfg
        self.stats = JoinStats()
        self.samples: list[LabeledSample] = []
        self._window = cfg.label_window_ms
        self._lateness = cfg.allowed_lateness_ms
        self._watermark = -math.inf
        self._impressions: dict[tuple[str, str], int] = {}
        self._emitted: dict[tuple[str, str], int] = {}
        self._clicks: dict[tuple[str, str], int] = {}
        # request_id -> (event_time, payload) of its first feature log
        self._logs: dict[str, tuple[int, dict]] = {}
        self._pending: dict[str, list[_Pair]] = {}
        # (due time, boundary priority, sequence number, then the impression key, request_id or pair it is for)
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()

    # state-size accessors for the bounded-state property
    @property
    def buffered_impressions(self) -> int:
        return len(self._impressions)

    @property
    def buffered_logs(self) -> int:
        return len(self._logs)

    @property
    def buffered_pairs(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def feed(self, obj) -> None:
        """One event, an `Event` or a decoded JSON object; a malformed object is counted and skipped."""
        try:
            kind, t, rid, item_key, payload = obj if isinstance(obj, Event) else _event_fields(obj)
        except MalformedEvent:
            self.stats.malformed += 1
            return
        if kind == "impression":
            self._impression(t, (rid, item_key))
        elif kind == "click":
            self._click(t, (rid, item_key))
        else:
            self._feature_log(t, rid, payload or {})
        watermark = t - self._lateness
        if watermark > self._watermark:
            self._watermark = watermark
        # Checked on every event, not only when the watermark moves: a late
        # feature log pushes an expiry that may already be due.
        if self._heap and self._heap[0][0] < self._watermark:
            self._advance()

    def _impression(self, t: int, key: tuple[str, str]) -> None:
        if key in self._impressions or key in self._emitted:
            self.stats.dup_impressions += 1
        elif self._watermark > t + self._window:
            self.stats.late_dropped += 1
        else:
            self._impressions[key] = t
            heapq.heappush(self._heap, (t + self._window, _CLOSE, next(self._seq), key))

    def _click(self, t: int, key: tuple[str, str]) -> None:
        t0 = self._emitted.get(key)
        if t0 is not None:
            if t0 <= t <= t0 + self._window:
                self.stats.late_dropped += 1
        elif key in self._clicks:
            self.stats.dup_clicks += 1
            self._clicks[key] = min(self._clicks[key], t)
        else:
            self._clicks[key] = t

    def _feature_log(self, t: int, rid: str, payload: dict) -> None:
        if rid in self._logs:
            self.stats.dup_logs += 1
            return
        self._logs[rid] = (t, payload)
        lateness = self._lateness
        heapq.heappush(self._heap, (t + self._window + lateness, _LOG_EXPIRY, next(self._seq), rid))
        pending = self._pending.get(rid)
        if pending:
            for pair in pending:
                t0 = pair.event_time
                if not pair.done and t0 - lateness <= t <= t0 + self._window + lateness:
                    pair.done = True
                    self.samples.append(LabeledSample(rid, pair.item_key, pair.label, payload, t0))
                    self.stats.samples += 1
            self._prune_pending(rid)

    def _prune_pending(self, rid: str) -> None:
        alive = [p for p in self._pending[rid] if not p.done]
        if alive:
            self._pending[rid] = alive
        else:
            del self._pending[rid]

    def _advance(self) -> None:
        """Process every boundary the watermark has strictly passed."""
        heap, watermark, pop, push = self._heap, self._watermark, heapq.heappop, heapq.heappush
        impressions, emitted, clicks, logs = self._impressions, self._emitted, self._clicks, self._logs
        w, lateness, stats, samples = self._window, self._lateness, self.stats, self.samples
        while heap and heap[0][0] < watermark:
            _, priority, _, data = pop(heap)
            if priority == _CLOSE:
                t0 = impressions.pop(data)
                emitted[data] = t0
                click = clicks.get(data)
                label = 1 if click is not None and t0 <= click <= t0 + w else 0
                rid, item_key = data
                log = logs.get(rid)
                if log is not None and t0 - lateness <= log[0] <= t0 + w + lateness:
                    samples.append(LabeledSample(rid, item_key, label, log[1], t0))
                    stats.samples += 1
                else:
                    pair = _Pair(rid, item_key, label, t0)
                    self._pending.setdefault(rid, []).append(pair)
                    push(heap, (t0 + w + lateness, _PAIR_EXPIRY, next(self._seq), pair))
            elif priority == _PAIR_EXPIRY:
                if not data.done:
                    data.done = True
                    stats.feature_missing += 1
                    self._prune_pending(data.request_id)
            else:
                logs.pop(data, None)

    def flush(self) -> None:
        """Close every open window and drain all buffers."""
        self._watermark = math.inf
        self._advance()


def _write_samples(path: str, samples: list[LabeledSample], label_column: str, delimiter: str) -> None:
    """Write the samples as UTF-8 CSV: the label column, then the sorted union of payload keys."""
    # A request's samples share one payload object, so each payload's cells are built once.
    payloads = {id(s.payload): s.payload for s in samples}
    columns = sorted({k for payload in payloads.values() for k in payload})
    if label_column in columns:
        raise InvalidValue(
            f"payload:{label_column}", "a payload key equal to the label column would overwrite the label"
        )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow([label_column, *columns])
            cells = {key: [payload.get(c, "") for c in columns] for key, payload in payloads.items()}
            writer.writerows([s.label, *cells[id(s.payload)]] for s in samples)
    except OSError as exc:
        raise IoError(f"cannot write samples {path!r}: {exc}") from exc


def run_pipeline(
    input_path: str,
    cfg: JoinConfig,
    output_path: str,
    stats_path: str | None = None,
    label_column: str = "label",
    delimiter: str = ",",
) -> JoinStats:
    """Feed a JSON-lines event file through the joiner and write a CSV.

    CSV columns: the label column, then the sorted union of payload keys;
    rows appear in emission order, so reruns over the same file are
    byte-identical. Column naming and delimiter follow the training
    data_config so the output feeds the trainer directly. A payload key
    equal to the label column raises InvalidValue before the output opens.
    The output is UTF-8; a sample that has no UTF-8 form is dropped and
    counted as malformed, so `samples` counts the rows written.
    """
    joiner = Joiner(cfg)
    feed, stats = joiner.feed, joiner.stats
    # The line is stripped, so a parse that ends at its length accepts
    # exactly the lines json.loads accepts, without its per-call checks.
    decode = json.JSONDecoder().raw_decode
    try:
        # surrogateescape turns a byte that is not UTF-8 into a lone surrogate, which is not is_utf8.
        with open(input_path, encoding="utf-8", errors="surrogateescape") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if not (line.isascii() or is_utf8(line)):
                    stats.malformed += 1
                    continue
                try:
                    obj, end = decode(line)
                except (ValueError, RecursionError):
                    # ValueError: bad JSON or an integer past Python's digit
                    # limit; RecursionError: arrays or objects nested too deep.
                    stats.malformed += 1
                    continue
                if end != len(line):
                    stats.malformed += 1
                    continue
                feed(obj)
    except OSError as exc:
        raise IoError(f"cannot read events {input_path!r}: {exc}") from exc
    joiner.flush()

    try:
        _write_samples(output_path, joiner.samples, label_column, delimiter)
    except UnicodeEncodeError:
        # A JSON escape such as \ud800 parses into a lone surrogate, which
        # has no UTF-8 form: each sample that holds one is malformed, and
        # the file is written again without them.
        kept = [s for s in joiner.samples if is_utf8("".join([*s.payload, *map(str, s.payload.values())]))]
        joiner.stats.malformed += len(joiner.samples) - len(kept)
        joiner.stats.samples = len(kept)
        _write_samples(output_path, kept, label_column, delimiter)
    if stats_path is not None:
        try:
            with open(stats_path, "w") as fh:
                json.dump(joiner.stats.to_plain(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise IoError(f"cannot write stats {stats_path!r}: {exc}") from exc
    return joiner.stats
