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

Events and samples are immutable named tuples, so building one per line
costs one tuple allocation.

The oracle is `batch_join_reference` in the test suite's helpers
(tests/helpers.py): a time-sorted batch join written without this
module's Joiner.
"""

from __future__ import annotations

import csv
import heapq
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


def parse_event(obj) -> Event:
    if not isinstance(obj, dict):
        raise MalformedEvent("event must be a JSON object")
    kind = obj.get("kind")
    if kind not in EVENT_KINDS:
        raise MalformedEvent(f"unknown kind {kind!r}")
    t = obj.get("event_time")
    # An int is finite however long: math.isfinite would overflow converting one past float range.
    if isinstance(t, bool) or not (isinstance(t, int) or isinstance(t, float) and math.isfinite(t)) or t < 0:
        raise MalformedEvent(f"bad event_time {t!r}")
    request_id = obj.get("request_id")
    if not isinstance(request_id, str) or not request_id:
        raise MalformedEvent("missing request_id")
    item_key = obj.get("item_key", "")
    if not isinstance(item_key, str):
        raise MalformedEvent("item_key must be a string")
    if kind != "feature_log" and not item_key:
        raise MalformedEvent(f"{kind} needs an item_key")
    payload = None
    if kind == "feature_log":
        raw = obj.get("payload")
        if not isinstance(raw, dict):
            raise MalformedEvent("feature_log needs a payload object")
        payload = record_from_json(raw)
    return Event(kind, int(t), request_id, item_key, payload)


@dataclass(slots=True)
class _Pair:
    request_id: str
    item_key: str
    label: int
    event_time: int
    done: bool = False


@dataclass(slots=True)
class _BufferedLog:
    event_time: int
    payload: dict


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
        self._logs: dict[str, _BufferedLog] = {}
        self._pending: dict[str, list[_Pair]] = {}
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0

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

    def _push(self, when: float, priority: int, data) -> None:
        heapq.heappush(self._heap, (when, priority, self._seq, data))
        self._seq += 1

    def feed(self, obj) -> None:
        try:
            event = obj if isinstance(obj, Event) else parse_event(obj)
        except MalformedEvent:
            self.stats.malformed += 1
            return
        self._deliver(event)
        watermark = event.event_time - self._lateness
        if watermark > self._watermark:
            self._watermark = watermark
        # Checked on every event, not only when the watermark moves: a late
        # feature log pushes an expiry that may already be due.
        if self._heap and self._heap[0][0] < self._watermark:
            self._advance()

    def _deliver(self, event: Event) -> None:
        kind, t, rid, item_key, payload = event
        w = self._window
        key = (rid, item_key)
        if kind == "impression":
            if key in self._impressions or key in self._emitted:
                self.stats.dup_impressions += 1
            elif self._watermark > t + w:
                self.stats.late_dropped += 1
            else:
                self._impressions[key] = t
                self._push(t + w, _CLOSE, key)
        elif kind == "click":
            t0 = self._emitted.get(key)
            if t0 is not None:
                if t0 <= t <= t0 + w:
                    self.stats.late_dropped += 1
            elif key in self._clicks:
                self.stats.dup_clicks += 1
                self._clicks[key] = min(self._clicks[key], t)
            else:
                self._clicks[key] = t
        elif rid in self._logs:
            self.stats.dup_logs += 1
        else:
            payload = payload or {}
            self._logs[rid] = _BufferedLog(t, payload)
            self._push(t + w + self._lateness, _LOG_EXPIRY, rid)
            pending = self._pending.get(rid)
            if pending:
                for pair in pending:
                    if not pair.done and self._log_matches(pair.event_time, t):
                        pair.done = True
                        self._emit(pair.request_id, pair.item_key, pair.label, payload, pair.event_time)
                self._prune_pending(rid)

    def _log_matches(self, t0: int, log_time: int) -> bool:
        return t0 - self._lateness <= log_time <= t0 + self._window + self._lateness

    def _emit(self, rid: str, item_key: str, label: int, payload: dict, t0: int) -> None:
        self.samples.append(LabeledSample(rid, item_key, label, payload, t0))
        self.stats.samples += 1

    def _prune_pending(self, rid: str) -> None:
        alive = [p for p in self._pending.get(rid, []) if not p.done]
        if alive:
            self._pending[rid] = alive
        else:
            self._pending.pop(rid, None)

    def _advance(self) -> None:
        """Process every boundary the watermark has strictly passed."""
        heap = self._heap
        while heap and heap[0][0] < self._watermark:
            _, priority, _, data = heapq.heappop(heap)
            if priority == _CLOSE:
                self._close_window(data)
            elif priority == _PAIR_EXPIRY:
                pair = data
                if not pair.done:
                    pair.done = True
                    self.stats.feature_missing += 1
                    self._prune_pending(pair.request_id)
            else:
                self._logs.pop(data, None)

    def _close_window(self, key: tuple[str, str]) -> None:
        t0 = self._impressions.pop(key, None)
        if t0 is None:
            return
        w = self._window
        self._emitted[key] = t0
        click = self._clicks.get(key)
        label = 1 if click is not None and t0 <= click <= t0 + w else 0
        rid, item_key = key
        log = self._logs.get(rid)
        if log is not None and self._log_matches(t0, log.event_time):
            self._emit(rid, item_key, label, log.payload, t0)
        else:
            pair = _Pair(rid, item_key, label, t0)
            self._pending.setdefault(rid, []).append(pair)
            self._push(t0 + w + self._lateness, _PAIR_EXPIRY, pair)

    def flush(self) -> None:
        """Close every open window and drain all buffers."""
        self._watermark = math.inf
        self._advance()


def _write_samples(path: str, samples: list[LabeledSample], label_column: str, delimiter: str) -> None:
    """Write the samples as UTF-8 CSV: the label column, then the sorted union of payload keys."""
    columns = sorted({k for s in samples for k in s.payload})
    if label_column in columns:
        raise InvalidValue(
            f"payload:{label_column}", "a payload key equal to the label column would overwrite the label"
        )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow([label_column, *columns])
            for s in samples:
                writer.writerow([s.label, *(s.payload.get(c, "") for c in columns)])
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
        with open(stats_path, "w") as fh:
            json.dump(joiner.stats.to_plain(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return joiner.stats
