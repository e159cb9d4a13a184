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

from .errors import InvalidValue, IoError, MalformedEvent
from .features import is_utf8, record_from_json

EVENT_KINDS = ("impression", "click", "feature_log")

_CLOSE, _PAIR_EXPIRY, _LOG_EXPIRY = 0, 1, 2


@dataclass(frozen=True)
class Event:
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


@dataclass(frozen=True)
class LabeledSample:
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
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t) or t < 0:
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
    return Event(kind=kind, event_time=int(t), request_id=request_id, item_key=item_key, payload=payload)


@dataclass
class _Pair:
    request_id: str
    item_key: str
    label: int
    event_time: int
    done: bool = False


@dataclass
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
        self._advance(event.event_time - self.cfg.allowed_lateness_ms)

    def _deliver(self, event: Event) -> None:
        w = self.cfg.label_window_ms
        key = (event.request_id, event.item_key)
        if event.kind == "impression":
            if key in self._impressions or key in self._emitted:
                self.stats.dup_impressions += 1
            elif self._watermark > event.event_time + w:
                self.stats.late_dropped += 1
            else:
                self._impressions[key] = event.event_time
                self._push(event.event_time + w, _CLOSE, key)
        elif event.kind == "click":
            if key in self._emitted:
                t0 = self._emitted[key]
                if t0 <= event.event_time <= t0 + w:
                    self.stats.late_dropped += 1
            elif key in self._clicks:
                self.stats.dup_clicks += 1
                self._clicks[key] = min(self._clicks[key], event.event_time)
            else:
                self._clicks[key] = event.event_time
        else:
            rid = event.request_id
            if rid in self._logs:
                self.stats.dup_logs += 1
                return
            self._logs[rid] = _BufferedLog(event.event_time, event.payload or {})
            self._push(event.event_time + w + self.cfg.allowed_lateness_ms, _LOG_EXPIRY, rid)
            for pair in self._pending.get(rid, []):
                if not pair.done and self._log_matches(pair, event.event_time):
                    self._emit_sample(pair, event.payload or {})
            self._prune_pending(rid)

    def _log_matches(self, pair: _Pair, log_time: int) -> bool:
        lo = pair.event_time - self.cfg.allowed_lateness_ms
        hi = pair.event_time + self.cfg.label_window_ms + self.cfg.allowed_lateness_ms
        return lo <= log_time <= hi

    def _emit_sample(self, pair: _Pair, payload: dict) -> None:
        pair.done = True
        self.samples.append(
            LabeledSample(pair.request_id, pair.item_key, pair.label, payload, pair.event_time)
        )
        self.stats.samples += 1

    def _prune_pending(self, rid: str) -> None:
        alive = [p for p in self._pending.get(rid, []) if not p.done]
        if alive:
            self._pending[rid] = alive
        else:
            self._pending.pop(rid, None)

    def _advance(self, candidate: float) -> None:
        if candidate > self._watermark:
            self._watermark = candidate
        while self._heap and self._heap[0][0] < self._watermark:
            _, priority, _, data = heapq.heappop(self._heap)
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
        w = self.cfg.label_window_ms
        self._emitted[key] = t0
        click = self._clicks.get(key)
        label = 1 if click is not None and t0 <= click <= t0 + w else 0
        rid, item_key = key
        pair = _Pair(rid, item_key, label, t0)
        log = self._logs.get(rid)
        if log is not None and self._log_matches(pair, log.event_time):
            self._emit_sample(pair, log.payload)
        else:
            self._pending.setdefault(rid, []).append(pair)
            self._push(t0 + w + self.cfg.allowed_lateness_ms, _PAIR_EXPIRY, pair)

    def flush(self) -> None:
        """Close every open window and drain all buffers."""
        self._advance(math.inf)


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
    """
    joiner = Joiner(cfg)
    try:
        # surrogateescape turns a byte that is not UTF-8 into a lone surrogate, which is not is_utf8.
        with open(input_path, encoding="utf-8", errors="surrogateescape") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if not (line.isascii() or is_utf8(line)):
                    joiner.stats.malformed += 1
                    continue
                try:
                    joiner.feed(json.loads(line))
                except json.JSONDecodeError:
                    joiner.stats.malformed += 1
    except OSError as exc:
        raise IoError(f"cannot read events {input_path!r}: {exc}") from exc
    joiner.flush()

    columns = sorted({k for s in joiner.samples for k in s.payload})
    if label_column in columns:
        raise InvalidValue(
            f"payload:{label_column}", "a payload key equal to the label column would overwrite the label"
        )
    try:
        with open(output_path, "w", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow([label_column, *columns])
            for s in joiner.samples:
                writer.writerow([s.label, *(s.payload.get(c, "") for c in columns)])
    except OSError as exc:
        raise IoError(f"cannot write samples {output_path!r}: {exc}") from exc
    if stats_path is not None:
        with open(stats_path, "w") as fh:
            json.dump(joiner.stats.to_plain(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return joiner.stats
