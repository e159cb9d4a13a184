"""Event-time joiner: parsing, windows, lateness, and order invariance."""

import csv
import io
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minirec.errors import InvalidValue, IoError, MalformedEvent
from minirec.sample_stream import Event, JoinConfig, Joiner, _event_fields, run_pipeline

from helpers import (
    UNPARSABLE_JSON,
    aggregate_events,
    batch_join_reference,
    event_fields_reference,
    event_time_of,
    parse_event,
    sample_key,
)


class TestParseEvent:
    def test_impression(self):
        event = parse_event({"kind": "impression", "event_time": 5,
                             "request_id": "r1", "item_key": "i1"})
        assert event == Event("impression", 5, "r1", "i1")

    def test_feature_log_payload_coerced_to_strings(self):
        event = parse_event({"kind": "feature_log", "event_time": 9.7,
                             "request_id": "r1", "payload": {"age": 31, "city": "x"}})
        assert event.event_time == 9
        assert event.payload == {"age": "31", "city": "x"}

    def test_integer_time_past_float_range(self):
        """An int is finite however long; one past float range must not overflow the check."""
        t = 10 ** 400
        event = parse_event({"kind": "impression", "event_time": t, "request_id": "r", "item_key": "i"})
        assert event.event_time == t

    @pytest.mark.parametrize("obj", [
        "not a dict",
        {"kind": "scroll", "event_time": 1, "request_id": "r"},
        {"kind": "click", "event_time": True, "request_id": "r", "item_key": "i"},
        {"kind": "click", "event_time": float("nan"), "request_id": "r", "item_key": "i"},
        {"kind": "click", "event_time": -1, "request_id": "r", "item_key": "i"},
        {"kind": "click", "event_time": "soon", "request_id": "r", "item_key": "i"},
        {"kind": "click", "event_time": 1, "request_id": "", "item_key": "i"},
        {"kind": "click", "event_time": 1, "item_key": "i"},
        {"kind": "click", "event_time": 1, "request_id": "r", "item_key": 3},
        {"kind": "impression", "event_time": 1, "request_id": "r"},
        {"kind": "feature_log", "event_time": 1, "request_id": "r"},
        {"kind": "feature_log", "event_time": 1, "request_id": "r", "payload": [1]},
    ])
    def test_malformed(self, obj):
        with pytest.raises(MalformedEvent):
            parse_event(obj)


class TestJoinConfig:
    def test_window_must_be_positive(self):
        with pytest.raises(InvalidValue):
            JoinConfig(label_window_ms=0)

    def test_lateness_must_be_nonnegative(self):
        with pytest.raises(InvalidValue):
            JoinConfig(label_window_ms=10, allowed_lateness_ms=-1)


def _log(t, rid):
    return Event("feature_log", t, rid, payload={"f": rid})


def _label_for(click_offset, w=10):
    events = [_log(100, "r"), Event("impression", 100, "r", "i")]
    if click_offset is not None:
        events.append(Event("click", 100 + click_offset, "r", "i"))
    joiner = Joiner(JoinConfig(label_window_ms=w))
    for event in events:
        joiner.feed(event)
    joiner.flush()
    assert len(joiner.samples) == 1
    return joiner.samples[0].label


class TestLabelWindow:
    def test_no_click(self):
        assert _label_for(None) == 0

    def test_click_at_impression_time(self):
        assert _label_for(0) == 1

    def test_click_at_window_end_inclusive(self):
        assert _label_for(10) == 1

    def test_click_just_past_window(self):
        assert _label_for(11) == 0

    def test_click_before_impression(self):
        assert _label_for(-1) == 0

    def test_earliest_click_decides(self):
        """A duplicate click keeps the earliest time, which sets the label."""
        joiner = Joiner(JoinConfig(label_window_ms=10))
        for event in [
            _log(100, "r"),
            Event("impression", 100, "r", "i"),
            Event("click", 109, "r", "i"),
            Event("click", 104, "r", "i"),
        ]:
            joiner.feed(event)
        joiner.flush()
        assert joiner.samples[0].label == 1
        assert joiner.stats.dup_clicks == 1

    def test_emission_requires_watermark_strictly_past_close(self):
        joiner = Joiner(JoinConfig(label_window_ms=10, allowed_lateness_ms=5))
        joiner.feed(_log(0, "r"))
        joiner.feed(Event("impression", 0, "r", "i"))
        joiner.feed(Event("click", 3, "r", "i"))
        joiner.feed(Event("impression", 15, "r2", "x"))
        assert joiner.samples == []
        joiner.feed(Event("impression", 16, "r3", "y"))
        assert [(s.request_id, s.label) for s in joiner.samples] == [("r", 1)]


class TestLatePolicy:
    def _joiner(self, *rids_at):
        joiner = Joiner(JoinConfig(label_window_ms=10))
        for rid, t in rids_at:
            joiner.feed(_log(t, rid))
        return joiner

    def test_late_impression_dropped(self):
        joiner = self._joiner(("r2", 100))
        joiner.feed(Event("impression", 100, "r2", "x"))
        joiner.feed(Event("impression", 5, "r", "i"))
        joiner.flush()
        assert joiner.stats.late_dropped == 1
        assert [s.request_id for s in joiner.samples] == ["r2"]

    def test_post_emission_click_in_window_counted_not_retracted(self):
        joiner = self._joiner(("r", 0))
        joiner.feed(Event("impression", 0, "r", "i"))
        joiner.feed(Event("impression", 50, "r2", "x"))
        assert [s.label for s in joiner.samples] == [0]
        joiner.feed(Event("click", 7, "r", "i"))
        assert joiner.stats.late_dropped == 1
        assert [s.label for s in joiner.samples] == [0]

    def test_post_emission_click_outside_window_is_silent(self):
        joiner = self._joiner(("r", 0))
        joiner.feed(Event("impression", 0, "r", "i"))
        joiner.feed(Event("impression", 50, "r2", "x"))
        assert [s.label for s in joiner.samples] == [0]
        joiner.feed(Event("click", 30, "r", "i"))
        assert joiner.stats.late_dropped == 0

    def test_duplicate_impression_after_emission_counts_dup(self):
        joiner = self._joiner(("r", 0))
        joiner.feed(Event("impression", 0, "r", "i"))
        joiner.feed(Event("impression", 50, "r2", "x"))
        assert [s.request_id for s in joiner.samples] == ["r"]
        joiner.feed(Event("impression", 0, "r", "i"))
        assert joiner.stats.dup_impressions == 1
        assert joiner.stats.late_dropped == 0


class TestFeatureJoinWindow:
    W, L = 10, 3

    def _joiner(self):
        return Joiner(JoinConfig(label_window_ms=self.W, allowed_lateness_ms=self.L))

    def _run(self, log_time):
        joiner = self._joiner()
        events = [
            Event("feature_log", log_time, "r", payload={"f": "1"}),
            Event("impression", 100, "r", "i"),
        ]
        for event in sorted(events, key=lambda e: e.event_time):
            joiner.feed(event)
        joiner.flush()
        return joiner

    def test_log_at_lower_bound_joins(self):
        joiner = self._run(100 - self.L)
        assert joiner.stats.samples == 1
        assert joiner.samples[0].payload == {"f": "1"}

    def test_log_below_lower_bound_misses(self):
        joiner = self._run(100 - self.L - 1)
        assert joiner.stats.samples == 0
        assert joiner.stats.feature_missing == 1

    def test_log_at_upper_bound_joins(self):
        joiner = self._run(100 + self.W + self.L)
        assert joiner.stats.samples == 1

    def test_log_above_upper_bound_misses(self):
        joiner = self._run(100 + self.W + self.L + 1)
        assert joiner.stats.samples == 0
        assert joiner.stats.feature_missing == 1

    def test_log_arriving_after_close_joins_pending_pair(self):
        joiner = self._joiner()
        joiner.feed(Event("impression", 100, "r", "i"))
        joiner.feed(Event("click", 114, "r2", "x"))
        assert joiner.samples == [] and joiner.buffered_pairs == 1
        joiner.feed(Event("feature_log", 113, "r", payload={"f": "late"}))
        assert joiner.stats.samples == 1
        assert joiner.samples[0].payload == {"f": "late"}

    def test_expired_pair_emits_nothing(self):
        """A pair with no log in reach is dropped, not emitted unlabeled."""
        joiner = self._joiner()
        joiner.feed(Event("impression", 100, "r", "i"))
        joiner.feed(Event("impression", 200, "r2", "x"))
        joiner.flush()
        assert joiner.stats.feature_missing == 2
        assert joiner.samples == []

    def test_one_log_serves_all_items_of_a_request(self):
        joiner = self._joiner()
        joiner.feed(Event("feature_log", 100, "r", payload={"f": "9"}))
        joiner.feed(Event("impression", 100, "r", "a"))
        joiner.feed(Event("impression", 102, "r", "b"))
        joiner.feed(Event("click", 103, "r", "b"))
        joiner.flush()
        assert joiner.stats.samples == 2
        assert sorted((s.item_key, s.label) for s in joiner.samples) == [("a", 0), ("b", 1)]

    def test_first_log_wins(self):
        joiner = self._joiner()
        joiner.feed(Event("feature_log", 100, "r", payload={"f": "first"}))
        joiner.feed(Event("feature_log", 101, "r", payload={"f": "second"}))
        joiner.feed(Event("impression", 100, "r", "i"))
        joiner.flush()
        assert joiner.stats.dup_logs == 1
        assert joiner.samples[0].payload == {"f": "first"}

    def test_log_already_expired_is_evicted_on_arrival(self):
        """A log whose expiry is behind the watermark leaves no buffer, so its copy is no duplicate."""
        joiner = Joiner(JoinConfig(label_window_ms=10, allowed_lateness_ms=5))
        joiner.feed(Event("impression", 1000, "r2", "x"))
        joiner.feed(_log(0, "r"))
        joiner.feed(_log(0, "r"))
        assert joiner.stats.dup_logs == 0
        assert joiner.buffered_logs == 0

    def test_buffers_drain_after_flush(self):
        joiner = self._joiner()
        rng = np.random.default_rng(70)
        times = sorted(int(t) for t in rng.integers(0, 500, 30))
        for i, t in enumerate(times):
            joiner.feed(Event("impression", t, f"r{i}", "i"))
            if i % 2 == 0:
                joiner.feed(Event("feature_log", t, f"r{i}", payload={"f": str(i)}))
        assert joiner.buffered_impressions > 0
        joiner.flush()
        assert joiner.buffered_impressions == 0
        assert joiner.buffered_logs == 0
        assert joiner.buffered_pairs == 0
        assert joiner.stats.samples + joiner.stats.feature_missing == 30


class TestAggregateEvents:
    def test_dedup_counts(self):
        events = [
            Event("impression", 1, "r", "i"),
            Event("impression", 1, "r", "i"),
            Event("click", 9, "r", "i"),
            Event("click", 4, "r", "i"),
            Event("feature_log", 1, "r", payload={"a": "1"}),
            Event("feature_log", 2, "r", payload={"a": "2"}),
        ]
        kept, stats = aggregate_events(events)
        assert stats.dup_impressions == 1
        assert stats.dup_clicks == 1
        assert stats.dup_logs == 1
        assert [e.kind for e in kept] == ["impression", "click", "feature_log"]

    def test_duplicate_click_rewritten_to_earliest_in_place(self):
        events = [
            Event("click", 9, "r", "i"),
            Event("impression", 1, "r", "i"),
            Event("click", 4, "r", "i"),
        ]
        kept, _ = aggregate_events(events)
        assert kept[0] == Event("click", 4, "r", "i")
        assert kept[1].kind == "impression"

    def test_malformed_counted(self):
        kept, stats = aggregate_events([{"kind": "nope"}, "x"])
        assert kept == []
        assert stats.malformed == 2


def _build_event_set(rng, w, lateness):
    """Random workload under the invariance contract: duplicate impressions
    are exact copies, multi-click keys keep every click inside the label
    window, and duplicate logs are exact copies."""
    events = []
    for r in range(70):
        rid = f"r{r:03d}"
        t0 = int(rng.integers(0, 3000))
        n_items = int(rng.integers(1, 3))
        if rng.random() < 0.75:
            log_time = t0 + int(rng.integers(-lateness, w + lateness + 1))
            log = Event("feature_log", max(log_time, 0), rid,
                        payload={"user_id": f"u{r % 9}", "spend": str(r)})
            events.append(log)
            if rng.random() < 0.1:
                events.append(log)
        for j in range(n_items):
            item = f"i{j}"
            imp = Event("impression", t0 + j, rid, item)
            events.append(imp)
            if rng.random() < 0.1:
                events.append(imp)
            roll = rng.random()
            if roll < 0.35:
                events.append(Event("click", t0 + j + int(rng.integers(0, w + 1)), rid, item))
                if rng.random() < 0.3:
                    events.append(Event("click", t0 + j + int(rng.integers(0, w + 1)), rid, item))
            elif roll < 0.45:
                events.append(Event("click", t0 + j + w + 1 + int(rng.integers(0, 40)), rid, item))
    for _ in range(5):
        events.append({"kind": "impression", "event_time": int(rng.integers(0, 3000)),
                       "request_id": ""})
    return events


class TestOrderInvariance:
    def test_shuffles_within_lateness_match_batch_oracle(self):
        w, lateness = 50, 20
        cfg = JoinConfig(label_window_ms=w, allowed_lateness_ms=lateness)
        rng = np.random.default_rng(71)
        events = _build_event_set(rng, w, lateness)
        want, want_stats = batch_join_reference(events, cfg)
        want_samples = sorted(sample_key(s) for s in want)
        assert want_stats.samples > 40
        assert want_stats.feature_missing > 0
        for trial in range(6):
            jitter = rng.uniform(-lateness / 2, lateness / 2, len(events))
            order = sorted(range(len(events)),
                           key=lambda i: (event_time_of(events[i]) + jitter[i]))
            joiner = Joiner(cfg)
            for i in order:
                joiner.feed(events[i])
            joiner.flush()
            assert sorted(sample_key(s) for s in joiner.samples) == want_samples
            assert joiner.stats == want_stats
            assert joiner.buffered_pairs == 0


class _Time(int):
    pass


class _Text(str):
    pass


def _hostile_corpus(rng) -> list[tuple[object, bool]]:
    """(event object, whether parse_event must refuse it) in rough time order.

    Each hostile object belongs to a fresh request with an impression and a
    feature log of its own, so accepting a refused one, or refusing an
    accepted one, changes the samples or the stats. Accepted objects also
    cover the slower route: dict, int and str subclasses and float times.
    """
    corpus: list[tuple[object, bool]] = []
    bad_times = [True, False, float("nan"), float("inf"), -float("inf"), -1, -0.5, "7", None, [3]]
    for r in range(160):
        t0 = 10 * r + int(rng.integers(0, 5))
        rid = f"r{r:03d}"
        log = {"kind": "feature_log", "event_time": t0, "request_id": rid,
               "payload": {"user_id": f"u{r % 7}", "n": r}}
        imp = {"kind": "impression", "event_time": t0, "request_id": rid, "item_key": "i0"}
        click = {**imp, "kind": "click", "event_time": t0 + int(rng.integers(0, 60))}
        roll = r % 8
        if roll == 0:
            corpus.append(({**imp, "event_time": bad_times[int(rng.integers(0, len(bad_times)))]}, True))
        elif roll == 1:
            corpus.append(({**imp, "request_id": [None, "", 5, b"r", ["r"]][int(rng.integers(0, 5))]}, True))
            if rng.random() < 0.5:
                del corpus[-1][0]["request_id"]
        elif roll == 2:
            corpus.append(({**imp, "item_key": [None, 5, True, ["i"], {"k": 1}][int(rng.integers(0, 5))]}, True))
            corpus.append(({**click, "kind": ["scroll", None, 1, "Impression", "", ["click"]][int(rng.integers(0, 6))]}, True))
        elif roll == 3:
            raw = [None, [1], "p", 3, True][int(rng.integers(0, 5))]
            corpus.append(({**log, "payload": raw}, True))
            corpus.append(({**imp, "item_key": ""}, True))
            log = None
        elif roll == 4:
            corpus.append(([["impression", t0, rid, "i0"], "impression", 7, None,
                            Event("impression", t0, rid, "i0")[:4]][int(rng.integers(0, 5))], True))
        elif roll == 5:
            log["payload"] = {"a": None, "b": 1.5, "c": True, "d": [1, {"e": None}], "f": {"g": "h"}}
        elif roll == 6:
            log = dict(log, event_time=float(t0) + 0.75)
            imp = OrderedDict(imp, request_id=_Text(rid))
            click = {**click, "event_time": _Time(click["event_time"])}
        else:
            imp = {**imp, "event_time": 2 ** 70 if r == 159 else t0}
        if log is not None:
            corpus.append((log, False))
        corpus.append((imp, False))
        if rng.random() < 0.5:
            corpus.append((click, False))
    return corpus


def _slow_copy(obj: dict) -> OrderedDict:
    """The same event with no exact JSON type left: a dict subclass, an int subclass time, str subclass ids."""
    copy = OrderedDict(obj)
    t = copy["event_time"]
    copy["event_time"] = _Time(t) if isinstance(t, int) else t
    copy["request_id"] = _Text(copy["request_id"])
    if "item_key" in copy:
        copy["item_key"] = _Text(copy["item_key"])
    if "payload" in copy:
        copy["payload"] = OrderedDict(copy["payload"])
    return copy


def test_feed_validates_like_parse_event():
    """Feeding the objects gives the stats, samples and buffers of feeding parse_event's results."""
    corpus = _hostile_corpus(np.random.default_rng(73))
    cfg = JoinConfig(label_window_ms=50, allowed_lateness_ms=20)
    raw, parsed = Joiner(cfg), Joiner(cfg)
    refused = 0
    for obj, bad in corpus:
        try:
            event = parse_event(obj)
        except MalformedEvent:
            assert bad, obj
            refused += 1
            parsed.stats.malformed += 1
        else:
            assert not bad, obj
            assert _event_fields(_slow_copy(obj)) == tuple(event), obj
            assert type(event.event_time) is int
            parsed.feed(event)
        raw.feed(obj)
        assert raw.stats == parsed.stats
        assert raw.samples == parsed.samples
        state = (raw.buffered_impressions, raw.buffered_logs, raw.buffered_pairs)
        assert state == (parsed.buffered_impressions, parsed.buffered_logs, parsed.buffered_pairs)
    raw.flush()
    parsed.flush()
    assert raw.stats == parsed.stats
    assert raw.samples == parsed.samples
    assert raw.stats.malformed == refused >= 40
    assert raw.stats.samples > 80
    assert {type(s.event_time) for s in raw.samples} == {int}


class _Dict(dict):
    pass


_TEXTS = st.one_of(st.text(max_size=4), st.text(max_size=4).map(_Text))
_CELLS = st.one_of(_TEXTS, st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.integers(), max_size=2))
_NOT_DICTS = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
# field -> (values a decoder gives for a good event, values that bend or break a rule)
_EVENT_FIELDS = {
    "kind": (st.sampled_from(["impression", "click", "feature_log"]),
             st.one_of(st.sampled_from(["impression", "click", "feature_log"]).map(_Text),
                       st.sampled_from(["scroll", "", "Click"]), st.none(), st.integers())),
    "event_time": (st.integers(min_value=0, max_value=10 ** 6),
                   st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 62), st.just(10 ** 400),
                             st.booleans(), st.floats(), st.integers(0, 100).map(_Time),
                             st.text(max_size=3), st.none())),
    "request_id": (st.text(min_size=1, max_size=4), st.one_of(st.just(""), _TEXTS.map(_Text), st.none(), st.integers())),
    "item_key": (st.text(min_size=1, max_size=4), st.one_of(st.just(""), _TEXTS.map(_Text), st.none(), st.integers())),
    "payload": (st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=4),
                st.one_of(st.dictionaries(st.one_of(_TEXTS, st.integers(), st.none(), st.booleans()), _CELLS,
                                          max_size=4),
                          st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=4).map(_Dict),
                          _NOT_DICTS)),
}


@st.composite
def _event_objects(draw):
    """An event as a dict or dict subclass, or an object that is no dict.

    Up to two fields take a value that bends or breaks a rule, and a field
    now and then is missing; the rest are what a decoder gives.
    """
    if draw(st.integers(0, 19)) == 0:
        return draw(_NOT_DICTS)
    hostile = draw(st.sets(st.sampled_from(sorted(_EVENT_FIELDS)), max_size=2))
    obj = {}
    for name, (good, bent) in _EVENT_FIELDS.items():
        if draw(st.integers(0, 11)) > 0:
            obj[name] = draw(bent if name in hostile else good)
    return draw(st.sampled_from([dict, dict, _Dict, OrderedDict]))(obj)


def _validation(validate, obj):
    """What the validator gives for obj: its fields with their types, or the MalformedEvent text."""
    try:
        fields = validate(obj)
    except MalformedEvent as exc:
        return "refused", str(exc)
    payload = fields[4]
    cells = None if payload is None else [(type(k), k, type(v), v) for k, v in payload.items()]
    return "accepted", [(type(f), f) for f in fields[:4]], type(payload), cells


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_event_objects())
def test_event_fields_agree_with_the_restated_rules(obj):
    """The joiner's validator, fast path included, gives what the rules restated in helpers give."""
    assert _validation(_event_fields, obj) == _validation(event_fields_reference, obj)


class TestRunPipeline:
    def _write_events(self, path):
        events = [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1",
             "payload": {"user_id": "u1", "item_id": "a"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"},
            {"kind": "click", "event_time": 12, "request_id": "r1", "item_key": "a"},
            {"kind": "feature_log", "event_time": 30, "request_id": "r2",
             "payload": {"user_id": "u2", "price": "9"}},
            {"kind": "impression", "event_time": 30, "request_id": "r2", "item_key": "b"},
        ]
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
            fh.write("\n")
            fh.write("not json\n")

    def test_writes_csv_and_stats(self, tmp_path):
        events = tmp_path / "events.jsonl"
        out = tmp_path / "samples.csv"
        stats_path = tmp_path / "stats.json"
        self._write_events(events)
        cfg = JoinConfig(label_window_ms=5)
        stats = run_pipeline(str(events), cfg, str(out), str(stats_path))
        assert stats.samples == 2
        assert stats.malformed == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "label,item_id,price,user_id"
        assert lines[1] == "1,a,,u1"
        assert lines[2] == "0,,9,u2"
        assert json.loads(stats_path.read_text()) == stats.to_plain()

    def test_reruns_byte_identical(self, tmp_path):
        events = tmp_path / "events.jsonl"
        self._write_events(events)
        cfg = JoinConfig(label_window_ms=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_pipeline(str(events), cfg, str(a))
        run_pipeline(str(events), cfg, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_custom_label_column_and_delimiter(self, tmp_path):
        events = tmp_path / "events.jsonl"
        self._write_events(events)
        out = tmp_path / "samples.tsv"
        run_pipeline(str(events), JoinConfig(label_window_ms=5), str(out),
                     label_column="clicked", delimiter="\t")
        assert out.read_text().splitlines()[0] == "clicked\titem_id\tprice\tuser_id"

    def test_label_column_without_utf8_form_raises_before_the_output_opens(self, tmp_path):
        events = tmp_path / "events.jsonl"
        self._write_events(events)
        out = tmp_path / "samples.csv"
        with pytest.raises(InvalidValue) as err:
            run_pipeline(str(events), JoinConfig(label_window_ms=5), str(out), label_column="\ud800")
        assert "label_column" in str(err.value)
        assert not out.exists()

    def test_lone_surrogate_sample_is_malformed(self, tmp_path):
        """A \\ud800 escape in a payload drops that sample from the UTF-8 output."""
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"}\n'
            '{"kind": "feature_log", "event_time": 10, "request_id": "r1", "payload": {"user_id": "\\ud800"}}\n'
            '{"kind": "impression", "event_time": 100, "request_id": "r2", "item_key": "b"}\n'
        )
        out, stats_path = tmp_path / "samples.csv", tmp_path / "stats.json"
        stats = run_pipeline(str(events), JoinConfig(label_window_ms=5), str(out), str(stats_path))
        assert (stats.malformed, stats.samples) == (1, 0)
        assert out.read_bytes() == b"label\r\n"
        assert json.loads(stats_path.read_text()) == stats.to_plain()

    def test_lone_surrogate_drops_only_its_sample(self, tmp_path):
        events = tmp_path / "events.jsonl"
        lines = [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1", "payload": {"user_id": "u1"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"},
            {"kind": "feature_log", "event_time": 20, "request_id": "r2", "payload": {"tag": "\ud800"}},
            {"kind": "impression", "event_time": 20, "request_id": "r2", "item_key": "b"},
            {"kind": "feature_log", "event_time": 30, "request_id": "r3", "payload": {"\udfff": "v"}},
            {"kind": "impression", "event_time": 30, "request_id": "r3", "item_key": "c"},
            {"kind": "impression", "event_time": 100, "request_id": "r4", "item_key": "d"},
        ]
        events.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "samples.csv"
        stats = run_pipeline(str(events), JoinConfig(label_window_ms=5), str(out))
        assert (stats.malformed, stats.samples) == (2, 1)
        assert out.read_text(encoding="utf-8").splitlines() == ["label,user_id", "0,u1"]

    @pytest.mark.parametrize("line", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON.keys())
    def test_unparsable_line_is_malformed(self, tmp_path, line):
        events = tmp_path / "events.jsonl"
        self._write_events(events)
        with open(events, "a") as fh:
            fh.write(line + "\n")
        stats = run_pipeline(str(events), JoinConfig(label_window_ms=5), str(tmp_path / "out.csv"))
        assert (stats.malformed, stats.samples) == (2, 2)

    def test_missing_input_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            run_pipeline(str(tmp_path / "absent.jsonl"), JoinConfig(label_window_ms=5),
                         str(tmp_path / "out.csv"))


def _decoder_corpus(rng) -> list[bytes]:
    """Events lines in time order, with lines of every kind the decoder must refuse or accept.

    Each refused line is built from a fresh request's event, so accepting
    it would change the samples or the stats.
    """
    valid = []
    for r in range(80):
        rid, t0 = f"r{r:03d}", int(rng.integers(0, 4000))
        if rng.random() < 0.8:
            payload = {"user_id": f"u{r % 7}", "score": "NaN" if r % 5 == 0 else str(r)}
            if r % 11 == 0:
                payload["tag"] = "\ud800"  # a lone surrogate: the sample has no UTF-8 form
            valid.append({"kind": "feature_log", "event_time": t0 + int(rng.integers(-20, 70)),
                          "request_id": rid, "payload": payload})
        for j in range(int(rng.integers(1, 4))):
            imp = {"kind": "impression", "event_time": t0 + j, "request_id": rid, "item_key": f"i{j}"}
            valid.append(imp)
            if rng.random() < 0.4:
                valid.append({**imp, "kind": "click", "event_time": t0 + j + int(rng.integers(0, 60))})
    valid.sort(key=lambda e: max(e["event_time"], 0))
    for e in valid:
        e["event_time"] = max(e["event_time"], 0)

    def text(e) -> str:
        # NaN payload values go out as the bare JSON-extension token, not as a string.
        return json.dumps(e).replace('"NaN"', "NaN")

    lines = []
    for i, e in enumerate(valid):
        # \x0b and U+3000 are whitespace to str.strip but not to JSON.
        lines.append((f"\x0b{text(e)}\u3000" if i % 9 == 0 else text(e)).encode())
    for n in range(12):
        fresh = {"kind": "impression", "event_time": int(rng.integers(0, 4000)),
                 "request_id": f"bad{n}", "item_key": "i0"}
        good = text(fresh)
        refused = [
            b"\xef\xbb\xbf" + good.encode(),
            (good + " trailing").encode(),
            (good + good).encode(),
            good.replace(str(fresh["event_time"]), "NaN").encode(),
            good.replace(str(fresh["event_time"]), "Infinity").encode(),
            b"{}",
            good.replace("bad", "bad\xff").encode("latin-1"),
            good.replace("bad", "bad\udc80", 1).encode("utf-8", "surrogatepass"),
            ("[" * 100_000).encode(),
            good.replace(str(fresh["event_time"]), "1" * 5001).encode(),
        ][n % 10]
        lines.insert(int(rng.integers(0, len(lines) + 1)), refused)
    lines.insert(0, b"\xef\xbb\xbf" + text(valid[0]).encode())
    lines.append(b"")
    lines.append(json.dumps({"kind": "impression", "event_time": 10 ** 400,
                             "request_id": "last", "item_key": "i0"}).encode())
    return lines


def _oracle_csv(samples, label_column="label") -> str:
    columns = sorted({k for s in samples for k in s.payload})
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([label_column, *columns])
    for s in samples:
        writer.writerow([s.label, *(s.payload.get(c, "") for c in columns)])
    return buffer.getvalue()


def _has_utf8_form(sample) -> bool:
    try:
        "".join([*sample.payload, *sample.payload.values()]).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_pipeline_matches_json_loads_oracle(tmp_path, seed):
    """run_pipeline accepts exactly the stripped lines json.loads accepts.

    The oracle decodes each line as strict UTF-8, strips it, skips it when
    blank and counts it malformed when json.loads refuses it; the batch
    join over the rest gives the samples, less each one with no UTF-8 form.
    """
    lines = _decoder_corpus(np.random.default_rng(seed))
    events_path = tmp_path / "events.jsonl"
    events_path.write_bytes(b"\n".join(lines) + b"\n")
    cfg = JoinConfig(label_window_ms=50, allowed_lateness_ms=20)

    refused, events = 0, []
    for raw in lines:
        try:
            text = raw.decode("utf-8").strip()
            obj = json.loads(text) if text else None
        except (ValueError, RecursionError):
            refused += 1
            continue
        if obj is None:
            continue
        try:
            events.append(parse_event(obj))
        except MalformedEvent:
            refused += 1
    assert refused >= 12
    want, want_stats = batch_join_reference(events, cfg)
    kept = [s for s in want if _has_utf8_form(s)]
    assert 0 < len(kept) < len(want)
    want_stats.malformed += refused + len(want) - len(kept)
    want_stats.samples = len(kept)

    out = tmp_path / "samples.csv"
    stats = run_pipeline(str(events_path), cfg, str(out))
    assert stats == want_stats
    assert out.read_bytes() == _oracle_csv(kept).encode("utf-8")
