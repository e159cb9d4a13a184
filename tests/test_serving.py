"""Scoring service: slot partitions, LRU cache, in-place deltas, HTTP."""

import http.client
import importlib
import itertools
import json
import logging
import math
import random
import re
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from minirec.delta_stream import (
    apply_delta,
    decode_delta,
    encode_delta,
    open_consumer,
    open_publisher,
)
from minirec.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFinite,
    UnknownSlot,
    UnknownTensor,
    VersionGap,
)
from minirec import serving
from minirec.config import build_config
from minirec.features import FeatureSpec, columns_of, generate
from minirec.model import PROB_CLIP, forward, init_params, params_equal
from minirec.serving import (
    MAX_BODY_BYTES,
    LruCache,
    ServingModel,
    _Metrics,
    http_serve,
    partition_slots,
    score,
)
from minirec.trainer import score_all, train

from helpers import (
    DenseRecord,
    HOSTILE_VALUES,
    HttpReplies,
    LruSimulator,
    SparseRecord,
    copy_params,
    five_kind_feature_config,
    make_config,
    message_of,
    replay_reference,
    row_of,
    write_logistic_dataset,
)


def _spec(name, cols, kind="id"):
    return FeatureSpec(name=name, kind=kind, source_columns=tuple(cols), vocab_size=100)


class TestPartitionSlots:
    def test_by_column_prefix(self):
        part = partition_slots((
            _spec("user_id", ["user_id"]),
            _spec("item_id", ["item_id"]),
            _spec("budget", ["budget"]),
        ))
        assert [s.name for s in part.user] == ["user_id"]
        assert [s.name for s in part.item] == ["item_id"]
        assert [s.name for s in part.cross] == ["budget"]

    def test_cross_kind_with_single_side_sources(self):
        """A cross of two user columns is still user-side cacheable."""
        part = partition_slots((
            _spec("uu", ["user_a", "user_b"], kind="cross"),
            _spec("ii", ["item_a", "item_b"], kind="cross"),
            _spec("ui", ["user_a", "item_b"], kind="cross"),
        ))
        assert [s.name for s in part.user] == ["uu"]
        assert [s.name for s in part.item] == ["ii"]
        assert [s.name for s in part.cross] == ["ui"]

    def test_preserves_declaration_order_per_side(self):
        part = partition_slots((
            _spec("item_b", ["item_b"]),
            _spec("user_b", ["user_b"]),
            _spec("item_a", ["item_a"]),
            _spec("user_a", ["user_a"]),
        ))
        assert [s.name for s in part.user] == ["user_b", "user_a"]
        assert [s.name for s in part.item] == ["item_b", "item_a"]
        assert part.cross == ()


_KEY_SPECS = (FeatureSpec(name="item_id", kind="id", source_columns=("item_id",), vocab_size=1000),)


def _lookup(cache, keys, value_of=str):
    """`item_rows` over one request of `keys`, each key's features those of the record {"item_id": value_of(key)}.

    Returns the gathered item ids, one per key, and the hit count.
    """
    def features(positions):
        return generate(columns_of([{"item_id": value_of(keys[k])} for k in positions], _KEY_SPECS), _KEY_SPECS)

    batch, hits, failed = cache.item_rows(_KEY_SPECS, keys, features, set())
    assert failed == set()
    return batch.ids["item_id"].ids.tolist(), hits


def _id_of(value):
    return int(generate(columns_of([{"item_id": value}], _KEY_SPECS), _KEY_SPECS).ids["item_id"].ids[0])


class TestLruCache:
    """The cache through `item_rows`, the one lookup `score` makes."""

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_miss_then_hit(self):
        cache = LruCache(4)
        calls = []

        def counted(value):
            calls.append(value)
            return value

        assert _lookup(cache, ["k"], lambda key: counted("v")) == ([_id_of("v")], 0)
        # A hit keeps the features stored by the miss and generates nothing.
        assert _lookup(cache, ["k"], lambda key: counted("v2")) == ([_id_of("v")], 1)
        assert calls == ["v"]

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(2)
        for key in ("a", "b", "a", "c"):
            _lookup(cache, [key])
        # touching "a" made "b" least recent, so inserting "c" evicted it
        assert _lookup(cache, ["a"]) == ([_id_of("a")], 1)
        assert _lookup(cache, ["b"]) == ([_id_of("b")], 0)
        assert len(cache) == 2
        assert list(cache._data) == ["a", "b"]

    def test_matches_naive_simulator(self):
        """Hit sequence and LRU order equal a deliberately naive list-based LRU."""
        cache = LruCache(50)
        sim = LruSimulator(50)
        rng = np.random.default_rng(61)
        keys = np.arange(200)
        weights = 1.0 / (keys + 1.0)
        weights /= weights.sum()
        for _ in range(5000):
            key = str(int(rng.choice(keys, p=weights)))
            ids, hits = _lookup(cache, [key])
            assert hits == sim.access(key)
            assert ids == [_id_of(key)]
            assert list(cache._data) == sim.order
            assert len(cache) <= 50
        assert len(cache) == len(sim.order)

    def test_concurrent_access_keeps_invariants(self, tmp_path):
        """Eight threads share one cache; every cached score equals the uncached one."""
        model = _make_model(tmp_path)
        cache = LruCache(32)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(125):
                keys = [f"i{k}" for k in rng.integers(0, 100, int(rng.integers(1, 9)))]
                request = _request(f"u{seed}", keys)
                cached, uncached = score(model, request, cache), score(model, request, None)
                if cached.scores != uncached.scores:
                    errors.append((keys, cached.scores, uncached.scores))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(cache) <= 32


def _serving_config(tmp_path):
    features = [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 500},
        {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 500},
        {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
        {"name": "user_x_item", "kind": "cross",
         "source_columns": ["user_id", "item_id"], "vocab_size": 1000},
    ]
    return make_config(
        tmp_path,
        feature_config=features,
        model_config={"embedding_dim": 4, "mlp_hidden_dims": [8]},
    )


def _make_model(tmp_path, seed=60):
    """Serving model with perturbed weights so scores are spread out."""
    cfg = _serving_config(tmp_path)
    params = init_params(cfg, np.random.default_rng([seed, 0]))
    rng = np.random.default_rng(seed)
    for arr in params.tensors.values():
        arr += rng.normal(0.0, 0.3, arr.shape).astype(np.float32)
    return ServingModel(params, cfg)


def _request(user, item_keys, price="1.5"):
    return {
        "user": {"user_id": user},
        "items": [
            {"key": k, "features": {"item_id": k, "item_price": price}}
            for k in item_keys
        ],
    }


class TestScore:
    def test_version_and_shape(self, tmp_path):
        model = _make_model(tmp_path)
        resp = score(model, _request("u1", ["i1", "i2", "i3"]))
        assert resp.model_version == 0
        assert len(resp.scores) == 3
        assert all(0.0 < s < 1.0 for s in resp.scores)

    def test_cached_equals_uncached_bitwise(self, tmp_path):
        model = _make_model(tmp_path)
        cache = LruCache(64)
        rng = np.random.default_rng(62)
        for _ in range(50):
            user = f"u{rng.integers(0, 20)}"
            items = [f"i{rng.integers(0, 100)}" for _ in range(5)]
            request = _request(user, items)
            plain = score(model, request, None)
            cached = score(model, request, cache)
            assert cached.scores == plain.scores

    def test_cache_hit_accounting(self, tmp_path):
        model = _make_model(tmp_path)
        cache = LruCache(64)
        first = score(model, _request("u1", ["a", "b"]), cache)
        second = score(model, _request("u2", ["a", "b"]), cache)
        assert first.cache_hits == 0
        assert second.cache_hits == 2

    def test_cache_survives_delta(self, tmp_path):
        model = _make_model(tmp_path)
        cache = LruCache(64)
        request = _request("u1", ["a", "b", "c"])
        before = score(model, request, cache)
        # Rewrite the embedding row that item "b" reads.
        specs = model.partition.item
        row = row_of(generate(columns_of([{"item_id": "b"}], specs), specs), 0).ids["item_id"][0]
        index = list(model.snapshot().tensors).index("emb:item_id")
        msg = message_of(model_version=1, sparse=(SparseRecord(index, row, (1.0, -2.0, 3.0, -4.0)),))
        assert model.apply_delta(msg) == 1
        after = score(model, request, cache)
        assert after.cache_hits == 3
        assert after.model_version == 1
        assert after.scores == score(model, request).scores
        assert after.scores[1] != before.scores[1]

    def test_bad_item_scores_none_others_fine(self, tmp_path):
        model = _make_model(tmp_path)
        request = _request("u1", ["good1", "good2"])
        request["items"].insert(1, {"key": "bad",
                                    "features": {"item_id": "x", "item_price": "abc"}})
        resp = score(model, request)
        assert resp.scores[1] is None
        assert isinstance(resp.scores[0], float)
        assert isinstance(resp.scores[2], float)

    def test_item_without_key_scores_none(self, tmp_path):
        model = _make_model(tmp_path)
        request = {"user": {"user_id": "u"}, "items": [{"features": {"item_id": "a"}}]}
        assert score(model, request).scores == [None]

    def test_empty_request(self, tmp_path):
        model = _make_model(tmp_path)
        assert score(model, {"items": []}).scores == []
        assert score(model, {}).scores == []

    def test_missing_user_side_is_absent_not_error(self, tmp_path):
        model = _make_model(tmp_path)
        resp = score(model, {"items": [{"key": "a", "features": {"item_id": "a"}}]})
        assert isinstance(resp.scores[0], float)

    def test_deterministic(self, tmp_path):
        model = _make_model(tmp_path)
        request = _request("u9", ["x", "y", "z"])
        assert score(model, request).scores == score(model, request).scores

    def test_to_plain_schema(self, tmp_path):
        model = _make_model(tmp_path)
        plain = score(model, _request("u1", ["a"])).to_plain()
        assert set(plain) == {"scores", "model_version", "cache_hits"}


def _five_kind_model(tmp_path, model_type, seed=64):
    """All five feature kinds over user, item and cross slots; perturbed weights."""
    cfg = make_config(tmp_path, feature_config=five_kind_feature_config(), model_config={
        "model_type": model_type, "embedding_dim": 8, "mlp_hidden_dims": [64, 32]})
    params = init_params(cfg, np.random.default_rng([seed, 0]))
    rng = np.random.default_rng(seed)
    for arr in params.tensors.values():
        arr += rng.normal(0.0, 0.1, arr.shape).astype(np.float32)
    return ServingModel(params, cfg)


_INVALID_ITEMS = (
    {"features": {"item_id": "x"}},
    {"key": "bad", "features": {"item_id": "x", "item_price": "abc"}},
    "not an object",
)


def _mixed_items(rng, count):
    """`count` valid items with invalid entries interleaved; returns (items, valid positions)."""
    items, valid = [], []
    for n in range(count):
        if n % 3 == 0:
            items.append(_INVALID_ITEMS[(n // 3) % len(_INVALID_ITEMS)])
        k = int(rng.integers(0, 40))
        valid.append(len(items))
        items.append({"key": f"i{k}", "features": {
            "item_id": f"i{k}", "item_cats": f"c{k % 7}|c{k % 5}",
            "item_price": f"{0.5 + k / 8:.3f}"}})
    return items, valid


class TestBatchInvariance:
    """A row's score is the same bits whatever else is in its request."""

    @pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
    def test_every_item_scores_as_alone_and_as_forward(self, tmp_path, model_type):
        model = _five_kind_model(tmp_path, model_type)
        specs = model.config.feature_config
        rng = np.random.default_rng(65)
        cache = LruCache(1000)
        for size in (1, 7, 64):
            user = {"user_id": f"u{size}", "user_tags": "t1|t4|t9", "user_age": "33"}
            items, valid = _mixed_items(rng, size)
            request = {"user": user, "items": items}
            uncached = score(model, request).scores
            cached_cold = score(model, request, cache).scores
            cached_warm = score(model, request, cache).scores
            assert uncached == cached_cold == cached_warm
            assert [i for i, s in enumerate(uncached) if s is not None] == valid
            for position in valid:
                item = items[position]
                alone = score(model, {"user": user, "items": [item]}).scores
                assert alone == [uncached[position]]
                batch = generate(columns_of([{**user, **item["features"]}], specs), specs)
                assert float(forward(model.snapshot(), batch).probability[0]) == uncached[position]

    def test_cross_side_failure_nulls_only_that_item(self, tmp_path):
        # "ctx_price" reads an unprefixed column, so it is generated with the cross slots.
        features = [
            {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 50},
            {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 50},
            {"name": "ctx_price", "kind": "numeric_raw", "source_columns": ["price"]},
            {"name": "user_x_item", "kind": "cross", "source_columns": ["user_id", "item_id"],
             "vocab_size": 97},
        ]
        cfg = make_config(tmp_path, feature_config=features)
        model = ServingModel(init_params(cfg, np.random.default_rng([3, 0])), cfg)
        assert [s.name for s in model.partition.cross] == ["ctx_price", "user_x_item"]
        prices = ["1.5", "abc", "", "1e300", "-2"]
        items = [{"key": f"i{k}", "features": {"item_id": f"i{k}", "price": p}}
                 for k, p in enumerate(prices)]
        request = {"user": {"user_id": "u1"}, "items": items}
        cache = LruCache(10)
        for _ in range(2):
            scores = score(model, request, cache).scores
            assert [s is None for s in scores] == [False, True, False, True, False]
            for position in (0, 2, 4):
                alone = score(model, {"user": request["user"], "items": [items[position]]}).scores
                assert alone == [scores[position]]

    @pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
    def test_score_all_equals_per_sample_forward(self, tmp_path, model_type):
        model = _five_kind_model(tmp_path, model_type)
        params = model.snapshot()
        rng = np.random.default_rng(66)
        records = [
            {"user_id": f"u{rng.integers(0, 50)}", "user_tags": f"t{rng.integers(0, 9)}",
             "user_age": str(rng.integers(10, 70)), "item_id": f"i{rng.integers(0, 50)}",
             "item_cats": f"c{rng.integers(0, 9)}", "item_price": f"{rng.uniform(0, 5):.3f}"}
            for _ in range(200)
        ]
        specs = model.config.feature_config
        batch = generate(columns_of(records, specs), specs)
        want = [float(forward(params, batch.take([i])).probability[0]) for i in range(len(batch))]
        assert len(set(want)) > 100
        for size in (0, 1, 7, 64, 200):
            assert score_all(params, batch.take(np.arange(size))) == want[:size]


def _store_item(k):
    """An item of the five-kind model; k % 4 == 0 has no categories."""
    return {"key": f"i{k}", "features": {
        "item_id": f"i{k}", "item_cats": "|".join(f"c{j}" for j in range(k % 4)),
        "item_price": f"{k / 8:.3f}"}}


class TestColumnarItemCache:
    """The cache's columnar item store against an LRU oracle and the uncached scores."""

    def test_matches_lru_oracle_and_uncached_scores(self, tmp_path):
        # Capacity 4 over 9 keys: rows are evicted and reused, and the id
        # buffers compacted, within and between requests.
        model = _five_kind_model(tmp_path, "deepfm")
        cache, sim = LruCache(4), LruSimulator(4)
        rng = np.random.default_rng(67)
        for n in range(300):
            items = [_store_item(int(k)) for k in rng.integers(0, 9, int(rng.integers(1, 8)))]
            if n % 3 == 0:
                # A failing item is never stored; its key is never used again.
                items.insert(int(rng.integers(0, len(items) + 1)),
                             {"key": f"bad{n}", "features": {"item_id": "x", "item_price": "abc"}})
            if n % 4 == 0:
                items.append(items[0])
            request = {"user": {"user_id": f"u{n % 5}", "user_tags": "t1|t2", "user_age": "40"},
                       "items": items}
            want_hits = sum(sim.access(item["key"]) for item in items if not item["key"].startswith("bad"))
            response = score(model, request, cache)
            assert response.cache_hits == want_hits
            assert list(cache._data) == sim.order
            assert response.scores == score(model, request, None).scores
            assert [s is None for s in response.scores] == [item["key"].startswith("bad") for item in items]

    def test_generates_only_missed_keys(self, tmp_path, monkeypatch):
        """One call per request, for the keys not cached at the first miss and those the request may evict."""
        model = _five_kind_model(tmp_path, "deepfm")
        item_rows = []

        def counting_generate(columns, specs):
            if specs == model.partition.item:
                item_rows.append(columns.rows)
            return generate(columns, specs)

        monkeypatch.setattr(serving, "generate", counting_generate)

        def generated(cache, sim, keys):
            """The row counts of the request's item generate calls; checks hits and scores on the way."""
            request = {"user": {"user_id": "u1", "user_tags": "t1"}, "items": [_store_item(k) for k in keys]}
            item_rows.clear()
            response = score(model, request, cache)
            rows = list(item_rows)
            assert response.cache_hits == sum(sim.access(f"i{k}") for k in keys)
            assert list(cache._data) == sim.order
            assert response.scores == score(model, request, None).scores
            return rows

        cache, sim = LruCache(128), LruSimulator(128)
        assert generated(cache, sim, range(64)) == [64]
        assert generated(cache, sim, range(64)) == []
        assert generated(cache, sim, [*range(32), 100, *range(32, 64)]) == [1]
        # A full cache whose oldest keys the request does not hold: inserting key 300 evicts key 200.
        cache, sim = LruCache(128), LruSimulator(128)
        assert generated(cache, sim, [*range(200, 264), *range(64)]) == [128]
        assert generated(cache, sim, [*range(32), 300, *range(32, 64)]) == [1]
        # A full cache whose oldest keys the request holds: inserting key 100 evicts key 32, whose
        # miss evicts key 33, and so on, all generated by the first miss.
        cache, sim = LruCache(64), LruSimulator(64)
        assert generated(cache, sim, range(64)) == [64]
        assert generated(cache, sim, [*range(32), 100, *range(32, 64)]) == [33]
        # Capacity 8 below the request's 9 distinct keys.
        cache, sim = LruCache(8), LruSimulator(8)
        assert generated(cache, sim, range(8)) == [8]
        assert generated(cache, sim, [50, *range(8)]) == [9]
        assert generated(cache, sim, [60, 5, 61, 7, 62]) == [3]
        # A request twice the capacity, repeated: its first half evicts its second.
        cache, sim = LruCache(32), LruSimulator(32)
        assert generated(cache, sim, range(64)) == [64]
        assert generated(cache, sim, range(64)) == [64]
        # Seeded requests over caches smaller and larger than them: never a second call.
        rng = np.random.default_rng(11)
        for capacity in (3, 8, 20):
            cache, sim = LruCache(capacity), LruSimulator(capacity)
            for _ in range(12):
                keys = rng.integers(0, 24, size=int(rng.integers(1, 20))).tolist()
                assert len(generated(cache, sim, keys)) <= 1

    def test_bytes_per_cached_item(self, tmp_path):
        model = _five_kind_model(tmp_path, "deepfm")
        cache = LruCache(4096)

        def request(first):
            return {"user": {"user_id": "u1"}, "items": [_store_item(k) for k in range(first, first + 64)]}

        # The first request binds the store and warms numpy.
        score(model, request(0), cache)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for first in range(64, 64 * 32, 64):
                score(model, request(first), cache)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 64 * 32
        assert grown / (64 * 31) <= 700


class TestApplyDelta:
    def test_applies_and_bumps_version(self, tmp_path):
        model = _make_model(tmp_path)
        values = (1.5, -2.0, 0.25, 8.0)
        msg = message_of(model_version=1, sparse=(SparseRecord(0, 7, values),))
        assert model.apply_delta(msg) == 1
        assert model.version == 1
        np.testing.assert_array_equal(
            model.snapshot().tensors["emb:user_id"][7],
            np.asarray(values, dtype=np.float32),
        )

    def test_stale_version_skipped(self, tmp_path):
        model = _make_model(tmp_path)
        before = copy_params(model.snapshot())
        msg = message_of(model_version=0,
                           sparse=(SparseRecord(0, 1, (0.0, 0.0, 0.0, 0.0)),))
        assert model.apply_delta(msg) is None
        assert model.version == 0
        assert params_equal(model.snapshot(), before)

    def test_replay_of_applied_version_is_noop(self, tmp_path):
        model = _make_model(tmp_path)
        msg = message_of(model_version=1,
                           sparse=(SparseRecord(0, 1, (1.0, 1.0, 1.0, 1.0)),))
        assert model.apply_delta(msg) == 1
        assert model.apply_delta(msg) is None

    def test_rejected_message_leaves_state(self, tmp_path):
        """Every error apply_delta raises, after a good sparse and a good dense record, writes nothing.

        Both ways in are checked: delta_stream.apply_delta on the live
        parameters, and ServingModel.apply_delta.
        """
        model = _make_model(tmp_path)
        assert model.apply_delta(message_of(1, (SparseRecord(0, 3, (1.0,) * 4),))) == 1
        before = copy_params(model.snapshot())
        good_sparse, good_dense = (SparseRecord(0, 7, (9.0,) * 4),), (DenseRecord(12, (9.0,)),)
        cases = [
            (3, (), (), VersionGap),
            (2, (SparseRecord(13, 0, (1.0,) * 4),), (), UnknownSlot),
            (2, (SparseRecord(8, 0, (1.0,) * 8),), (), UnknownSlot),
            (2, (), (DenseRecord(0, (1.0,) * 4),), UnknownTensor),
            (2, (), (DenseRecord(13, (1.0,)),), UnknownTensor),
            (2, (SparseRecord(2, 0, (1.0, 2.0)),), (), DimensionMismatch),
            (2, (), (DenseRecord(9, (1.0,)),), DimensionMismatch),
            (2, (SparseRecord(2, 500, (1.0,) * 4),), (), IndexOutOfRange),
            (2, (SparseRecord(2, 1, (1.0, math.nan, 1.0, 1.0)),), (), NonFinite),
            (2, (), (DenseRecord(11, (math.inf,)),), NonFinite),
        ]
        appliers = (lambda msg: apply_delta(model.snapshot(), msg), model.apply_delta)
        for apply in appliers:
            for version, sparse, dense, error in cases:
                with pytest.raises(error):
                    apply(message_of(version, good_sparse + sparse, good_dense + dense))
                assert model.version == 1
                assert params_equal(model.snapshot(), before)
        assert {case[-1] for case in cases} == {
            VersionGap, UnknownSlot, UnknownTensor, DimensionMismatch, IndexOutOfRange, NonFinite}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestApplyWhileScoring:
    """Frames apply in place while threads score; every reply is the score of the version it reports.

    The frames are those of a seeded run of the benchmark's train_publish
    config with a delta after every step. The oracle scores each reply's
    request, uncached, on a separate copy of the version-0 parameters that
    replay_reference replayed to the reply's version.
    """

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """The config, its version-0 parameters, the run's frames and seeded requests over its users and items."""
        work = tmp_path_factory.mktemp("apply_while_scoring")
        with pytest.MonkeyPatch.context() as patch:
            patch.syspath_prepend(str(PERFBENCH))
            common = importlib.import_module("common")
        world, rng = common.World(0), np.random.default_rng([0, 1])
        common.write_training_csv(work / "train.csv", world, rng, 1024)
        common.write_training_csv(work / "eval.csv", world, rng, 64)
        cfg = build_config(common.pipeline_config(0, delta_period_steps=1))
        frames = []
        train(cfg, str(work / "train.csv"), str(work / "eval.csv"),
              sink=types.SimpleNamespace(publish=frames.append))
        assert len(frames) == 32
        requests = []
        for _ in range(40):
            user = int(world.draw_users(rng, 1)[0])
            items = world.draw_items(rng, int(rng.integers(1, 9))).tolist()
            requests.append({"user": world.user_features(user),
                             "items": [{"key": f"i{i}", "features": world.item_features(i)} for i in items]})
        return cfg, init_params(cfg, np.random.default_rng([0, 0])), frames, requests

    @staticmethod
    def _apply_while_scoring(model, frames, requests, scorer, threads):
        """Apply every frame from this thread while `threads` threads call scorer(request, thread).

        Returns every reply as (request index, model_version, scores).
        """
        replies, errors, done = [[] for _ in range(threads)], [], threading.Event()

        def score_until_done(t):
            try:
                for index in itertools.cycle(range(t, len(requests), threads)):
                    replies[t].append((index, *scorer(requests[index], t)))
                    if done.is_set():
                        return
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=score_until_done, args=(t,)) for t in range(threads)]
        try:
            for worker in workers:
                worker.start()
            for frame in frames:
                time.sleep(0.004)
                assert model.apply_delta(decode_delta(frame)) is not None
        finally:
            done.set()
            for worker in workers:
                worker.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert model.version == len(frames)
        return [reply for thread in replies for reply in thread]

    @staticmethod
    def _check(run, replies):
        cfg, start, frames, requests = run
        asked = {}
        for index, version, scores in replies:
            asked.setdefault(version, {}).setdefault(index, set()).add(tuple(scores))
        # The scorers kept up with the frames: most versions answered some request.
        assert len(asked) > len(frames) // 2
        replayed = copy_params(start)
        for version in range(len(frames) + 1):
            if version:
                replay_reference(replayed, decode_delta(frames[version - 1]))
            reference = ServingModel(replayed, cfg)
            for index, answers in asked.get(version, {}).items():
                assert answers == {tuple(score(reference, requests[index]).scores)}, (version, index)

    def test_score_calls(self, run):
        cfg, start, frames, requests = run
        model, cache = ServingModel(copy_params(start), cfg), LruCache(64)

        def scorer(request, _):
            response = score(model, request, cache)
            return response.model_version, response.scores

        self._check(run, self._apply_while_scoring(model, frames, requests, scorer, threads=3))

    def test_http_predict(self, run):
        cfg, start, frames, requests = run
        model = ServingModel(copy_params(start), cfg)
        handle = http_serve(model, LruCache(64))
        connections = [http.client.HTTPConnection(*handle.address, timeout=10) for _ in range(3)]

        def scorer(request, t):
            connections[t].request("POST", "/v1/predict", body=json.dumps(request).encode(),
                                   headers={"Content-Type": "application/json"})
            resp = connections[t].getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 200, payload
            return payload["model_version"], payload["scores"]

        try:
            replies = self._apply_while_scoring(model, frames, requests, scorer, threads=3)
        finally:
            for conn in connections:
                conn.close()
            handle.shutdown()
        self._check(run, replies)


class TestMetrics:
    def test_empty_snapshot(self):
        snap = _Metrics().snapshot()
        assert snap == {
            "qps": 0.0,
            "cache_hit_rate": 0.0,
            "latency_p50_us": 0.0,
            "latency_p95_us": 0.0,
            "latency_p99_us": 0.0,
            "request_p50_us": 0.0,
            "request_p95_us": 0.0,
            "request_p99_us": 0.0,
            "lock_wait_p50_us": 0.0,
            "lock_wait_p95_us": 0.0,
            "lock_wait_p99_us": 0.0,
            "deltas_applied": 0,
            "deltas_rejected": 0,
            "deltas_stale": 0,
            "deltas_gap": 0,
            "queue_errors": 0,
            "scores_nulled": 0,
            "requests": 0,
        }

    def test_percentiles_and_rates(self):
        metrics = _Metrics()
        metrics.record(100.0, 1, 2)
        metrics.record(300.0, 0, 2)
        metrics.record(200.0, 2, 2)
        metrics.count("deltas_applied")
        snap = metrics.snapshot()
        # nearest-rank with rank = round(q * n + 0.5): n=3 gives ranks 2, 3, 3
        assert snap["latency_p50_us"] == 200.0
        assert snap["latency_p95_us"] == 300.0
        assert snap["latency_p99_us"] == 300.0
        assert snap["cache_hit_rate"] == pytest.approx(3 / 6)
        assert snap["deltas_applied"] == 1
        assert snap["qps"] >= 0.0

    def test_percentiles_ordered(self):
        metrics = _Metrics()
        rng = np.random.default_rng(63)
        for latency in rng.uniform(10.0, 5000.0, 500):
            metrics.record(float(latency), 0, 1)
        snap = metrics.snapshot()
        assert snap["latency_p50_us"] <= snap["latency_p95_us"] <= snap["latency_p99_us"]


def _http(handle, method, path, body=None):
    host, port = handle.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(raw) if raw else None


class TestHttpService:
    @pytest.fixture
    def served(self, tmp_path):
        model = _make_model(tmp_path)
        handle = http_serve(model, LruCache(64))
        yield model, handle
        handle.shutdown()

    def test_version_endpoint(self, served):
        _, handle = served
        status, payload = _http(handle, "GET", "/v1/version")
        assert status == 200
        assert payload == {"model_version": 0}

    def test_predict_matches_direct_call(self, served):
        model, handle = served
        request = _request("u3", ["i1", "i2"])
        status, payload = _http(handle, "POST", "/v1/predict",
                                json.dumps(request).encode())
        assert status == 200
        assert payload["scores"] == score(model, request).scores
        assert payload["model_version"] == 0

    def test_predict_malformed_json(self, served):
        _, handle = served
        status, payload = _http(handle, "POST", "/v1/predict", b"{not json")
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize("body", [
        b"[]",
        b"{}",
        b'{"items": "nope"}',
        b'{"items": [], "user": 5}',
    ])
    def test_predict_rejects_bad_shapes(self, served, body):
        _, handle = served
        status, payload = _http(handle, "POST", "/v1/predict", body)
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize("length", ["-1", str(MAX_BODY_BYTES + 1), "12abc"])
    def test_bad_content_length_refused_unread(self, served, length):
        _, handle = served
        conn = http.client.HTTPConnection(*handle.address, timeout=5)
        try:
            start = time.perf_counter()
            conn.putrequest("POST", "/v1/predict")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 1.0
        assert resp.status == 400
        assert "Content-Length" in payload["error"]
        assert resp.getheader("Connection") == "close"

    @pytest.mark.parametrize("client", ["waits", "hangs_up"])
    def test_short_body_refused_within_timeout(self, served, monkeypatch, capfd, client):
        monkeypatch.setattr(serving, "BODY_TIMEOUT_S", 0.5)
        _, handle = served
        start = time.perf_counter()
        sock = socket.create_connection(handle.address, timeout=5)
        try:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 10\r\n\r\n{}")
            if client == "waits":
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
                elapsed = time.perf_counter() - start
        finally:
            sock.close()
        if client == "waits":
            # The server answers and then closes: recv saw EOF.
            assert elapsed < 2.0
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            assert b"Connection: close" in head.split(b"\r\n")
            assert "Content-Length" in json.loads(body)["error"]
        time.sleep(1.0)
        # The handler thread is free, nothing was printed, and the server still answers.
        assert _http(handle, "GET", "/v1/version")[0] == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_sequential_keepalive_requests_do_not_stall(self, served):
        # Headers and body in two writes with Nagle on wait out the client's
        # delayed ACK: about 40 ms per request instead of well under 1 ms.
        _, handle = served
        body = json.dumps(_request("u1", ["a"])).encode()
        conn = http.client.HTTPConnection(*handle.address, timeout=10)
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("POST", "/v1/predict", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                latencies.append(time.perf_counter() - start)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.010

    def test_concurrent_clients_score_exactly_beside_a_stalled_body(self, tmp_path):
        """Four keep-alive clients get the in-process scores while a fifth stalls its body."""
        model = _five_kind_model(tmp_path, "deepfm")
        handle = http_serve(model, LruCache(64))
        rng = np.random.default_rng(68)
        requests = [[{"user": {"user_id": f"u{c}", "user_tags": "t3", "user_age": str(20 + n)},
                      "items": _mixed_items(rng, int(rng.integers(1, 24)))[0]} for n in range(25)]
                    for c in range(4)]
        want = [[(200, score(model, r).scores) for r in client] for client in requests]
        got, done = [None] * 4, [0.0] * 4
        body = b'{"items": []}'
        stalled = socket.create_connection(handle.address, timeout=10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            stalled.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
                            + body[:8])

            def client(c):
                conn = http.client.HTTPConnection(*handle.address, timeout=10)
                replies = []
                try:
                    for request in requests[c]:
                        conn.request("POST", "/v1/predict", body=json.dumps(request).encode(),
                                     headers={"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        replies.append((resp.status, json.loads(resp.read())["scores"]))
                finally:
                    conn.close()
                got[c], done[c] = replies, time.perf_counter()

            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == want
            # Every client was answered before the stalled body's timeout could fire.
            assert max(done) - start < serving.BODY_TIMEOUT_S
            stalled.setblocking(False)
            with pytest.raises(BlockingIOError):
                stalled.recv(1)
            stalled.setblocking(True)
            stalled.sendall(body[8:])
            reply = b""
            while not reply.endswith(b"}"):
                reply += stalled.recv(4096)
            assert reply.startswith(b"HTTP/1.1 200") and reply.endswith(b'"scores": [], "model_version": 0, "cache_hits": 0}')
        finally:
            sys.setswitchinterval(interval)
            stalled.close()
            handle.shutdown()

    def test_unknown_paths(self, served):
        _, handle = served
        assert _http(handle, "GET", "/nope")[0] == 404
        assert _http(handle, "POST", "/nope", b"{}")[0] == 404

    def test_metrics_schema_and_counts(self, served):
        _, handle = served
        request = json.dumps(_request("u1", ["a", "b"])).encode()
        _http(handle, "POST", "/v1/predict", request)
        _http(handle, "POST", "/v1/predict", request)
        status, snap = _http(handle, "GET", "/v1/metrics")
        assert status == 200
        assert set(snap) == {"qps", "cache_hit_rate", "latency_p50_us",
                             "latency_p95_us", "latency_p99_us", "request_p50_us",
                             "request_p95_us", "request_p99_us", "lock_wait_p50_us",
                             "lock_wait_p95_us", "lock_wait_p99_us", "deltas_applied",
                             "deltas_rejected", "deltas_stale", "deltas_gap", "queue_errors",
                             "scores_nulled", "requests"}
        assert snap["latency_p50_us"] > 0.0
        assert snap["cache_hit_rate"] == pytest.approx(0.5)
        assert snap["deltas_applied"] == snap["deltas_rejected"] == snap["deltas_stale"] == 0


    def test_request_latency_is_counted_and_within_the_clients(self, served):
        """After N sequential requests the server counts N, and its request p50 is at most the client's."""
        _, handle = served
        body = json.dumps(_request("u1", ["a", "b", "c"])).encode()
        conn = http.client.HTTPConnection(*handle.address, timeout=10)
        latencies = []
        try:
            for _ in range(25):
                start = time.perf_counter()
                conn.request("POST", "/v1/predict", body=body, headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                latencies.append((time.perf_counter() - start) * 1e6)
                assert resp.status == 200
            # On the same connection: the server records a request before it reads the next.
            conn.request("GET", "/v1/metrics")
            snap = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert snap["requests"] == 25
        # Nearest rank, as the server computes it: the 13th of 25.
        client_p50 = sorted(latencies)[12]
        assert 0.0 < snap["latency_p50_us"] <= snap["request_p50_us"] <= client_p50
        assert 0.0 <= snap["lock_wait_p50_us"] <= snap["lock_wait_p99_us"] < snap["request_p99_us"]

    def test_connections_over_the_cap_get_503_and_no_thread(self, tmp_path, monkeypatch):
        """With a cap of 2, a third connection is answered 503 and closed, and no handler thread starts for it."""
        monkeypatch.setattr(serving, "MAX_CONNECTIONS", 2)
        started = []
        start_thread = threading.Thread.start

        def recording_start(thread):
            if thread.name == "minirec-connection":
                started.append(thread)
            start_thread(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        handle = http_serve(_make_model(tmp_path), None)

        def handlers():
            return sum(t.is_alive() for t in started)

        def version(conn):
            conn.request("GET", "/v1/version")
            resp = conn.getresponse()
            return resp.status, resp.getheader("Connection"), json.loads(resp.read())

        kept = [http.client.HTTPConnection(*handle.address, timeout=10) for _ in range(2)]
        try:
            counts = []
            for conn in kept:
                assert version(conn)[0] == 200
                counts.append(handlers())
            third = http.client.HTTPConnection(*handle.address, timeout=10)
            try:
                assert version(third) == (503, "close", {"error": "too many connections"})
            finally:
                third.close()
            counts.append(handlers())
            assert counts == [1, 2, 2] and len(started) == 2
            # The kept connections still answer; once one closes, its place is free again.
            assert [version(conn)[0] for conn in kept] == [200, 200]
            kept[0].close()
            deadline = time.monotonic() + 5.0
            while handlers() > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            kept[0] = http.client.HTTPConnection(*handle.address, timeout=10)
            assert version(kept[0])[0] == 200
            assert handlers() == 2 and len(started) == 3
        finally:
            for conn in kept:
                conn.close()
            handle.shutdown()


    def test_refused_client_still_sending_reads_the_503(self, tmp_path, monkeypatch):
        """With a cap of 1 taken, each POST that sends its body after its head still reads its 503."""
        monkeypatch.setattr(serving, "MAX_CONNECTIONS", 1)
        started = []
        start_thread = threading.Thread.start

        def recording_start(thread):
            if thread.name == "minirec-connection":
                started.append(thread)
            start_thread(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        handle = http_serve(_make_model(tmp_path), None)
        kept = http.client.HTTPConnection(*handle.address, timeout=10)
        replies = []
        try:
            kept.request("GET", "/v1/version")
            assert kept.getresponse().read() == b'{"model_version": 0}'
            for n in range(150):
                body = b"x" * (291 if n % 2 else 28_011)
                with socket.create_connection(handle.address, timeout=5) as sock:
                    try:
                        sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
                                     % len(body))
                        sock.sendall(body)
                        reply = HttpReplies(sock).next()
                        replies.append((reply.status, reply.headers.get("connection"), json.loads(reply.body)))
                    except OSError as exc:
                        replies.append(type(exc).__name__)
        finally:
            kept.close()
            handle.shutdown()
        assert replies == [(503, "close", {"error": "too many connections"})] * 150
        assert len(started) == 1


class TestHostileInputs:
    """Hostile bodies get a status and a JSON reply, never a 500 or a dropped connection."""

    @pytest.fixture
    def served(self, tmp_path):
        model = _five_kind_model(tmp_path, "deepfm")
        handle = http_serve(model, LruCache(64))
        yield model, handle
        handle.shutdown()

    @pytest.mark.parametrize("age, reason", [
        ("abc", "non-numeric text 'abc'"),
        ("1e300", "numeric value '1e300' is not finite as a float32"),
    ], ids=["abc", "1e300"])
    def test_user_feature_error_is_400(self, served, capfd, age, reason):
        # user_age is a numeric_bucket slot.
        _, handle = served
        body = json.dumps({"user": {"user_age": age}, "items": [{"key": "a"}]}).encode()
        status, payload = _http(handle, "POST", "/v1/predict", body)
        assert status == 400
        assert payload["error"] == f"invalid value at 'user_age': {reason}"
        assert "Traceback" not in capfd.readouterr().err

    def test_null_is_a_missing_feature(self, served):
        model, handle = served
        with_null = {"user": {"user_id": "u1", "user_age": None},
                     "items": [{"key": "a", "features": {"item_id": "a", "item_price": None}}]}
        without = {"user": {"user_id": "u1"}, "items": [{"key": "a", "features": {"item_id": "a"}}]}
        status, payload = _http(handle, "POST", "/v1/predict", json.dumps(with_null).encode())
        assert status == 200
        assert payload["scores"] == score(model, without).scores
        assert payload["scores"][0] is not None

    def test_item_number_rule_nulls_that_item(self, served):
        model, handle = served
        items = [{"key": k, "features": {"item_id": k, "item_price": price}}
                 for k, price in (("a", "2.5"), ("b", "1e300"), ("c", "-inf"), ("d", "0.5"))]
        items.append({"key": "e", "features": ["not", "an", "object"]})
        request = {"user": {"user_id": "u1"}, "items": items}
        status, payload = _http(handle, "POST", "/v1/predict", json.dumps(request).encode())
        assert status == 200
        scores = payload["scores"]
        assert [s is None for s in scores] == [False, True, True, False, True]
        for position in (0, 3):
            alone = score(model, {"user": request["user"], "items": [items[position]]}).scores
            assert alone == [scores[position]]

    def test_logit_below_exp_range_scores_clipped(self, served):
        # This price drives the logit to about -1e19; math.exp(1e19) overflows.
        model, handle = served
        request = {"user": {"user_id": "u1"},
                   "items": [{"key": "a", "features": {"item_id": "a", "item_price": "1e20"}}]}
        status, payload = _http(handle, "POST", "/v1/predict", json.dumps(request).encode())
        assert status == 200
        assert payload["scores"] == [np.float32(PROB_CLIP).item()]
        assert payload["scores"] == score(model, request).scores

    def test_non_finite_logit_scores_null_and_is_counted(self, served, capfd):
        # Both prices are finite as float32, but the logit overflows.
        model, handle = served
        items = [{"key": k, "features": {"item_id": k, "item_price": price}}
                 for k, price in (("a", "2.5"), ("b", "1e30"), ("c", "3.4e38"))]
        request = {"user": {"user_id": "u1"}, "items": items}
        status, payload = _http(handle, "POST", "/v1/predict", json.dumps(request).encode())
        assert status == 200
        assert payload["scores"][1:] == [None, None]
        assert payload["scores"][0] == score(model, {"user": request["user"], "items": items[:1]}).scores[0]
        assert _http(handle, "GET", "/v1/metrics")[1]["scores_nulled"] == 2
        assert "Traceback" not in capfd.readouterr().err

    def test_float32_overflow_warns_nothing(self, tmp_path):
        model = _five_kind_model(tmp_path, "deepfm")
        request = {"user": {"user_id": "u1"},
                   "items": [{"key": "a", "features": {"item_id": "a", "item_price": "3e38"}}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cache in (None, LruCache(4)):
                response = score(model, request, cache)
                assert response.scores == [None] and response.nulled == 1

    def test_lone_surrogate_is_a_feature_error(self, served, capfd):
        model, handle = served
        items = [{"key": k, "features": {"item_id": k}} for k in ("a", "\ud800", "c")]
        status, payload = _http(handle, "POST", "/v1/predict",
                                json.dumps({"user": {"user_id": "u1"}, "items": items}).encode())
        assert status == 200
        assert [s is None for s in payload["scores"]] == [False, True, False]
        assert payload["scores"][2] == score(model, {"user": {"user_id": "u1"}, "items": items[2:]}).scores[0]
        status, payload = _http(handle, "POST", "/v1/predict",
                                json.dumps({"user": {"user_id": "u\ud800"}, "items": items[:1]}).encode())
        assert status == 400
        assert payload["error"] == "invalid value at 'user_id': text is not valid Unicode"
        assert "Traceback" not in capfd.readouterr().err

    def test_deeply_nested_body_is_400(self, served, capfd):
        _, handle = served
        body = b"[" * 100_000 + b"]" * 100_000
        start = time.perf_counter()
        status, payload = _http(handle, "POST", "/v1/predict", body)
        assert time.perf_counter() - start < 1.0
        assert status == 400
        assert "error" in payload
        assert "Traceback" not in capfd.readouterr().err


_USER_SLOTS = ("user_id", "user_tags", "user_age")
_ITEM_SLOTS = ("item_id", "item_cats", "item_price")


def _hostile_bodies(rng):
    """Request bodies with a hostile value in each position, then seeded mixtures of them, as bytes.

    Every item has a key of its own: the cache would score a key it holds
    with the features it first stored, not with the hostile ones.
    """
    good_user = {"user_id": "u1", "user_tags": "t1|t2", "user_age": "33"}
    keys = itertools.count()

    def good_item():
        key = f"i{next(keys)}"
        return {"key": key, "features": {"item_id": key, "item_cats": "c1", "item_price": "2.5"}}

    shapes = [
        *[lambda v, s=s: {"user": {**good_user, s: v}, "items": [good_item()]} for s in _USER_SLOTS],
        *[lambda v, s=s: {"user": good_user, "items": [good_item(), {**good_item(), "features": {s: v}}]}
          for s in _ITEM_SLOTS],
        lambda v: {"user": good_user, "items": [{"key": v, "features": good_item()["features"]}]},
        lambda v: {"user": good_user, "items": [good_item(), {**good_item(), "features": v}]},
        lambda v: {"user": good_user, "items": [v, good_item()]},
        lambda v: {"user": good_user, "items": v},
        lambda v: {"user": v, "items": [good_item()]},
        lambda v: v,
    ]
    bodies = [json.dumps(shape(v)).encode() for shape in shapes for v in HOSTILE_VALUES]
    for _ in range(150):
        def pick():
            return HOSTILE_VALUES[int(rng.integers(len(HOSTILE_VALUES)))]

        user = {s: pick() if rng.random() < 0.3 else v for s, v in good_user.items()}
        items = []
        for k in range(int(rng.integers(1, 9))):
            item = good_item()
            for s in _ITEM_SLOTS:
                if rng.random() < 0.3:
                    item["features"][s] = pick()
            items.append(pick() if rng.random() < 0.1 else item)
        bodies.append(json.dumps({"user": user, "items": items}).encode())
    # Bodies that are not JSON a client could build with a JSON encoder.
    bodies += [
        b"\xff\xfe", b'{"items": ["\xff"]}', b'{"user": {"user_id": "\xc3\x28"}, "items": [{"key": "a"}]}',
        b"[" * 100_000, b'{"items": [' + b"[" * 5_000 + b"]" * 5_000 + b"]}", b"", b"null", b"NaN",
        b'{"user": {"user_age": 1e999}, "items": [{"key": "a"}]}', b'{"items": []',
    ]
    return bodies


class TestHttpFuzz:
    def test_hostile_bodies_get_a_score_or_a_json_error(self, tmp_path, caplog):
        """Each reply is a 200 with scores null or in [PROB_CLIP, 1 - PROB_CLIP], or a 4xx with a JSON error.

        No reply takes over a second and nothing is logged at ERROR. The
        oracle checks the shape of each reply, not the scores' values.
        """
        caplog.set_level(logging.WARNING, logger="minirec")
        handle = http_serve(_five_kind_model(tmp_path, "deepfm"), LruCache(16))
        statuses = set()
        try:
            for body in _hostile_bodies(np.random.default_rng(81)):
                start = time.perf_counter()
                status, payload = _http(handle, "POST", "/v1/predict", body)
                assert time.perf_counter() - start < 1.0, body[:200]
                statuses.add(status)
                if status == 200:
                    items = json.loads(body)["items"]
                    assert len(payload["scores"]) == len(items), body[:200]
                    for value in payload["scores"]:
                        assert value is None or PROB_CLIP <= value <= 1.0 - PROB_CLIP, (value, body[:200])
                else:
                    assert 400 <= status < 500 and isinstance(payload["error"], str), (status, body[:200])
        finally:
            handle.shutdown()
        assert statuses == {200, 400}
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


class TestPoller:
    def test_polls_applies_and_survives_garbage(self, tmp_path):
        model = _make_model(tmp_path)
        url = f"file://{tmp_path / 'deltas'}"
        publisher, consumer = open_publisher(url), open_consumer(url)
        handle = http_serve(model, None, consumer=consumer, poll_interval_ms=20)
        try:
            publisher.publish(b"garbage frame")
            msg = message_of(model_version=1,
                               sparse=(SparseRecord(0, 2, (4.0, 3.0, 2.0, 1.0)),))
            publisher.publish(encode_delta(msg))
            deadline = time.monotonic() + 5.0
            while model.version < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert model.version == 1
            status, snap = _http(handle, "GET", "/v1/metrics")
            assert status == 200
            assert snap["deltas_applied"] == 1
            assert snap["deltas_rejected"] == 1
            np.testing.assert_array_equal(
                model.snapshot().tensors["emb:user_id"][2],
                np.asarray([4.0, 3.0, 2.0, 1.0], dtype=np.float32),
            )
            # A frame the server already holds is dropped and counted as stale.
            publisher.publish(encode_delta(msg))
            deadline = time.monotonic() + 5.0
            while snap["deltas_stale"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
                snap = _http(handle, "GET", "/v1/metrics")[1]
            assert (snap["deltas_applied"], snap["deltas_rejected"], snap["deltas_stale"]) == (1, 1, 1)
            assert model.version == 1
        finally:
            handle.shutdown()
            publisher.close()
            consumer.close()

    def test_non_finite_frame_is_rejected(self, tmp_path):
        model = _make_model(tmp_path)
        request = _request("u1", ["a"])
        before = score(model, request).scores
        url = f"file://{tmp_path / 'deltas'}"
        publisher, consumer = open_publisher(url), open_consumer(url)
        handle = http_serve(model, None, consumer=consumer, poll_interval_ms=20)
        try:
            # A well-formed frame, CRC included, whose values are all NaN.
            nan = float("nan")
            publisher.publish(encode_delta(message_of(
                model_version=1, sparse=(SparseRecord(0, 2, (nan, nan, nan, nan)),))))
            deadline = time.monotonic() + 5.0
            snap = _http(handle, "GET", "/v1/metrics")[1]
            while snap["deltas_rejected"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
                snap = _http(handle, "GET", "/v1/metrics")[1]
            assert (snap["deltas_applied"], snap["deltas_rejected"]) == (0, 1)
            assert model.version == 0
            status, payload = _http(handle, "POST", "/v1/predict", json.dumps(request).encode())
            assert (status, payload["scores"]) == (200, before)
        finally:
            handle.shutdown()
            publisher.close()
            consumer.close()

    def test_corrupt_queue_prefix_is_counted(self, tmp_path):
        model = _make_model(tmp_path)
        base = str(tmp_path / "bad")
        with open(base + ".dq", "wb") as fh:
            fh.write(struct.pack("<I", 0xFFFFFFF0) + b"rest of a frame")
        consumer = open_consumer("file://" + base)
        handle = http_serve(model, None, consumer=consumer, poll_interval_ms=50)
        try:
            deadline = time.monotonic() + 5.0
            snap = _http(handle, "GET", "/v1/metrics")[1]
            while snap["queue_errors"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
                snap = _http(handle, "GET", "/v1/metrics")[1]
            assert snap["queue_errors"] >= 1
            assert snap["deltas_applied"] == 0
            assert model.version == 0
        finally:
            handle.shutdown()
            consumer.close()


class TestQueueFaults:
    """A frame lost from a replayed queue stops the server at the version before it."""

    @pytest.fixture(scope="class")
    def queue(self, tmp_path_factory):
        """A trained config, its version-0 parameters and the frames of its file queue."""
        tmp_path = tmp_path_factory.mktemp("queue")
        write_logistic_dataset(tmp_path, n_train=256, n_eval=64, seed=5)
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 1, "batch_size": 32, "delta_period_steps": 1, "seed": 3})
        publisher = open_publisher(f"file://{tmp_path / 'trained'}")
        try:
            train(cfg, sink=publisher)
        finally:
            publisher.close()
        blob = (tmp_path / "trained.dq").read_bytes()
        frames, pos = [], 0
        while pos < len(blob):
            (length,) = struct.unpack_from("<I", blob, pos)
            frames.append(blob[pos + 4 : pos + 4 + length])
            pos += 4 + length
        assert len(frames) == 8
        return cfg, init_params(cfg, np.random.default_rng([3, 0])), frames

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_bit_flip_in_frame_k(self, queue, tmp_path, k):
        cfg, start, frames = queue
        corrupt = [bytearray(f) for f in frames]
        corrupt[k - 1][len(corrupt[k - 1]) // 2] ^= 0x10
        base = tmp_path / "flipped"
        base.with_suffix(".dq").write_bytes(b"".join(struct.pack("<I", len(f)) + f for f in corrupt))

        reference = copy_params(start)
        for frame in frames[: k - 1]:
            replay_reference(reference, decode_delta(frame))

        model = ServingModel(copy_params(start), cfg)
        consumer = open_consumer(f"file://{base}")
        handle = http_serve(model, None, consumer=consumer, poll_interval_ms=20)
        try:
            deadline = time.monotonic() + 10.0
            snap = _http(handle, "GET", "/v1/metrics")[1]
            while (snap["deltas_applied"] + snap["deltas_rejected"] + snap["deltas_gap"] < len(frames)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
                snap = _http(handle, "GET", "/v1/metrics")[1]
            assert (snap["deltas_applied"], snap["deltas_rejected"], snap["deltas_gap"]) == (
                k - 1, 1, len(frames) - k)
            assert _http(handle, "GET", "/v1/version")[1]["model_version"] == k - 1
            assert params_equal(model.snapshot(), reference)
        finally:
            handle.shutdown()
            consumer.close()


_VERSION = b"GET /v1/version HTTP/1.1\r\nHost: x\r\n\r\n"
_PREDICT_BODY = b'{"items": [{"key": "a"}]}'


def _post(headers: bytes, body: bytes = _PREDICT_BODY) -> bytes:
    return b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n%s\r\n" % (len(body), headers)


# Each case is what a client sends and the replies it reads, in order: bytes
# are sent, and (status, close) is a reply with that status that carries
# `Connection: close` if and only if `close`, after which the server ends the
# connection. A case that ends without close leaves the connection open for
# another request.
_HEAD_CASES = {
    "http11": [_VERSION, (200, False)],
    "http11_close": [b"GET /v1/version HTTP/1.1\r\nConnection: close\r\n\r\n", (200, True)],
    "http10": [b"GET /v1/version HTTP/1.0\r\n\r\n", (200, True)],
    "http10_keep_alive": [b"GET /v1/version HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", (200, False),
                          _VERSION, (200, False)],
    "pipelined": [_VERSION + _post(b"") + _PREDICT_BODY, (200, False), (200, False)],
    "pipelined_then_close": [_post(b"") + _PREDICT_BODY + b"GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
                             (200, False), (200, True)],
    "expect_100_continue": [_post(b"Expect: 100-continue\r\n"), (100, False), _PREDICT_BODY, (200, False)],
    "expect_100_continue_http10_ignored": [
        b"POST /v1/predict HTTP/1.0\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(_PREDICT_BODY)
        + _PREDICT_BODY, (200, True)],
    "target_bytes_0x80_up": [b"GET /v1/\x80version\xff HTTP/1.1\r\n\r\n", (404, False), _VERSION, (200, False)],
    "post_target_bytes_0x80_up": [b"POST /v1/predict\xfe HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", (404, True)],
    "header_value_bytes_0x80_up": [b"GET /v1/version HTTP/1.1\r\nX-Name: \xe9\xff\x80\r\n\r\n", (200, False)],
    "hundred_headers": [b"GET /v1/version HTTP/1.1\r\n" + b"X-A: b\r\n" * 100 + b"\r\n", (200, False)],
    "same_content_length_twice": [_post(b"Content-Length: %d\r\n" % len(_PREDICT_BODY)) + _PREDICT_BODY,
                                  (200, False)],
    # 400: the request line or a header line is malformed.
    "request_line_two_words": [b"GET /v1/version\r\n\r\n", (400, True)],
    "request_line_four_words": [b"GET /v1/version HTTP/1.1 x\r\n\r\n", (400, True)],
    "request_line_empty": [b"\r\n" + _VERSION, (400, True)],
    "version_not_http": [b"GET /v1/version HTTQ/1.1\r\n\r\n", (400, True)],
    "version_one_number": [b"GET /v1/version HTTP/1\r\n\r\n", (400, True)],
    "version_not_digits": [b"GET /v1/version HTTP/1.x\r\n\r\n", (400, True)],
    "header_without_colon": [b"GET /v1/version HTTP/1.1\r\nHost x\r\n\r\n", (400, True)],
    "header_space_before_colon": [b"GET /v1/version HTTP/1.1\r\nHost : x\r\n\r\n", (400, True)],
    "header_obs_fold": [b"GET /v1/version HTTP/1.1\r\nX-A: b\r\n c\r\n\r\n", (400, True)],
    "header_obs_fold_tab": [b"GET /v1/version HTTP/1.1\r\nX-A: b\r\n\tc\r\n\r\n", (400, True)],
    "two_content_lengths": [_post(b"Content-Length: 3\r\n") + _PREDICT_BODY, (400, True)],
    "content_length_not_digits": [_post(b"").replace(b"Length: 25", b"Length: +25") + _PREDICT_BODY, (400, True)],
    # 414, 431: over the limits.
    "request_line_too_long": [b"GET /" + b"a" * 65_536 + b" HTTP/1.1\r\n\r\n", (414, True)],
    "header_line_too_long": [b"GET /v1/version HTTP/1.1\r\nX-A: " + b"b" * 65_536 + b"\r\n\r\n", (431, True)],
    "too_many_headers": [b"GET /v1/version HTTP/1.1\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", (431, True)],
    # 501: another method, or a Transfer-Encoding; the client is still sending the body when refused.
    "method_put": [b"PUT /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n", (501, True), b"{}"],
    "method_head": [b"HEAD /v1/version HTTP/1.1\r\n\r\n", (501, True)],
    "method_lower_case": [b"get /v1/version HTTP/1.1\r\n\r\n", (501, True)],
    "transfer_encoding_chunked": [b"POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                                  (501, True), b"2\r\n{}\r\n0\r\n\r\n"],
    "transfer_encoding_identity": [_post(b"Transfer-Encoding: identity\r\n") + _PREDICT_BODY, (501, True)],
    # 505: a version other than HTTP/1.0 and HTTP/1.1.
    "version_2": [b"GET /v1/version HTTP/2.0\r\n\r\n", (505, True)],
    "version_0_9": [b"GET /v1/version HTTP/0.9\r\n\r\n", (505, True)],
    "version_1_2": [b"GET /v1/version HTTP/1.2\r\n\r\n", (505, True)],
    # 417: an expectation other than 100-continue.
    "expect_other": [_post(b"Expect: 200-ok\r\n"), (417, True), _PREDICT_BODY],
}
# Cases whose header lines the fuzz may not add to or change: their count or spelling is the point.
_EXACT_HEADERS = {"hundred_headers", "too_many_headers", "header_space_before_colon", "request_line_empty",
                  "request_line_two_words", "request_line_four_words"}
_HEADER_NAMES = re.compile(rb"^(connection|content-length|expect|transfer-encoding|host)(?=:)", re.I | re.M)


def _fuzzed(steps, name, rng):
    """The case with its sends cut at random points, its header names in random case, a random header
    added and a good request in front, each at random; the replies it must read do not change."""
    steps = list(steps)
    if name not in _EXACT_HEADERS and rng.random() < 0.5:
        head = steps[0].split(b"\r\n", 1)
        value = bytes(rng.choice([*range(0x21, 0x7f), *range(0x80, 0x100)]) for _ in range(rng.randrange(40)))
        steps[0] = head[0] + b"\r\nX-Fuzz: " + value + b"\r\n" + head[1]
    if name not in _EXACT_HEADERS and rng.random() < 0.5:
        def flip(match):
            return bytes(c ^ 0x20 if chr(c).isalpha() and rng.random() < 0.5 else c for c in match.group(0))

        steps = [_HEADER_NAMES.sub(flip, step) if isinstance(step, bytes) else step for step in steps]
    if rng.random() < 0.3:
        steps = [_VERSION, (200, False), *steps]
    cut = []
    for step in steps:
        if isinstance(step, bytes) and len(step) > 1 and rng.random() < 0.5:
            points = sorted(rng.sample(range(1, len(step)), min(3, len(step) - 1)))
            cut += [step[a:b] for a, b in zip([0, *points], [*points, len(step)])]
        else:
            cut.append(step)
    return cut


class TestHostileHeads:
    """Request heads inside and outside the served subset of HTTP/1.1, read by a parser of their own.

    Each reply arrives within a second with the status the case gives, a
    JSON error on every 4xx and 5xx, and `Connection: close` exactly where
    the server then ends the connection. Afterwards the server still
    answers, nothing is logged at ERROR and nothing is printed.
    """

    @pytest.fixture(scope="class")
    def handle(self, tmp_path_factory):
        handle = http_serve(_make_model(tmp_path_factory.mktemp("heads")), LruCache(16))
        yield handle
        handle.shutdown()

    @staticmethod
    def _run(handle, steps):
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            replies, closed = HttpReplies(sock), False
            for step in steps:
                if isinstance(step, bytes):
                    sock.sendall(step)
                    continue
                status, close = step
                start = time.perf_counter()
                reply = replies.next(timeout=1.0)
                assert time.perf_counter() - start < 1.0
                assert reply.status == status, (reply, steps[:1])
                assert reply.headers.get("connection") == ("close" if close else None), reply
                if status >= 400:
                    assert isinstance(json.loads(reply.body)["error"], str), reply
                elif status >= 200:
                    assert reply.headers["content-type"] == "application/json"
                    assert re.fullmatch(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep"
                                        r"|Oct|Nov|Dec) \d{4} \d\d:\d\d:\d\d GMT", reply.headers["date"])
                closed = close
            if closed:
                assert replies.ended()
            else:
                sock.sendall(_VERSION)
                assert replies.next().status == 200

    def _check_after(self, handle, caplog, capfd):
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(_VERSION)
            reply = HttpReplies(sock).next()
        assert (reply.status, reply.body) == (200, b'{"model_version": 0}')
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("name", _HEAD_CASES)
    def test_case(self, handle, caplog, capfd, name):
        caplog.set_level(logging.WARNING, logger="minirec")
        self._run(handle, _HEAD_CASES[name])
        self._check_after(handle, caplog, capfd)

    def test_fuzz(self, handle, caplog, capfd):
        caplog.set_level(logging.WARNING, logger="minirec")
        rng = random.Random(34)
        for _ in range(3):
            for name, steps in _HEAD_CASES.items():
                self._run(handle, _fuzzed(steps, name, rng))
        self._check_after(handle, caplog, capfd)


def test_importing_the_cli_loads_no_http_library():
    """The server reads HTTP itself; http.server would load http.client, email and ssl."""
    code = ("import sys, minirec.cli; "
            "print(sorted(m for m in ('ssl', 'http.client', 'http.server', 'email') if m in sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]"
