"""Feature generation: hashing, bucketing, crosses, and determinism."""

import json

import numpy as np
import pytest

from minirec import serving
from minirec.errors import InvalidValue, NonFinite
from minirec.features import (
    CROSS_SEPARATOR,
    MAX_CROSS_COMBINATIONS,
    FeatureSpec,
    bucketize,
    canonical_bytes,
    cross_values,
    fnv1a64,
    generate,
    hash_id,
)
from minirec.model import init_params
from minirec.sample_stream import JoinConfig, run_pipeline
from minirec.trainer import load_records

from helpers import fnv1a64_reference, make_config


class TestFnv1a64:
    def test_empty_input_is_offset_basis(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_known_vectors(self):
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matches_reference_on_random_bytes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            data = rng.integers(0, 256, size=rng.integers(0, 64)).astype(np.uint8).tobytes()
            assert fnv1a64(data) == fnv1a64_reference(data)

    def test_stays_in_64_bits(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            data = rng.integers(0, 256, size=32).astype(np.uint8).tobytes()
            assert 0 <= fnv1a64(data) <= 0xFFFFFFFFFFFFFFFF


class TestHashId:
    def test_empty_string(self):
        assert hash_id("", 1000) == 0xCBF29CE484222325 % 1000

    def test_single_character(self):
        assert hash_id("a", 997) == 0xAF63DC4C8601EC8C % 997

    def test_deterministic(self):
        assert hash_id("u1", 500) == hash_id("u1", 500)

    def test_str_and_bytes_agree(self):
        assert hash_id("value", 100) == hash_id(b"value", 100)

    def test_always_below_vocab(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            vocab = int(rng.integers(2, 10_000))
            raw = f"tok{rng.integers(1_000_000)}"
            assert 0 <= hash_id(raw, vocab) < vocab


class TestBucketize:
    def test_below_all_boundaries(self):
        assert bucketize(-1.0, [0.0, 10.0, 100.0]) == 0

    def test_interior_value(self):
        assert bucketize(5.0, [0.0, 10.0, 100.0]) == 1

    def test_boundary_inclusive(self):
        assert bucketize(100.0, [0.0, 10.0, 100.0]) == 3
        assert bucketize(0.0, [0.0, 10.0, 100.0]) == 1

    def test_counting_oracle(self):
        rng = np.random.default_rng(10)
        boundaries = [-5.0, -1.0, 0.5, 3.0, 9.0]
        for _ in range(300):
            value = float(rng.uniform(-10, 15))
            expected = sum(1 for b in boundaries if value >= b)
            assert bucketize(value, boundaries) == expected

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            bucketize(float("nan"), [0.0])
        with pytest.raises(NonFinite):
            bucketize(float("inf"), [0.0])


class TestCrossValues:
    def test_singleton_product(self):
        assert cross_values(["u1"], ["i1"]) == ["u1" + CROSS_SEPARATOR + "i1"]

    def test_a_major_order(self):
        assert cross_values(["a", "b"], ["x"]) == [
            "a" + CROSS_SEPARATOR + "x",
            "b" + CROSS_SEPARATOR + "x",
        ]

    def test_empty_factor(self):
        assert cross_values([], ["x"]) == []
        assert cross_values(["x"], []) == []

    def test_cap_at_100(self):
        a = [f"a{i}" for i in range(20)]
        b = [f"b{i}" for i in range(20)]
        combos = cross_values(a, b)
        assert len(combos) == MAX_CROSS_COMBINATIONS
        # Cap keeps the first combinations in (a-order, then b-order).
        assert combos[0] == "a0" + CROSS_SEPARATOR + "b0"
        assert combos[-1] == "a4" + CROSS_SEPARATOR + "b19"


def _specs():
    return (
        FeatureSpec(name="user_id", kind="id", source_columns=("user",), vocab_size=1000),
        FeatureSpec(name="tags", kind="multi_id", source_columns=("tags",), vocab_size=64),
        FeatureSpec(name="price_bucket", kind="numeric_bucket",
                    source_columns=("price",), boundaries=(0.0, 10.0, 100.0)),
        FeatureSpec(name="age", kind="numeric_raw", source_columns=("age",)),
        FeatureSpec(name="user_x_item", kind="cross",
                    source_columns=("user", "item"), vocab_size=4096),
    )


class TestGenerate:
    def test_id_slot_uses_hash(self):
        fv = generate({"user": "u1"}, _specs()[:1])
        assert fv.ids["user_id"] == (hash_id("u1", 1000),)

    def test_missing_column_gives_empty_ids(self):
        fv = generate({}, _specs()[:1])
        assert fv.ids["user_id"] == ()

    def test_missing_numeric_raw_gives_zero(self):
        fv = generate({}, _specs()[3:4])
        assert fv.dense["age"] == 0.0

    def test_multi_id_keeps_duplicates(self):
        fv = generate({"tags": "a|b|a"}, _specs()[1:2])
        expect = (hash_id("a", 64), hash_id("b", 64), hash_id("a", 64))
        assert fv.ids["tags"] == expect

    def test_multi_id_skips_empty_segments(self):
        fv = generate({"tags": "a||b|"}, _specs()[1:2])
        assert fv.ids["tags"] == (hash_id("a", 64), hash_id("b", 64))

    def test_bucket_slot(self):
        fv = generate({"price": "15"}, _specs()[2:3])
        assert fv.ids["price_bucket"] == (2,)

    def test_cross_slot(self):
        fv = generate({"user": "u1", "item": "i9"}, _specs()[4:])
        raw = "u1" + CROSS_SEPARATOR + "i9"
        assert fv.ids["user_x_item"] == (hash_id(raw, 4096),)

    def test_non_numeric_text_rejected(self):
        with pytest.raises(InvalidValue):
            generate({"price": "cheap"}, _specs()[2:3])
        with pytest.raises(InvalidValue):
            generate({"age": "old"}, _specs()[3:4])

    def test_slot_order_independence(self):
        """Each slot's output only depends on its own spec and columns."""
        record = {"user": "u7", "tags": "x|y", "price": "3", "age": "41", "item": "i2"}
        specs = _specs()
        forward = generate(record, specs)
        backward = generate(record, tuple(reversed(specs)))
        shuffled_order = [2, 4, 0, 3, 1]
        shuffled = generate(record, tuple(specs[i] for i in shuffled_order))
        for spec in specs:
            assert forward.ids.get(spec.name) == backward.ids.get(spec.name)
            assert forward.ids.get(spec.name) == shuffled.ids.get(spec.name)
            assert forward.dense.get(spec.name) == backward.dense.get(spec.name)
            assert forward.dense.get(spec.name) == shuffled.dense.get(spec.name)

    def test_range_safety_fuzz(self):
        rng = np.random.default_rng(11)
        specs = _specs()
        for _ in range(300):
            record = {
                "user": f"u{rng.integers(100000)}",
                "tags": "|".join(f"t{rng.integers(500)}" for _ in range(rng.integers(0, 5))),
                "price": str(float(rng.uniform(-50, 500))),
                "age": str(float(rng.uniform(0, 99))),
                "item": f"i{rng.integers(100000)}",
            }
            fv = generate(record, specs)
            for spec in specs:
                limit = spec.table_vocab_size
                for row in fv.ids.get(spec.name, ()):
                    assert 0 <= row < limit


class TestCanonicalBytes:
    def test_deterministic_across_calls(self):
        record = {"user": "u1", "tags": "a|b", "price": "7", "age": "30", "item": "i1"}
        one = canonical_bytes(generate(record, _specs()))
        two = canonical_bytes(generate(record, _specs()))
        assert one == two

    def test_differs_on_different_input(self):
        specs = _specs()[:1]
        one = canonical_bytes(generate({"user": "u1"}, specs))
        two = canonical_bytes(generate({"user": "u2"}, specs))
        assert one != two

    def test_slot_eval_order_invisible(self):
        record = {"user": "u1", "tags": "a", "price": "7", "age": "30", "item": "i1"}
        specs = _specs()
        assert canonical_bytes(generate(record, specs)) == canonical_bytes(
            generate(record, tuple(reversed(specs)))
        )


class TestFeatureSpecValidation:
    def test_vocab_too_small(self):
        spec = FeatureSpec(name="u", kind="id", source_columns=("u",), vocab_size=1)
        with pytest.raises(InvalidValue):
            spec.validate()

    def test_boundaries_must_increase(self):
        spec = FeatureSpec(name="b", kind="numeric_bucket",
                           source_columns=("b",), boundaries=(1.0, 1.0))
        with pytest.raises(InvalidValue):
            spec.validate()

    def test_cross_needs_two_sources(self):
        spec = FeatureSpec(name="c", kind="cross", source_columns=("a",), vocab_size=16)
        with pytest.raises(InvalidValue):
            spec.validate()

    def test_unknown_kind(self):
        spec = FeatureSpec(name="x", kind="onehot", source_columns=("x",))
        with pytest.raises(InvalidValue):
            spec.validate()


class TestJsonRecords:
    """A JSON object becomes the same features as a join payload and as a request's user."""

    VALUES = {"user_s": "u1", "user_i": 7, "user_f": 2.5, "user_b": True, "user_n": None,
              "user_e": 1e20}

    def test_join_payload_and_predict_user_agree(self, tmp_path, monkeypatch):
        features = [{"name": f"{c}_id", "kind": "id", "source_columns": [c], "vocab_size": 1000}
                    for c in self.VALUES]
        features += [{"name": f"{c}_raw", "kind": "numeric_raw", "source_columns": [c]}
                     for c in ("user_i", "user_f")]
        cfg = make_config(tmp_path, feature_config=features)

        events = [
            {"kind": "feature_log", "event_time": 0, "request_id": "r1", "payload": self.VALUES},
            {"kind": "impression", "event_time": 0, "request_id": "r1", "item_key": "a"},
        ]
        (tmp_path / "events.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
        run_pipeline(str(tmp_path / "events.jsonl"), JoinConfig(label_window_ms=5),
                     str(tmp_path / "samples.csv"))
        (row,) = load_records(str(tmp_path / "samples.csv"))
        joined = generate(row, cfg.feature_config)

        served = []

        def spy(record, specs):
            served.append(generate(record, specs))
            return served[-1]

        monkeypatch.setattr(serving, "generate", spy)
        request = json.loads(json.dumps({"user": self.VALUES, "items": [{"key": "a"}]}))
        model = serving.ServingModel(init_params(cfg, np.random.default_rng(0)), cfg)
        assert serving.score(model, request).scores[0] is not None
        assert canonical_bytes(served[0]) == canonical_bytes(joined)
