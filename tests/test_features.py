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
    columns_of,
    cross_values,
    fnv1a64,
    generate,
    hash_ids,
    record_from_json,
)
from minirec.model import init_params
from minirec.sample_stream import JoinConfig, run_pipeline
from minirec.trainer import read_columns

from helpers import (
    feature_bytes,
    fnv1a64_reference,
    generate_reference,
    make_config,
    row_bytes,
    row_of,
    stack_rows,
)


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
    """hash_ids over short lists (hashed one by one) and long ones (byte position by position)."""

    def test_empty_string(self):
        for count in (1, 60):
            assert hash_ids([""] * count, 1000).tolist() == [0xCBF29CE484222325 % 1000] * count

    def test_single_character(self):
        for count in (1, 60):
            assert hash_ids(["a"] * count, 997).tolist() == [0xAF63DC4C8601EC8C % 997] * count

    def test_deterministic(self):
        values = [f"u{i}" for i in range(100)]
        assert hash_ids(values, 500).tolist() == hash_ids(values, 500).tolist()
        assert hash_ids(values, 500).tolist()[:3] == hash_ids(values[:3], 500).tolist()

    def test_str_and_bytes_agree(self):
        values = ["value", "é\x00", "日本"]
        want = [fnv1a64(v.encode("utf-8")) % 100 for v in values]
        assert hash_ids(values, 100).tolist() == want
        assert hash_ids(values * 30, 100).tolist() == want * 30

    def test_always_below_vocab(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            vocab = int(rng.integers(2, 10_000))
            values = [f"tok{i}" for i in rng.integers(1_000_000, size=int(rng.integers(1, 200)))]
            ids = hash_ids(values, vocab)
            assert ids.dtype == np.int64 and ((0 <= ids) & (ids < vocab)).all()


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


def _hash(raw, vocab_size):
    return fnv1a64_reference(raw.encode("utf-8")) % vocab_size


def _one(record, specs):
    """One record's features through the columnar generator; its error raises."""
    batch = generate(columns_of([record], specs), specs)
    if batch.errors:
        raise batch.errors[0]
    return row_of(batch, 0)


class TestGenerate:
    def test_id_slot_uses_hash(self):
        fv = _one({"user": "u1"}, _specs()[:1])
        assert fv.ids["user_id"] == (_hash("u1", 1000),)

    def test_missing_column_gives_empty_ids(self):
        fv = _one({}, _specs()[:1])
        assert fv.ids["user_id"] == ()

    def test_missing_numeric_raw_gives_zero(self):
        fv = _one({}, _specs()[3:4])
        assert fv.dense["age"] == 0.0

    def test_multi_id_keeps_duplicates(self):
        fv = _one({"tags": "a|b|a"}, _specs()[1:2])
        expect = (_hash("a", 64), _hash("b", 64), _hash("a", 64))
        assert fv.ids["tags"] == expect

    def test_multi_id_skips_empty_segments(self):
        fv = _one({"tags": "a||b|"}, _specs()[1:2])
        assert fv.ids["tags"] == (_hash("a", 64), _hash("b", 64))

    def test_bucket_slot(self):
        fv = _one({"price": "15"}, _specs()[2:3])
        assert fv.ids["price_bucket"] == (2,)

    def test_cross_slot(self):
        fv = _one({"user": "u1", "item": "i9"}, _specs()[4:])
        raw = "u1" + CROSS_SEPARATOR + "i9"
        assert fv.ids["user_x_item"] == (_hash(raw, 4096),)

    def test_non_numeric_text_rejected(self):
        with pytest.raises(InvalidValue):
            _one({"price": "cheap"}, _specs()[2:3])
        with pytest.raises(InvalidValue):
            _one({"age": "old"}, _specs()[3:4])

    @pytest.mark.parametrize("rows", [4, 60], ids=["scalar_hash", "columnar_hash"])
    def test_lone_surrogate_is_that_rows_error(self, rows):
        """A value with no UTF-8 form fails its own row only; the other rows hash as before."""
        specs = _specs()
        records = [{"user": f"u{i}", "tags": f"t{i}|x", "item": f"i{i}"} for i in range(rows)]
        bad = {1: "user", 2: "tags", rows - 1: "item"}
        for row, column in bad.items():
            records[row][column] = "\ud800" if column != "tags" else "ok|\udcff"
        batch = generate(columns_of(records, specs), specs)
        assert sorted(batch.errors) == sorted(bad)
        for row in bad:
            assert isinstance(batch.errors[row], InvalidValue)
            assert "not valid Unicode" in str(batch.errors[row])
        good = [i for i in range(rows) if i not in bad]
        want = generate(columns_of([records[i] for i in good], specs), specs)
        got = batch.take(np.array(good))
        for name in want.ids:
            assert got.ids[name].ids.tolist() == want.ids[name].ids.tolist(), name

    def test_slot_order_independence(self):
        """Each slot's output only depends on its own spec and columns."""
        record = {"user": "u7", "tags": "x|y", "price": "3", "age": "41", "item": "i2"}
        specs = _specs()
        forward = _one(record, specs)
        backward = _one(record, tuple(reversed(specs)))
        shuffled_order = [2, 4, 0, 3, 1]
        shuffled = _one(record, tuple(specs[i] for i in shuffled_order))
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
            fv = _one(record, specs)
            for spec in specs:
                limit = spec.table_vocab_size
                for row in fv.ids.get(spec.name, ()):
                    assert 0 <= row < limit


class TestCanonicalBytes:
    def test_deterministic_across_calls(self):
        record = {"user": "u1", "tags": "a|b", "price": "7", "age": "30", "item": "i1"}
        one = feature_bytes(_one(record, _specs()))
        two = feature_bytes(_one(record, _specs()))
        assert one == two

    def test_differs_on_different_input(self):
        specs = _specs()[:1]
        one = feature_bytes(_one({"user": "u1"}, specs))
        two = feature_bytes(_one({"user": "u2"}, specs))
        assert one != two

    def test_slot_eval_order_invisible(self):
        record = {"user": "u1", "tags": "a", "price": "7", "age": "30", "item": "i1"}
        specs = _specs()
        assert feature_bytes(_one(record, specs)) == feature_bytes(
            _one(record, tuple(reversed(specs)))
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
        columns = read_columns(str(tmp_path / "samples.csv"))
        assert columns.rows == 1
        joined = row_of(generate(columns, cfg.feature_config), 0)

        served = []

        def spy(columns, specs):
            served.append(generate(columns, specs))
            return served[-1]

        monkeypatch.setattr(serving, "generate", spy)
        request = json.loads(json.dumps({"user": self.VALUES, "items": [{"key": "a"}]}))
        model = serving.ServingModel(init_params(cfg, np.random.default_rng(0)), cfg)
        assert serving.score(model, request).scores[0] is not None
        assert row_bytes(served[0], 0) == feature_bytes(joined)


_ORACLE_SPECS = (
    FeatureSpec(name="uid", kind="id", source_columns=("u",), vocab_size=997),
    FeatureSpec(name="tags", kind="multi_id", source_columns=("t",), vocab_size=61),
    FeatureSpec(name="age", kind="numeric_bucket", source_columns=("n",),
                boundaries=(-1.0, 0.0, 2.5, 1e30)),
    FeatureSpec(name="price", kind="numeric_raw", source_columns=("p",)),
    FeatureSpec(name="u_x_t", kind="cross", source_columns=("u", "t"), vocab_size=4099),
    FeatureSpec(name="t_x_v", kind="cross", source_columns=("t", "v"), vocab_size=2),
)

_PIECES = ["a", "b", "zz", "\x00", "é", "日本", "\U0001F600", "\x01", " ", "-"]
_NUMBERS = ["", "0", "-0", "2.5", "1e30", "-7.25", "abc", "1e300", "-1e300", "nan", "inf",
            "-inf", "1_000", " 3 ", "3.4028235e38", "3.4028236e38", "-3.40282357e38", "1e-320"]


def _random_cell(rng, parts=1):
    cells = []
    for _ in range(parts):
        cells.append("".join(rng.choice(_PIECES) for _ in range(int(rng.integers(0, 4)))))
    return "|".join(cells)


def _oracle_record(rng):
    """A record over the oracle specs' columns: empty, multi-valued, non-ASCII, NUL, long, bad."""
    record = {}
    for column in ("u", "t", "v"):
        shape = rng.random()
        if shape < 0.1:
            continue  # absent column
        if shape < 0.2:
            record[column] = ""
        elif shape < 0.5:
            record[column] = _random_cell(rng, int(rng.integers(2, 5)))
        elif shape < 0.55:
            # at and past MAX_CROSS_COMBINATIONS with the other column
            record[column] = "|".join(f"{column}{i}" for i in range(int(rng.integers(9, 13))))
        elif shape < 0.6:
            record[column] = "L" * int(rng.integers(20, 300))  # outlasts the vectorized bytes
        else:
            record[column] = _random_cell(rng)
    for column in ("n", "p"):
        if rng.random() < 0.9:
            record[column] = str(rng.choice(_NUMBERS)) if rng.random() < 0.5 else repr(
                float(rng.normal(0.0, 10.0)))
    return record


def _oracle_outcome(record, specs):
    try:
        return feature_bytes(generate_reference(record, specs))
    except InvalidValue as exc:
        return type(exc)


class TestColumnarMatchesOracle:
    """Every row of a columnar batch equals the per-record oracle: features or error class."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_oracle(self, seed):
        rng = np.random.default_rng([77, seed])
        records = [_oracle_record(rng) for _ in range(400)]
        batch = generate(columns_of(records, _ORACLE_SPECS), _ORACLE_SPECS)
        assert len(batch) == len(records)
        kinds = set()
        for i, record in enumerate(records):
            want = _oracle_outcome(record, _ORACLE_SPECS)
            got = type(batch.errors[i]) if i in batch.errors else row_bytes(batch, i)
            assert got == want, (i, record)
            kinds.add("error" if i in batch.errors else "ok")
        assert kinds == {"error", "ok"}
        # Without '|' anywhere every cell is one value, crosses included.
        single = [{k: v.replace("|", "") for k, v in r.items()} for r in records]
        batch = generate(columns_of(single, _ORACLE_SPECS), _ORACLE_SPECS)
        for i, record in enumerate(single):
            got = type(batch.errors[i]) if i in batch.errors else row_bytes(batch, i)
            assert got == _oracle_outcome(record, _ORACLE_SPECS), (i, record)

    def test_capped_crosses_and_one_row_calls(self):
        wide = "|".join(f"w{i}" for i in range(11))
        records = [{"u": wide, "t": "|".join(f"t{i}" for i in range(10))},
                   {"u": wide, "t": "|".join(f"t{i}" for i in range(9))},
                   {"u": "x", "t": "||"}, {}]
        batch = generate(columns_of(records, _ORACLE_SPECS), _ORACLE_SPECS)
        assert [len(row_of(batch, i).ids["u_x_t"]) for i in range(4)] == [100, 99, 0, 0]
        for i, record in enumerate(records):
            alone = generate(columns_of([record], _ORACLE_SPECS), _ORACLE_SPECS)
            assert row_bytes(alone, 0) == row_bytes(batch, i)
            assert row_bytes(alone, 0) == _oracle_outcome(record, _ORACLE_SPECS)

    def test_first_failing_slot_names_the_error(self):
        records = [{"n": "abc", "p": "1e300"}, {"n": "1", "p": "1e300"}]
        batch = generate(columns_of(records, _ORACLE_SPECS), _ORACLE_SPECS)
        assert batch.errors[0].path == "age" and batch.errors[1].path == "price"

    def test_float32_limit(self):
        limit = 2.0**128 - 2.0**103
        below = float(np.nextafter(limit, 0.0))
        for value in (below, -below, limit, -limit, 1e300):
            batch = generate(columns_of([{"p": repr(value)}], _ORACLE_SPECS[3:4]), _ORACLE_SPECS[3:4])
            with np.errstate(over="ignore"):
                finite = bool(np.isfinite(np.float32(value)))
            assert (0 not in batch.errors) == finite, value
            if finite:
                assert row_of(batch, 0).dense["price"] == value


class TestBatchRows:
    """take and stack_rows move whole rows: each row keeps its own features."""

    def _batch(self, seed, n=60):
        rng = np.random.default_rng(seed)
        records = [_oracle_record(rng) for _ in range(n)]
        return generate(columns_of(records, _ORACLE_SPECS), _ORACLE_SPECS)

    @staticmethod
    def _rows(batch):
        return [row_bytes(batch, i) for i in range(len(batch))]

    def test_slice_take_stack(self):
        batch = self._batch(5)
        rows = self._rows(batch)
        assert self._rows(batch.take(np.arange(7, 31))) == rows[7:31]
        assert self._rows(batch.take(np.arange(4, 4))) == []
        order = np.random.default_rng(6).permutation(len(batch))
        assert self._rows(batch.take(order)) == [rows[i] for i in order]
        assert self._rows(batch.take(np.array([3, 3, 0]))) == [rows[3], rows[3], rows[0]]
        stacked = stack_rows([batch.take([i]) for i in range(len(batch))])
        assert self._rows(stacked) == rows
        assert stacked.errors.keys() == batch.errors.keys()
        for name, slot in stacked.ids.items():
            assert np.array_equal(slot.ids, batch.ids[name].ids)
            assert np.array_equal(slot.offsets, batch.ids[name].offsets)
        with pytest.raises(ValueError):
            stack_rows([batch.take([0, 1])])

    def test_errors_follow_their_rows(self):
        batch = self._batch(8)
        assert batch.errors
        order = np.random.default_rng(9).permutation(len(batch))
        taken = batch.take(order)
        assert {int(order[k]) for k in taken.errors} == set(batch.errors)
        assert {k + 10 for k in batch.take(np.arange(10, 40)).errors} == {r for r in batch.errors if 10 <= r < 40}


class TestHashIds:
    def test_matches_reference_on_mixed_lengths(self):
        rng = np.random.default_rng(12)
        values = []
        for _ in range(300):
            length = int(rng.choice([0, 1, 3, 8, 40, 300]))
            values.append("".join(rng.choice(_PIECES) for _ in range(length)))
        for vocab in (2, 1000, 2**63 - 25):
            want = [fnv1a64_reference(v.encode("utf-8")) % vocab for v in values]
            assert hash_ids(values, vocab).tolist() == want
            # a few long values finish in the scalar tail, one value alone too
            assert hash_ids(values[:3], vocab).tolist() == want[:3]
        assert hash_ids([], 7).tolist() == []


class TestJsonNull:
    def test_null_is_a_missing_cell(self):
        record = record_from_json({"u": None, "p": None, "t": True, "n": 3})
        assert record == {"u": "", "p": "", "t": "True", "n": "3"}
        specs = (_ORACLE_SPECS[0], _ORACLE_SPECS[3])
        assert feature_bytes(_one(record, specs)) == feature_bytes(_one({}, specs))
