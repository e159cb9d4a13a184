"""Training loop: determinism, metric curves, and delta emission."""

import time

import numpy as np
import pytest

from minirec.artifact import save_artifact
from minirec.delta_stream import (
    DeltaAccumulator,
    apply_delta,
    decode_delta,
    emit_delta,
    encode_delta,
    open_publisher,
)
from minirec.errors import DataError, IndexOutOfRange, IoError, NonFinite
from minirec.features import FeatureBatch, SlotIds
from minirec.model import forward, init_params, params_equal
from minirec.optim import AdamOptimizer
from minirec import trainer
from minirec.trainer import fit, load_dataset, read_columns, train, train_step

from helpers import (
    OracleAdam,
    ReferenceFeatures,
    copy_params,
    dense_grads,
    generate_reference,
    make_config,
    oracle_train_step,
    records_of,
    replay_reference,
    row_of,
    write_csv,
    write_logistic_dataset,
)


def _small_dataset(tmp_path, rows=120, seed=3):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(rows):
        u, i = int(rng.integers(12)), int(rng.integers(12))
        label = int((u + i) % 2 == 0)
        data.append([label, f"u{u}", f"i{i}"])
    write_csv(tmp_path / "train.csv", ["label", "user_id", "item_id"], data)
    write_csv(tmp_path / "eval.csv", ["label", "user_id", "item_id"], data[:40])


class TestLoadData:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_columns(str(tmp_path / "nope.csv"))

    def test_bad_label(self, tmp_path):
        write_csv(tmp_path / "train.csv", ["label", "user_id", "item_id"],
                  [[2, "u1", "i1"]])
        cfg = make_config(tmp_path)
        with pytest.raises(DataError):
            load_dataset(cfg, str(tmp_path / "train.csv"))

    @pytest.mark.parametrize("feature, cells, row", [
        ({"name": "user_age", "kind": "numeric_bucket", "source_columns": ["user_age"],
          "boundaries": [18.0, 30.0]}, ["1", "2", "abc"], 3),
        ({"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
         ["2.5", "1e300", "0"], 2),
    ])
    def test_feature_error_names_its_row(self, tmp_path, feature, cells, row):
        column = feature["source_columns"][0]
        write_csv(tmp_path / "train.csv", ["label", column], [[1, v] for v in cells])
        cfg = make_config(tmp_path, feature_config=[feature])
        with pytest.raises(DataError) as err:
            load_dataset(cfg, str(tmp_path / "train.csv"))
        assert err.value.row == row
        assert repr(cells[row - 1]) in str(err.value) and feature["name"] in str(err.value)

    def test_lowest_bad_row_wins_label_first(self, tmp_path):
        features = [{"name": "age", "kind": "numeric_raw", "source_columns": ["age"]}]
        write_csv(tmp_path / "train.csv", ["label", "age"], [[1, "1"], [7, "x"], [0, "y"]])
        cfg = make_config(tmp_path, feature_config=features)
        with pytest.raises(DataError) as err:
            load_dataset(cfg, str(tmp_path / "train.csv"))
        assert err.value.row == 2 and "label" in err.value.reason

    def test_loads_features_once(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path)
        fvs, labels = load_dataset(cfg, str(tmp_path / "train.csv"))
        assert len(fvs) == len(labels) == 120
        assert set(np.unique(labels)) <= {0.0, 1.0}


class TestTrainDeterminism:
    def test_same_seed_bitwise_identical(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 2, "batch_size": 16})
        art1, rep1 = train(cfg)
        art2, rep2 = train(cfg)
        assert params_equal(art1.params, art2.params)
        assert rep1.curves == rep2.curves

    def test_different_seed_differs(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 1, "batch_size": 16})
        other = make_config(tmp_path, train_config={"num_epochs": 1, "batch_size": 16,
                                                    "seed": 43})
        art1, _ = train(cfg)
        art2, _ = train(other)
        assert not params_equal(art1.params, art2.params)

    def test_zero_epochs_is_initialization(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 0})
        art, report = train(cfg)
        init = init_params(cfg, np.random.default_rng([cfg.train_config.seed, 0]))
        assert params_equal(art.params, init)
        assert art.model_version == 0
        assert report.steps == 0


class TestLoadedData:
    def test_fit_on_loaded_data_matches_train_on_paths(self, tmp_path):
        """train reads the files and runs fit; fit on the same datasets writes the same bytes."""
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 3, "batch_size": 16, "delta_period_steps": 4})
        runs = {}
        for name in ("paths", "loaded"):
            sink = open_publisher(f"file://{tmp_path / name}")
            try:
                if name == "paths":
                    art, report = train(cfg, sink=sink)
                else:
                    data = load_dataset(cfg, cfg.data_config.train_path)
                    eval_data = load_dataset(cfg, cfg.data_config.eval_path)
                    art, report = fit(cfg, data, eval_data, sink=sink)
            finally:
                sink.close()
            save_artifact(art, str(tmp_path / f"{name}.erm"))
            runs[name] = report, (tmp_path / f"{name}.erm").read_bytes(), (tmp_path / f"{name}.dq").read_bytes()
        assert runs["paths"][0].deltas_emitted == 6
        assert runs["loaded"] == runs["paths"]


class TestEvalCurves:
    def test_one_entry_per_interval(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 4},
                          eval_config={"eval_interval": 2})
        _, report = train(cfg)
        assert [m["epoch"] for m in report.curves] == [2, 4]
        for entry in report.curves:
            assert set(entry) == {"epoch", "auc", "logloss"}

    def test_final_metrics_are_last_eval(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 2})
        _, report = train(cfg)
        last = {k: v for k, v in report.curves[-1].items() if k != "epoch"}
        assert report.final_metrics == last

    def test_learns_separable_data(self, tmp_path):
        train_path, eval_path, _, _ = write_logistic_dataset(
            tmp_path, n_train=2000, n_eval=500)
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 5, "learning_rate": 0.05, "batch_size": 256})
        _, report = train(cfg, train_path=train_path, eval_path=eval_path)
        assert report.final_metrics["auc"] >= 0.95


class TestEpochCallback:
    def test_callback_can_stop(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 10})
        seen = []

        def stop_after_three(epoch, metrics):
            seen.append(epoch)
            return epoch >= 3

        _, report = train(cfg, epoch_callback=stop_after_three)
        assert report.epochs_run == 3
        assert seen == [1, 2, 3]


class _ListSink:
    def __init__(self):
        self.frames = []

    def publish(self, frame: bytes) -> None:
        self.frames.append(frame)


class TestPhaseTimes:
    def test_phases_are_timed_within_the_wall_time(self, tmp_path):
        """Every phase takes some time, and together they take no more than `train` itself."""
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 2, "batch_size": 16, "delta_period_steps": 3})
        start = time.perf_counter()
        _, report = train(cfg, sink=_ListSink())
        wall = time.perf_counter() - start
        assert set(report.phase_s) == {"load", "init", "steps", "eval", "emit"}
        assert all(seconds > 0.0 for seconds in report.phase_s.values()), report.phase_s
        assert sum(report.phase_s.values()) <= wall
        assert report.samples_per_s == 2 * 120 / report.phase_s["steps"]

    def test_fit_without_files_or_sink_times_only_its_steps(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={"num_epochs": 1, "batch_size": 16})
        _, report = fit(cfg, load_dataset(cfg, cfg.data_config.train_path))
        assert report.phase_s["load"] == report.phase_s["emit"] == 0.0
        assert report.phase_s["init"] > 0.0
        assert report.phase_s["steps"] > 0.0 and report.samples_per_s > 0.0


class TestDeltaEmission:
    def test_cadence_and_versions(self, tmp_path):
        _small_dataset(tmp_path)
        # 120 rows, batch 16 -> 8 steps/epoch; period 5 -> emits at steps 5, 10
        # within epochs plus one final partial period
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 2, "batch_size": 16, "delta_period_steps": 5})
        sink = _ListSink()
        art, report = train(cfg, sink=sink)
        messages = [decode_delta(f) for f in sink.frames]
        versions = [m.model_version for m in messages]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert report.deltas_emitted == len(messages) == 4
        assert art.model_version == versions[-1]

    def test_replay_reproduces_final_params(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 2, "batch_size": 16, "delta_period_steps": 3})
        sink = _ListSink()
        art, _ = train(cfg, sink=sink)
        replayed = init_params(cfg, np.random.default_rng([cfg.train_config.seed, 0]))
        for frame in sink.frames:
            replay_reference(replayed, decode_delta(frame))
        assert params_equal(replayed, art.params)

    def test_touched_rows_match_data(self, tmp_path):
        """One small batch: the delta carries exactly the referenced rows."""
        rows = [[1, "u1", "i1"], [0, "u2", "i1"]]
        write_csv(tmp_path / "train.csv", ["label", "user_id", "item_id"], rows)
        write_csv(tmp_path / "eval.csv", ["label", "user_id", "item_id"], rows)
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 1, "batch_size": 2, "delta_period_steps": 1})
        sink = _ListSink()
        art, _ = train(cfg, sink=sink)
        (msg,) = [decode_delta(f) for f in sink.frames]
        batch, _ = load_dataset(cfg, str(tmp_path / "train.csv"))
        expected = {
            (index, row)
            for fv in (row_of(batch, i) for i in range(len(batch)))
            for index, slot in ((0, "user_id"), (2, "item_id"))
            for row in fv.ids[slot]
        }
        # fo tensors sit at odd indices, one above their embedding table
        expected |= {(index + 1, row) for index, row in expected}
        got = {(rec.tensor_index, rec.row_id) for rec in records_of(msg).sparse}
        assert got == expected

    def test_emit_delta_empty_period_still_increments(self, tmp_path):
        cfg = make_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([1, 0]))
        acc = DeltaAccumulator(params.layout.rows)
        msg = emit_delta(acc, params)
        assert msg.model_version == 1
        assert records_of(msg) == (1, (), ())
        again = emit_delta(acc, params)
        assert again.model_version == 2

    def test_accumulator_without_sink_stays_bounded(self, tmp_path, monkeypatch):
        """With no sink nothing is emitted: the accumulator holds one flag per arena row, set for the rows touched."""
        _small_dataset(tmp_path)
        made = []

        class Recording(DeltaAccumulator):
            def __init__(self, rows):
                super().__init__(rows)
                made.append(self)

        monkeypatch.setattr(trainer, "DeltaAccumulator", Recording)
        cfg = make_config(tmp_path, train_config={"num_epochs": 3, "batch_size": 8})
        art, report = train(cfg)
        (acc,) = made
        assert report.steps == 45 and report.deltas_emitted == 0
        rows = art.params.layout.rows
        assert {arena: mask.shape for arena, mask in acc.touched.items()} == {"emb": (rows,), "fo": (rows,)}
        batch, _ = load_dataset(cfg, str(tmp_path / "train.csv"))
        expected = {
            (index, row)
            for fv in (row_of(batch, i) for i in range(len(batch)))
            for index, slot in ((0, "user_id"), (2, "item_id"))
            for row in fv.ids[slot]
        }
        expected |= {(index + 1, row) for index, row in expected}
        msg = emit_delta(acc, art.params)
        assert {(rec.tensor_index, rec.row_id) for rec in records_of(msg).sparse} == expected
        assert records_of(emit_delta(acc, art.params)).sparse == ()

    def test_delta_carries_values_not_gradients(self, tmp_path):
        _small_dataset(tmp_path)
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 1, "batch_size": 16, "delta_period_steps": 100})
        sink = _ListSink()
        art, _ = train(cfg, sink=sink)
        final = decode_delta(sink.frames[-1])
        for record in records_of(final).sparse:
            name, arr = list(art.params.tensors.items())[record.tensor_index]
            if name.startswith("emb:"):
                np.testing.assert_array_equal(
                    np.asarray(record.values, np.float32), arr[record.row_id])


def _step_config(tmp_path, model_type, reg=0.0, hidden=(6, 3), **tweaks):
    features = [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 40},
        {"name": "tags", "kind": "multi_id", "source_columns": ["tags"], "vocab_size": 7},
        {"name": "cats", "kind": "multi_id", "source_columns": ["cats"], "vocab_size": 5,
         "pooling": "mean"},
        {"name": "price", "kind": "numeric_raw", "source_columns": ["price"]},
        {"name": "age", "kind": "numeric_bucket", "source_columns": ["age"],
         "boundaries": [18.0, 30.0, 50.0]},
    ]
    return make_config(tmp_path, feature_config=features, model_config={
        "model_type": model_type, "embedding_dim": 4, "mlp_hidden_dims": list(hidden),
        "embedding_regularization": reg}, **tweaks)


def _random_fv(rng):
    """Small vocabularies, so ids repeat within a sample and across the batch."""
    price = 0.0 if rng.random() < 0.4 else float(rng.normal(0.0, 2.0))
    return ReferenceFeatures(
        ids={
            "user_id": (int(rng.integers(40)),),
            "tags": tuple(int(i) for i in rng.integers(0, 7, int(rng.integers(0, 5)))),
            "cats": tuple(int(i) for i in rng.integers(0, 5, int(rng.integers(0, 4)))),
            "age": () if rng.random() < 0.2 else (int(rng.integers(4)),),
        },
        dense={"price": price},
    )


def _batch_of(fvs):
    """The FeatureBatch holding these rows' features as its rows, in order."""
    ids = {}
    for name in fvs[0].ids:
        lists = [fv.ids[name] for fv in fvs]
        offsets = np.cumsum([0] + [len(ids) for ids in lists]).astype(np.int64)
        ids[name] = SlotIds(np.array([i for ids in lists for i in ids], dtype=np.int64), offsets)
    dense = {name: np.array([fv.dense[name] for fv in fvs]) for name in fvs[0].dense}
    return FeatureBatch(len(fvs), ids, dense)


def _step(params, opt, batch, reg, slot_scale=None):
    """train_step on (ReferenceFeatures, label) pairs."""
    labels = np.array([label for _, label in batch])
    rows = np.arange(1, len(batch) + 1)
    return train_step(params, opt, _batch_of([fv for fv, _ in batch]), labels, rows, reg, slot_scale)


def _assert_state_equal(opt, oracle, params):
    """The optimizer's row states, read here per tensor row through the slot map, equal the per-row oracle's.

    The emb and fo arenas share one row state, a row's emb moments and
    then its fo moment with one step count; logreg keeps only the fo
    column. A row gets a slot only when a step touches it, so every
    untouched row has none. The dense vector is one row of its own state.
    """
    spans = params.layout.spans
    sparse, dense = opt._sparse, opt._dense
    arenas = {spans[name][0] for name in oracle.sparse}
    assert (sparse is None) == (not arenas)
    if sparse is not None:
        width = params.embedding_dim + 1 if "emb" in arenas else 1
        assert sparse.m.shape[1] == sparse.v.shape[1] == width
        assert len(sparse.m) == len(sparse.v) == len(sparse.step) >= sparse.used
        assert sparse.slot.shape == (params.layout.rows,)
        columns = {"emb": slice(0, -1), "fo": slice(-1, None)}
        touched = np.zeros(params.layout.rows, dtype=bool)
        for name, (arena, start, stop) in spans.items():
            if arena == "dense" or arena not in arenas:
                continue
            for row, (m, v, t) in oracle.sparse.get(name, {}).items():
                touched[start + row] = True
                slot = sparse.slot[start + row]
                assert 0 <= slot < sparse.used, (name, row)
                assert np.array_equal(sparse.m[slot, columns[arena]], m), (name, row)
                assert np.array_equal(sparse.v[slot, columns[arena]], v), (name, row)
                assert sparse.step[slot] == t, (name, row)
        # Each touched row holds a slot of its own, and no other row holds one.
        assert sorted(sparse.slot[touched].tolist()) == list(range(sparse.used))
        assert (sparse.slot[~touched] == -1).all()
    assert (dense is None) == (not oracle.dense)
    for name, (m, v, t) in oracle.dense.items():
        _, start, stop = spans[name]
        assert dense.m.shape == dense.v.shape == (1, params.dense.size), name
        assert np.array_equal(dense.m[0, start:stop], m.reshape(-1)), name
        assert np.array_equal(dense.v[0, start:stop], v.reshape(-1)), name
        assert dense.step.tolist() == [t], name


class TestBatchedStepMatchesPerSample:
    """One batched step gives the per-sample step's bits: parameters, gradients, Adam state."""

    @pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
    @pytest.mark.parametrize("reg", [0.0, 0.01])
    @pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
    def test_bitwise_over_steps(self, tmp_path, model_type, reg, gated):
        rng = np.random.default_rng([7, reg > 0, gated, model_type == "logreg"])
        self._check_steps(_step_config(tmp_path, model_type), rng, (7, 1, 12, 5), reg, gated)

    @pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
    def test_bitwise_with_a_one_unit_layer_and_a_long_step(self, tmp_path, gated):
        """mlp_hidden_dims [1] makes the last weight 1x1 and the first kx1; one step holds 320 rows."""
        rng = np.random.default_rng([8, gated])
        self._check_steps(_step_config(tmp_path, "deepfm", hidden=(1,)), rng, (320, 3), 0.01, gated)

    @staticmethod
    def _check_steps(cfg, rng, sizes, reg, gated):
        params = init_params(cfg, np.random.default_rng([1, 0]))
        for arr in params.tensors.values():
            arr += rng.normal(0.0, 0.3, arr.shape).astype(np.float32)
        reference = copy_params(params)
        opt, oracle = AdamOptimizer(0.05), OracleAdam(0.05)
        names = [spec.name for spec in cfg.feature_config]
        for size in sizes:
            batch = [(_random_fv(rng), int(rng.integers(2))) for _ in range(size)]
            scales = None
            if gated:
                scales = [{n: float(rng.uniform(0.05, 1.0)) for n in names} for _ in batch]
            per_row = None if scales is None else np.array([[s[n] for s in scales] for n in names])
            want, samples = oracle_train_step(reference, oracle, batch, reg, scales)
            got = _step(params, opt, batch, reg, per_row)

            assert params_equal(params, reference)
            _assert_state_equal(opt, oracle, params)
            for kind, rows_by_slot in (("emb", got.emb_rows), ("fo", got.fo_rows)):
                assert set(rows_by_slot) == set(want[kind])
                for slot, rows in rows_by_slot.items():
                    assert rows.ids.tolist() == sorted(want[kind][slot])
                    expect = [want[kind][slot][r] for r in rows.ids.tolist()]
                    assert np.array_equal(rows.values.reshape(len(rows), -1),
                                          np.array(expect, dtype=np.float32).reshape(len(rows), -1))
            assert list(dense_grads(got)) == sorted(want["dense"], key=list(params.tensors).index)
            for name, g in dense_grads(got).items():
                assert np.array_equal(g, want["dense"][name]), name
            if gated:
                assert got.slot_scale.tolist() == [[g["gate"][name] for g in samples] for name in names]
            else:
                assert got.slot_scale is None

    def test_out_of_range_id_raises_before_update(self, tmp_path):
        cfg = _step_config(tmp_path, "deepfm")
        params = init_params(cfg, np.random.default_rng([2, 0]))
        before = copy_params(params)
        rng = np.random.default_rng(3)
        bad = _random_fv(rng)
        bad.ids["tags"] = (1, 7)
        batch = [(_random_fv(rng), 1), (bad, 0)]
        with pytest.raises(IndexOutOfRange):
            _step(params, AdamOptimizer(0.05), batch, 0.0)
        assert params_equal(params, before)


class _Gates:
    """fit's gate hook with seeded per-sample slot scales, each step's kept; its gate step does nothing."""

    def __init__(self, names, seed):
        self.names, self.rng, self.drawn = names, np.random.default_rng(seed), []

    def scales(self, count):
        z = self.rng.uniform(0.05, 1.0, (count, len(self.names)))
        self.drawn.append([dict(zip(self.names, row)) for row in z.tolist()])
        return z.T

    def step(self, params, shuffle_rng):
        pass


class TestFitMatchesPerSampleSteps:
    """A whole `fit` run, each epoch planned once, gives the per-sample steps' bits over the same shuffled order."""

    @pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
    @pytest.mark.parametrize("reg", [0.0, 0.01])
    @pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
    def test_bitwise_over_epochs(self, tmp_path, monkeypatch, model_type, reg, gated):
        rng = np.random.default_rng([17, reg > 0, gated, model_type == "logreg"])
        cfg = _step_config(tmp_path, model_type, reg, train_config={
            "num_epochs": 3, "batch_size": 8, "learning_rate": 0.05, "seed": 5})
        self._check_fit(tmp_path, monkeypatch, cfg, rng, 45, gated)

    @pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
    def test_bitwise_with_a_one_unit_layer_and_a_long_step(self, tmp_path, monkeypatch, gated):
        """mlp_hidden_dims [1] makes the last weight 1x1 and the first kx1; a step holds 310 rows."""
        rng = np.random.default_rng([18, gated])
        cfg = _step_config(tmp_path, "deepfm", 0.01, hidden=(1,), train_config={
            "num_epochs": 2, "batch_size": 310, "learning_rate": 0.05, "seed": 5})
        self._check_fit(tmp_path, monkeypatch, cfg, rng, 315, gated)

    @staticmethod
    def _check_fit(tmp_path, monkeypatch, cfg, rng, count, gated):
        rows = []
        for _ in range(count):
            tags = [f"t{int(t)}" for t in rng.integers(0, 9, int(rng.integers(0, 4)))]
            # Mean-pooled cats repeat their first category, so a bin holds one row twice.
            cats = [f"c{int(c)}" for c in rng.integers(0, 6, int(rng.integers(0, 3)))]
            price = 0.0 if rng.random() < 0.4 else round(float(rng.normal(0.0, 2.0)), 3)
            rows.append([int(rng.integers(2)), f"u{int(rng.integers(30))}", "|".join(tags),
                         "|".join(cats + cats[:1]), price, int(rng.integers(10, 70))])
        header = ["label", "user_id", "tags", "cats", "price", "age"]
        write_csv(tmp_path / "train.csv", header, rows)
        t = cfg.train_config
        reg = cfg.model_config.embedding_regularization
        optimizers = []

        class RecordingAdam(AdamOptimizer):
            def __post_init__(self):
                super().__post_init__()
                optimizers.append(self)

        monkeypatch.setattr(trainer, "AdamOptimizer", RecordingAdam)
        gates = _Gates([spec.name for spec in cfg.feature_config], 23) if gated else None
        art, report = fit(cfg, load_dataset(cfg, str(tmp_path / "train.csv")), gates=gates)
        assert report.steps == t.num_epochs * -(-count // t.batch_size)

        samples = [(generate_reference(dict(zip(header, map(str, row))), cfg.feature_config), row[0])
                   for row in rows]
        assert any(fv.dense["price"] == 0.0 for fv, _ in samples)
        assert any(len(set(fv.ids["cats"])) < len(fv.ids["cats"]) for fv, _ in samples)
        params = init_params(cfg, np.random.default_rng([t.seed, 0]))
        oracle = OracleAdam(t.learning_rate, t.adam_beta1, t.adam_beta2, t.adam_epsilon)
        shuffle = np.random.default_rng([t.seed, 1])
        step = 0
        for _ in range(t.num_epochs):
            order = shuffle.permutation(len(samples)).tolist()
            for start in range(0, len(order), t.batch_size):
                batch = [samples[i] for i in order[start:start + t.batch_size]]
                oracle_train_step(params, oracle, batch, reg, gates.drawn[step] if gated else None)
                step += 1
        assert len(batch) == count % t.batch_size
        assert params_equal(art.params, params)
        (opt,) = optimizers
        _assert_state_equal(opt, oracle, art.params)


class TestNonFiniteLogits:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_diverging_learning_rate_fails_at_the_batch(self, tmp_path):
        """Training stops at the first batch whose logits overflow and names the rows that overflowed.

        Every delta published before it holds finite values only. With a
        delta every step, replaying them gives the parameters the failing
        step read, and forward over its batch picks out the named rows.
        """
        _small_dataset(tmp_path, rows=64)
        cfg = make_config(tmp_path, train_config={
            "num_epochs": 3, "batch_size": 16, "delta_period_steps": 1, "learning_rate": 1e20})
        sink = _ListSink()
        with pytest.raises(NonFinite) as err:
            train(cfg, sink=sink)
        shuffle = np.random.default_rng([cfg.train_config.seed, 1])
        batches = []
        for _ in range(3):
            order = shuffle.permutation(64)
            batches += [(order[start:start + 16] + 1).tolist() for start in range(0, 64, 16)]
        assert 0 < len(sink.frames) < len(batches)
        params = init_params(cfg, np.random.default_rng([cfg.train_config.seed, 0]))
        for frame in sink.frames:
            apply_delta(params, decode_delta(frame))
        assert all(np.isfinite(t).all() for t in params.tensors.values())
        failing = batches[len(sink.frames)]
        batch, _ = load_dataset(cfg, cfg.data_config.train_path)
        logits = forward(params, batch.take(np.array(failing) - 1)).logit
        bad = [row for row, logit in zip(failing, logits.tolist()) if not np.isfinite(logit)]
        assert bad and err.value.rows == bad
        assert str(err.value.rows) in str(err.value)

    def test_step_names_only_the_rows_whose_logit_is_not_finite(self, tmp_path):
        """Two rows of six overflow: the error names those two, in batch order, and nothing is updated."""
        cfg = _step_config(tmp_path, "deepfm")
        params = init_params(cfg, np.random.default_rng([2, 0]))
        before = copy_params(params)
        rng = np.random.default_rng(4)
        fvs = [_random_fv(rng) for _ in range(6)]
        for i in (4, 1):
            fvs[i].dense["price"] = 3e38
        rows = np.array([31, 7, 12, 40, 3, 25])
        with pytest.raises(NonFinite) as err:
            train_step(params, AdamOptimizer(0.05), _batch_of(fvs), np.zeros(6, np.int64), rows, 0.0)
        assert err.value.rows == [7, 3]
        assert "data rows [7, 3]" in str(err.value)
        assert params_equal(params, before)
