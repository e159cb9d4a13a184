"""Model math: pooling, FM identity, forward/backward, and metrics."""

import math
import threading

import numpy as np
import pytest

from minirec.errors import (
    DegenerateLabels,
    DimensionMismatch,
    IndexOutOfRange,
    NonFinite,
)
from minirec.features import FeatureBatch, FeatureSpec, SlotIds, columns_of, generate
from minirec.model import (
    PROB_CLIP,
    _probability,
    _row_dots,
    _sum_outer,
    _sum_samples,
    auc,
    backward,
    compute_parts,
    copy_params,
    evaluate_metrics,
    fm_second_order,
    forward,
    init_params,
    logloss,
    params_equal,
    tensor_shapes,
)
from minirec.serving import partition_slots

from helpers import (
    clip_probability,
    dense_grads,
    make_config,
    mean_logloss,
    pairwise_auc,
    per_slot_parts,
    row_of,
    straight_line_loss,
    straight_line_probability,
)


def _table(rng, vocab=10, dim=4):
    return rng.uniform(-1, 1, (vocab, dim)).astype(np.float32)


def _one_row_part(tmp_path, table, ids, pooling="sum"):
    """compute_parts of one sample reading `ids` in a one-slot model whose tables are `table` and its first column."""
    spec = {"name": "tags", "kind": "multi_id", "source_columns": ["tags"],
            "vocab_size": table.shape[0], "pooling": pooling}
    cfg = make_config(tmp_path, feature_config=[spec], model_config={"embedding_dim": table.shape[1]})
    params = init_params(cfg, np.random.default_rng(0))
    params.tensors["emb:tags"][...] = table
    params.tensors["fo:tags"][...] = table[:, :1]
    batch = FeatureBatch(1, {"tags": SlotIds(np.array(ids, dtype=np.int64), np.array([0, len(ids)]))}, {})
    return compute_parts(params, batch)


def _features(record, specs):
    """One record as a one-row batch, and that row's features."""
    batch = generate(columns_of([record], specs), specs)
    return batch, row_of(batch, 0)


class TestPooledLookup:
    def test_duplicate_row_doubles(self, tmp_path):
        table = _table(np.random.default_rng(0))
        out = _one_row_part(tmp_path, table, [3, 3], "sum").pooled[0, 0]
        np.testing.assert_allclose(out, 2 * table[3], rtol=1e-6)

    def test_empty_ids_zero_vector(self, tmp_path):
        table = _table(np.random.default_rng(1))
        for pooling in ("sum", "mean"):
            np.testing.assert_array_equal(_one_row_part(tmp_path, table, [], pooling).pooled[0, 0],
                                          np.zeros(4, np.float32))

    def test_matches_scalar_loop(self, tmp_path):
        rng = np.random.default_rng(2)
        for _ in range(100):
            table = _table(rng, vocab=int(rng.integers(2, 30)), dim=int(rng.integers(1, 9)))
            ids = list(rng.integers(0, table.shape[0], size=rng.integers(0, 8)))
            for pooling in ("sum", "mean"):
                got = _one_row_part(tmp_path, table, ids, pooling).pooled[0, 0]
                want = np.zeros(table.shape[1], dtype=np.float64)
                for i in ids:
                    want += table[i].astype(np.float64)
                if pooling == "mean" and ids:
                    want /= len(ids)
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_out_of_range(self, tmp_path):
        table = _table(np.random.default_rng(3))
        for ids in ([10], [2, -1]):
            with pytest.raises(IndexOutOfRange):
                _one_row_part(tmp_path, table, ids, "sum")


def _five_kind_specs(pooling):
    """Every feature kind, split over user, item and cross slots, all pooled by `pooling`."""
    kinds = [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 50},
        {"name": "user_tags", "kind": "multi_id", "source_columns": ["user_tags"], "vocab_size": 40},
        {"name": "user_age", "kind": "numeric_bucket", "source_columns": ["user_age"],
         "boundaries": [18.0, 30.0, 50.0]},
        {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
        {"name": "item_cats", "kind": "multi_id", "source_columns": ["item_cats"], "vocab_size": 30},
        {"name": "user_x_item", "kind": "cross", "source_columns": ["user_tags", "item_cats"],
         "vocab_size": 60},
    ]
    return [{**spec, "pooling": pooling} for spec in kinds]


def _five_kind_record(rng):
    """A record whose cells may be empty; prices include 0, -0.0 and missing."""
    def tags(prefix, count):
        return "|".join(f"{prefix}{rng.integers(count)}" for _ in range(rng.integers(0, 4)))
    return {
        "user_id": str(rng.choice(["", "u1", "u2", "u3"])),
        "user_tags": tags("t", 25),
        "user_age": str(rng.choice(["", "17", "30", "64.5"])),
        "item_price": str(rng.choice(["", "0", "-0.0", "2.5", "-1e3"])),
        "item_cats": tags("c", 20),
    }


@pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
@pytest.mark.parametrize("pooling", ["sum", "mean"])
def test_compute_parts_equals_per_slot_fold(tmp_path, pooling, model_type):
    """Bit for bit the per-slot fold, for every slot and for the slots of serving's user, item and cross sides."""
    cfg = make_config(tmp_path, feature_config=_five_kind_specs(pooling),
                      model_config={"model_type": model_type, "embedding_dim": 4, "mlp_hidden_dims": [8]})
    part = partition_slots(cfg.feature_config)
    rng = np.random.default_rng(21)
    for trial, rows in enumerate((1, 2, 7, 32)):
        params = init_params(cfg, np.random.default_rng([trial, 0]))
        for arr in params.tensors.values():
            arr += rng.normal(0, 0.3, arr.shape).astype(np.float32)
        records = [_five_kind_record(rng) for _ in range(rows)]
        got = compute_parts(params, generate(columns_of(records, cfg.feature_config), cfg.feature_config))
        slots = [spec.name for spec in cfg.feature_config]
        assert got.fo.shape == (len(slots), rows)
        if model_type == "logreg":
            assert got.pooled is None
        else:
            assert got.pooled.shape == (len(slots), rows, 4)
        for specs in (cfg.feature_config, part.user, part.item, part.cross):
            # Each side's slots generated on their own, as serving generates them.
            want = per_slot_parts(params, generate(columns_of(records, specs), specs), specs)
            assert list(want) == [spec.name for spec in specs]
            for name, (pooled, fo) in want.items():
                k = slots.index(name)
                assert np.array_equal(got.fo[k], fo)
                assert (pooled is None) == (got.pooled is None)
                if pooled is not None:
                    assert np.array_equal(got.pooled[k], pooled)


class TestFmSecondOrder:
    def test_single_vector_is_zero(self):
        assert fm_second_order(np.ones((1, 3), np.float32)) == 0.0

    def test_known_pair(self):
        got = fm_second_order(np.array([[1, 2], [3, 4]], np.float32))
        assert got == pytest.approx(11.0)

    def test_known_triple(self):
        vecs = np.array([[1, 0], [0, 1], [1, 1]], np.float32)
        assert fm_second_order(vecs) == pytest.approx(2.0)

    def test_pairwise_oracle_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            dim = int(rng.integers(1, 17))
            count = int(rng.integers(0, 11))
            vecs = [rng.uniform(-2, 2, dim).astype(np.float32) for _ in range(count)]
            want = 0.0
            for i in range(count):
                for j in range(i + 1, count):
                    want += float(vecs[i].astype(np.float64) @ vecs[j].astype(np.float64))
            stacked = np.array(vecs, dtype=np.float32).reshape(count, dim)
            assert float(fm_second_order(stacked)) == pytest.approx(want, abs=1e-5, rel=1e-5)


def _three_slot_config(tmp_path, model_type="deepfm"):
    features = [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 50},
        {"name": "item_tags", "kind": "multi_id", "source_columns": ["item_tags"],
         "vocab_size": 30, "pooling": "mean"},
        {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
    ]
    return make_config(
        tmp_path,
        feature_config=features,
        model_config={"model_type": model_type, "embedding_dim": 4, "mlp_hidden_dims": [8]},
    )


def _random_record(rng):
    return {
        "user_id": f"u{rng.integers(40)}",
        "item_tags": "|".join(f"t{rng.integers(20)}" for _ in range(rng.integers(0, 4))),
        "item_price": str(round(float(rng.uniform(-1, 5)), 3)),
    }


class TestForward:
    def test_zero_params_give_half(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([1, 0]))
        for arr in params.tensors.values():
            arr[:] = 0
        batch, fv = _features(_random_record(np.random.default_rng(5)), cfg.feature_config)
        assert forward(params, batch).probability[0] == pytest.approx(0.5)

    def test_bias_only(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([1, 0]))
        for arr in params.tensors.values():
            arr[:] = 0
        params.tensors["bias"][0] = 2.0
        batch, fv = _features({"user_id": "u1"}, cfg.feature_config)
        assert float(forward(params, batch).probability[0]) == pytest.approx(0.880797, abs=1e-5)

    def test_matches_straight_line_reference(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        rng = np.random.default_rng(6)
        for trial in range(50):
            params = init_params(cfg, np.random.default_rng([trial, 0]))
            for arr in params.tensors.values():
                arr += rng.normal(0, 0.3, arr.shape).astype(np.float32)
            batch, fv = _features(_random_record(rng), cfg.feature_config)
            got = float(forward(params, batch).probability[0])
            want = straight_line_probability(params, cfg.feature_config, fv)
            assert got == pytest.approx(want, abs=1e-6)

    def test_logreg_ignores_embeddings(self, tmp_path):
        cfg = _three_slot_config(tmp_path, model_type="logreg")
        params = init_params(cfg, np.random.default_rng([2, 0]))
        batch, fv = _features(_random_record(np.random.default_rng(7)), cfg.feature_config)
        base = float(forward(params, batch).probability[0])
        for spec in cfg.feature_config:
            params.tensors[f"emb:{spec.name}"][:] = 99.0
        assert float(forward(params, batch).probability[0]) == base

    def test_bitwise_reproducible(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([3, 0]))
        batch, fv = _features(_random_record(np.random.default_rng(8)), cfg.feature_config)
        a = forward(params, batch)
        b = forward(params, batch)
        assert float(a.probability[0]) == float(b.probability[0])
        assert float(a.logit[0]) == float(b.logit[0])

    def test_probability_clipped(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([4, 0]))
        for arr in params.tensors.values():
            arr[:] = 0
        batch, fv = _features({"user_id": "u1"}, cfg.feature_config)
        params.tensors["bias"][0] = 40.0
        high = float(forward(params, batch).probability[0])
        assert high == float(np.float32(1 - 1e-7)) and high < 1.0
        params.tensors["bias"][0] = -40.0
        low = float(forward(params, batch).probability[0])
        assert low == float(np.float32(1e-7)) and low > 0.0


def _fd_check(params, cfg, batch, label, reg, h=1e-3, tol=1e-3, floor=1e-6):
    """Central finite differences of the float64 reference loss."""
    fv = row_of(batch, 0)
    trace = forward(params, batch)
    grad = backward(trace, [label], reg)

    def check(arr, index, analytic):
        original = arr[index].item()
        arr[index] = original + h
        up = straight_line_loss(params, cfg.feature_config, fv, label, reg)
        arr[index] = original - h
        down = straight_line_loss(params, cfg.feature_config, fv, label, reg)
        arr[index] = original
        fd = (up - down) / (2 * h)
        scale = max(abs(fd), abs(analytic), floor)
        assert abs(fd - analytic) / scale < tol, (index, fd, analytic)

    for slot, rows in grad.emb_rows.items():
        table = params.tensors[f"emb:{slot}"]
        for row, vec in zip(rows.ids.tolist(), rows.values):
            for k in range(len(vec)):
                check(table, (row, k), float(vec[k]))
    for slot, rows in grad.fo_rows.items():
        table = params.tensors[f"fo:{slot}"]
        for row, value in zip(rows.ids.tolist(), rows.values):
            check(table, (row, 0), float(value[0]))
    assert set(dense_grads(grad)) == {n for n in params.tensors if n.startswith("mlp:") or n == "bias"}
    for name, g in dense_grads(grad).items():
        for index in np.ndindex(g.shape):
            check(params.tensors[name], index, float(g[index]))
    return grad


class TestBackward:
    def test_zero_logit_gradient(self, tmp_path):
        """p=0.5, label 0 gives d(loss)/d(logit) = 0.5, visible in the bias."""
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([5, 0]))
        for arr in params.tensors.values():
            arr[:] = 0
        batch, fv = _features({"user_id": "u1"}, cfg.feature_config)
        grad = backward(forward(params, batch), [0], 0.0)
        assert float(dense_grads(grad)["bias"][0]) == pytest.approx(0.5)

    def test_finite_differences(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        rng = np.random.default_rng(9)
        for trial in range(3):
            params = init_params(cfg, np.random.default_rng([trial, 0]))
            for arr in params.tensors.values():
                arr += rng.normal(0, 0.1, arr.shape).astype(np.float32)
            batch, fv = _features(_random_record(rng), cfg.feature_config)
            _fd_check(params, cfg, batch, int(rng.integers(2)), reg=1e-4)

    def test_regularization_adds_2_lambda_row(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([6, 0]))
        batch, fv = _features({"user_id": "u3"}, cfg.feature_config)
        trace = forward(params, batch)
        bare = backward(trace, [1], 0.0)
        reg = backward(trace, [1], 0.01)
        row = fv.ids["user_id"][0]
        assert bare.emb_rows["user_id"].ids.tolist() == reg.emb_rows["user_id"].ids.tolist() == [row]
        want = bare.emb_rows["user_id"].values[0] + 2 * 0.01 * params.tensors["emb:user_id"][row]
        np.testing.assert_allclose(reg.emb_rows["user_id"].values[0], want, rtol=1e-6)

    def test_sparse_parts_cover_only_touched_rows(self, tmp_path):
        cfg = _three_slot_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([7, 0]))
        batch, fv = _features({"user_id": "u1", "item_tags": "a|b"}, cfg.feature_config)
        grad = backward(forward(params, batch), [1], 0.01)
        assert set(grad.emb_rows["user_id"].ids.tolist()) == set(fv.ids["user_id"])
        assert set(grad.emb_rows["item_tags"].ids.tolist()) == set(fv.ids["item_tags"])
        # numeric_raw with value 0.0 stays untouched
        assert "item_price" not in grad.emb_rows

    def test_logreg_has_no_embedding_gradients(self, tmp_path):
        cfg = _three_slot_config(tmp_path, model_type="logreg")
        params = init_params(cfg, np.random.default_rng([8, 0]))
        batch, fv = _features(_random_record(np.random.default_rng(10)), cfg.feature_config)
        grad = backward(forward(params, batch), [1], 0.01)
        assert grad.emb_rows == {} or all(not v for v in grad.emb_rows.values())
        assert list(dense_grads(grad)) == ["bias"]
        assert any(grad.fo_rows.values())


class TestMlpLayerDims:
    @staticmethod
    def _mlp_shapes(tmp_path, slots, dim, hidden):
        features = [{"name": f"s{i}", "kind": "id", "source_columns": [f"c{i}"], "vocab_size": 5}
                    for i in range(slots)]
        cfg = make_config(tmp_path, feature_config=features, model_config={
            "model_type": "deepfm", "embedding_dim": dim, "mlp_hidden_dims": hidden})
        return [shape for name, shape in tensor_shapes(cfg).items() if name.startswith("mlp:W")]

    def test_chains_to_scalar(self, tmp_path):
        assert self._mlp_shapes(tmp_path, 3, 4, [8]) == [(12, 8), (8, 1)]
        assert self._mlp_shapes(tmp_path, 2, 8, []) == [(16, 1)]
        assert self._mlp_shapes(tmp_path, 2, 2, [6, 3]) == [(4, 6), (6, 3), (3, 1)]


class TestMetrics:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_three_of_four_pairs(self):
        assert auc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_ties_half_credit(self):
        assert auc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n).tolist()
            if len(set(labels)) < 2:
                labels[0], labels[1] = 0, 1
            # quantized scores force ties
            scores = (rng.integers(0, 8, n) / 8.0).tolist()
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels) as err:
            auc([0.2, 0.4], [1, 1])
        assert err.value.logloss == pytest.approx(mean_logloss([0.2, 0.4], [1, 1]))

    def test_logloss_oracle(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(0.01, 0.99, 40).tolist()
        labels = rng.integers(0, 2, 40).tolist()
        assert logloss(scores, labels) == pytest.approx(mean_logloss(scores, labels), rel=1e-12)

    def test_logloss_clips(self):
        assert math.isfinite(logloss([0.0, 1.0], [1, 0]))

    def test_evaluate_metrics_bundle(self):
        out = evaluate_metrics([0.9, 0.1], [1, 0])
        assert set(out) == {"auc", "logloss"}

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_metrics([0.5], [1, 0])

    def test_nan_score_raises_and_returns(self):
        outcome = []

        def call():
            try:
                auc([0.1, float("nan"), 0.3], [0, 1, 0])
            except NonFinite as exc:
                outcome.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert len(outcome) == 1


class TestClipProbability:
    """assemble's probability pass, one array at a time, against `clip_probability` row by row."""

    @staticmethod
    def _logits():
        rng = np.random.default_rng(14)
        return [*np.linspace(-709.0, 709.0, 20_001), *rng.uniform(-709.0, 709.0, 20_000),
                *rng.uniform(-40.0, 40.0, 20_000), -709.0, -700.0, 0.0, 709.0]

    @staticmethod
    def _per_row(logits):
        return np.array([clip_probability(v) for v in logits.tolist()], dtype=np.float32)

    def test_very_negative_logit_clips(self):
        assert clip_probability(-1e6) == PROB_CLIP
        assert clip_probability(-math.inf) == PROB_CLIP
        assert _probability(np.array([-1e6, -math.inf], dtype=np.float32)).tolist() == [np.float32(PROB_CLIP)] * 2

    def test_same_bits_where_exp_does_not_overflow(self):
        def unclamped(logit):
            p = 1.0 / (1.0 + math.exp(-logit))
            return min(max(p, PROB_CLIP), 1.0 - PROB_CLIP)

        for logit in map(float, self._logits()):
            assert clip_probability(logit) == unclamped(logit), logit

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_array_form_equals_per_row_form(self, dtype):
        """Every logit's bits equal the per-row form's: the training logits are float32, the oracle's float64."""
        top = float(np.finfo(np.float32).max)
        special = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 700.0, -700.0, 710.0, -710.0, top, -top]
        logits = np.array([*self._logits(), *special], dtype=dtype)
        got, want = _probability(logits), self._per_row(logits)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        tail = got[-len(special):]
        assert np.isnan(tail[:2]).all()
        assert tail[2:].tolist() == [np.float32(1.0 - PROB_CLIP), np.float32(PROB_CLIP), 0.5, 0.5,
                                     *[np.float32(1.0 - PROB_CLIP), np.float32(PROB_CLIP)] * 3]

    def test_empty(self):
        assert _probability(np.zeros(0, dtype=np.float32)).shape == (0,)


def test_copy_params_is_deep(tmp_path):
    cfg = _three_slot_config(tmp_path)
    params = init_params(cfg, np.random.default_rng([9, 0]))
    clone = copy_params(params)
    assert params_equal(params, clone)
    clone.tensors["emb:user_id"][0, 0] += 1.0
    assert not params_equal(params, clone)


@pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
def test_tensors_are_views_into_three_arenas(tmp_path, model_type):
    """Each table is a row range of the emb or fo arena at its slot's base; dense tensors tile one vector."""
    cfg = _three_slot_config(tmp_path, model_type=model_type)
    params = init_params(cfg, np.random.default_rng([9, 0]))
    shapes = tensor_shapes(cfg)
    assert list(params.tensors) == list(shapes)
    dim = cfg.model_config.embedding_dim
    rows, dense = 0, 0
    for spec in cfg.feature_config:
        emb, fo = params.tensors[f"emb:{spec.name}"], params.tensors[f"fo:{spec.name}"]
        assert np.shares_memory(emb, params.emb) and np.shares_memory(fo, params.fo)
        assert emb.__array_interface__["data"][0] == params.emb[rows:].__array_interface__["data"][0]
        assert fo.__array_interface__["data"][0] == params.fo[rows:].__array_interface__["data"][0]
        rows += spec.table_vocab_size
    assert params.emb.shape == (rows, dim) and params.fo.shape == (rows, 1)
    for name, shape in shapes.items():
        if not name.startswith(("emb:", "fo:")):
            tensor = params.tensors[name]
            assert np.shares_memory(tensor, params.dense) and tensor.shape == shape
            assert tensor.__array_interface__["data"][0] == params.dense[dense:].__array_interface__["data"][0]
            dense += tensor.size
    assert params.dense.shape == (dense,)
    params.tensors["bias"][0] = 3.0
    params.emb[rows - 1, 0] = 5.0
    assert params.dense[-1] == 3.0
    assert params.tensors[f"emb:{cfg.feature_config[-1].name}"][-1, 0] == 5.0


def test_init_params_seeded(tmp_path):
    cfg = _three_slot_config(tmp_path)
    a = init_params(cfg, np.random.default_rng([42, 0]))
    b = init_params(cfg, np.random.default_rng([42, 0]))
    assert params_equal(a, b)
    c = init_params(cfg, np.random.default_rng([43, 0]))
    assert not params_equal(a, c)


def test_embedding_init_range(tmp_path):
    cfg = _three_slot_config(tmp_path)
    params = init_params(cfg, np.random.default_rng([42, 0]))
    for spec in cfg.feature_config:
        values = params.tensors[f"emb:{spec.name}"]
        assert float(np.max(np.abs(values))) <= 0.01


def test_first_order_sum_scalar_loop(tmp_path):
    rng = np.random.default_rng(13)
    table = _table(rng, dim=1)
    ids = [1, 5, 1]
    want = sum(float(table[i, 0]) for i in ids)
    assert float(_one_row_part(tmp_path, table, ids).fo[0, 0]) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("shape", [(32, 1), (7, 1), (32, 64), (32, 56, 64), (32, 32, 1), (1, 3)])
def test_sum_samples_is_a_left_fold_from_zero(shape):
    """Bit for bit the sum one row at a time from +0.0, as backward's gradients need."""
    rng = np.random.default_rng(sum(shape))
    for trial in range(50):
        values = (rng.normal(0, 1, shape) * 10.0 ** rng.integers(-4, 5, shape)).astype(np.float32)
        if trial % 5 == 0:
            values[rng.random(shape) < 0.5] = -0.0
        if trial % 10 == 0:
            values[...] = -0.0
        want = np.zeros(shape[1:], dtype=np.float32)
        for row in values:
            want += row
        assert _sum_samples(values).tobytes() == want.tobytes()


_EDGE_VALUES = np.array([0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, -1e-40, np.inf, -np.inf, np.nan,
                         3.4028235e38, -3.4028235e38, 1.7e38, 1.0, -1.0], dtype=np.float32)


@pytest.mark.parametrize("seed", range(6))
def test_row_dots_have_per_pair_dot_bits(seed):
    """The stacked dots of backward's gate gradient equal one np.dot per pair, bit for bit.

    Random dims and row counts, magnitudes from 1e-6 to 1e6, and rows mixed
    with zeros, -0.0, subnormals, infinities, NaN and values near the
    float32 limit.
    """
    rng = np.random.default_rng([30, seed])
    for trial in range(40):
        dim, rows = int(rng.integers(1, 65)), int(rng.integers(1, 40))
        shape = (int(rng.integers(1, 8)), rows, dim) if trial % 2 else (rows, dim)
        a, b = ((rng.normal(0, 1, shape) * 10.0 ** rng.uniform(-6, 6, shape)).astype(np.float32)
                for _ in range(2))
        if trial % 3 == 0:
            for x in (a, b):
                hit = rng.random(shape) < 0.2
                x[hit] = rng.choice(_EDGE_VALUES, int(hit.sum()))
        with np.errstate(all="ignore"):
            got = _row_dots(a, b)
            want = np.array([np.dot(g, p) for g, p in zip(a.reshape(-1, dim), b.reshape(-1, dim))],
                            dtype=np.float32).reshape(shape[:-1])
        assert got.dtype == np.float32 and got.shape == shape[:-1]
        assert got.tobytes() == want.tobytes(), (dim, rows)


def _layout(x, layout):
    """x as a C-ordered, F-ordered or strided array of the same values."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty((2 * x.shape[0], 3 * x.shape[1]), dtype=x.dtype)
        wide[::2, 1::3] = x
        return wide[::2, 1::3]
    return np.ascontiguousarray(x)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 257, 4096])
def test_sum_outer_has_the_bits_of_the_summed_products(n, layout):
    """The MLP weight gradient's contraction equals `_sum_samples` over the (N, a, b) products, bit for bit.

    Shapes 1x1 (which the contraction may not take), 1xk, kx1 and random
    ones; magnitudes from 1e-6 to 1e6, mixed with zeros, -0.0,
    subnormals, infinities, NaN and values near the float32 limit. A NaN
    result is compared by position only: its sign and payload are not
    pinned.
    """
    rng = np.random.default_rng([31, n, len(layout)])
    shapes = [(1, 1), (1, int(rng.integers(2, 65))), (int(rng.integers(2, 65)), 1)]
    shapes += [tuple(int(k) for k in rng.integers(1, 130, 2)) for _ in range(9)]
    for trial, (a, b) in enumerate(shapes):
        # Keep the oracle's (N, a, b) products to at most 16 MB.
        a = min(a, max(1, 2 ** 22 // (n * b)))
        x, delta = ((rng.normal(0, 1, (n, k)) * 10.0 ** rng.uniform(-6, 6, (n, k))).astype(np.float32)
                    for k in (a, b))
        if trial % 2:
            for v in (x, delta):
                hit = rng.random(v.shape) < 0.1
                v[hit] = rng.choice(_EDGE_VALUES, int(hit.sum()))
        x, delta = _layout(x, layout), _layout(delta, layout)
        with np.errstate(all="ignore"):
            got = _sum_outer(x, delta)
            want = _sum_samples(x[:, :, None] * delta[:, None, :])
        assert got.dtype == np.float32 and got.shape == (a, b)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), (n, a, b)
        assert got[~nan].tobytes() == want[~nan].tobytes(), (n, a, b)
