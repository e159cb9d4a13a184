"""Lazy sparse Adam: per-row moments, frozen untouched rows, dense updates."""

import numpy as np
import pytest

from minirec.errors import DimensionMismatch
from minirec.model import SparseGradient, SparseRows, copy_params, init_params, params_equal
from minirec.optim import AdamOptimizer, ScalarAdam

from helpers import make_config


def _config(tmp_path, model_type="deepfm"):
    features = [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 20},
        {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 20},
    ]
    return make_config(
        tmp_path,
        feature_config=features,
        model_config={"model_type": model_type, "embedding_dim": 4, "mlp_hidden_dims": [6]},
    )


def _arena_rows(params, rows_by_slot, dim, fill):
    """Table rows by slot as sorted global rows of an arena."""
    ids = sorted(params.layout.spans[f"fo:{slot}"][1] + row
                 for slot, rows in rows_by_slot.items() for row in rows)
    return SparseRows(np.array(ids, dtype=np.int64), np.full((len(ids), dim), fill, np.float32))


def _grad(params, emb_rows, fo_rows, fill=0.1):
    dense = np.full_like(params.dense, fill)
    emb = _arena_rows(params, emb_rows, 4, fill)
    fo = _arena_rows(params, fo_rows, 1, fill)
    return SparseGradient(params.layout, emb=emb, fo=fo, dense=dense)


def _adam_reference(value, grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam on one scalar, one entry per time it was touched."""
    m = v = 0.0
    x = float(value)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


class TestLazySparseAdam:
    def test_untouched_rows_bit_frozen(self, tmp_path):
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([1, 0]))
        before = {name: arr.copy() for name, arr in params.tensors.items()}
        opt = AdamOptimizer(learning_rate=0.01)
        opt.apply(params, _grad(params, {"user_id": [3]}, {"user_id": [3]}))
        table = params.tensors["emb:user_id"]
        for row in range(table.shape[0]):
            if row == 3:
                continue
            np.testing.assert_array_equal(table[row], before["emb:user_id"][row])
        np.testing.assert_array_equal(params.tensors["emb:item_id"], before["emb:item_id"])

    def test_touched_row_matches_reference(self, tmp_path):
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([2, 0]))
        start = float(params.tensors["emb:user_id"][5, 0])
        opt = AdamOptimizer(learning_rate=0.01)
        for _ in range(3):
            opt.apply(params, _grad(params, {"user_id": [5]}, {"user_id": [5]}, fill=0.1))
        want = _adam_reference(start, [0.1, 0.1, 0.1])
        assert float(params.tensors["emb:user_id"][5, 0]) == pytest.approx(want, rel=1e-5)

    def test_per_row_step_counts(self, tmp_path):
        """A row first touched at global step 3 gets step-1 bias correction."""
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([3, 0]))
        early = float(params.tensors["emb:user_id"][1, 0])
        late = float(params.tensors["emb:user_id"][2, 0])
        opt = AdamOptimizer(learning_rate=0.01)
        opt.apply(params, _grad(params, {"user_id": [1]}, {"user_id": [1]}, fill=0.2))
        opt.apply(params, _grad(params, {"user_id": [1]}, {"user_id": [1]}, fill=0.2))
        opt.apply(params, _grad(params, {"user_id": [1, 2]}, {"user_id": [1, 2]}, fill=0.2))
        # float32 arithmetic leaves ~1e-7 noise; a wrong step count would be
        # off by ~3.6e-3 (the t=3 bias correction shrinks the step by a third)
        assert float(params.tensors["emb:user_id"][1, 0]) == pytest.approx(
            _adam_reference(early, [0.2, 0.2, 0.2]), abs=1e-6)
        assert float(params.tensors["emb:user_id"][2, 0]) == pytest.approx(
            _adam_reference(late, [0.2]), abs=1e-6)

    def test_first_order_rows_lazy_too(self, tmp_path):
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([4, 0]))
        start = float(params.tensors["fo:item_id"][7, 0])
        opt = AdamOptimizer(learning_rate=0.05)
        opt.apply(params, _grad(params, {"item_id": [7]}, {"item_id": [7]}, fill=0.3))
        want = _adam_reference(start, [0.3], lr=0.05)
        assert float(params.tensors["fo:item_id"][7, 0]) == pytest.approx(want, rel=1e-5)

    def test_dense_uses_shared_steps(self, tmp_path):
        """MLP weights update on every apply; second update uses t=2."""
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([5, 0]))
        start = float(params.tensors["mlp:W0"][0, 0])
        opt = AdamOptimizer(learning_rate=0.01)
        opt.apply(params, _grad(params, {}, {}, fill=0.1))
        opt.apply(params, _grad(params, {}, {}, fill=0.1))
        want = _adam_reference(start, [0.1, 0.1])
        assert float(params.tensors["mlp:W0"][0, 0]) == pytest.approx(want, rel=1e-5)

    def test_bias_updates(self, tmp_path):
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([6, 0]))
        start = float(params.tensors["bias"][0])
        opt = AdamOptimizer(learning_rate=0.01)
        opt.apply(params, _grad(params, {}, {}, fill=-0.4))
        assert float(params.tensors["bias"][0]) == pytest.approx(_adam_reference(start, [-0.4]), rel=1e-5)

    @pytest.mark.parametrize("emb_rows, fo_rows", [([3], []), ([3], [4]), ([3, 4], [3]), ([], [3])])
    def test_emb_rows_must_be_fo_rows(self, tmp_path, emb_rows, fo_rows):
        """The arenas share one row state, so a gradient whose emb rows are not its fo rows is refused, unapplied."""
        cfg = _config(tmp_path)
        params = init_params(cfg, np.random.default_rng([8, 0]))
        before = copy_params(params)
        opt = AdamOptimizer(learning_rate=0.01)
        with pytest.raises(DimensionMismatch):
            opt.apply(params, _grad(params, {"user_id": emb_rows}, {"user_id": fo_rows}))
        assert params_equal(params, before)

    def test_logreg_takes_no_emb_rows(self, tmp_path):
        """logreg never reads the embeddings, so its row state holds fo moments only and an emb row is refused."""
        cfg = _config(tmp_path, "logreg")
        params = init_params(cfg, np.random.default_rng([9, 0]))
        start = float(params.tensors["fo:item_id"][7, 0])
        opt = AdamOptimizer(learning_rate=0.05)
        opt.apply(params, _grad(params, {}, {"item_id": [7]}, fill=0.3))
        want = _adam_reference(start, [0.3], lr=0.05)
        assert float(params.tensors["fo:item_id"][7, 0]) == pytest.approx(want, rel=1e-5)
        assert opt._sparse.m.shape == (params.layout.rows, 1)
        before = copy_params(params)
        with pytest.raises(DimensionMismatch):
            opt.apply(params, _grad(params, {"item_id": [7]}, {"item_id": [7]}))
        assert params_equal(params, before)

    def test_deterministic_replay(self, tmp_path):
        cfg = _config(tmp_path)
        runs = []
        for _ in range(2):
            params = init_params(cfg, np.random.default_rng([7, 0]))
            opt = AdamOptimizer(learning_rate=0.02)
            rng = np.random.default_rng(99)
            for _ in range(5):
                rows = sorted(set(rng.integers(0, 20, 3).tolist()))
                opt.apply(params, _grad(params, {"user_id": rows}, {"user_id": rows},
                                        fill=float(rng.uniform(-1, 1))))
            runs.append({name: arr.copy() for name, arr in params.tensors.items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])


class TestScalarAdam:
    def test_matches_reference(self):
        values = np.array([1.0, -2.0], dtype=np.float64)
        opt = ScalarAdam(learning_rate=0.1)
        for _ in range(4):
            opt.apply(values, np.array([0.5, -0.25]))
        assert values[0] == pytest.approx(_adam_reference(1.0, [0.5] * 4, lr=0.1), rel=1e-9)
        assert values[1] == pytest.approx(_adam_reference(-2.0, [-0.25] * 4, lr=0.1), rel=1e-9)
