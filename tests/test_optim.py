"""Lazy sparse Adam: per-row moments, frozen untouched rows, dense updates."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from minirec.config import build_config
from minirec.errors import DimensionMismatch
from minirec.model import SparseGradient, SparseRows, copy_params, empty_params, init_params, params_equal
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
        assert opt._sparse.m.shape[1] == 1
        before = copy_params(params)
        with pytest.raises(DimensionMismatch):
            opt.apply(params, _grad(params, {"item_id": [7]}, {"item_id": [7]}))
        assert params_equal(params, before)

    def test_bias_correction_table_grows_geometrically(self, tmp_path):
        """5,000 dense steps: the table keeps the per-step formula's bits and grows only O(log steps) times."""
        cfg = _config(tmp_path, "logreg")
        params = init_params(cfg, np.random.default_rng([10, 0]))
        opt = AdamOptimizer(learning_rate=0.01)
        grad = _grad(params, {}, {})
        lengths = []
        for step in range(1, 5001):
            opt.apply(params, grad)
            table = opt._corrections
            assert step < len(table) <= 2 * step
            if not lengths or lengths[-1] != len(table):
                lengths.append(len(table))
        # Doubling from one row covers 5,001 rows after 13 growths.
        assert len(lengths) <= 13
        want = [(1.0 - opt.beta1**t, 1.0 - opt.beta2**t) for t in range(len(table))]
        assert np.array_equal(table, np.array(want, dtype=np.float32))

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


def _perfbench_config(scale):
    """The train_publish benchmark's config, every hashed vocabulary times `scale`."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    raw = common.pipeline_config(0)
    for feature in raw["feature_config"]:
        if "vocab_size" in feature:
            feature["vocab_size"] *= scale
    return build_config(raw)


class TestStateFollowsTouchedRows:
    def test_same_gradients_at_1x_and_40x_vocabulary(self):
        """The state is the same bytes whatever the vocabulary; only the rows a run touches count.

        Seeded gradients over table rows that both sizes have go to the
        perfbench config at 1x and at 40x its vocabularies (3.1M arena
        rows). The touched rows end with the same parameter and moment
        bits, the optimizer's m, v and step arrays are byte-equal, and
        those arrays are reallocated O(log rows) times.
        """
        small = init_params(_perfbench_config(1), np.random.default_rng([11, 0]))
        # The large arenas are never written whole: only the rows the gradients touch are set and read.
        large = empty_params(_perfbench_config(40))
        slots = [spec.name for spec in small.specs]
        assert large.layout.rows > 40 * (small.layout.rows - 7)
        large.dense[:] = small.dense
        rng = np.random.default_rng(12)
        steps = []
        for _ in range(60):
            rows = {}
            for slot in slots:
                _, start, stop = small.layout.spans[f"fo:{slot}"]
                rows[slot] = np.unique(rng.integers(0, min(stop - start, 400), int(rng.integers(1, 40))))
            n = sum(len(r) for r in rows.values())
            steps.append((rows, rng.normal(0, 1, (n, 8)).astype(np.float32),
                          rng.normal(0, 1, (n, 1)).astype(np.float32),
                          rng.normal(0, 1, small.dense.shape).astype(np.float32)))
        touched = {slot: np.unique(np.concatenate([rows[slot] for rows, *_ in steps])) for slot in slots}
        for slot, table_rows in touched.items():
            for arena in ("emb", "fo"):
                large.tensors[f"{arena}:{slot}"][table_rows] = small.tensors[f"{arena}:{slot}"][table_rows]

        states = []
        for params in (small, large):
            opt = AdamOptimizer(learning_rate=0.01)
            sizes = []
            for rows, emb, fo, dense in steps:
                spans = params.layout.spans
                ids = np.concatenate([spans[f"fo:{slot}"][1] + rows[slot] for slot in slots])
                opt.apply(params, SparseGradient(params.layout, SparseRows(ids, emb), SparseRows(ids, fo), dense))
                if not sizes or sizes[-1] != len(opt._sparse.step):
                    sizes.append(len(opt._sparse.step))
            states.append(opt._sparse)
            used = sum(len(r) for r in touched.values())
            assert opt._sparse.used == used
            assert used <= sizes[-1] < 2 * used
            assert len(sizes) <= math.ceil(math.log2(used)) + 1
        for slot, table_rows in touched.items():
            for arena in ("emb", "fo"):
                name = f"{arena}:{slot}"
                assert small.tensors[name][table_rows].tobytes() == large.tensors[name][table_rows].tobytes(), name
            slot_of = [state.slot[params.layout.spans[f"fo:{slot}"][1] + table_rows]
                       for state, params in zip(states, (small, large))]
            assert np.array_equal(*slot_of), slot
        assert small.dense.tobytes() == large.dense.tobytes()
        for array in ("m", "v", "step"):
            assert getattr(states[0], array).tobytes() == getattr(states[1], array).tobytes(), array


class TestScalarAdam:
    def test_matches_reference(self):
        values = np.array([1.0, -2.0], dtype=np.float64)
        opt = ScalarAdam(learning_rate=0.1)
        for _ in range(4):
            opt.apply(values, np.array([0.5, -0.25]))
        assert values[0] == pytest.approx(_adam_reference(1.0, [0.5] * 4, lr=0.1), rel=1e-9)
        assert values[1] == pytest.approx(_adam_reference(-2.0, [-0.25] * 4, lr=0.1), rel=1e-9)
