"""End-to-end acceptance suite: twelve numbered platform properties.

Each test prints exactly one line, "PASS: criterion N <label>" or
"FAIL: criterion N <label>", and enforces a wall-clock budget. Every
check runs against an oracle that is independent of the code under
test: float64 finite differences, pairwise brute force, a replayed
shuffle stream, an unchecked in-place delta replay, a reference LRU
simulator, a time-sorted batch join, and pair-counting metrics.
"""

import dataclasses
import http.client
import json
import math
import threading
import time
from contextlib import contextmanager

import numpy as np

from minirec.artifact import (
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from minirec.config import Distribution, SearchSpace
from minirec.delta_stream import (
    decode_delta,
    encode_delta,
    open_consumer,
    open_publisher,
)
from minirec.errors import ChecksumError, FormatError
from minirec.features import FeatureSpec, columns_of, generate
from minirec.hpo import run_search
from minirec.model import (
    fm_second_order,
    forward,
    init_params,
    is_sparse_tensor,
    params_equal,
)
from minirec.sample_stream import Event, JoinConfig, Joiner
from minirec.serving import (
    LruCache,
    ServingModel,
    http_serve,
    load_model,
    partition_slots,
    score,
)
from minirec.feature_select import select, train_with_gates
from minirec.trainer import load_dataset, train

from helpers import (
    DenseRecord,
    LruSimulator,
    ReferenceFeatures,
    SparseRecord,
    batch_join_reference,
    copy_params,
    event_time_of,
    feature_bytes,
    generate_reference,
    informative_feature_config,
    make_config,
    mean_logloss,
    message_of,
    pairwise_auc,
    records_of,
    replay_reference,
    row_of,
    sample_key,
    write_csv,
    write_informative_dataset,
    write_logistic_dataset,
)
from test_model import _fd_check, _random_record, _three_slot_config
from test_serving import _make_model


@contextmanager
def criterion(number, label, budget_s):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        print(f"FAIL: criterion {number} {label}")
        raise
    else:
        print(f"PASS: criterion {number} {label} ({elapsed:.1f}s < {budget_s}s)")


# ---------------------------------------------------------------------
# 1. Offline/online feature consistency
# ---------------------------------------------------------------------

_CONSISTENCY_SPECS = [
    {"name": "user_id", "kind": "id", "source_columns": ["user_id"],
     "vocab_size": 10_000},
    {"name": "user_tags", "kind": "multi_id", "source_columns": ["user_tags"],
     "vocab_size": 5_000, "pooling": "mean"},
    {"name": "user_age", "kind": "numeric_bucket", "source_columns": ["user_age"],
     "boundaries": [18.0, 25.0, 35.0, 50.0]},
    {"name": "item_id", "kind": "id", "source_columns": ["item_id"],
     "vocab_size": 20_000},
    {"name": "item_cats", "kind": "multi_id", "source_columns": ["item_cats"],
     "vocab_size": 3_000},
    {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
    {"name": "user_x_item", "kind": "cross", "source_columns": ["user_id", "item_id"],
     "vocab_size": 50_000},
]


def _random_raw_record(rng):
    """Raw record over every feature kind; columns go missing at random."""
    rec = {}
    if rng.random() > 0.1:
        rec["user_id"] = f"u{rng.integers(5000)}"
    if rng.random() > 0.2:
        rec["user_tags"] = "|".join(
            f"t{rng.integers(200)}" for _ in range(rng.integers(0, 5)))
    if rng.random() > 0.2:
        rec["user_age"] = str(int(rng.integers(10, 80)))
    if rng.random() > 0.1:
        rec["item_id"] = f"i{rng.integers(9000)}"
    if rng.random() > 0.2:
        rec["item_cats"] = "|".join(
            f"c{rng.integers(50)}" for _ in range(rng.integers(0, 4)))
    if rng.random() > 0.2:
        rec["item_price"] = repr(round(float(rng.uniform(-2, 100)), 4))
    return rec


def test_criterion_01_feature_consistency(tmp_path):
    with criterion(1, "offline/online feature consistency", 10):
        rng = np.random.default_rng(20_260_101)
        records = [_random_raw_record(rng) for _ in range(1000)]
        cols = ["user_id", "user_tags", "user_age", "item_id", "item_cats",
                "item_price"]
        write_csv(tmp_path / "train.csv", ["label"] + cols,
                  [[int(rng.integers(2))] + [r.get(c, "") for c in cols]
                   for r in records])
        cfg = make_config(tmp_path, feature_config=_CONSISTENCY_SPECS)

        offline, _ = load_dataset(cfg, cfg.data_config.train_path)
        part = partition_slots(cfg.feature_config)
        assert [s.name for s in part.user] == ["user_id", "user_tags", "user_age"]
        assert [s.name for s in part.item] == ["item_id", "item_cats", "item_price"]
        assert [s.name for s in part.cross] == ["user_x_item"]

        for i, rec in enumerate(records):
            off = row_of(offline, i)
            user_rec = {k: v for k, v in rec.items() if k.startswith("user_")}
            item_rec = {k: v for k, v in rec.items() if k.startswith("item_")}
            sides = [
                row_of(generate(columns_of([record], specs), specs), 0)
                for record, specs in ((user_rec, part.user), (item_rec, part.item),
                                      ({**user_rec, **item_rec}, part.cross))
            ]
            online = ReferenceFeatures(ids={k: v for fv in sides for k, v in fv.ids.items()},
                                       dense={k: v for fv in sides for k, v in fv.dense.items()})
            assert feature_bytes(off) == feature_bytes(online)
            assert feature_bytes(off) == feature_bytes(
                generate_reference(rec, cfg.feature_config))


# ---------------------------------------------------------------------
# 2. Gradient exactness
# ---------------------------------------------------------------------

def _smooth_setup(cfg, seed):
    """Perturbed params and record with no hidden ReLU input near its kink.

    Central differences assume the loss is smooth inside the bump window,
    so setups whose pre-activations could cross zero under +-h are
    resampled; the margin is 50x the bump size.
    """
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        params = init_params(cfg, np.random.default_rng([seed, 0]))
        for arr in params.tensors.values():
            arr += rng.normal(0.0, 0.3, arr.shape).astype(np.float32)
        specs = cfg.feature_config
        batch = generate(columns_of([_random_record(rng)], specs), specs)
        label = int(rng.integers(2))
        hidden = forward(params, batch).pre_activations[:-1]
        if all(float(np.min(np.abs(p))) > 0.05 for p in hidden):
            return params, batch, label
    raise AssertionError(f"no smooth setup found for seed {seed}")


def test_criterion_02_gradient_exactness(tmp_path):
    with criterion(2, "gradient exactness", 30):
        cfg = _three_slot_config(tmp_path)
        for seed in range(20):
            params, batch, label = _smooth_setup(cfg, seed)
            reg = float(np.random.default_rng([seed, 99]).choice([0.0, 0.01]))
            _fd_check(params, cfg, batch, label, reg, tol=1e-3, floor=1e-6)


# ---------------------------------------------------------------------
# 3. FM second-order oracle
# ---------------------------------------------------------------------

def test_criterion_03_fm_oracle():
    with criterion(3, "fm second-order oracle", 5):
        rng = np.random.default_rng(30_303)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            count = int(rng.integers(0, 7))
            vecs = [rng.uniform(-1, 1, dim).astype(np.float32)
                    for _ in range(count)]
            got = float(fm_second_order(np.array(vecs, dtype=np.float32).reshape(count, dim)))
            want = sum(
                float(vecs[i].astype(np.float64) @ vecs[j].astype(np.float64))
                for i in range(count) for j in range(i + 1, count))
            err = abs(got - want)
            assert err <= 1e-5 or err <= 1e-5 * abs(want), (got, want)


# ---------------------------------------------------------------------
# 4. Delta sparsity and completeness
# ---------------------------------------------------------------------

class _ListSink:
    def __init__(self):
        self.frames = []

    def publish(self, frame):
        self.frames.append(frame)


def test_criterion_04_delta_sparsity(tmp_path):
    with criterion(4, "delta sparsity and completeness", 60):
        vocab, n_rows, batch, period, seed = 100_000, 1000, 50, 5, 31
        rng = np.random.default_rng(seed)
        write_csv(tmp_path / "train.csv", ["label", "user_id", "item_id"],
                  [[int(rng.integers(2)), f"u{rng.integers(3000)}",
                    f"i{rng.integers(3000)}"] for _ in range(n_rows)])
        cfg = make_config(
            tmp_path,
            feature_config=[
                {"name": "user_id", "kind": "id", "source_columns": ["user_id"],
                 "vocab_size": vocab},
                {"name": "item_id", "kind": "id", "source_columns": ["item_id"],
                 "vocab_size": vocab},
            ],
            model_config={"embedding_dim": 4, "mlp_hidden_dims": [8]},
            train_config={"learning_rate": 0.05, "batch_size": batch,
                          "num_epochs": 2, "seed": seed,
                          "delta_period_steps": period},
        )
        cfg = dataclasses.replace(
            cfg, data_config=dataclasses.replace(cfg.data_config, eval_path=""))

        sink = _ListSink()
        artifact, report = train(cfg, sink=sink)
        assert report.deltas_emitted == len(sink.frames) > 0

        # Independent touched-set oracle: replay the shuffle stream and
        # collect distinct (tensor, row) pairs per emission period.
        fvs, _ = load_dataset(cfg, cfg.data_config.train_path)
        emb_index = {s.name: 2 * i for i, s in enumerate(cfg.feature_config)}
        shuffle = np.random.default_rng([seed, 1])
        periods, current, steps = [], set(), 0
        for _ in range(cfg.train_config.num_epochs):
            order = shuffle.permutation(len(fvs))
            for start in range(0, len(order), batch):
                for idx in order[start:start + batch]:
                    for name, ids in row_of(fvs, idx).ids.items():
                        for row in ids:
                            current.add((emb_index[name], int(row)))
                            current.add((emb_index[name] + 1, int(row)))
                steps += 1
                if steps % period == 0:
                    periods.append(current)
                    current = set()
        if current:
            periods.append(current)

        messages = [decode_delta(f) for f in sink.frames]
        assert len(messages) == len(periods)
        for k, (msg, want) in enumerate(zip(messages, periods)):
            assert msg.model_version == k + 1
            records = records_of(msg).sparse
            got = {(r.tensor_index, r.row_id) for r in records}
            assert got == want
            for tensor_index in (0, 2):
                emb_rows = sum(1 for r in records
                               if r.tensor_index == tensor_index)
                assert emb_rows <= 500
                assert emb_rows < 0.05 * vocab

        replay = init_params(cfg, np.random.default_rng([seed, 0]))
        for msg in messages:
            replay_reference(replay, msg)
        assert params_equal(replay, artifact.params)
        assert replay.model_version == artifact.params.model_version


# ---------------------------------------------------------------------
# 5. Update freshness
# ---------------------------------------------------------------------

def _http_call(handle, method, path, body=None):
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


def test_criterion_05_update_freshness(tmp_path):
    with criterion(5, "update freshness", 30):
        seed = 11
        write_logistic_dataset(tmp_path, n_train=600, n_eval=200, seed=505)
        cfg = make_config(tmp_path,
                          train_config={"learning_rate": 0.05, "batch_size": 32,
                                        "num_epochs": 2, "seed": seed,
                                        "delta_period_steps": 7})
        v0 = ModelArtifact(config=cfg,
                           params=init_params(cfg, np.random.default_rng([seed, 0])),
                           seed=seed, step_count=0)
        save_artifact(v0, str(tmp_path / "model.erm"))

        model = load_model(str(tmp_path / "model.erm"))
        url = f"file://{tmp_path / 'deltas'}"
        publisher = open_publisher(url)
        consumer = open_consumer(url)
        handle = http_serve(model, LruCache(128), consumer=consumer, poll_interval_ms=1000)
        try:
            artifact, report = train(cfg, sink=publisher)
            assert report.deltas_emitted > 0
            final_version = artifact.params.model_version

            published_at = time.monotonic()
            while True:
                _, payload = _http_call(handle, "GET", "/v1/version")
                if payload["model_version"] == final_version:
                    break
                assert time.monotonic() - published_at < 5.0
                time.sleep(0.05)

            rng = np.random.default_rng(3)
            for _ in range(50):
                user = f"u{rng.integers(60)}"
                keys = [f"i{rng.integers(60)}" for _ in range(3)]
                body = json.dumps({
                    "user": {"user_id": user},
                    "items": [{"key": k, "features": {"item_id": k}}
                              for k in keys],
                })
                status, payload = _http_call(handle, "POST", "/v1/predict", body)
                assert status == 200
                assert payload["model_version"] == final_version
                for key, got in zip(keys, payload["scores"]):
                    record = {"user_id": user, "item_id": key}
                    batch = generate(columns_of([record], cfg.feature_config), cfg.feature_config)
                    want = float(forward(artifact.params, batch).probability[0])
                    assert abs(got - want) <= 1e-6
        finally:
            handle.shutdown()
            consumer.close()
            publisher.close()


# ---------------------------------------------------------------------
# 6. Feature selection
# ---------------------------------------------------------------------

def test_criterion_06_feature_selection(tmp_path):
    with criterion(6, "feature selection", 300):
        n_slots, informative = 20, (0, 3, 7, 11, 15, 19)
        top8_hits, retrain_ok = 0, 0
        for seed in range(10):
            write_informative_dataset(tmp_path / "train.csv", n_slots,
                                      informative, 1500, seed=seed,
                                      rule_seed=seed)
            write_informative_dataset(tmp_path / "eval.csv", n_slots,
                                      informative, 800, seed=seed + 500,
                                      rule_seed=seed)
            cfg = make_config(
                tmp_path, informative_feature_config(n_slots, vocab=200),
                model_config={"embedding_dim": 4, "mlp_hidden_dims": [8]},
                train_config={"learning_rate": 0.05, "batch_size": 64,
                              "num_epochs": 3, "seed": seed,
                              "delta_period_steps": 10_000},
            )
            result = train_with_gates(cfg)
            ranked = sorted(result.importances,
                            key=lambda n: (-result.importances[n], n))
            names = {cfg.feature_config[i].name for i in informative}
            top8_hits += names <= set(ranked[:8])

            kept = select(cfg.feature_config, result.importances, 0.5)
            cfg_kept = dataclasses.replace(cfg, feature_config=kept)
            _, report_full = train(cfg)
            _, report_kept = train(cfg_kept)
            auc_full = report_full.final_metrics["auc"]
            auc_kept = report_kept.final_metrics["auc"]
            retrain_ok += auc_full - auc_kept <= 0.01
        assert top8_hits >= 9, f"top-8 containment in {top8_hits}/10 seeds"
        assert retrain_ok >= 8, f"retrain AUC within 0.01 in {retrain_ok}/10 seeds"


# ---------------------------------------------------------------------
# 7. Hyperparameter search
# ---------------------------------------------------------------------

_HPO_LO, _HPO_HI, _HPO_OPTIMUM = 1e-7, 1e-3, 1e-5


def _toy_evaluate(cfg, epochs, stop_check):
    value = -(math.log(cfg.train_config.learning_rate)
              - math.log(_HPO_OPTIMUM)) ** 2
    curve = []
    for _ in range(epochs):
        curve.append(value)
        if stop_check(curve):
            break
    return curve


def test_criterion_07_hyperparameter_search(tmp_path):
    with criterion(7, "hyperparameter search", 120):
        space = SearchSpace(entries=(
            ("train_config.learning_rate",
             Distribution(kind="loguniform", lo=_HPO_LO, hi=_HPO_HI)),
        ))
        grid = np.geomspace(_HPO_LO, _HPO_HI, 256)
        grid_metrics = sorted(
            (-(math.log(g) - math.log(_HPO_OPTIMUM)) ** 2 for g in grid),
            reverse=True)
        decile = grid_metrics[24]

        cfg = make_config(tmp_path)
        same_best, epochs_on, epochs_off = 0, 0, 0
        for seed in range(10):
            best_off, trials_off = run_search(
                cfg, space, max_trials=16, epochs=8, seed=seed,
                evaluate_fn=_toy_evaluate, enable_stopping=False)
            best_on, trials_on = run_search(
                cfg, space, max_trials=16, epochs=8, seed=seed,
                evaluate_fn=_toy_evaluate, enable_stopping=True)
            assert best_off.final_metric >= decile
            same_best += best_on.assignment == best_off.assignment
            epochs_on += sum(len(t.curve) for t in trials_on)
            epochs_off += sum(len(t.curve) for t in trials_off)
        assert same_best >= 8, f"same best in {same_best}/10 seeds"
        assert epochs_on <= 0.75 * epochs_off, (epochs_on, epochs_off)


# ---------------------------------------------------------------------
# 8. LRU exactness
# ---------------------------------------------------------------------

def _keyed_item(key):
    # Item features must be a pure function of the key: the cache pairs
    # the key with the first features generated for it.
    return {"key": key,
            "features": {"item_id": key,
                         "item_price": repr((hash(key) % 500) / 100.0)}}


def _keyed_request(rng):
    return {"user": {"user_id": f"u{rng.integers(200)}"},
            "items": [_keyed_item(f"i{rng.integers(200)}")
                      for _ in range(int(rng.integers(1, 5)))]}


def test_criterion_08_lru_exactness(tmp_path):
    with criterion(8, "lru exactness", 30):
        rng = np.random.default_rng(4096)
        ranks = np.arange(1, 1001, dtype=np.float64)
        probs = (1.0 / ranks) / np.sum(1.0 / ranks)
        trace = rng.choice(1000, size=10_000, p=probs)
        # Each access is a one-key request to the lookup that score makes.
        specs = (FeatureSpec("item_id", "id", ("item_id",), vocab_size=1000),)
        ids = generate(columns_of([{"item_id": str(k)} for k in range(1000)], specs), specs).ids["item_id"].ids
        cache, sim = LruCache(100), LruSimulator(100)
        got, want = [], []
        for key in trace.tolist():
            batch, hits, failed = cache.item_rows(
                specs, [str(key)],
                lambda positions, key=key: generate(columns_of([{"item_id": str(key)}], specs), specs),
                set())
            got.append(hits == 1)
            want.append(sim.access(str(key)))
            assert list(cache._data) == sim.order
            assert failed == set() and batch.ids["item_id"].ids.tolist() == [ids[key]]
        assert got == want

        model = _make_model(tmp_path)
        shared, shared_sim = LruCache(256), LruSimulator(256)
        rng = np.random.default_rng(8080)
        for _ in range(1000):
            request = _keyed_request(rng)
            cached = score(model, request, shared)
            uncached = score(model, request, None)
            assert cached.scores == uncached.scores
            assert cached.model_version == uncached.model_version
            assert cached.cache_hits == sum(shared_sim.access(item["key"]) for item in request["items"])
            assert list(shared._data) == shared_sim.order


# ---------------------------------------------------------------------
# 9. Stream-join oracle
# ---------------------------------------------------------------------

def _event_stream(rng, w, lateness, n_rids, span):
    """Random workload under the invariance contract: duplicate
    impressions and logs are exact copies and every multi-click key
    keeps all its clicks inside the label window."""
    events = []
    for r in range(n_rids):
        rid = f"r{r:05d}"
        t0 = int(rng.integers(0, span))
        if rng.random() < 0.75:
            log_time = t0 + int(rng.integers(-lateness, w + lateness + 1))
            log = Event("feature_log", max(log_time, 0), rid,
                        payload={"user_id": f"u{r % 97}", "spend": str(r % 50)})
            events.append(log)
            if rng.random() < 0.1:
                events.append(log)
        for j in range(int(rng.integers(1, 3))):
            item = f"i{j}"
            imp = Event("impression", t0 + j, rid, item)
            events.append(imp)
            if rng.random() < 0.1:
                events.append(imp)
            roll = rng.random()
            if roll < 0.35:
                events.append(Event("click", t0 + j + int(rng.integers(0, w + 1)),
                                    rid, item))
                if rng.random() < 0.3:
                    events.append(Event(
                        "click", t0 + j + int(rng.integers(0, w + 1)), rid, item))
            elif roll < 0.45:
                events.append(Event(
                    "click", t0 + j + w + 1 + int(rng.integers(0, 40)), rid, item))
    for _ in range(8):
        events.append({"kind": "impression",
                       "event_time": int(rng.integers(0, span)),
                       "request_id": ""})
    return events


def test_criterion_09_stream_join_oracle():
    with criterion(9, "stream-join oracle", 60):
        w, lateness = 50, 20
        cfg = JoinConfig(label_window_ms=w, allowed_lateness_ms=lateness)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            events = _event_stream(rng, w, lateness, 3200, 140_000)
            assert len(events) > 10_000
            want, want_stats = batch_join_reference(events, cfg)
            want_samples = sorted(sample_key(s) for s in want)
            assert want_stats.samples > 1000

            jitter = rng.uniform(-lateness / 2, lateness / 2, len(events))
            order = sorted(range(len(events)),
                           key=lambda i: (event_time_of(events[i]) + jitter[i]))
            joiner = Joiner(cfg)
            for i in order:
                joiner.feed(events[i])
            joiner.flush()
            assert sorted(sample_key(s) for s in joiner.samples) == want_samples
            assert joiner.stats == want_stats


# ---------------------------------------------------------------------
# 10. Wire robustness
# ---------------------------------------------------------------------

def _random_message(rng):
    sparse = tuple(
        SparseRecord(int(rng.integers(0, 6)), int(rng.integers(0, 1000)),
                     tuple(float(np.float32(x))
                           for x in rng.normal(0, 1, int(rng.integers(1, 9)))))
        for _ in range(int(rng.integers(0, 5))))
    dense = tuple(
        DenseRecord(int(rng.integers(6, 9)),
                    tuple(float(np.float32(x))
                          for x in rng.normal(0, 1, int(rng.integers(1, 20)))))
        for _ in range(int(rng.integers(0, 3))))
    return message_of(int(rng.integers(0, 2 ** 40)), sparse, dense)


def _random_artifact(rng, tmp_path, tag):
    kinds = ["id", "multi_id", "numeric_raw", "numeric_bucket"]
    features = []
    for j in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(len(kinds)))]
        f = {"name": f"s{j}", "kind": kind, "source_columns": [f"c{j}"]}
        if kind in ("id", "multi_id"):
            f["vocab_size"] = int(rng.integers(2, 31))
        if kind == "numeric_bucket":
            f["boundaries"] = sorted(
                float(x) for x in rng.uniform(-5, 5, int(rng.integers(1, 4))))
        features.append(f)
    cfg = make_config(tmp_path, feature_config=features,
                      model_config={"embedding_dim": int(rng.integers(2, 9)),
                                    "mlp_hidden_dims": [int(rng.integers(2, 9))]})
    artifact = ModelArtifact(config=cfg, params=init_params(cfg, rng),
                             seed=int(tag), step_count=int(rng.integers(1000)))
    for arr in artifact.params.tensors.values():
        arr += rng.normal(0, 0.5, arr.shape).astype(np.float32)
    artifact.params.model_version = int(rng.integers(100))
    return artifact


def test_criterion_10_wire_robustness(tmp_path):
    with criterion(10, "wire robustness", 10):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            msg = _random_message(rng)
            assert records_of(decode_delta(encode_delta(msg))) == records_of(msg)
        for i in range(100):
            artifact = _random_artifact(rng, tmp_path, i)
            path = str(tmp_path / "roundtrip.erm")
            save_artifact(artifact, path)
            back = load_artifact(path)
            assert back.config == artifact.config
            assert back.seed == artifact.seed
            assert back.step_count == artifact.step_count
            assert params_equal(back.params, artifact.params)

        frame = encode_delta(message_of(
            7,
            (SparseRecord(0, 12, (1.0, -2.5, 0.25, 3.0)),
             SparseRecord(1, 12, (0.5,)),
             SparseRecord(2, 900, (1.5, 2.5, -0.125, 8.0))),
            (DenseRecord(6, tuple(float(x) for x in np.linspace(-1, 1, 12))),),
        ))
        assert decode_delta(frame).model_version == 7
        for byte_index in range(len(frame)):
            for bit in range(8):
                corrupt = bytearray(frame)
                corrupt[byte_index] ^= 1 << bit
                try:
                    decode_delta(bytes(corrupt))
                except (FormatError, ChecksumError):
                    continue
                raise AssertionError(
                    f"flip of bit {bit} in byte {byte_index} went undetected")


# ---------------------------------------------------------------------
# 11. Concurrency consistency
# ---------------------------------------------------------------------

def _random_delta(rng, version, sparse_info, dense_info):
    sparse = []
    for _ in range(int(rng.integers(1, 6))):
        tensor_index, vocab, dim = sparse_info[int(rng.integers(len(sparse_info)))]
        sparse.append(SparseRecord(
            tensor_index, int(rng.integers(vocab)),
            tuple(float(np.float32(x)) for x in rng.normal(0, 0.3, dim))))
    dense = ()
    if rng.random() < 0.3:
        tensor_index, length = dense_info[int(rng.integers(len(dense_info)))]
        dense = (DenseRecord(tensor_index,
                             tuple(float(np.float32(x))
                                   for x in rng.normal(0, 0.3, length))),)
    return message_of(version, tuple(sparse), dense)


def test_criterion_11_concurrency_consistency(tmp_path):
    with criterion(11, "concurrency consistency", 60):
        model = _make_model(tmp_path)
        cfg = model.config
        base = copy_params(model.snapshot())

        sparse_info, dense_info = [], []
        for i, (name, arr) in enumerate(base.tensors.items()):
            if is_sparse_tensor(name):
                sparse_info.append(
                    (i, arr.shape[0], arr.shape[1] if arr.ndim == 2 else 1))
            else:
                dense_info.append((i, arr.size))

        rng = np.random.default_rng(2024)
        deltas = [_random_delta(rng, v, sparse_info, dense_info)
                  for v in range(1, 101)]
        requests = [_keyed_request(rng) for _ in range(150)]

        cache = LruCache(256)
        stop = threading.Event()
        batches, errors = [], []

        def scorer(thread_id):
            local = []
            i = thread_id
            try:
                while not stop.is_set():
                    index = i % len(requests)
                    resp = score(model, requests[index], cache)
                    local.append((index, resp.model_version, tuple(resp.scores)))
                    i += 8
                    time.sleep(0.001)
            except BaseException as exc:
                errors.append(exc)
            batches.append(local)

        def applier():
            try:
                for msg in deltas:
                    time.sleep(0.25)
                    model.apply_delta(msg)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=scorer, args=(t,)) for t in range(8)]
        applier_thread = threading.Thread(target=applier)
        for t in threads:
            t.start()
        applier_thread.start()
        time.sleep(30.0)
        stop.set()
        for t in threads:
            t.join()
        applier_thread.join()
        assert not errors, errors
        assert model.version == len(deltas)

        snapshots = {0: base}
        replay = copy_params(base)
        for msg in deltas:
            replay_reference(replay, msg)
            snapshots[msg.model_version] = copy_params(replay)

        unique = {}
        responses = 0
        for batch in batches:
            responses += len(batch)
            for index, version, scores in batch:
                unique[(version, index)] = scores
        assert responses > 1000
        assert len({version for version, _ in unique}) > 50
        for (version, index), scores in unique.items():
            want = score(ServingModel(snapshots[version], cfg),
                         requests[index], None)
            assert tuple(want.scores) == scores
            assert want.model_version == version


# ---------------------------------------------------------------------
# 12. End-to-end training quality
# ---------------------------------------------------------------------

def test_criterion_12_training_quality(tmp_path):
    with criterion(12, "training quality", 60):
        write_logistic_dataset(tmp_path, n_train=4000, n_eval=1000,
                               scale=16.0, seed=2026)
        cfg = make_config(
            tmp_path,
            train_config={"learning_rate": 0.05, "batch_size": 64,
                          "num_epochs": 5, "seed": 42,
                          "delta_period_steps": 10_000},
        )
        artifact, report = train(cfg)
        assert report.final_metrics["auc"] >= 0.95

        fvs, labels = load_dataset(cfg, cfg.data_config.eval_path)
        scores = [float(forward(artifact.params, fvs.take([i])).probability[0])
                  for i in range(len(fvs))]
        assert report.final_metrics["auc"] == pairwise_auc(scores, labels.tolist())
        assert report.final_metrics["logloss"] == mean_logloss(scores, labels.tolist())
