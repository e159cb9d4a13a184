"""Variational-dropout gates: values, gradients, training, and pruning."""

import math

import numpy as np
import pytest

from minirec.features import FeatureSpec, columns_of, generate
from minirec.feature_select import (
    GateParams,
    gate_value,
    importances_to_plain,
    select,
    train_with_gates,
)
from minirec.model import assemble, backward, compute_parts, forward, init_params

from helpers import (
    informative_feature_config,
    make_config,
    straight_line_probability,
    write_informative_dataset,
)


class TestGateValue:
    def test_midpoint_unit_temperature(self):
        assert gate_value(0.0, 0.5, 1.0) == pytest.approx(0.5)

    def test_midpoint_any_temperature(self):
        assert gate_value(0.0, 0.5, 0.5) == pytest.approx(0.5)

    def test_open_interval(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            z = gate_value(float(rng.normal(0, 3)), float(rng.uniform(1e-6, 1 - 1e-6)), 0.5)
            assert 0.0 < z < 1.0

    def test_monotone_in_log_alpha(self):
        u, tau = 0.3, 0.5
        values = [gate_value(a, u, tau) for a in np.linspace(-4, 4, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-5
        for _ in range(200):
            log_alpha = float(rng.normal(0, 2))
            u = float(rng.uniform(0.01, 0.99))
            tau = float(rng.uniform(0.2, 1.0))
            z = gate_value(log_alpha, u, tau)
            analytic = z * (1 - z) / tau
            fd = (gate_value(log_alpha + h, u, tau) - gate_value(log_alpha - h, u, tau)) / (2 * h)
            assert analytic == pytest.approx(fd, abs=1e-4, rel=1e-4)


def _gate_config(tmp_path):
    features = [
        {"name": "alpha", "kind": "id", "source_columns": ["alpha"], "vocab_size": 40},
        {"name": "beta", "kind": "id", "source_columns": ["beta"], "vocab_size": 40},
        {"name": "gamma", "kind": "id", "source_columns": ["gamma"], "vocab_size": 40},
    ]
    return make_config(
        tmp_path,
        feature_config=features,
        model_config={"model_type": "deepfm", "embedding_dim": 4, "mlp_hidden_dims": [6]},
    )


class TestGatedForward:
    def test_unit_gates_reduce_to_plain_forward(self, tmp_path):
        cfg = _gate_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([40, 0]))
        specs = cfg.feature_config
        batch = generate(columns_of([{"alpha": "a1", "beta": "b2", "gamma": "c3"}], specs), specs)
        plain = forward(params, batch)
        parts = compute_parts(params, batch)
        scale = {spec.name: 1.0 for spec in cfg.feature_config}
        gated = assemble(params, parts, slot_scale=scale)
        assert float(gated.probability[0]) == pytest.approx(float(plain.probability[0]), abs=1e-6)

    def test_zero_gate_silences_slot(self, tmp_path):
        cfg = _gate_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([41, 0]))
        specs = cfg.feature_config
        batch = generate(columns_of([{"alpha": "a1", "beta": "b2", "gamma": "c3"}], specs), specs)
        absent = generate(columns_of([{"beta": "b2", "gamma": "c3"}], specs), specs)
        parts = compute_parts(params, batch)
        scale = {"alpha": 0.0, "beta": 1.0, "gamma": 1.0}
        gated = assemble(params, parts, slot_scale=scale)
        plain = forward(params, absent)
        assert float(gated.probability[0]) == pytest.approx(float(plain.probability[0]), abs=1e-6)


class TestGateGradient:
    def test_matches_finite_differences(self, tmp_path):
        """d(loss)/d(log_alpha) with frozen weights and frozen noise draws."""
        cfg = _gate_config(tmp_path)
        params = init_params(cfg, np.random.default_rng([42, 0]))
        for spec in cfg.feature_config:
            params.tensors[f"emb:{spec.name}"] += np.random.default_rng(1).normal(
                0, 0.2, params.tensors[f"emb:{spec.name}"].shape).astype(np.float32)
        specs = cfg.feature_config
        batch = generate(columns_of([{"alpha": "a5", "beta": "b1", "gamma": "c9"}], specs), specs)
        fv = batch.row(0)
        tau, lambda_g = 0.5, 1e-3
        rng = np.random.default_rng(43)
        for label in (0, 1):
            log_alpha = {s.name: float(rng.normal(0, 1)) for s in cfg.feature_config}
            u = {s.name: float(rng.uniform(0.05, 0.95)) for s in cfg.feature_config}

            def total_loss(la):
                scale = {n: gate_value(la[n], u[n], tau) for n in la}
                p = straight_line_probability(params, cfg.feature_config, fv, scale)
                loss = -math.log(p) if label == 1 else -math.log(1.0 - p)
                penalty = sum(1.0 / (1.0 + math.exp(-v)) for v in la.values())
                return loss + lambda_g * penalty

            scale = {n: gate_value(log_alpha[n], u[n], tau) for n in log_alpha}
            trace = forward(params, batch, slot_scale=scale)
            grad = backward(trace, [label], 0.0)
            h = 1e-4
            for name in log_alpha:
                z = scale[name]
                p_keep = 1.0 / (1.0 + math.exp(-log_alpha[name]))
                analytic = (float(grad.slot_scale[name][0]) * z * (1 - z) / tau
                            + lambda_g * p_keep * (1 - p_keep))
                up = dict(log_alpha); up[name] += h
                down = dict(log_alpha); down[name] -= h
                fd = (total_loss(up) - total_loss(down)) / (2 * h)
                assert analytic == pytest.approx(fd, rel=1e-3, abs=1e-6)


def _informative_run(tmp_path, seed, n_slots=6, informative=(0, 1)):
    train = tmp_path / f"train{seed}.csv"
    valid = tmp_path / f"valid{seed}.csv"
    write_informative_dataset(train, n_slots, informative, 1200, seed, scale=3.0)
    write_informative_dataset(valid, n_slots, informative, 600, seed + 1000, scale=3.0)
    cfg = make_config(
        tmp_path,
        feature_config=informative_feature_config(n_slots, vocab=200),
        data_config={"train_path": str(train), "eval_path": str(valid)},
        model_config={"embedding_dim": 4, "mlp_hidden_dims": [8]},
        train_config={"num_epochs": 3, "learning_rate": 0.05, "batch_size": 64,
                      "seed": seed},
    )
    return cfg


class TestTrainWithGates:
    def test_informative_probability_drifts_up(self, tmp_path):
        cfg = _informative_run(tmp_path, seed=0)
        result = train_with_gates(cfg, lambda_g=0.0)
        for j in (0, 1):
            assert result.importances[f"cat_{j:02d}"] > 0.5

    def test_importances_separate_signal_from_noise(self, tmp_path):
        cfg = _informative_run(tmp_path, seed=1)
        result = train_with_gates(cfg)
        ranked = sorted(result.importances, key=result.importances.get, reverse=True)
        assert set(ranked[:2]) == {"cat_00", "cat_01"}

    def test_deterministic(self, tmp_path):
        cfg = _informative_run(tmp_path, seed=2)
        a = train_with_gates(cfg)
        b = train_with_gates(cfg)
        assert a.importances == b.importances


def _spec(name):
    return FeatureSpec(name=name, kind="id", source_columns=(name,), vocab_size=10)


class TestSelect:
    def test_keep_all(self):
        specs = (_spec("a"), _spec("b"), _spec("c"))
        kept = select(specs, {"a": 0.9, "b": 0.1, "c": 0.5}, 1.0)
        assert kept == specs

    def test_ceil_rule(self):
        specs = (_spec("a"), _spec("b"), _spec("c"))
        kept = select(specs, {"a": 0.9, "b": 0.1, "c": 0.5}, 0.5)
        assert [s.name for s in kept] == ["a", "c"]

    def test_preserves_config_order(self):
        specs = (_spec("z"), _spec("a"), _spec("m"))
        kept = select(specs, {"z": 0.9, "a": 0.8, "m": 0.1}, 0.5)
        assert [s.name for s in kept] == ["z", "a"]

    def test_tie_keeps_lexicographically_smaller(self):
        specs = (_spec("b"), _spec("a"))
        kept = select(specs, {"a": 0.5, "b": 0.5}, 0.5)
        assert [s.name for s in kept] == ["a"]

    def test_monotone_in_keep_fraction(self):
        specs = tuple(_spec(f"s{i}") for i in range(8))
        rng = np.random.default_rng(50)
        importances = {s.name: float(rng.uniform()) for s in specs}
        previous: set[str] = set()
        for fraction in (0.125, 0.25, 0.5, 0.75, 1.0):
            names = {s.name for s in select(specs, importances, fraction)}
            assert previous <= names
            previous = names

    def test_invalid_fraction(self):
        specs = (_spec("a"),)
        with pytest.raises(ValueError):
            select(specs, {"a": 0.5}, 0.0)
        with pytest.raises(ValueError):
            select(specs, {"a": 0.5}, 1.5)


def test_importances_to_plain_sorted_descending():
    plain = importances_to_plain({"x": 0.2, "y": 0.9, "z": 0.2})
    assert list(plain) == ["y", "x", "z"]


def test_gate_params_keep_probabilities():
    gates = GateParams(log_alpha={"a": 0.0, "b": 2.0}, tau=0.5, lambda_g=1e-3)
    probs = gates.keep_probabilities()
    assert probs["a"] == pytest.approx(0.5)
    assert probs["b"] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))
