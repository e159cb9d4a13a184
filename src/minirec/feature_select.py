"""Variational-dropout feature importance and pruning.

Each feature slot gets a stochastic gate z in (0,1) multiplying both its
pooled embedding and its first-order contribution. Gates use the logistic
concrete relaxation: z = sigmoid((log_alpha + ln u - ln(1-u)) / tau) for
uniform noise u, making the expected gate differentiable in log_alpha.

Optimization alternates: even steps update model weights on a train batch
(gates sampled, gate parameters frozen); odd steps update gate parameters
on a validation batch (weights frozen), minimizing the validation logloss
plus lambda_g * sum_i sigmoid(log_alpha_i). Optimizing gates against
held-out data is what lets an uninformative slot's keep probability fall:
it contributes nothing to generalization, so only the penalty acts on it.

A slot's importance is its keep probability p_i = sigmoid(log_alpha_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import InvalidValue
from .features import FeatureSpec
from .model import ModelParams, backward, forward, init_params
from .optim import AdamOptimizer, ScalarAdam
from .trainer import load_dataset, train_step

DEFAULT_TAU = 0.5
DEFAULT_LAMBDA_G = 1e-3
DEFAULT_GATE_LR = 0.05

_U_CLIP = 1e-12


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def gate_value(log_alpha: float, u: float, tau: float) -> float:
    """Concrete-relaxation gate; d z / d log_alpha = z (1 - z) / tau."""
    return _sigmoid((log_alpha + math.log(u) - math.log(1.0 - u)) / tau)


@dataclass
class GateParams:
    log_alpha: dict[str, float]
    tau: float = DEFAULT_TAU
    lambda_g: float = DEFAULT_LAMBDA_G

    def keep_probabilities(self) -> dict[str, float]:
        return {name: _sigmoid(a) for name, a in self.log_alpha.items()}


@dataclass
class GateTrainResult:
    importances: dict[str, float]
    params: ModelParams
    gates: GateParams
    steps: int = 0


def _sample_gates(
    gates: GateParams, slot_names: tuple[str, ...], rng: np.random.Generator, count: int
) -> dict[str, np.ndarray]:
    """Gate draws for `count` samples, per slot; drawn sample by sample in slot order."""
    draws = np.zeros((count, len(slot_names)))
    for row in draws:
        for i, name in enumerate(slot_names):
            u = min(max(rng.random(), _U_CLIP), 1.0 - _U_CLIP)
            row[i] = gate_value(gates.log_alpha[name], u, gates.tau)
    return {name: draws[:, i] for i, name in enumerate(slot_names)}


def train_with_gates(
    cfg: PipelineConfig,
    train_path: str | None = None,
    valid_path: str | None = None,
    tau: float = DEFAULT_TAU,
    lambda_g: float = DEFAULT_LAMBDA_G,
    gate_learning_rate: float = DEFAULT_GATE_LR,
) -> GateTrainResult:
    """Alternating weight/gate optimization; returns per-slot importances.

    Validation batches cycle independently of train batches; both draw
    fresh gate noise per sample from the [seed, 2] stream. Raises
    InvalidValue unless tau and gate_learning_rate are finite and > 0 and
    lambda_g is finite and >= 0.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise InvalidValue("tau", "must be finite and > 0")
    if not (math.isfinite(gate_learning_rate) and gate_learning_rate > 0):
        raise InvalidValue("gate_learning_rate", "must be finite and > 0")
    if not (math.isfinite(lambda_g) and lambda_g >= 0):
        raise InvalidValue("lambda_g", "must be finite and >= 0")
    t = cfg.train_config
    train_path = train_path if train_path is not None else cfg.data_config.train_path
    valid_path = valid_path if valid_path is not None else cfg.data_config.eval_path

    init_rng = np.random.default_rng([t.seed, 0])
    shuffle_rng = np.random.default_rng([t.seed, 1])
    noise_rng = np.random.default_rng([t.seed, 2])

    params = init_params(cfg, init_rng)
    slot_names = params.slot_names
    gates = GateParams(log_alpha={name: 0.0 for name in slot_names}, tau=tau, lambda_g=lambda_g)
    weight_opt = AdamOptimizer(t.learning_rate, t.adam_beta1, t.adam_beta2, t.adam_epsilon)
    gate_opt = ScalarAdam(gate_learning_rate)

    train_data, train_labels = load_dataset(cfg, train_path)
    valid_data, valid_labels = load_dataset(cfg, valid_path)
    reg = cfg.model_config.embedding_regularization

    valid_order: list[int] = []
    valid_pos = 0
    steps = 0
    for _ in range(t.num_epochs):
        order = shuffle_rng.permutation(len(train_labels))
        shuffled, shuffled_labels, rows = train_data.take(order), train_labels[order], order + 1
        for start in range(0, len(order), t.batch_size):
            stop = min(start + t.batch_size, len(order))
            draws = _sample_gates(gates, slot_names, noise_rng, stop - start)
            step = shuffled.slice(start, stop)
            train_step(params, weight_opt, step, shuffled_labels[start:stop], rows[start:stop], reg, draws)
            steps += 1

            picked = []
            for _ in range(min(t.batch_size, len(valid_labels))):
                if valid_pos >= len(valid_order):
                    valid_order = list(shuffle_rng.permutation(len(valid_labels)))
                    valid_pos = 0
                picked.append(valid_order[valid_pos])
                valid_pos += 1
            z = _sample_gates(gates, slot_names, noise_rng, len(picked))
            trace = forward(params, valid_data.take(np.array(picked)), slot_scale=z)
            grad = backward(trace, valid_labels[picked], 0.0)
            gate_grad = np.zeros(len(slot_names))
            for i, name in enumerate(slot_names):
                for g, zi in zip(grad.slot_scale[name].tolist(), z[name].tolist()):
                    gate_grad[i] += g * zi * (1.0 - zi) / gates.tau
            gate_grad /= len(picked)
            for i, name in enumerate(slot_names):
                p = _sigmoid(gates.log_alpha[name])
                gate_grad[i] += lambda_g * p * (1.0 - p)
            alphas = np.array([gates.log_alpha[name] for name in slot_names])
            gate_opt.apply(alphas, gate_grad)
            gates.log_alpha = {name: float(alphas[i]) for i, name in enumerate(slot_names)}
            steps += 1

    return GateTrainResult(
        importances=gates.keep_probabilities(), params=params, gates=gates, steps=steps
    )


def select(
    specs: tuple[FeatureSpec, ...], importances: dict[str, float], keep_fraction: float
) -> tuple[FeatureSpec, ...]:
    """Keep the ceil(keep_fraction * n) highest-importance slots.

    Ties break toward the lexicographically smaller name. The returned
    specs preserve their original order, so the pruned list drops into a
    config unchanged.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    names = [s.name for s in specs]
    ranked = sorted(names, key=lambda n: (-importances[n], n))
    keep = set(ranked[: math.ceil(keep_fraction * len(names))])
    return tuple(s for s in specs if s.name in keep)


def importances_to_plain(importances: dict[str, float]) -> dict[str, float]:
    """Importance map ordered by descending p, then name."""
    ordered = sorted(importances.items(), key=lambda kv: (-kv[1], kv[0]))
    return dict(ordered)
