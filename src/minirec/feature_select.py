"""Variational-dropout feature importance and pruning.

Each feature slot gets a stochastic gate z in (0,1) multiplying both its
pooled embedding and its first-order contribution. Gates use the logistic
concrete relaxation: z = sigmoid((log_alpha + ln u - ln(1-u)) / tau) for
uniform noise u, making the expected gate differentiable in log_alpha.

Optimization alternates: even steps, the trainer's loop, update model
weights on a train batch (gates sampled, gate parameters frozen); odd
steps update gate parameters on a validation batch (weights frozen),
minimizing the validation logloss plus lambda_g * sum_i
sigmoid(log_alpha_i). Optimizing gates against held-out data is what
lets an uninformative slot's keep probability fall: it contributes
nothing to generalization, so only the penalty acts on it.

A slot's importance is its keep probability p_i = sigmoid(log_alpha_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import InvalidValue
from .features import FeatureSpec
from .model import ModelParams, backward, forward
from .optim import ScalarAdam
from .trainer import fit, load_dataset, require_rows

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


class _GateStep:
    """The gate half of each step of the trainer's loop, with the weights frozen.

    Validation batches cycle independently of train batches, and both
    draw fresh gate noise per sample from the [seed, 2] stream.
    """

    def __init__(self, cfg: PipelineConfig, valid, tau: float, lambda_g: float, learning_rate: float):
        self.names = tuple(spec.name for spec in cfg.feature_config)
        self.log_alpha = np.zeros(len(self.names))
        self.tau, self.lambda_g = tau, lambda_g
        self.valid, self.valid_labels = valid
        self.count = min(cfg.train_config.batch_size, len(self.valid_labels))
        self.order, self.pos = np.zeros(0, dtype=np.int64), 0
        self.noise = np.random.default_rng([cfg.train_config.seed, 2])
        self.optimizer = ScalarAdam(learning_rate)

    def scales(self, count: int) -> np.ndarray:
        """The (S, count) gates of each slot in each sample, from one noise draw read sample by sample in slot order."""
        u = np.clip(self.noise.random((count, len(self.names))), _U_CLIP, 1.0 - _U_CLIP)
        alphas, tau = self.log_alpha.tolist(), self.tau
        return np.array([[gate_value(a, x, tau) for a, x in zip(alphas, row)] for row in u.tolist()]).T

    def step(self, params: ModelParams, shuffle_rng: np.random.Generator) -> None:
        """One ScalarAdam step on a validation batch's logloss plus lambda_g * sum_i p_i."""
        # The next `count` rows of the validation order; the next order is
        # drawn from the epoch shuffle stream only when a row of it is needed.
        picked = self.order[self.pos : self.pos + self.count]
        self.pos += len(picked)
        if len(picked) < self.count:
            self.order, self.pos = shuffle_rng.permutation(len(self.valid_labels)), self.count - len(picked)
            picked = np.concatenate([picked, self.order[: self.pos]])
        z = self.scales(len(picked))
        trace = forward(params, self.valid.take(picked), slot_scale=z)
        g = backward(trace, self.valid_labels[picked], 0.0).slot_scale
        # Each slot's terms summed in sample order as a left fold from zero:
        # cumsum adds in order, and adding 0.0 turns a -0.0 total into +0.0.
        terms = g.astype(np.float64) * z * (1.0 - z) / self.tau
        gate_grad = (np.cumsum(terms, axis=1)[:, -1] + 0.0) / len(picked)
        p = np.array(list(map(_sigmoid, self.log_alpha.tolist())))
        self.optimizer.apply(self.log_alpha, gate_grad + self.lambda_g * p * (1.0 - p))


def train_with_gates(
    cfg: PipelineConfig,
    train_path: str | None = None,
    valid_path: str | None = None,
    tau: float = DEFAULT_TAU,
    lambda_g: float = DEFAULT_LAMBDA_G,
    gate_learning_rate: float = DEFAULT_GATE_LR,
) -> GateTrainResult:
    """Alternating weight/gate optimization; returns per-slot importances.

    The weight steps run on the trainer's loop, each followed by one gate
    step. Raises InvalidValue unless tau and gate_learning_rate are finite
    and > 0 and lambda_g is finite and >= 0, and DataError when the
    training or the validation file has no data rows.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise InvalidValue("tau", "must be finite and > 0")
    if not (math.isfinite(gate_learning_rate) and gate_learning_rate > 0):
        raise InvalidValue("gate_learning_rate", "must be finite and > 0")
    if not (math.isfinite(lambda_g) and lambda_g >= 0):
        raise InvalidValue("lambda_g", "must be finite and >= 0")
    train_path = cfg.data_config.train_path if train_path is None else train_path
    valid_path = cfg.data_config.eval_path if valid_path is None else valid_path
    data = require_rows("training", train_path, load_dataset(cfg, train_path))
    valid = require_rows("validation", valid_path, load_dataset(cfg, valid_path))
    gate_step = _GateStep(cfg, valid, tau, lambda_g, gate_learning_rate)
    artifact, report = fit(cfg, data, gates=gate_step)
    gates = GateParams(dict(zip(gate_step.names, gate_step.log_alpha.tolist())), tau, lambda_g)
    # one weight step and one gate step per train batch
    return GateTrainResult(gates.keep_probabilities(), artifact.params, gates, steps=2 * report.steps)


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
