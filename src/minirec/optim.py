"""Lazy sparse Adam.

Sparse tensors (embedding and first-order tables) keep per-row moment
vectors and per-row step counts: a row's moments and bias-correction
exponent advance only when a batch touches it. Untouched rows stay
bit-identical across steps, which is what makes "parameters changed this
period" a well-defined small set for delta streaming.

Dense tensors (MLP weights, global bias) use ordinary Adam with a shared
step count, since every step touches all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, SparseGradient

_F32 = np.float32


@dataclass
class _DenseState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


@dataclass
class _SparseState:
    m: dict[int, np.ndarray] = field(default_factory=dict)
    v: dict[int, np.ndarray] = field(default_factory=dict)
    step: dict[int, int] = field(default_factory=dict)


@dataclass
class AdamOptimizer:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        self._sparse: dict[str, _SparseState] = {}
        self._dense: dict[str, _DenseState] = {}

    def _sparse_row_update(self, state: _SparseState, row: np.ndarray, grad: np.ndarray, row_id: int) -> None:
        b1, b2 = _F32(self.beta1), _F32(self.beta2)
        m = state.m.get(row_id)
        if m is None:
            m = np.zeros_like(row)
            v = np.zeros_like(row)
        else:
            v = state.v[row_id]
        t = state.step.get(row_id, 0) + 1
        m = b1 * m + (_F32(1.0) - b1) * grad
        v = b2 * v + (_F32(1.0) - b2) * (grad * grad)
        state.m[row_id] = m
        state.v[row_id] = v
        state.step[row_id] = t
        m_hat = m / _F32(1.0 - self.beta1**t)
        v_hat = v / _F32(1.0 - self.beta2**t)
        row -= _F32(self.learning_rate) * m_hat / (np.sqrt(v_hat) + _F32(self.epsilon))

    def _dense_update(self, name: str, value: np.ndarray, grad: np.ndarray) -> None:
        state = self._dense.get(name)
        if state is None:
            state = _DenseState(m=np.zeros_like(value), v=np.zeros_like(value))
            self._dense[name] = state
        b1, b2 = _F32(self.beta1), _F32(self.beta2)
        state.step += 1
        state.m = b1 * state.m + (_F32(1.0) - b1) * grad
        state.v = b2 * state.v + (_F32(1.0) - b2) * (grad * grad)
        m_hat = state.m / _F32(1.0 - self.beta1**state.step)
        v_hat = state.v / _F32(1.0 - self.beta2**state.step)
        value -= _F32(self.learning_rate) * m_hat / (np.sqrt(v_hat) + _F32(self.epsilon))

    def apply(self, params: ModelParams, grad: SparseGradient) -> None:
        """Update params in place. Rows absent from grad are not read."""
        for prefix, rows_by_slot in (("emb", grad.emb_rows), ("fo", grad.fo_rows)):
            for slot in sorted(rows_by_slot):
                name = f"{prefix}:{slot}"
                table = params.tensors[name]
                state = self._sparse.setdefault(name, _SparseState())
                rows = rows_by_slot[slot]
                for row_id in sorted(rows):
                    # A first-order gradient is a scalar; its row is a length-1 view.
                    g = np.asarray(rows[row_id], dtype=_F32).reshape(table.shape[1:])
                    self._sparse_row_update(state, table[row_id], g, row_id)
        for name, g in grad.dense.items():
            self._dense_update(name, params.tensors[name], g)


@dataclass
class ScalarAdam:
    """Adam over a flat float64 vector; used by the gate optimizer."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._step = 0

    def apply(self, values: np.ndarray, grads: np.ndarray) -> None:
        if self._m is None:
            self._m = np.zeros_like(values)
            self._v = np.zeros_like(values)
        self._step += 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * (grads * grads)
        m_hat = self._m / (1.0 - self.beta1**self._step)
        v_hat = self._v / (1.0 - self.beta2**self._step)
        values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
