"""Lazy sparse Adam.

Sparse tensors (embedding and first-order tables) keep per-row moment
vectors and per-row step counts: a row's moments and bias-correction
exponent advance only when a batch touches it. Untouched rows stay
bit-identical across steps, which is what makes "parameters changed this
period" a well-defined small set for delta streaming. A step updates
each table's touched rows in one vectorized pass; every operation is
elementwise, so each row gets the bits a one-row update would give it.

Dense tensors (MLP weights, global bias) use ordinary Adam with a shared
step count, since every step touches all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Moments and step counts of every row of one table; untouched rows stay zero.

    The arrays come from np.zeros, whose pages the OS maps on first write,
    so memory grows with the rows touched, not with the vocabulary.
    """

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray


@dataclass
class AdamOptimizer:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        self._sparse: dict[str, _SparseState] = {}
        self._dense: dict[str, _DenseState] = {}
        # Row t: float32(1 - beta1**t), float32(1 - beta2**t), the powers in Python floats.
        self._corrections = np.zeros((1, 2), dtype=_F32)

    def _bias_corrections(self, steps: np.ndarray) -> np.ndarray:
        """The (len(steps), 2) bias corrections of both moments at each step count."""
        have, top = len(self._corrections), int(steps.max())
        if top >= have:
            more = [(1.0 - self.beta1**t, 1.0 - self.beta2**t) for t in range(have, top + 1)]
            self._corrections = np.concatenate([self._corrections, np.array(more, dtype=_F32)])
        return self._corrections[steps]

    def _sparse_update(self, name: str, table: np.ndarray, ids: np.ndarray, grad: np.ndarray) -> None:
        """One Adam step on the rows `ids` of `table`, each with its own step count."""
        state = self._sparse.get(name)
        if state is None:
            state = _SparseState(
                m=np.zeros(table.shape, dtype=_F32),
                v=np.zeros(table.shape, dtype=_F32),
                step=np.zeros(table.shape[0], dtype=np.int64),
            )
            self._sparse[name] = state
        b1, b2 = _F32(self.beta1), _F32(self.beta2)
        t = state.step[ids] + 1
        m = b1 * state.m[ids] + (_F32(1.0) - b1) * grad
        v = b2 * state.v[ids] + (_F32(1.0) - b2) * (grad * grad)
        state.m[ids] = m
        state.v[ids] = v
        state.step[ids] = t
        correction = self._bias_corrections(t)
        m_hat = m / correction[:, 0:1]
        v_hat = v / correction[:, 1:2]
        table[ids] -= _F32(self.learning_rate) * m_hat / (np.sqrt(v_hat) + _F32(self.epsilon))

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
            for slot, rows in rows_by_slot.items():
                name = f"{prefix}:{slot}"
                table = params.tensors[name]
                self._sparse_update(name, table, rows.ids, rows.values.reshape(len(rows), *table.shape[1:]))
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
