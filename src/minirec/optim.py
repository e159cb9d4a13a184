"""Lazy sparse Adam.

Sparse tensors (embedding and first-order tables) keep per-row moment
vectors and per-row step counts: a row's moments and bias-correction
exponent advance only when a batch touches it. Untouched rows stay
bit-identical across steps, which is what makes "parameters changed this
period" a well-defined small set for delta streaming. A step updates
each table's touched rows in one vectorized pass; every operation is
elementwise, so each row gets the bits a one-row update would give it.

A dense tensor (MLP weights, global bias) is updated as a one-row table
that every step touches, so its step count is shared by all its values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, SparseGradient

_F32 = np.float32


# The row id of a dense tensor viewed as a one-row table.
_ROW0 = np.zeros(1, dtype=np.int64)


@dataclass
class _RowState:
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
        self._state: dict[str, _RowState] = {}
        # Row t: float32(1 - beta1**t), float32(1 - beta2**t), the powers in Python floats.
        self._corrections = np.zeros((1, 2), dtype=_F32)

    def _bias_corrections(self, steps: np.ndarray) -> np.ndarray:
        """The (len(steps), 2) bias corrections of both moments at each step count."""
        have, top = len(self._corrections), int(steps.max())
        if top >= have:
            more = [(1.0 - self.beta1**t, 1.0 - self.beta2**t) for t in range(have, top + 1)]
            self._corrections = np.concatenate([self._corrections, np.array(more, dtype=_F32)])
        return self._corrections[steps]

    def _row_update(self, name: str, table: np.ndarray, ids: np.ndarray, grad: np.ndarray) -> None:
        """One Adam step on the rows `ids` of `table`, each with its own step count."""
        state = self._state.get(name)
        if state is None:
            state = _RowState(
                m=np.zeros(table.shape, dtype=_F32),
                v=np.zeros(table.shape, dtype=_F32),
                step=np.zeros(table.shape[0], dtype=np.int64),
            )
            self._state[name] = state
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

    def apply(self, params: ModelParams, grad: SparseGradient) -> None:
        """Update params in place. Rows absent from grad are not read."""
        for prefix, rows_by_slot in (("emb", grad.emb_rows), ("fo", grad.fo_rows)):
            for slot, rows in rows_by_slot.items():
                name = f"{prefix}:{slot}"
                table = params.tensors[name]
                self._row_update(name, table, rows.ids, rows.values.reshape(len(rows), *table.shape[1:]))
        # Tensors are C-contiguous, so reshape gives a view the update writes through.
        for name, g in grad.dense.items():
            self._row_update(name, params.tensors[name].reshape(1, -1), _ROW0, g.reshape(1, -1))


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
