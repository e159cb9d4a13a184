"""Lazy sparse Adam over the parameter arenas.

The emb and fo arenas (every slot's embedding and first-order tables,
slot i's from global row `base[i]`; see `model.ArenaLayout`) keep
per-row moment vectors and per-row step counts: a row's moments and
bias-correction exponent advance only when a batch touches it. Untouched
rows stay bit-identical across steps, which is what makes "parameters
changed this period" a well-defined small set for delta streaming.

A sample that reads a row reads both its embedding and its first-order
weight, so `backward` gives the two arenas the same rows. They share one
row state: a global row's emb and fo moments side by side, D + 1 values
(1 for logreg, which never reads the embeddings), and one step count. A
step updates the touched rows in one vectorized pass with one
bias-correction gather; every operation is elementwise, so each value
gets the bits a one-row update of its own table would give it.

The dense vector (MLP weights, global bias) is updated as a one-row table
that every step touches, so its step count is shared by all its values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import ModelParams, SparseGradient

_F32 = np.float32


@dataclass
class _RowState:
    """Moments and step counts, one row per parameter row; untouched rows stay zero.

    The arrays come from np.zeros, whose pages the OS maps on first write,
    so memory grows with the rows touched, not with the vocabulary.
    """

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray

    @classmethod
    def zeros(cls, rows: int, width: int) -> _RowState:
        return cls(np.zeros((rows, width), dtype=_F32), np.zeros((rows, width), dtype=_F32),
                   np.zeros(rows, dtype=np.int64))


@dataclass
class AdamOptimizer:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        # The emb and fo arenas' shared row state, and the dense vector's, made at first use.
        self._sparse: _RowState | None = None
        self._dense: _RowState | None = None
        # Row t: float32(1 - beta1**t), float32(1 - beta2**t), the powers in Python floats.
        self._corrections = np.zeros((1, 2), dtype=_F32)

    def _bias_corrections(self, steps: np.ndarray) -> np.ndarray:
        """The (len(steps), 2) bias corrections of both moments at each step count.

        The table at least doubles when a step count passes its end, so a
        run copies it O(log steps) times, not once per step.
        """
        have, top = len(self._corrections), int(steps.max())
        if top >= have:
            more = [(1.0 - self.beta1**t, 1.0 - self.beta2**t) for t in range(have, max(top + 1, 2 * have))]
            self._corrections = np.concatenate([self._corrections, np.array(more, dtype=_F32)])
        return self._corrections[steps]

    def _row_update(self, state: _RowState, ids: np.ndarray | slice, cols: slice, grad: np.ndarray) -> np.ndarray:
        """One Adam step on the columns `cols` of the rows `ids` of `state`; the amounts to subtract."""
        b1, b2 = _F32(self.beta1), _F32(self.beta2)
        t = state.step[ids] + 1
        m = b1 * state.m[ids, cols] + (_F32(1.0) - b1) * grad
        v = b2 * state.v[ids, cols] + (_F32(1.0) - b2) * (grad * grad)
        state.m[ids, cols] = m
        state.v[ids, cols] = v
        state.step[ids] = t
        correction = self._bias_corrections(t)
        m_hat = m / correction[:, 0:1]
        v_hat = v / correction[:, 1:2]
        return _F32(self.learning_rate) * m_hat / (np.sqrt(v_hat) + _F32(self.epsilon))

    def apply(self, params: ModelParams, grad: SparseGradient) -> None:
        """Update params in place: the touched emb and fo rows in one update, then the dense vector.

        grad's emb rows must be its fo rows for deepfm, and none for logreg:
        a row's emb and fo values share one step count. Rows absent from
        grad are not read.
        """
        emb, fo = grad.emb, grad.fo
        rows = fo.ids if params.model_type == "deepfm" else fo.ids[:0]
        if not (emb.ids is rows or np.array_equal(emb.ids, rows)):
            raise DimensionMismatch("the emb gradient does not cover the fo gradient's rows")
        if len(fo):
            if self._sparse is None:
                width = params.embedding_dim + 1 if params.model_type == "deepfm" else 1
                self._sparse = _RowState.zeros(len(params.fo), width)
            if len(emb):
                step = self._row_update(self._sparse, fo.ids, slice(None),
                                        np.concatenate([emb.values, fo.values], axis=1))
                params.emb[fo.ids] -= step[:, :-1]
            else:
                step = self._row_update(self._sparse, fo.ids, slice(-1, None), fo.values)
            params.fo[fo.ids] -= step[:, -1:]
        if self._dense is None:
            self._dense = _RowState.zeros(1, len(params.dense))
        # The dense vector as one row, which the update writes through.
        params.dense[None] -= self._row_update(self._dense, slice(None), slice(None), grad.dense[None])


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
