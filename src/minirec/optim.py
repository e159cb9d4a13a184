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

The row state holds only the rows a run touches, one compact slot per
row, found through a slot map of 4 bytes per arena row. Hashed ids
scatter the touched rows over the arena: one train_publish benchmark
epoch touches 1,540 of its 76,507 rows, about 120 KB of moments and
step counts, but they lie on 582 of the 673 pages of a moment array
with a row for every arena row and on all 150 pages of such a step
array. Arrays of that shape, even with the OS mapping their pages only
on first write, took about 1,310 page faults and 5.2 MB of resident
memory per run. With the compact slots, a repeated `trainer.train` of
that job took no minor page fault inside `apply` (counted with
`ru_minflt` on a 2-vCPU VM).

The dense vector (MLP weights, global bias) is updated as a one-row table
that every step touches, so its step count is shared by all its values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import ModelParams, SparseGradient

_F32 = np.float32


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """`a` followed by zero rows, `rows` rows in all."""
    out = np.zeros((rows, *a.shape[1:]), dtype=a.dtype)
    out[: len(a)] = a
    return out


@dataclass
class _RowState:
    """Moments and a step count in one compact slot per touched row.

    `slot[row]` is -1 until a step first touches the row, which then gets
    the next free slot of `m`, `v` and `step`: slots are handed out in
    first-touch order, and the arrays at least double when they fill, so a
    run reallocates them O(log rows) times. A row without a slot has zero
    moments and step count. The map costs 4 bytes per row, written once:
    for the train_publish benchmark's epoch, a 306 KB map and 2,128 slots
    (170 KB) for its 1,540 touched rows.
    """

    slot: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    used: int = 0

    @classmethod
    def empty(cls, rows: int, width: int) -> _RowState:
        return cls(np.full(rows, -1, dtype=np.int32), np.zeros((0, width), dtype=_F32),
                   np.zeros((0, width), dtype=_F32), np.zeros(0, dtype=np.int64))

    def slots(self, rows: np.ndarray) -> np.ndarray:
        """The slots of the distinct `rows`, handing the next free ones to rows that have none."""
        slots = self.slot[rows]
        fresh = slots < 0
        if fresh.any():
            new = np.arange(self.used, self.used + int(fresh.sum()), dtype=np.int32)
            self.used += len(new)
            if self.used > len(self.step):
                size = max(self.used, 2 * len(self.step))
                self.m, self.v, self.step = (_grown(a, size) for a in (self.m, self.v, self.step))
            self.slot[rows[fresh]] = new
            slots[fresh] = new
        return slots


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

    def _row_update(self, state: _RowState, slots: np.ndarray | slice, cols: slice, grad: np.ndarray) -> np.ndarray:
        """One Adam step on the columns `cols` of the slots `slots` of `state`; the amounts to subtract."""
        b1, b2 = _F32(self.beta1), _F32(self.beta2)
        t = state.step[slots] + 1
        m = b1 * state.m[slots, cols] + (_F32(1.0) - b1) * grad
        v = b2 * state.v[slots, cols] + (_F32(1.0) - b2) * (grad * grad)
        state.m[slots, cols] = m
        state.v[slots, cols] = v
        state.step[slots] = t
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
                self._sparse = _RowState.empty(len(params.fo), width)
            slots = self._sparse.slots(fo.ids)
            if len(emb):
                step = self._row_update(self._sparse, slots, slice(None),
                                        np.concatenate([emb.values, fo.values], axis=1))
                params.emb[fo.ids] -= step[:, :-1]
            else:
                step = self._row_update(self._sparse, slots, slice(-1, None), fo.values)
            params.fo[fo.ids] -= step[:, -1:]
        if self._dense is None:
            self._dense = _RowState.empty(1, len(params.dense))
            self._dense.slots(np.zeros(1, dtype=np.intp))
        # The dense vector as the one slot of its state, which the update writes through.
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
