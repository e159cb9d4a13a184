"""Incremental-update messages: emitter, wire format, applier, and their queues.

A delta frame is fully self-delimiting and checksummed:

  magic "ERDU" | format_version u32 | model_version u64 |
  sparse_count u32 | dense_count u32 |
  sparse records: tensor_index u16, row_id u64, dim u16, dim float32 |
  dense records:  tensor_index u16, length u32, length float32 |
  CRC32 (IEEE 0xEDB88320) over all prior bytes

All integers and floats are little-endian. Records carry current values,
not increments, so applying a frame twice equals applying it once, and a
consumer that drops frames with version <= current turns at-least-once
delivery into exactly-once state effects. Versions are contiguous: a
frame above current + 1 is refused with VersionGap, since the frames
between hold rows it does not. When a frame writes one row twice, the
later record wins.

This module owns the message: `emit_delta` builds one from the rows the
trainer touched, and `apply_delta` checks a whole message and then
writes it into the parameters in place. A server holds one copy of its
parameters and applies each message under the one lock its scoring
also takes (`serving.ServingModel.lock`). Both functions read a
tensor_index as a position in `ModelParams.tensors`. In memory a message
is columnar: a `SparseRun` is a stretch of consecutive sparse records of
one tensor and dim, held as a row array and a (k, dim) value array, and
a `DenseRun` is one dense record. Emit, encode, decode and apply work a
run at a time with numpy. The trainer tracks touched rows as global rows
of the emb and fo arenas (slot i's table row r is global row base[i] + r;
see `model.ArenaLayout`), and `emit_delta` gathers each arena's rows with
one fancy index and splits them into one run per table.

Two transports share one publish/consume interface: append-only file
(file://) and TCP (tcp://), both with u32 length-prefixed framing. A file
consumer replays its queue from the first frame, so any artifact plus the
replay is the trainer's state; TCP is live. A file publisher makes each
frame durable on one helper thread while its caller trains on: the
frame's fsync has returned by the time the next publish, or close,
returns, and before the next frame is written.
"""

from __future__ import annotations

import functools
import os
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import parse_host_port
from .errors import (
    ChecksumError,
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    IoError,
    NonFinite,
    UnknownSlot,
    UnknownTensor,
    VersionGap,
)
from .model import ModelParams, SparseGradient, is_sparse_tensor

DELTA_MAGIC = b"ERDU"
FORMAT_VERSION = 1
# Publishers refuse a longer frame; readers reject a longer prefix unread.
MAX_FRAME_BYTES = 1 << 28
# Records a decoder reads first while looking for a run's end; it doubles per look.
_RUN_PROBE = 128


class SparseRun(NamedTuple):
    """Consecutive sparse records of one tensor: row `rows[i]` takes `values[i]`.

    `rows` is an array of k non-negative integers (uint64 when decoded)
    and `values` a float32 array of shape (k, dim), k >= 1.
    """

    tensor_index: int
    rows: np.ndarray
    values: np.ndarray


class DenseRun(NamedTuple):
    """One dense record: every value of a tensor, flat, as float32."""

    tensor_index: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class DeltaMessage:
    """One period's parameter changes as runs of records, in frame order."""

    model_version: int
    sparse_runs: tuple[SparseRun, ...] = ()
    dense_runs: tuple[DenseRun, ...] = ()


@functools.cache
def _sparse_dtype(dim: int) -> np.dtype:
    """One sparse record of `dim` values as it lies on the wire, packed; a dim is a u16, so the cache stays small."""
    return np.dtype([("t", "<u2"), ("r", "<u8"), ("d", "<u2"), ("v", "<f4", (dim,))])


def encode_delta(msg: DeltaMessage) -> bytes:
    """The frame of msg. The sparse records of each dim are packed in one array, which the frame takes in run order."""
    runs = msg.sparse_runs
    parts = [DELTA_MAGIC, struct.pack("<IQII", FORMAT_VERSION, msg.model_version,
                                      sum(len(run.rows) for run in runs), len(msg.dense_runs))]
    pieces = {}
    for dim in {run.values.shape[1] for run in runs}:
        mine = [run for run in runs if run.values.shape[1] == dim]
        lengths = [len(run.rows) for run in mine]
        records = np.empty(sum(lengths), _sparse_dtype(dim))
        records["t"] = np.repeat([run.tensor_index for run in mine], lengths)
        records["r"] = np.concatenate([run.rows for run in mine])
        records["d"] = dim
        records["v"] = np.concatenate([run.values for run in mine])
        data, size, ends = memoryview(records.view(np.uint8)), records.itemsize, accumulate(lengths)
        pieces[dim] = iter([data[size * (end - k):size * end] for k, end in zip(lengths, ends)])
    parts += [next(pieces[run.values.shape[1]]) for run in runs]
    for run in msg.dense_runs:
        parts += (struct.pack("<HI", run.tensor_index, len(run.values)), run.values.astype("<f4").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _need(frame: bytes, end: int) -> None:
    if end > len(frame):
        raise FormatError("frame truncated")


def _sparse_run(frame: bytes, pos: int, left: int) -> tuple[SparseRun, int]:
    """The run at `pos` and where it ends: up to `left` whole records with the first one's tensor and dim.

    The run's end is looked for in windows from `pos` that double in size,
    so each run reads at most a fixed window or four times its own length,
    however many runs the frame has.
    """
    _need(frame, pos + 12)
    tensor_index, dim = struct.unpack_from("<H8xH", frame, pos)
    dtype = _sparse_dtype(dim)
    _need(frame, pos + dtype.itemsize)
    limit, size = min(left, (len(frame) - pos) // dtype.itemsize), _RUN_PROBE
    while True:
        window = np.frombuffer(frame, dtype, min(size, limit), pos)
        other = np.flatnonzero((window["t"] != tensor_index) | (window["d"] != dim))
        if len(other) or len(window) == limit:
            break
        size *= 2
    records = window[: other[0]] if len(other) else window
    return SparseRun(tensor_index, records["r"], records["v"]), pos + len(records) * dtype.itemsize


def decode_delta(frame: bytes) -> DeltaMessage:
    """Exact inverse of encode_delta on valid frames; runs are the longest stretches of one tensor and dim.

    Structural errors (bad magic, unknown format version, truncation,
    trailing bytes) raise FormatError; an intact structure with a wrong
    checksum raises ChecksumError. Never returns a partial message. The
    runs' arrays are read-only views of `frame`.
    """
    _need(frame, 4)
    if frame[:4] != DELTA_MAGIC:
        raise FormatError(f"bad magic {bytes(frame[:4])!r}")
    _need(frame, 24)
    fmt_version, model_version, sparse_count, dense_count = struct.unpack_from("<IQII", frame, 4)
    if fmt_version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {fmt_version}")
    pos, sparse = 24, []
    while sparse_count:
        run, pos = _sparse_run(frame, pos, sparse_count)
        sparse.append(run)
        sparse_count -= len(run.rows)
    dense = []
    for _ in range(dense_count):
        _need(frame, pos + 6)
        tensor_index, length = struct.unpack_from("<HI", frame, pos)
        _need(frame, pos + 6 + 4 * length)
        dense.append(DenseRun(tensor_index, np.frombuffer(frame, "<f4", length, pos + 6)))
        pos += 6 + 4 * length
    _need(frame, pos + 4)
    if pos + 4 != len(frame):
        raise FormatError("trailing bytes after checksum")
    (crc,) = struct.unpack_from("<I", frame, pos)
    if crc != zlib.crc32(memoryview(frame)[:pos]):
        raise ChecksumError("frame checksum mismatch")
    return DeltaMessage(model_version, tuple(sparse), tuple(dense))


def _check_finite(values: np.ndarray) -> None:
    """NonFinite with the record's sum if a record (a row; a dense run is one) holds a NaN or an infinity."""
    if np.isfinite(values).all():
        return
    records = np.atleast_2d(values)
    # One NaN or infinity makes the sum non-finite; float32 values cannot overflow it.
    raise NonFinite(sum(records[np.isfinite(records).all(axis=1).argmin()].tolist()))


def _last_writes(run: SparseRun) -> tuple[np.ndarray, np.ndarray]:
    """The run's rows and values with only the last record of each row kept.

    numpy does not say which value a fancy-index write keeps for a
    repeated index. emit_delta's rows ascend, which needs no dedup.
    """
    rows, values = run.rows, run.values
    if (rows[1:] > rows[:-1]).all():
        return rows, values
    _, last = np.unique(rows[::-1], return_index=True)
    keep = len(rows) - 1 - last
    return rows[keep], values[keep]


def apply_delta(params: ModelParams, msg: DeltaMessage) -> int | None:
    """Write msg into params in place; returns the new version, or None if params already holds it.

    A version above params' version + 1 raises VersionGap. Every run is
    checked against params, and every value for being finite, before
    anything is written, so a rejected message raises and leaves params as
    it was. The error is the one the first bad record would raise when
    checked one by one: non-finite values over all records first, then
    the sparse records in frame order, then the dense ones. model_version
    is set last. The caller keeps readers out while it writes.
    """
    if msg.model_version <= params.model_version:
        return None
    if msg.model_version > params.model_version + 1:
        raise VersionGap(f"frame version {msg.model_version} after held version {params.model_version}")
    for run in (*msg.sparse_runs, *msg.dense_runs):
        _check_finite(run.values)
    items = list(params.tensors.items())
    for run in msg.sparse_runs:
        if not (0 <= run.tensor_index < len(items) and is_sparse_tensor(items[run.tensor_index][0])):
            raise UnknownSlot(run.tensor_index)
        name, arr = items[run.tensor_index]
        out = np.flatnonzero(run.rows >= arr.shape[0])
        # Each record checks its row before its dim, and a run's records share one dim.
        if run.values.shape[1] != arr.shape[1] and not (len(out) and out[0] == 0):
            raise DimensionMismatch(
                f"record for {name!r} has dim {run.values.shape[1]}, table dim {arr.shape[1]}"
            )
        if len(out):
            raise IndexOutOfRange(int(run.rows[out[0]]), arr.shape[0])
    for run in msg.dense_runs:
        if not 0 <= run.tensor_index < len(items) or is_sparse_tensor(items[run.tensor_index][0]):
            raise UnknownTensor(run.tensor_index)
        name, arr = items[run.tensor_index]
        if len(run.values) != arr.size:
            raise DimensionMismatch(
                f"record for {name!r} has {len(run.values)} values, tensor has {arr.size}"
            )
    for run in msg.sparse_runs:
        rows, values = _last_writes(run)
        items[run.tensor_index][1][rows] = values
    for run in msg.dense_runs:
        arr = items[run.tensor_index][1]
        arr[...] = run.values.reshape(arr.shape)
    params.model_version = msg.model_version
    return msg.model_version


class DeltaAccumulator:
    """Rows of the emb and fo arenas touched since the last emission: one flag per global row."""

    def __init__(self, rows: int):
        self.touched = {"emb": np.zeros(rows, dtype=bool), "fo": np.zeros(rows, dtype=bool)}
        self.steps_since_emit = 0

    def add(self, grad: SparseGradient) -> None:
        self.touched["emb"][grad.emb.ids] = True
        self.touched["fo"][grad.fo.ids] = True
        self.steps_since_emit += 1


def emit_delta(acc: DeltaAccumulator, params: ModelParams) -> DeltaMessage:
    """Snapshot the touched rows' current values into a versioned message.

    The version increments first and the message carries the incremented
    value, so versions across a stream are strictly increasing even for
    empty periods. Values are the rows' current states, not gradients.
    There is one sparse run per touched table, in tensor order, rows
    ascending within it.
    """
    params.model_version += 1
    layout = params.layout
    sparse = []
    for arena, mask in acc.touched.items():
        rows = np.flatnonzero(mask)
        values = getattr(params, arena)[rows]
        sparse += [SparseRun(int(layout.table_index[arena][i]), rows[a:b] - layout.base[i], values[a:b])
                   for i, a, b in layout.split(rows)]
        mask[rows] = False
    sparse.sort(key=lambda run: run.tensor_index)
    dense: tuple[DenseRun, ...] = ()
    if acc.steps_since_emit > 0:
        flat = params.dense.copy()
        dense = tuple(DenseRun(i, flat[start:stop]) for i, start, stop in layout.dense_spans)
    acc.steps_since_emit = 0
    return DeltaMessage(params.model_version, tuple(sparse), dense)


# --- transports ---


def _length_prefixed(frame: bytes) -> bytes:
    if len(frame) > MAX_FRAME_BYTES:
        raise IoError(f"frame of {len(frame)} bytes exceeds MAX_FRAME_BYTES")
    return struct.pack("<I", len(frame)) + frame


class _FrameReader:
    """Splits u32 length-prefixed frames out of a transport's byte stream.

    Transports supply `_read(timeout)`, returning b"" if nothing arrived
    within `timeout` seconds (None: no limit), and `_drop()`, called on a
    prefix over MAX_FRAME_BYTES before the FormatError is raised.
    """

    def __init__(self):
        self._buffer = bytearray()

    def consume(self, timeout: float | None = None) -> bytes | None:
        """The next frame, or None if none is whole by the timeout; reads at least once."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if len(self._buffer) >= 4:
                (length,) = struct.unpack_from("<I", self._buffer)
                if length > MAX_FRAME_BYTES:
                    self._drop()
                    raise FormatError(f"frame length {length} exceeds MAX_FRAME_BYTES")
                if len(self._buffer) >= 4 + length:
                    frame = bytes(self._buffer[4 : 4 + length])
                    del self._buffer[: 4 + length]
                    return frame
            left = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            chunk = self._read(left)
            if not chunk and left == 0.0:
                return None
            self._buffer += chunk


class FilePublisher:
    """Appends length-prefixed frames to <base>.dq; each frame's fsync runs while the caller goes on.

    `publish` first waits for the previous frame's fsync, then writes and
    flushes the frame, which consumers can read from then on, and hands
    its fsync to one helper thread. So every frame is fsynced exactly
    once, in order, and frame k's fsync has returned before frame k+1 is
    written: a crash loses at most the last frame, whole or in part. A
    frame is known durable once the next `publish` or `close` returns.
    A failed write or flush raises IoError naming the file from its own
    `publish`, and a failed fsync from the next `publish`, which then
    writes nothing, or from `close`. After an error, only close it.
    """

    def __init__(self, base: str):
        self._path = base + ".dq"
        try:
            self._fh = open(self._path, "ab")
        except OSError as exc:
            raise IoError(f"cannot open queue file: {exc}") from exc
        # publish signals `_handed` once per frame and close once more with
        # nothing in flight, which stops the helper; the helper signals
        # `_synced` after each fsync.
        self._handed, self._synced = threading.Semaphore(0), threading.Semaphore(0)
        self._helper: threading.Thread | None = None
        self._in_flight = False
        self._sync_error: Exception | None = None

    def publish(self, frame: bytes) -> None:
        data = _length_prefixed(frame)
        self._wait()
        try:
            self._fh.write(data)
            self._fh.flush()
        except OSError as exc:
            raise IoError(f"cannot write queue file {self._path!r}: {exc}") from exc
        if self._helper is None:
            self._helper = threading.Thread(target=self._fsync_each, name=f"fsync {self._path}", daemon=True)
            self._helper.start()
        self._in_flight = True
        self._handed.release()

    def _fsync_each(self) -> None:
        """The helper's loop: one fsync per frame handed over, until close hands over none.

        os.fsync is looked up on every call, so a wrapper installed on it
        sees every frame's fsync.
        """
        while self._handed.acquire() and self._in_flight:
            try:
                os.fsync(self._fh.fileno())
            except Exception as exc:  # raised again in the publisher's thread
                self._sync_error = exc
            self._synced.release()

    def _wait(self) -> None:
        """Wait for the fsync in flight, if any, and raise its error."""
        if not self._in_flight:
            return
        self._synced.acquire()
        self._in_flight = False
        error, self._sync_error = self._sync_error, None
        if isinstance(error, OSError):
            raise IoError(f"cannot sync queue file {self._path!r}: {error}") from error
        if error is not None:
            raise error

    def close(self) -> None:
        """Wait for the last frame's fsync, then stop the helper and close the file, even if the wait raised."""
        try:
            self._wait()
        finally:
            if self._helper is not None:
                self._in_flight = False
                self._handed.release()
                self._helper.join()
                self._helper = None
            try:
                self._fh.close()
            except OSError as exc:
                raise IoError(f"cannot write queue file {self._path!r}: {exc}") from exc


class FileConsumer(_FrameReader):
    """Reads <base>.dq from its first frame on, polling for appended frames."""

    poll_seconds = 0.01

    def __init__(self, base: str):
        super().__init__()
        self._path = base + ".dq"
        self._fh = None

    def _read(self, timeout: float | None) -> bytes:
        try:
            if self._fh is None:
                self._fh = open(self._path, "rb", buffering=0)
            chunk = self._fh.read(1 << 20)
        except FileNotFoundError:
            chunk = b""
        except OSError as exc:
            raise IoError(f"cannot read queue file {self._path!r}: {exc}") from exc
        if not chunk:
            time.sleep(self.poll_seconds if timeout is None else min(timeout, self.poll_seconds))
        return chunk

    def _drop(self) -> None:
        """Keep the bad prefix: frames after it cannot be found, so every consume raises."""

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


class TcpConsumer(_FrameReader):
    """Listening end of a TCP queue: live frames from one publisher at a time.

    When a connection ends or sends a bad prefix, it is dropped with its
    partial frame, and the next publisher is accepted.
    """

    def __init__(self, host: str, port: int):
        super().__init__()
        self._listener = socket.create_server((host, port))
        self._conn: socket.socket | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def _read(self, timeout: float | None) -> bytes:
        try:
            if self._conn is None:
                self._listener.settimeout(timeout)
                self._conn, _ = self._listener.accept()
            self._conn.settimeout(timeout)
            chunk = self._conn.recv(65536)
        except (TimeoutError, BlockingIOError):
            return b""
        except ConnectionError:
            chunk = b""
        if not chunk:
            self._drop()
        return chunk

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._buffer.clear()

    def close(self) -> None:
        self._drop()
        self._listener.close()


class TcpPublisher:
    """Connecting end of a TCP queue; retries until the consumer listens."""

    connect_timeout = 10.0

    def __init__(self, host: str, port: int):
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=1.0)
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise IoError(f"cannot connect to tcp queue {host}:{port}: {exc}") from exc
                time.sleep(0.05)
        self._sock.settimeout(None)

    def publish(self, frame: bytes) -> None:
        try:
            self._sock.sendall(_length_prefixed(frame))
        except OSError as exc:
            raise IoError(f"tcp publish failed: {exc}") from exc

    def close(self) -> None:
        self._sock.close()


def _open(url: str, file, tcp):
    scheme, rest = url.split("://", 1) if "://" in url else ("file", url)
    if scheme == "file":
        return file(rest)
    if scheme == "tcp":
        return tcp(*parse_host_port(rest, "queue"))
    raise IoError(f"unknown queue scheme {scheme!r}")


def open_publisher(url: str):
    return _open(url, FilePublisher, TcpPublisher)


def open_consumer(url: str):
    return _open(url, FileConsumer, TcpConsumer)
