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
between hold rows it does not.

This module owns the message: `emit_delta` builds one from the rows the
trainer touched, and `apply_delta` turns a snapshot plus a message into
the next snapshot. Both read a record's tensor_index as a position in
`ModelParams.tensors`. The trainer tracks touched rows as global rows of
the emb and fo arenas (slot i's table row r is global row base[i] + r;
see `model.ArenaLayout`); `emit_delta` gathers each arena's rows with one
fancy index and maps them back to (tensor_index, row) records.

Two transports share one publish/consume interface: append-only file
(file://) and TCP (tcp://), both with u32 length-prefixed framing. A file
consumer replays its queue from the first frame, so any artifact plus the
replay is the trainer's state; TCP is live.
"""

from __future__ import annotations

import math
import os
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field
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
from .model import ModelParams, SparseGradient, copy_params, is_sparse_tensor

DELTA_MAGIC = b"ERDU"
FORMAT_VERSION = 1
# Publishers refuse a longer frame; readers reject a longer prefix unread.
MAX_FRAME_BYTES = 1 << 28


class SparseRecord(NamedTuple):
    tensor_index: int
    row_id: int
    values: tuple[float, ...]


class DenseRecord(NamedTuple):
    tensor_index: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class DeltaMessage:
    """One period's parameter changes. Values must be float32-exact."""

    model_version: int
    sparse: tuple[SparseRecord, ...] = ()
    dense: tuple[DenseRecord, ...] = ()


def encode_delta(msg: DeltaMessage) -> bytes:
    buf = bytearray(DELTA_MAGIC)
    buf += struct.pack("<IQII", FORMAT_VERSION, msg.model_version, len(msg.sparse), len(msg.dense))
    for rec in msg.sparse:
        buf += struct.pack("<HQH", rec.tensor_index, rec.row_id, len(rec.values))
        buf += struct.pack(f"<{len(rec.values)}f", *rec.values)
    for rec in msg.dense:
        buf += struct.pack("<HI", rec.tensor_index, len(rec.values))
        buf += struct.pack(f"<{len(rec.values)}f", *rec.values)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


class _Reader:
    def __init__(self, frame: bytes):
        self.frame = frame
        self.pos = 0

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.frame):
            raise FormatError("frame truncated")
        out = struct.unpack_from(fmt, self.frame, self.pos)
        self.pos += size
        return out


def decode_delta(frame: bytes) -> DeltaMessage:
    """Exact inverse of encode_delta on valid frames.

    Structural errors (bad magic, unknown format version, truncation,
    trailing bytes) raise FormatError; an intact structure with a wrong
    checksum raises ChecksumError. Never returns a partial message.
    """
    r = _Reader(frame)
    (magic,) = r.take("<4s")
    if magic != DELTA_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    fmt_version, model_version, sparse_count, dense_count = r.take("<IQII")
    if fmt_version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {fmt_version}")
    sparse = []
    for _ in range(sparse_count):
        tensor_index, row_id, dim = r.take("<HQH")
        values = r.take(f"<{dim}f")
        sparse.append(SparseRecord(tensor_index, row_id, values))
    dense = []
    for _ in range(dense_count):
        tensor_index, length = r.take("<HI")
        values = r.take(f"<{length}f")
        dense.append(DenseRecord(tensor_index, values))
    (crc,) = r.take("<I")
    if r.pos != len(frame):
        raise FormatError("trailing bytes after checksum")
    if crc != zlib.crc32(frame[: len(frame) - 4]):
        raise ChecksumError("frame checksum mismatch")
    return DeltaMessage(model_version=model_version, sparse=tuple(sparse), dense=tuple(dense))


def apply_delta(params: ModelParams, msg: DeltaMessage) -> ModelParams | None:
    """The snapshot after msg, or None if params already holds its version.

    A version above params' version + 1 raises VersionGap. Every record is
    checked against params, and every value for being finite, before
    anything is copied, so a rejected message raises and leaves params as
    it was. The result shares every untouched arena with params and holds
    fresh copies of the touched ones; its model_version is set last.
    """
    if msg.model_version <= params.model_version:
        return None
    if msg.model_version > params.model_version + 1:
        raise VersionGap(f"frame version {msg.model_version} after held version {params.model_version}")
    for rec in (*msg.sparse, *msg.dense):
        # One NaN or infinity makes the sum non-finite; float32 values cannot overflow it.
        total = sum(rec.values)
        if not math.isfinite(total):
            raise NonFinite(total)
    items = list(params.tensors.items())
    for rec in msg.sparse:
        if not (0 <= rec.tensor_index < len(items) and is_sparse_tensor(items[rec.tensor_index][0])):
            raise UnknownSlot(rec.tensor_index)
        name, arr = items[rec.tensor_index]
        if not 0 <= rec.row_id < arr.shape[0]:
            raise IndexOutOfRange(rec.row_id, arr.shape[0])
        if len(rec.values) != arr.shape[1]:
            raise DimensionMismatch(
                f"record for {name!r} has dim {len(rec.values)}, table dim {arr.shape[1]}"
            )
    for rec in msg.dense:
        if not 0 <= rec.tensor_index < len(items) or is_sparse_tensor(items[rec.tensor_index][0]):
            raise UnknownTensor(rec.tensor_index)
        name, arr = items[rec.tensor_index]
        if len(rec.values) != arr.size:
            raise DimensionMismatch(
                f"record for {name!r} has {len(rec.values)} values, tensor has {arr.size}"
            )
    spans = params.layout.spans
    fresh = copy_params(params, {spans[items[rec.tensor_index][0]][0] for rec in (*msg.sparse, *msg.dense)})
    arrays = list(fresh.tensors.values())
    for rec in msg.sparse:
        arrays[rec.tensor_index][rec.row_id] = np.asarray(rec.values, dtype=np.float32)
    for rec in msg.dense:
        arr = arrays[rec.tensor_index]
        arr[...] = np.asarray(rec.values, dtype=np.float32).reshape(arr.shape)
    fresh.model_version = msg.model_version
    return fresh


@dataclass
class DeltaAccumulator:
    """Global rows of the emb and fo arenas touched since the last emission."""

    touched: dict[str, set[int]] = field(default_factory=lambda: {"emb": set(), "fo": set()})
    steps_since_emit: int = 0

    def add(self, grad: SparseGradient) -> None:
        self.touched["emb"].update(grad.emb.ids.tolist())
        self.touched["fo"].update(grad.fo.ids.tolist())
        self.steps_since_emit += 1


def emit_delta(acc: DeltaAccumulator, params: ModelParams) -> DeltaMessage:
    """Snapshot the touched rows' current values into a versioned message.

    The version increments first and the message carries the incremented
    value, so versions across a stream are strictly increasing even for
    empty periods. Values are the rows' current states, not gradients.
    Sparse records come in tensor order, rows ascending within a tensor.
    """
    params.model_version += 1
    layout = params.layout
    records = []
    for arena, touched in acc.touched.items():
        rows = np.array(sorted(touched), dtype=np.int64)
        slot, row = layout.locate(rows)
        records += zip(layout.table_index[arena][slot].tolist(), row.tolist(), getattr(params, arena)[rows].tolist())
    sparse = tuple(SparseRecord(i, r, tuple(v)) for i, r, v in sorted(records))
    dense: tuple[DenseRecord, ...] = ()
    if acc.steps_since_emit > 0:
        flat = params.dense.tolist()
        dense = tuple(DenseRecord(i, tuple(flat[start:stop])) for i, start, stop in layout.dense_spans)
    for rows in acc.touched.values():
        rows.clear()
    acc.steps_since_emit = 0
    return DeltaMessage(model_version=params.model_version, sparse=sparse, dense=dense)


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
    """Appends length-prefixed frames to <base>.dq, flushing per frame."""

    def __init__(self, base: str):
        try:
            self._fh = open(base + ".dq", "ab")
        except OSError as exc:
            raise IoError(f"cannot open queue file: {exc}") from exc

    def publish(self, frame: bytes) -> None:
        self._fh.write(_length_prefixed(frame))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


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
