"""Delta wire format, message validation/application, and queue transports."""

import struct
import threading
import time

import numpy as np
import pytest

from minirec.delta_stream import (
    DELTA_MAGIC,
    DeltaMessage,
    DenseRecord,
    FileConsumer,
    FilePublisher,
    MemoryConsumer,
    MemoryPublisher,
    SparseRecord,
    TcpConsumer,
    TcpPublisher,
    apply_message,
    decode_delta,
    encode_delta,
    open_consumer,
    open_publisher,
    reset_memory_queues,
    validate_message,
)
from minirec.errors import (
    ChecksumError,
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    UnknownSlot,
    UnknownTensor,
)
from minirec.model import init_params, params_equal

from helpers import make_config


def _random_message(rng, version=None):
    sparse = tuple(
        SparseRecord(
            tensor_index=int(rng.integers(0, 4)),
            row_id=int(rng.integers(0, 1_000_000)),
            values=tuple(float(np.float32(v)) for v in rng.normal(0, 1, rng.integers(1, 65))),
        )
        for _ in range(rng.integers(0, 6))
    )
    dense = tuple(
        DenseRecord(
            tensor_index=int(rng.integers(4, 8)),
            values=tuple(float(np.float32(v)) for v in rng.normal(0, 1, rng.integers(1, 20))),
        )
        for _ in range(rng.integers(0, 3))
    )
    return DeltaMessage(
        model_version=int(rng.integers(1, 2**40)) if version is None else version,
        sparse=sparse,
        dense=dense,
    )


class TestWireFormat:
    def test_empty_message_size(self):
        frame = encode_delta(DeltaMessage(model_version=7, sparse=(), dense=()))
        assert len(frame) == 28
        assert frame[:4] == DELTA_MAGIC
        version, model_version, n_sparse, n_dense = struct.unpack("<IQII", frame[4:24])
        assert (version, model_version, n_sparse, n_dense) == (1, 7, 0, 0)

    def test_roundtrip_random_messages(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            msg = _random_message(rng)
            assert decode_delta(encode_delta(msg)) == msg

    def test_bad_magic(self):
        frame = bytearray(encode_delta(DeltaMessage(1, (), ())))
        frame[:4] = b"XXXX"
        with pytest.raises(FormatError):
            decode_delta(bytes(frame))

    def test_unsupported_format_version(self):
        frame = bytearray(encode_delta(DeltaMessage(1, (), ())))
        frame[4:8] = struct.pack("<I", 2)
        with pytest.raises(FormatError):
            decode_delta(bytes(frame))

    def test_truncated_mid_record(self):
        msg = DeltaMessage(3, (SparseRecord(0, 5, (1.0, 2.0, 3.0)),), ())
        frame = encode_delta(msg)
        with pytest.raises(FormatError):
            decode_delta(frame[: len(frame) - 8])

    def test_crc_corruption(self):
        msg = DeltaMessage(3, (SparseRecord(0, 5, (1.0, 2.0)),), ())
        frame = bytearray(encode_delta(msg))
        frame[30] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_delta(bytes(frame))

    def test_every_single_bit_flip_detected(self):
        msg = DeltaMessage(
            9,
            (SparseRecord(0, 12, (0.5, -0.25)),),
            (DenseRecord(2, (1.5,)),),
        )
        frame = encode_delta(msg)
        for byte_index in range(len(frame)):
            for bit in range(8):
                corrupted = bytearray(frame)
                corrupted[byte_index] ^= 1 << bit
                with pytest.raises((FormatError, ChecksumError)):
                    decode_delta(bytes(corrupted))


def _params(tmp_path):
    cfg = make_config(tmp_path)
    return cfg, init_params(cfg, np.random.default_rng([1, 0]))


class TestValidateAndApply:
    def test_apply_writes_rows_and_version(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(0, 10, tuple(float(i) for i in range(8))),), ())
        apply_message(params, msg)
        np.testing.assert_array_equal(
            params.tensors["emb:user_id"][10], np.arange(8, dtype=np.float32))
        assert params.model_version == 5

    def test_idempotent(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(0, 3, tuple([1.0] * 8)),),
                           (DenseRecord(4, tuple([0.5] * 16 * 16)),))
        apply_message(params, msg)
        snapshot = {name: arr.copy() for name, arr in params.tensors.items()}
        apply_message(params, msg)
        for name, arr in params.tensors.items():
            np.testing.assert_array_equal(arr, snapshot[name])

    def test_unknown_sparse_index(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(99, 0, (1.0,) * 8),), ())
        with pytest.raises(UnknownSlot):
            validate_message(params, msg)

    def test_dense_index_on_sparse_tensor(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (), (DenseRecord(0, (1.0,) * 8),))
        with pytest.raises(UnknownTensor):
            validate_message(params, msg)

    def test_row_out_of_range(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(0, 2000, (1.0,) * 8),), ())
        with pytest.raises(IndexOutOfRange):
            validate_message(params, msg)

    def test_dim_mismatch(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(0, 0, (1.0, 2.0)),), ())
        with pytest.raises(DimensionMismatch):
            validate_message(params, msg)

    def test_rejected_message_leaves_state(self, tmp_path):
        cfg, params = _params(tmp_path)
        before = {name: arr.copy() for name, arr in params.tensors.items()}
        msg = DeltaMessage(5, (SparseRecord(0, 0, (1.0,) * 8),
                               SparseRecord(99, 0, (1.0,) * 8)), ())
        with pytest.raises(UnknownSlot):
            apply_message(params, msg)
        for name, arr in params.tensors.items():
            np.testing.assert_array_equal(arr, before[name])
        assert params.model_version == 0


class TestMemoryQueue:
    def test_fifo(self):
        reset_memory_queues()
        pub = MemoryPublisher("q1")
        con = MemoryConsumer("q1")
        pub.publish(b"A")
        pub.publish(b"B")
        assert con.consume(timeout=0.1) == b"A"
        assert con.consume(timeout=0.1) == b"B"

    def test_timeout_returns_none(self):
        reset_memory_queues()
        con = MemoryConsumer("empty")
        start = time.monotonic()
        assert con.consume(timeout=0.01) is None
        assert time.monotonic() - start < 1.0


class TestFileQueue:
    def test_fifo_and_cursor_resume(self, tmp_path):
        base = str(tmp_path / "stream")
        pub = FilePublisher(base)
        pub.publish(b"frame-one")
        pub.publish(b"frame-two")
        con = FileConsumer(base)
        assert con.consume(timeout=0.2) == b"frame-one"
        con.close()
        # a fresh consumer resumes from the persisted cursor
        again = FileConsumer(base)
        assert again.consume(timeout=0.2) == b"frame-two"
        assert again.consume(timeout=0.05) is None
        again.close()
        pub.close()

    def test_consume_before_publish(self, tmp_path):
        base = str(tmp_path / "stream")
        con = FileConsumer(base)
        assert con.consume(timeout=0.05) is None
        pub = FilePublisher(base)
        pub.publish(b"late")
        assert con.consume(timeout=1.0) == b"late"
        con.close()
        pub.close()


class TestTcpQueue:
    def test_fifo_over_socket(self):
        consumer = TcpConsumer("127.0.0.1", 0)
        host, port = consumer.address
        publisher = TcpPublisher(host, port)
        publisher.publish(b"alpha")
        publisher.publish(b"beta")
        assert consumer.consume(timeout=2.0) == b"alpha"
        assert consumer.consume(timeout=2.0) == b"beta"
        publisher.close()
        consumer.close()

    def test_timeout_without_publisher(self):
        consumer = TcpConsumer("127.0.0.1", 0)
        assert consumer.consume(timeout=0.05) is None
        consumer.close()

    def test_concurrent_publish(self):
        consumer = TcpConsumer("127.0.0.1", 0)
        host, port = consumer.address
        frames = [f"frame{i}".encode() for i in range(20)]

        def run():
            publisher = TcpPublisher(host, port)
            for frame in frames:
                publisher.publish(frame)
            publisher.close()

        thread = threading.Thread(target=run)
        thread.start()
        received = [consumer.consume(timeout=2.0) for _ in frames]
        thread.join()
        consumer.close()
        assert received == frames


class TestUrlSchemes:
    def test_memory_url(self):
        reset_memory_queues()
        pub = open_publisher("mem://shared")
        con = open_consumer("mem://shared")
        pub.publish(b"x")
        assert con.consume(timeout=0.1) == b"x"

    def test_file_url(self, tmp_path):
        base = str(tmp_path / "q")
        pub = open_publisher("file://" + base)
        con = open_consumer("file://" + base)
        pub.publish(b"y")
        assert con.consume(timeout=0.5) == b"y"
        pub.close()
        con.close()

    def test_bare_path_is_file(self, tmp_path):
        base = str(tmp_path / "q2")
        pub = open_publisher(base)
        con = open_consumer(base)
        pub.publish(b"z")
        assert con.consume(timeout=0.5) == b"z"
        pub.close()
        con.close()
