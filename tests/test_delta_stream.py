"""Delta wire format, the copy-on-write applier, and queue transports."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from minirec import delta_stream
from minirec.artifact import ModelArtifact, save_artifact
from minirec.delta_stream import (
    DELTA_MAGIC,
    DeltaMessage,
    DenseRecord,
    FileConsumer,
    FilePublisher,
    SparseRecord,
    TcpConsumer,
    TcpPublisher,
    apply_delta,
    decode_delta,
    encode_delta,
    open_consumer,
    open_publisher,
)
from minirec.errors import (
    ChecksumError,
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    IoError,
    MinirecError,
    NonFinite,
    UnknownSlot,
    UnknownTensor,
)
from minirec.model import init_params, params_equal
from minirec.serving import load_model
from minirec.trainer import train

from helpers import make_config, write_logistic_dataset


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
        before = params.tensors["emb:user_id"].copy()
        msg = DeltaMessage(5, (SparseRecord(0, 10, tuple(float(i) for i in range(8))),), ())
        fresh = apply_delta(params, msg)
        np.testing.assert_array_equal(
            fresh.tensors["emb:user_id"][10], np.arange(8, dtype=np.float32))
        assert fresh.model_version == 5
        # Copy on write: the input snapshot is unchanged, untouched tensors are shared.
        np.testing.assert_array_equal(params.tensors["emb:user_id"], before)
        assert params.model_version == 0
        for name, arr in params.tensors.items():
            assert (fresh.tensors[name] is arr) == (name != "emb:user_id"), name

    def test_idempotent(self, tmp_path):
        cfg, params = _params(tmp_path)
        records = ((SparseRecord(0, 3, tuple([1.0] * 8)),), (DenseRecord(4, tuple([0.5] * 16 * 16)),))
        once = apply_delta(params, DeltaMessage(5, *records))
        twice = apply_delta(once, DeltaMessage(6, *records))
        assert params_equal(once, twice)

    def test_held_version_is_skipped(self, tmp_path):
        cfg, params = _params(tmp_path)
        fresh = apply_delta(params, DeltaMessage(5, (SparseRecord(0, 3, tuple([1.0] * 8)),), ()))
        for version in (4, 5):
            assert apply_delta(fresh, DeltaMessage(version, (SparseRecord(0, 3, (2.0,) * 8),), ())) is None
        assert apply_delta(params, DeltaMessage(0)) is None

    def test_unknown_sparse_index(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(99, 0, (1.0,) * 8),), ())
        with pytest.raises(UnknownSlot):
            apply_delta(params, msg)

    def test_dense_index_on_sparse_tensor(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (), (DenseRecord(0, (1.0,) * 8),))
        with pytest.raises(UnknownTensor):
            apply_delta(params, msg)

    def test_row_out_of_range(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(0, 2000, (1.0,) * 8),), ())
        with pytest.raises(IndexOutOfRange):
            apply_delta(params, msg)

    def test_dim_mismatch(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = DeltaMessage(5, (SparseRecord(0, 0, (1.0, 2.0)),), ())
        with pytest.raises(DimensionMismatch):
            apply_delta(params, msg)

    def test_rejected_message_leaves_state(self, tmp_path):
        """A bad record after good ones raises, and nothing is written."""
        cfg, params = _params(tmp_path)
        before = {name: arr.copy() for name, arr in params.tensors.items()}
        good_sparse, good_dense = SparseRecord(0, 0, (1.0,) * 8), DenseRecord(5, (1.0,) * 16)
        cases = [
            (SparseRecord(99, 0, (1.0,) * 8), UnknownSlot),
            (SparseRecord(4, 0, (1.0,) * 8), UnknownSlot),
            (SparseRecord(0, 2000, (1.0,) * 8), IndexOutOfRange),
            (SparseRecord(0, 0, (1.0, 2.0)), DimensionMismatch),
            (DenseRecord(99, (1.0,)), UnknownTensor),
            (DenseRecord(0, (1.0,) * 8), UnknownTensor),
            (DenseRecord(4, (1.0,)), DimensionMismatch),
            (SparseRecord(0, 1, (float("nan"),) * 8), NonFinite),
            (SparseRecord(0, 1, (1.0,) * 7 + (float("-inf"),)), NonFinite),
            (DenseRecord(5, (0.5,) * 15 + (float("inf"),)), NonFinite),
        ]
        for bad, error in cases:
            if isinstance(bad, SparseRecord):
                msg = DeltaMessage(5, (good_sparse, bad), (good_dense,))
            else:
                msg = DeltaMessage(5, (good_sparse,), (good_dense, bad))
            with pytest.raises(error):
                apply_delta(params, msg)
            for name, arr in params.tensors.items():
                np.testing.assert_array_equal(arr, before[name])
            assert params.model_version == 0


def _drain(consumer):
    frames = []
    while (frame := consumer.consume(timeout=0)) is not None:
        frames.append(frame)
    consumer.close()
    return frames


def _dq_frames(base):
    """The frames of <base>.dq, split by a reading of the file format alone."""
    with open(base + ".dq", "rb") as fh:
        blob = fh.read()
    frames, pos = [], 0
    while pos < len(blob):
        (length,) = struct.unpack_from("<I", blob, pos)
        frames.append(blob[pos + 4 : pos + 4 + length])
        pos += 4 + length
    return frames


class TestFileQueue:
    def test_restart_replays_queue_exactly(self, tmp_path):
        """No frame is lost or applied twice, whichever artifact a server restarts from."""
        write_logistic_dataset(tmp_path, n_train=1200, n_eval=100, n_users=1500, n_items=1500)
        cfg = make_config(tmp_path, train_config={"num_epochs": 1, "delta_period_steps": 3})
        seed = cfg.train_config.seed
        v0_path = str(tmp_path / "model-v0.erm")
        save_artifact(ModelArtifact(cfg, init_params(cfg, np.random.default_rng([seed, 0])), seed, 0),
                      v0_path)
        base = str(tmp_path / "stream")
        publisher = FilePublisher(base)
        final, _ = train(cfg, sink=publisher)
        publisher.close()
        final_path = str(tmp_path / "model-final.erm")
        save_artifact(final, final_path)

        frames = _dq_frames(base)
        messages = [decode_delta(frame) for frame in frames]
        assert final.params.model_version == len(frames) >= 4

        def rows(msgs):
            return {(rec.tensor_index, rec.row_id) for msg in msgs for rec in msg.sparse}

        # Rows that only frames 1-2 carry: a server that skips those frames loses them.
        assert rows(messages[:2]) - rows(messages[2:])

        first = load_model(v0_path)
        consumer = FileConsumer(base)
        for _ in range(2):
            assert first.apply_delta(decode_delta(consumer.consume(timeout=1.0))) is not None
        consumer.close()
        assert first.version == 2

        restarted = load_model(v0_path)
        replayed = _drain(FileConsumer(base))
        assert replayed == frames
        assert [restarted.apply_delta(decode_delta(frame)) for frame in replayed] == list(
            range(1, len(frames) + 1))
        assert params_equal(restarted.snapshot(), final.params)
        assert restarted.version == final.params.model_version

        from_final = load_model(final_path)
        assert all(from_final.apply_delta(decode_delta(frame)) is None
                   for frame in _drain(FileConsumer(base)))
        assert params_equal(from_final.snapshot(), final.params)
        assert from_final.version == final.params.model_version
        assert not list(tmp_path.glob("*.cursor"))

    def test_every_consumer_reads_every_frame(self, tmp_path):
        base = str(tmp_path / "stream")
        pub = FilePublisher(base)
        pub.publish(b"frame-one")
        pub.publish(b"frame-two")
        first = FileConsumer(base)
        assert first.consume(timeout=0.2) == b"frame-one"
        second = FileConsumer(base)
        assert second.consume(timeout=0.2) == b"frame-one"
        pub.publish(b"frame-three")
        assert _drain(first) == [b"frame-two", b"frame-three"]
        assert _drain(second) == [b"frame-two", b"frame-three"]
        assert _drain(FileConsumer(base)) == [b"frame-one", b"frame-two", b"frame-three"]
        pub.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stream.dq"]

    def test_zero_timeout_drains_without_sleeping(self, tmp_path):
        base = str(tmp_path / "stream")
        pub = FilePublisher(base)
        frames = [f"frame-{i}".encode() * (i + 1) for i in range(50)]
        for frame in frames:
            pub.publish(frame)
        pub.close()
        con = FileConsumer(base)
        con.poll_seconds = 1.0
        start = time.monotonic()
        assert _drain(con) == frames
        assert time.monotonic() - start < 0.5

    def test_oversized_prefix_is_format_error(self, tmp_path):
        base = str(tmp_path / "stream")
        pub = FilePublisher(base)
        pub.publish(b"good")
        pub.close()
        with open(base + ".dq", "ab") as fh:
            fh.write(struct.pack("<I", 0xFFFFFFF0) + b"junk")
        con = FileConsumer(base)
        assert con.consume(timeout=0.5) == b"good"
        for _ in range(2):
            start = time.monotonic()
            with pytest.raises(FormatError):
                con.consume(timeout=0.5)
            assert time.monotonic() - start < 0.5
        con.close()

    def test_publishers_refuse_oversized_frame(self, tmp_path, monkeypatch):
        monkeypatch.setattr(delta_stream, "MAX_FRAME_BYTES", 8)
        base = str(tmp_path / "stream")
        pub = FilePublisher(base)
        pub.publish(b"12345678")
        with pytest.raises(IoError):
            pub.publish(b"123456789")
        pub.close()
        assert _dq_frames(base) == [b"12345678"]
        consumer = TcpConsumer("127.0.0.1", 0)
        publisher = TcpPublisher(*consumer.address)
        with pytest.raises(IoError):
            publisher.publish(b"123456789")
        publisher.publish(b"12345678")
        assert consumer.consume(timeout=2.0) == b"12345678"
        publisher.close()
        consumer.close()

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


    def test_reaccepts_after_publisher_closes(self):
        consumer = TcpConsumer("127.0.0.1", 0)
        first = TcpPublisher(*consumer.address)
        first.publish(b"from-first")
        first.close()
        assert consumer.consume(timeout=2.0) == b"from-first"
        start = time.monotonic()
        assert consumer.consume(timeout=0.2) is None
        assert time.monotonic() - start >= 0.18
        second = TcpPublisher(*consumer.address)
        second.publish(b"from-second")
        assert consumer.consume(timeout=2.0) == b"from-second"
        second.close()
        consumer.close()

    def test_partial_frame_dropped_with_its_connection(self):
        consumer = TcpConsumer("127.0.0.1", 0)
        with socket.create_connection(consumer.address) as peer:
            peer.sendall(struct.pack("<I", 100) + b"only part")
        publisher = TcpPublisher(*consumer.address)
        publisher.publish(b"whole")
        assert consumer.consume(timeout=2.0) == b"whole"
        publisher.close()
        consumer.close()

    def test_oversized_prefix_drops_connection(self):
        consumer = TcpConsumer("127.0.0.1", 0)
        peer = socket.create_connection(consumer.address)
        peer.sendall(struct.pack("<I", 0xFFFFFFF0) + b"junk")
        start = time.monotonic()
        with pytest.raises(FormatError):
            consumer.consume(timeout=2.0)
        assert time.monotonic() - start < 2.0
        # The peer is still open: the next frame arrives only if it was dropped.
        publisher = TcpPublisher(*consumer.address)
        publisher.publish(b"next")
        assert consumer.consume(timeout=2.0) == b"next"
        peer.close()
        publisher.close()
        consumer.close()


class TestUrlSchemes:
    @pytest.mark.parametrize("url", ["mem://shared", "udp://127.0.0.1:9"])
    @pytest.mark.parametrize("opener", [open_consumer, open_publisher])
    def test_unknown_scheme_is_io_error(self, url, opener):
        with pytest.raises(IoError, match="unknown queue scheme"):
            opener(url)

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

    @pytest.mark.parametrize("url", ["tcp://127.0.0.1:abc", "tcp://127.0.0.1",
                                     "tcp://127.0.0.1:70000"])
    @pytest.mark.parametrize("opener", [open_consumer, open_publisher])
    def test_bad_tcp_address_rejected_before_any_socket(self, monkeypatch, url, opener):
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(delta_stream.socket, "create_server", no_socket)
        monkeypatch.setattr(delta_stream.socket, "create_connection", no_socket)
        with pytest.raises(MinirecError):
            opener(url)
