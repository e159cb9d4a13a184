"""Delta wire format, the copy-on-write applier, and queue transports."""

import contextlib
import errno
import importlib.util
import math
import os
import socket
import struct
import threading
import time
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from minirec import delta_stream, trainer
from minirec.artifact import ModelArtifact, save_artifact
from minirec.delta_stream import (
    DELTA_MAGIC,
    FileConsumer,
    FilePublisher,
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
    VersionGap,
)
from minirec.config import build_config
from minirec.model import copy_params, init_params, params_equal
from minirec.serving import load_model
from minirec.trainer import train

from helpers import (
    DenseRecord,
    SparseRecord,
    decode_reference,
    encode_reference,
    make_config,
    message_of,
    records_of,
    replay_reference,
    write_logistic_dataset,
)


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
    return message_of(
        model_version=int(rng.integers(1, 2**40)) if version is None else version,
        sparse=sparse,
        dense=dense,
    )


class TestWireFormat:
    def test_empty_message_size(self):
        frame = encode_delta(message_of(model_version=7, sparse=(), dense=()))
        assert len(frame) == 28
        assert frame[:4] == DELTA_MAGIC
        version, model_version, n_sparse, n_dense = struct.unpack("<IQII", frame[4:24])
        assert (version, model_version, n_sparse, n_dense) == (1, 7, 0, 0)

    def test_roundtrip_random_messages(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            msg = _random_message(rng)
            assert records_of(decode_delta(encode_delta(msg))) == records_of(msg)

    def test_bad_magic(self):
        frame = bytearray(encode_delta(message_of(1, (), ())))
        frame[:4] = b"XXXX"
        with pytest.raises(FormatError):
            decode_delta(bytes(frame))

    def test_unsupported_format_version(self):
        frame = bytearray(encode_delta(message_of(1, (), ())))
        frame[4:8] = struct.pack("<I", 2)
        with pytest.raises(FormatError):
            decode_delta(bytes(frame))

    def test_truncated_mid_record(self):
        msg = message_of(3, (SparseRecord(0, 5, (1.0, 2.0, 3.0)),), ())
        frame = encode_delta(msg)
        with pytest.raises(FormatError):
            decode_delta(frame[: len(frame) - 8])

    def test_crc_corruption(self):
        msg = message_of(3, (SparseRecord(0, 5, (1.0, 2.0)),), ())
        frame = bytearray(encode_delta(msg))
        frame[30] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_delta(bytes(frame))

    def test_every_single_bit_flip_detected(self):
        msg = message_of(
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


def _oracle_message(rng):
    """Stretches of records with tensors repeated and in any order, repeated rows, dim 0 and row 2**64 - 1."""
    sparse = []
    for _ in range(int(rng.integers(0, 8))):
        tensor_index, dim = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        for _ in range(int(rng.integers(1, 12))):
            row = [0, 7, 7, 2**64 - 1, int(rng.integers(0, 2**64, dtype=np.uint64))][int(rng.integers(5))]
            sparse.append(SparseRecord(tensor_index, row, tuple(float(np.float32(v)) for v in rng.normal(0, 1, dim))))
    dense = [DenseRecord(int(rng.integers(0, 8)), tuple(float(np.float32(v)) for v in rng.normal(0, 1, int(rng.integers(0, 6)))))
             for _ in range(int(rng.integers(0, 4)))]
    return message_of(int(rng.integers(0, 2**64, dtype=np.uint64)), sparse, dense)


def _perfbench_common():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _ListSink:
    def __init__(self):
        self.frames = []

    def publish(self, frame):
        self.frames.append(frame)


class TestWireOracle:
    """The columnar codec against helpers.py's per-record struct codec."""

    def test_random_messages_match_reference(self):
        rng = np.random.default_rng(18)
        messages = [message_of(0), message_of(2**64 - 1)] + [_oracle_message(rng) for _ in range(300)]
        records = [rec for msg in messages for rec in records_of(msg).sparse]
        dense = [rec for msg in messages for rec in records_of(msg).dense]
        # The corpus holds the cases a columnar codec could get wrong.
        assert any(not r.sparse and not r.dense for r in map(records_of, messages))
        assert any(len(rec.values) == 0 for rec in records) and any(len(rec.values) == 0 for rec in dense)
        assert any(rec.row_id == 2**64 - 1 for rec in records)
        for msg in messages:
            frame = encode_delta(msg)
            assert frame == encode_reference(msg)
            decoded = decode_delta(frame)
            assert records_of(decoded) == decode_reference(frame) == records_of(msg)
            # Runs are the longest stretches of one tensor and dim, as message_of cuts them.
            assert [(run.tensor_index, run.values.shape[1], len(run.rows)) for run in decoded.sparse_runs] == [
                (run.tensor_index, run.values.shape[1], len(run.rows)) for run in msg.sparse_runs]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_publish_frames_match_reference(self, tmp_path, monkeypatch, seed):
        common = _perfbench_common()
        world, rng = common.World(seed), np.random.default_rng([seed, 1])
        common.write_training_csv(tmp_path / "train.csv", world, rng, 1024)
        common.write_training_csv(tmp_path / "eval.csv", world, rng, 512)
        cfg = build_config(common.pipeline_config(seed))
        messages, sink = [], _ListSink()
        emit = trainer.emit_delta

        def recording_emit(acc, params):
            messages.append(emit(acc, params))
            return messages[-1]

        monkeypatch.setattr(trainer, "emit_delta", recording_emit)
        train(cfg, str(tmp_path / "train.csv"), str(tmp_path / "eval.csv"), sink=sink)
        assert len(sink.frames) == len(messages) == 8
        for msg, frame in zip(messages, sink.frames):
            assert frame == encode_reference(msg)
            keys = [(rec.tensor_index, rec.row_id) for rec in records_of(msg).sparse]
            assert keys == sorted(set(keys))
            assert records_of(decode_delta(frame)) == decode_reference(frame) == records_of(msg)

    def test_alternating_tensors_decode_in_linear_work(self, monkeypatch):
        """Every record starts a new run; decode reads each record a bounded number of times."""
        read = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def frombuffer(self, *args, **kwargs):
                out = np.frombuffer(*args, **kwargs)
                read.append(out.nbytes)
                return out

        monkeypatch.setattr(delta_stream, "np", CountingNumpy())
        cost = {}
        for n in (10_000, 20_000):
            records = [SparseRecord(i % 2, i, (float(i),) * (8 if i % 2 else 1)) for i in range(n)]
            frame = encode_reference(message_of(1, records))
            read.clear()
            decoded = decode_delta(frame)
            cost[n] = sum(read)
            assert len(decoded.sparse_runs) == n
            assert records_of(decoded) == decode_reference(frame)
        # Linear work doubles with the frame; a re-scan of the rest per run would quadruple.
        assert cost[20_000] < 2.5 * cost[10_000]


def _params(tmp_path):
    cfg = make_config(tmp_path)
    return cfg, init_params(cfg, np.random.default_rng([1, 0]))


class TestValidateAndApply:
    def test_apply_writes_rows_and_version(self, tmp_path):
        cfg, params = _params(tmp_path)
        before = params.tensors["emb:user_id"].copy()
        msg = message_of(1, (SparseRecord(0, 10, tuple(float(i) for i in range(8))),), ())
        fresh = apply_delta(params, msg)
        np.testing.assert_array_equal(
            fresh.tensors["emb:user_id"][10], np.arange(8, dtype=np.float32))
        assert fresh.model_version == 1
        # Copy on write: the input snapshot is unchanged, untouched arenas are shared.
        np.testing.assert_array_equal(params.tensors["emb:user_id"], before)
        assert params.model_version == 0
        for name, arr in params.tensors.items():
            assert np.shares_memory(fresh.tensors[name], arr) == (params.layout.spans[name][0] != "emb"), name

    def test_idempotent(self, tmp_path):
        cfg, params = _params(tmp_path)
        records = ((SparseRecord(0, 3, tuple([1.0] * 8)),), (DenseRecord(4, tuple([0.5] * 16 * 16)),))
        once = apply_delta(params, message_of(1, *records))
        twice = apply_delta(once, message_of(2, *records))
        assert params_equal(once, twice)

    def test_held_version_is_skipped(self, tmp_path):
        cfg, params = _params(tmp_path)
        fresh = apply_delta(params, message_of(1, (SparseRecord(0, 3, tuple([1.0] * 8)),), ()))
        for version in (0, 1):
            assert apply_delta(fresh, message_of(version, (SparseRecord(0, 3, (2.0,) * 8),), ())) is None
        assert apply_delta(params, message_of(0)) is None

    def test_version_gap_is_refused(self, tmp_path):
        cfg, params = _params(tmp_path)
        with pytest.raises(VersionGap):
            apply_delta(params, message_of(2, (SparseRecord(0, 3, tuple([1.0] * 8)),), ()))
        once = apply_delta(params, message_of(1))
        with pytest.raises(VersionGap):
            apply_delta(once, message_of(3))
        assert params.model_version == 0 and once.model_version == 1

    def test_unknown_sparse_index(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = message_of(1, (SparseRecord(99, 0, (1.0,) * 8),), ())
        with pytest.raises(UnknownSlot):
            apply_delta(params, msg)

    def test_dense_index_on_sparse_tensor(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = message_of(1, (), (DenseRecord(0, (1.0,) * 8),))
        with pytest.raises(UnknownTensor):
            apply_delta(params, msg)

    def test_row_out_of_range(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = message_of(1, (SparseRecord(0, 2000, (1.0,) * 8),), ())
        with pytest.raises(IndexOutOfRange):
            apply_delta(params, msg)

    def test_dim_mismatch(self, tmp_path):
        cfg, params = _params(tmp_path)
        msg = message_of(1, (SparseRecord(0, 0, (1.0, 2.0)),), ())
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
                msg = message_of(1, (good_sparse, bad), (good_dense,))
            else:
                msg = message_of(1, (good_sparse,), (good_dense, bad))
            with pytest.raises(error):
                apply_delta(params, msg)
            for name, arr in params.tensors.items():
                np.testing.assert_array_equal(arr, before[name])
            assert params.model_version == 0


def _first_error(params, msg):
    """The error of the first bad record, records checked one at a time; None for a good message."""
    records = records_of(msg)
    for rec in (*records.sparse, *records.dense):
        if not math.isfinite(sum(rec.values)):
            return NonFinite(sum(rec.values))
    items = list(params.tensors.items())
    for rec in records.sparse:
        if not (0 <= rec.tensor_index < len(items) and items[rec.tensor_index][0].startswith(("emb:", "fo:"))):
            return UnknownSlot(rec.tensor_index)
        name, arr = items[rec.tensor_index]
        if rec.row_id >= arr.shape[0]:
            return IndexOutOfRange(rec.row_id, arr.shape[0])
        if len(rec.values) != arr.shape[1]:
            return DimensionMismatch(f"record for {name!r} has dim {len(rec.values)}, table dim {arr.shape[1]}")
    for rec in records.dense:
        if not 0 <= rec.tensor_index < len(items) or items[rec.tensor_index][0].startswith(("emb:", "fo:")):
            return UnknownTensor(rec.tensor_index)
        name, arr = items[rec.tensor_index]
        if len(rec.values) != arr.size:
            return DimensionMismatch(f"record for {name!r} has {len(rec.values)} values, tensor has {arr.size}")
    return None


class TestRunsApply:
    """apply_delta on whole runs against record-by-record checks and replay_reference."""

    def test_repeated_row_takes_the_later_record(self, tmp_path):
        cfg, params = _params(tmp_path)
        rng = np.random.default_rng(5)
        # One long run over four rows, then the same tensor again in a later run.
        rows = rng.integers(0, 4, 300).tolist()
        records = [SparseRecord(0, row, (float(i),) * 8) for i, row in enumerate(rows)]
        records += [SparseRecord(2, 3, (-1.0,) * 8), SparseRecord(0, rows[0], (-2.0,) * 8)]
        msg = message_of(1, records)
        fresh = apply_delta(params, decode_delta(encode_delta(msg)))
        reference = copy_params(params)
        replay_reference(reference, msg)
        assert params_equal(fresh, reference)
        last = {row: float(i) for i, row in enumerate(rows)} | {rows[0]: -2.0}
        for row, value in last.items():
            np.testing.assert_array_equal(fresh.tensors["emb:user_id"][row], np.full(8, value, np.float32))

    def test_errors_match_record_by_record_checks(self, tmp_path):
        cfg, params = _params(tmp_path)
        before = copy_params(params)
        shapes = [arr.shape for arr in params.tensors.values()]
        rng = np.random.default_rng(11)
        raised = set()
        for _ in range(400):
            sparse = []
            for _ in range(int(rng.integers(0, 4))):
                index = int(rng.choice([0, 1, 2, 3, 4, 99])) if rng.random() < 0.1 else int(rng.integers(0, 4))
                dim = shapes[index][1] if index < 4 and rng.random() < 0.9 else int(rng.integers(1, 9))
                for _ in range(int(rng.integers(1, 6))):
                    row = int(rng.integers(0, 4000 if rng.random() < 0.1 else 2000))
                    values = rng.normal(0, 1, dim).astype(np.float32)
                    if rng.random() < 0.03:
                        values[int(rng.integers(dim))] = rng.choice([np.nan, np.inf, -np.inf])
                    sparse.append(SparseRecord(index, row, tuple(values.tolist())))
            dense = []
            for _ in range(int(rng.integers(0, 3))):
                index = int(rng.integers(4, len(shapes))) if rng.random() < 0.9 else int(rng.choice([0, 99]))
                size = int(np.prod(shapes[index])) if index < len(shapes) and rng.random() < 0.9 else 3
                values = rng.normal(0, 1, size).astype(np.float32)
                if rng.random() < 0.05:
                    values[0] = np.nan
                dense.append(DenseRecord(index, tuple(values.tolist())))
            msg = message_of(1, sparse, dense)
            want = _first_error(params, msg)
            if want is None:
                reference = copy_params(params)
                replay_reference(reference, msg)
                assert params_equal(apply_delta(params, msg), reference)
                continue
            with pytest.raises(type(want)) as err:
                apply_delta(params, msg)
            assert str(err.value) == str(want)
            raised.add(type(want))
        assert raised == {NonFinite, UnknownSlot, IndexOutOfRange, DimensionMismatch, UnknownTensor}
        assert params_equal(params, before) and params.model_version == 0


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
            return {(rec.tensor_index, rec.row_id) for msg in msgs for rec in records_of(msg).sparse}

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


class _RecordingFsync:
    """os.fsync that notes the file's size as each call starts and returns, and its thread; it can linger or fail.

    Lingering gives a publisher that does not wait for the fsync time to
    write the next frame before the call returns.
    """

    def __init__(self, fail_at=None, linger=0.0):
        self.fail_at, self.linger = fail_at, linger
        self.calls = []
        self.real = os.fsync

    def __call__(self, fd):
        start = os.fstat(fd).st_size
        time.sleep(self.linger)
        if len(self.calls) == self.fail_at:
            self.calls.append((start, None, threading.current_thread()))
            raise OSError(errno.EIO, "injected fsync failure")
        self.real(fd)
        self.calls.append((start, os.fstat(fd).st_size, threading.current_thread()))


class TestFilePublisherSync:
    """Each frame is fsynced once, on a helper thread, and before the next frame is written."""

    def test_each_frame_is_synced_once_before_the_next_is_written(self, tmp_path, monkeypatch):
        fsync = _RecordingFsync(linger=0.01)
        monkeypatch.setattr(os, "fsync", fsync)
        base = str(tmp_path / "stream")
        frames = [bytes([i]) * (10 + i) for i in range(6)]
        publisher = FilePublisher(base)
        for frame in frames:
            publisher.publish(frame)
        publisher.close()
        ends = list(accumulate(4 + len(frame) for frame in frames))
        # Each call starts with its frame as the file's end, and the next frame is not there when it returns.
        assert [(start, end) for start, end, _ in fsync.calls] == [(end, end) for end in ends]
        helpers = {thread for _, _, thread in fsync.calls}
        assert len(helpers) == 1 and threading.main_thread() not in helpers
        assert not helpers.pop().is_alive()
        assert _dq_frames(base) == frames

    def test_failed_sync_raises_from_the_next_publish_which_writes_nothing(self, tmp_path, monkeypatch):
        fsync = _RecordingFsync(fail_at=1)
        monkeypatch.setattr(os, "fsync", fsync)
        base = str(tmp_path / "stream")
        publisher = FilePublisher(base)
        publisher.publish(b"one")
        publisher.publish(b"two")
        with pytest.raises(IoError, match=r"cannot sync queue file .*stream\.dq.*injected fsync failure"):
            publisher.publish(b"three")
        assert _dq_frames(base) == [b"one", b"two"]
        publisher.close()
        assert len(fsync.calls) == 2 and not fsync.calls[0][2].is_alive()

    def test_failed_sync_of_the_last_frame_raises_from_close(self, tmp_path, monkeypatch):
        fsync = _RecordingFsync(fail_at=0)
        monkeypatch.setattr(os, "fsync", fsync)
        base = str(tmp_path / "stream")
        publisher = FilePublisher(base)
        publisher.publish(b"only")
        with pytest.raises(IoError, match="cannot sync queue file"):
            publisher.close()
        assert not fsync.calls[0][2].is_alive()
        assert _dq_frames(base) == [b"only"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose writes fail")
    def test_failed_write_is_io_error(self, tmp_path):
        base = tmp_path / "stream"
        Path(f"{base}.dq").symlink_to("/dev/full")
        publisher = FilePublisher(str(base))
        with pytest.raises(IoError, match=r"cannot write queue file .*stream\.dq"):
            publisher.publish(b"frame")
        # close flushes what the buffer still holds, which may fail again: as an IoError too.
        with contextlib.suppress(IoError):
            publisher.close()


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
