"""Model artifact file format: roundtrips, header layout, corruption."""

import json
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from minirec import artifact as artifact_module
from minirec.artifact import (
    MAGIC,
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from minirec.errors import FormatError, IoError
from minirec.model import init_params, params_equal, tensor_shapes

from helpers import make_config


def _artifact(tmp_path, seed=42, model_type="deepfm"):
    cfg = make_config(tmp_path, model_config={"model_type": model_type})
    params = init_params(cfg, np.random.default_rng([seed, 0]))
    return ModelArtifact(config=cfg, params=params, seed=seed, step_count=0)


def _split(blob):
    header_len = struct.unpack("<I", blob[8:12])[0]
    return json.loads(blob[12:12 + header_len]), blob[12 + header_len:]


@pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
def test_roundtrip_bitwise(tmp_path, model_type):
    art = _artifact(tmp_path, model_type=model_type)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    loaded = load_artifact(path)
    assert params_equal(art.params, loaded.params)
    assert loaded.config == art.config
    assert loaded.seed == art.seed
    assert loaded.step_count == art.step_count


def test_roundtrip_many_seeds(tmp_path):
    for seed in range(10):
        art = _artifact(tmp_path, seed=seed)
        for arr in art.params.tensors.values():
            arr += np.random.default_rng(seed).normal(0, 1, arr.shape).astype(np.float32)
        path = str(tmp_path / f"m{seed}.erm")
        save_artifact(art, path)
        assert params_equal(load_artifact(path).params, art.params)


def test_save_is_deterministic(tmp_path):
    art = _artifact(tmp_path)
    a, b = str(tmp_path / "a.erm"), str(tmp_path / "b.erm")
    save_artifact(art, a)
    save_artifact(art, b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_header_layout(tmp_path):
    art = _artifact(tmp_path)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    blob = Path(path).read_bytes()
    assert blob[:8] == MAGIC
    header_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + header_len])
    assert set(header) == {"config", "model_version", "seed", "step_count", "tensors"}
    shapes = tensor_shapes(art.config)
    offset = 0
    for entry in header["tensors"]:
        assert entry["offset"] == offset
        assert tuple(entry["shape"]) == shapes[entry["name"]]
        offset += 4 * int(np.prod(entry["shape"]))
    assert len(blob) == 12 + header_len + offset


@pytest.mark.parametrize("model_type", ["deepfm", "logreg"])
def test_tensor_directory_order(tmp_path, model_type):
    """Directory lists emb/fo pairs in feature order, then MLP, then bias."""
    art = _artifact(tmp_path, model_type=model_type)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    names = [t["name"] for t in _split(Path(path).read_bytes())[0]["tensors"]]
    assert names == list(tensor_shapes(art.config)) == list(art.params.tensors)
    assert names[0].startswith("emb:") and names[1].startswith("fo:")
    assert names[-1] == "bias"
    assert any(n.startswith("mlp:") for n in names) == (model_type == "deepfm")


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


def _set_entry(key, value):
    return lambda header: header["tensors"][0].__setitem__(key, value)


@pytest.mark.parametrize("tamper", [
    lambda header: header["tensors"].__setitem__(0, ["emb:user_id", [2000, 8], 0]),
    lambda header: header["tensors"][0].pop("offset"),
    _set_entry("shape", "2000x8"),
    _set("tensors", 3),
    _set("model_version", "x"),
    _set_entry("shape", [-1, 8]),
], ids=["entry_is_list", "entry_without_offset", "shape_is_string", "tensors_is_int",
        "model_version_not_int", "negative_dimension"])
def test_malformed_header_is_format_error(tmp_path, tamper):
    art = _artifact(tmp_path)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    header, payload = _split(Path(path).read_bytes())
    tamper(header)
    text = json.dumps(header).encode()
    bad = tmp_path / "bad.erm"
    bad.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + payload)
    with pytest.raises(FormatError):
        load_artifact(str(bad))


def test_deeply_nested_header_is_format_error(tmp_path):
    header = b"[" * 200_000
    bad = tmp_path / "nested.erm"
    bad.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(FormatError):
        load_artifact(str(bad))


def test_over_long_header_integer_is_format_error(tmp_path):
    header = b'{"model_version": ' + b"1" * 5001 + b"}"
    bad = tmp_path / "long.erm"
    bad.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(FormatError, match="invalid header JSON"):
        load_artifact(str(bad))


def test_bad_magic(tmp_path):
    art = _artifact(tmp_path)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    blob = bytearray(Path(path).read_bytes())
    blob[:8] = b"XXMODEL1"
    bad = tmp_path / "bad.erm"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_artifact(str(bad))


@pytest.mark.parametrize("cut", [4, 11, 40, -1])
def test_truncation(tmp_path, cut):
    art = _artifact(tmp_path)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    blob = Path(path).read_bytes()
    bad = tmp_path / "cut.erm"
    bad.write_bytes(blob[:cut] if cut > 0 else blob[:len(blob) - 1])
    with pytest.raises(FormatError):
        load_artifact(str(bad))


def test_trailing_garbage(tmp_path):
    art = _artifact(tmp_path)
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    bad = tmp_path / "long.erm"
    bad.write_bytes(Path(path).read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        load_artifact(str(bad))


def test_model_version_passthrough(tmp_path):
    art = _artifact(tmp_path)
    art.params.model_version = 17
    path = str(tmp_path / "model.erm")
    save_artifact(art, path)
    assert load_artifact(path).model_version == 17


def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch):
    path = str(tmp_path / "model.erm")
    save_artifact(_artifact(tmp_path, seed=1), path)
    previous = (tmp_path / "model.erm").read_bytes()

    class FailingFile:
        """Writes through to the real file until the third payload tensor."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 6:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(artifact_module, "open",
                        lambda *args, **kwargs: FailingFile(open(*args, **kwargs)), raising=False)
    with pytest.raises(IoError):
        save_artifact(_artifact(tmp_path, seed=2), path)
    monkeypatch.undo()
    assert (tmp_path / "model.erm").read_bytes() == previous
    assert params_equal(load_artifact(path).params, _artifact(tmp_path, seed=1).params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.erm"]


def test_concurrent_saves_to_one_path_leave_one_whole_artifact(tmp_path, monkeypatch):
    """Two threads save different artifacts to one path; both write in full before either renames."""
    path = str(tmp_path / "model.erm")
    arts = [_artifact(tmp_path, seed=seed) for seed in (1, 2)]
    wants = []
    for seed, art in zip((1, 2), arts):
        save_artifact(art, str(tmp_path / f"want{seed}.erm"))
        wants.append((tmp_path / f"want{seed}.erm").read_bytes())
    assert wants[0] != wants[1]
    both_written = threading.Barrier(2, timeout=10)
    replace = os.replace

    def replace_when_both_written(src, dst):
        both_written.wait()
        replace(src, dst)

    monkeypatch.setattr(artifact_module.os, "replace", replace_when_both_written)
    errors = []

    def save(art):
        try:
            save_artifact(art, path)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=save, args=(art,)) for art in arts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    monkeypatch.undo()
    assert errors == []
    assert (tmp_path / "model.erm").read_bytes() in wants
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.erm", "want1.erm", "want2.erm"]
