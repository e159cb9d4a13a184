"""Model artifact file format.

Layout:
  8 bytes   magic "ERMODEL1"
  4 bytes   u32 little-endian header length
  N bytes   canonical header JSON: config, model_version, seed, step_count,
            tensor directory [{name, shape, offset}] listing the config's
            `tensor_shapes` in order, with byte offsets into the payload,
            gapless from 0
  rest      tensor payloads, little-endian float32, directory order

The embedded config is the exact config the model was trained with, so an
artifact alone is enough to regenerate features and score consistently.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, build_config, canonical_json, to_plain
from .errors import ConfigError, FormatError, IoError
from .model import ModelParams, tensor_shapes

MAGIC = b"ERMODEL1"


@dataclass
class ModelArtifact:
    config: PipelineConfig
    params: ModelParams
    seed: int
    step_count: int

    @property
    def model_version(self) -> int:
        return self.params.model_version


def save_artifact(artifact: ModelArtifact, path: str) -> None:
    items = artifact.params.tensors.items()
    directory = []
    offset = 0
    for name, arr in items:
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    header = {
        "config": to_plain(artifact.config),
        "model_version": artifact.params.model_version,
        "seed": artifact.seed,
        "step_count": artifact.step_count,
        "tensors": directory,
    }
    header_bytes = canonical_json(header).encode("utf-8")
    # Written whole beside the target, then renamed over it: a reader sees
    # the old artifact or the new one, never a partial file.
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for _, arr in items:
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp_path, path)
    except OSError as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise IoError(f"cannot write artifact {path!r}: {exc}") from exc


def load_artifact(path: str) -> ModelArtifact:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read artifact {path!r}: {exc}") from exc

    if len(blob) < len(MAGIC) + 4:
        raise FormatError("artifact shorter than fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    if len(blob) < header_end:
        raise FormatError("truncated header")
    try:
        header = json.loads(blob[len(MAGIC) + 4 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid header JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object")
    for key in ("config", "model_version", "seed", "step_count", "tensors"):
        if key not in header:
            raise FormatError(f"header missing {key!r}")
        if key not in ("config", "tensors") and type(header[key]) is not int:
            raise FormatError(f"header {key!r} is not an integer")
    try:
        cfg = build_config(header["config"])
    except ConfigError as exc:
        raise FormatError(f"invalid embedded config: {exc}") from None

    shapes = tensor_shapes(cfg)
    directory = header["tensors"]
    if not isinstance(directory, list) or len(directory) != len(shapes):
        raise FormatError(f"tensor directory must be a list of {len(shapes)} entries")
    payload_len = len(blob) - header_end
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for entry, (name, shape) in zip(directory, shapes.items()):
        want = {"name": name, "shape": list(shape), "offset": offset}
        if entry != want:
            raise FormatError(f"tensor directory entry {entry!r}, expected {want!r}")
        count = math.prod(shape)
        end = offset + 4 * count
        if end > payload_len:
            raise FormatError(f"tensor {name!r} extends past end of file")
        data = np.frombuffer(blob, dtype="<f4", count=count, offset=header_end + offset)
        tensors[name] = data.reshape(shape).astype(np.float32)
        offset = end
    if offset != payload_len:
        raise FormatError("trailing bytes after last tensor")

    m = cfg.model_config
    params = ModelParams(
        specs=cfg.feature_config,
        model_type=m.model_type,
        embedding_dim=m.embedding_dim,
        tensors=tensors,
        model_version=header["model_version"],
    )
    return ModelArtifact(config=cfg, params=params, seed=header["seed"], step_count=header["step_count"])
