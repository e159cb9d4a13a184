"""Model artifact file format.

Layout:
  8 bytes   magic "ERMODEL1"
  4 bytes   u32 little-endian header length
  N bytes   canonical header JSON: config, model_version, seed, step_count,
            tensor directory [{name, shape, offset}] listing the config's
            `tensor_shapes` in order, with byte offsets into the payload,
            gapless from 0
  rest      tensor payloads, little-endian float32, directory order

Loading reads each tensor's payload into its slice of the parameter
arenas (`model.ArenaLayout`).

The embedded config is the exact config the model was trained with, so an
artifact alone is enough to regenerate features and score consistently.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, build_config, canonical_json, to_plain
from .errors import ConfigError, FormatError, IoError
from .model import ModelParams, empty_params

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
            return _read_artifact(fh, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise IoError(f"cannot read artifact {path!r}: {exc}") from exc


def _read_artifact(fh, size: int) -> ModelArtifact:
    """Parse an open artifact file of `size` bytes, each tensor read straight into its arena slice."""
    fixed = fh.read(len(MAGIC) + 4)
    if len(fixed) < len(MAGIC) + 4:
        raise FormatError("artifact shorter than fixed header")
    if fixed[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic")
    (header_len,) = struct.unpack_from("<I", fixed, len(MAGIC))
    header_end = len(fixed) + header_len
    if size < header_end:
        raise FormatError("truncated header")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON or an integer past Python's digit
        # limit; RecursionError: arrays or objects nested too deep.
        raise FormatError(f"invalid header JSON: {type(exc).__name__}: {exc}") from None
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

    params = empty_params(cfg)
    directory = header["tensors"]
    if not isinstance(directory, list) or len(directory) != len(params.tensors):
        raise FormatError(f"tensor directory must be a list of {len(params.tensors)} entries")
    payload_len = size - header_end
    offset = 0
    for entry, (name, tensor) in zip(directory, params.tensors.items()):
        want = {"name": name, "shape": list(tensor.shape), "offset": offset}
        if entry != want:
            raise FormatError(f"tensor directory entry {entry!r}, expected {want!r}")
        end = offset + tensor.nbytes
        if end > payload_len or fh.readinto(memoryview(tensor).cast("B")) != tensor.nbytes:
            raise FormatError(f"tensor {name!r} extends past end of file")
        offset = end
    if offset != payload_len:
        raise FormatError("trailing bytes after last tensor")
    if sys.byteorder == "big":
        # The payload is little-endian float32.
        for arena in (params.emb, params.fo, params.dense):
            arena.byteswap(inplace=True)

    params.model_version = header["model_version"]
    return ModelArtifact(config=cfg, params=params, seed=header["seed"], step_count=header["step_count"])
