"""Pipeline configuration: parsing, validation, canonical serialization.

A config is five sections. Parsing is strict: every key must be known,
every value type-checked, and the result is an immutable dataclass tree.
Serialization is canonical (sorted keys, compact separators, repr floats)
so that a config embedded in a model artifact is byte-comparable.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import InvalidValue, MissingSection, UnknownKey
from .features import FeatureSpec, is_utf8

SECTION_NAMES = ("data_config", "feature_config", "model_config", "train_config", "eval_config")
MODEL_TYPES = ("deepfm", "logreg")
METRIC_NAMES = ("auc", "logloss")
DISTRIBUTION_KINDS = ("uniform", "loguniform", "choice", "randint")


@dataclass(frozen=True)
class DataConfig:
    train_path: str = ""
    eval_path: str = ""
    format: str = "csv"
    label_column: str = "label"
    delimiter: str = ","


@dataclass(frozen=True)
class ModelConfig:
    model_type: str = "deepfm"
    embedding_dim: int = 8
    mlp_hidden_dims: tuple[int, ...] = (64, 32)
    embedding_regularization: float = 0.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 256
    num_epochs: int = 1
    seed: int = 42
    delta_period_steps: int = 100
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8


@dataclass(frozen=True)
class EvalConfig:
    metrics: tuple[str, ...] = ("auc", "logloss")
    eval_interval: int = 1


@dataclass(frozen=True)
class PipelineConfig:
    data_config: DataConfig = field(default_factory=DataConfig)
    feature_config: tuple[FeatureSpec, ...] = ()
    model_config: ModelConfig = field(default_factory=ModelConfig)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    eval_config: EvalConfig = field(default_factory=EvalConfig)


@dataclass(frozen=True)
class Distribution:
    kind: str
    lo: float = 0.0
    hi: float = 0.0
    values: tuple[Any, ...] = ()


@dataclass(frozen=True)
class SearchSpace:
    entries: tuple[tuple[str, Distribution], ...] = ()


def _check_scalar(path: str, value: Any, kind: type) -> Any:
    # bool is a subclass of int; never accept it for numeric fields.
    if isinstance(value, bool):
        raise InvalidValue(path, "boolean not allowed here")
    if kind is float:
        if not isinstance(value, (int, float)):
            raise InvalidValue(path, f"expected number, got {type(value).__name__}")
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValue(path, "must be finite")
        return value
    if not isinstance(value, kind):
        raise InvalidValue(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_section(path: str, raw: Any, defaults: Any) -> Any:
    """Fill one flat dataclass section from a JSON object, rejecting unknowns."""
    if not isinstance(raw, dict):
        raise InvalidValue(path, "section must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(defaults)}
    updates: dict[str, Any] = {}
    for key, value in raw.items():
        dotted = f"{path}.{key}"
        if key not in fields:
            raise UnknownKey(dotted)
        default = getattr(defaults, key)
        if isinstance(default, tuple):
            if not isinstance(value, list):
                raise InvalidValue(dotted, "expected a JSON array")
            element = type(default[0]) if default else int
            updates[key] = tuple(_check_scalar(f"{dotted}[{i}]", v, element) for i, v in enumerate(value))
        else:
            updates[key] = _check_scalar(dotted, value, type(default))
    return replace(defaults, **updates)


def _parse_feature_specs(raw: Any) -> tuple[FeatureSpec, ...]:
    if not isinstance(raw, list):
        raise InvalidValue("feature_config", "expected a JSON array of feature specs")
    if not raw:
        # The model needs a slot: its MLP input and its FM term are built from the slots.
        raise InvalidValue("feature_config", "needs at least one feature spec")
    specs = []
    for i, entry in enumerate(raw):
        path = f"feature_config[{i}]"
        if not isinstance(entry, dict):
            raise InvalidValue(path, "feature spec must be a JSON object")
        known = {
            "name": str,
            "kind": str,
            "source_columns": list,
            "vocab_size": int,
            "boundaries": list,
            "pooling": str,
        }
        kwargs: dict[str, Any] = {}
        for key, value in entry.items():
            dotted = f"{path}.{key}"
            if key not in known:
                raise UnknownKey(dotted)
            if key == "source_columns":
                if not isinstance(value, list):
                    raise InvalidValue(dotted, "expected a JSON array")
                kwargs[key] = tuple(_check_scalar(f"{dotted}[{j}]", v, str) for j, v in enumerate(value))
            elif key == "boundaries":
                if not isinstance(value, list):
                    raise InvalidValue(dotted, "expected a JSON array")
                kwargs[key] = tuple(_check_scalar(f"{dotted}[{j}]", v, float) for j, v in enumerate(value))
            else:
                kwargs[key] = _check_scalar(dotted, value, known[key])
        if "name" not in kwargs:
            raise InvalidValue(f"{path}.name", "feature spec needs a name")
        if "kind" not in kwargs:
            raise InvalidValue(f"{path}.kind", "feature spec needs a kind")
        if "source_columns" not in kwargs:
            raise InvalidValue(f"{path}.source_columns", "feature spec needs source columns")
        spec = FeatureSpec(**kwargs)
        spec.validate(path)
        specs.append(spec)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dup = sorted(n for n in set(names) if names.count(n) > 1)[0]
        raise InvalidValue("feature_config", f"duplicate slot name {dup!r}")
    return tuple(specs)


def _validate(cfg: PipelineConfig) -> None:
    d, m, t, e = cfg.data_config, cfg.model_config, cfg.train_config, cfg.eval_config
    if d.format != "csv":
        raise InvalidValue("data_config.format", f"unsupported format {d.format!r}")
    if len(d.delimiter) != 1:
        raise InvalidValue("data_config.delimiter", "must be a single character")
    if not d.label_column:
        raise InvalidValue("data_config.label_column", "must be non-empty")
    if not is_utf8(d.label_column):
        raise InvalidValue("data_config.label_column", "has no UTF-8 form")
    if m.model_type not in MODEL_TYPES:
        raise InvalidValue("model_config.model_type", f"unknown model type {m.model_type!r}")
    if m.embedding_dim < 1:
        raise InvalidValue("model_config.embedding_dim", "must be >= 1")
    if m.embedding_regularization < 0:
        raise InvalidValue("model_config.embedding_regularization", "must be >= 0")
    if any(h < 1 for h in m.mlp_hidden_dims):
        raise InvalidValue("model_config.mlp_hidden_dims", "hidden sizes must be >= 1")
    if t.learning_rate <= 0:
        raise InvalidValue("train_config.learning_rate", "must be > 0")
    if t.batch_size < 1:
        raise InvalidValue("train_config.batch_size", "must be >= 1")
    if t.num_epochs < 0:
        raise InvalidValue("train_config.num_epochs", "must be >= 0")
    if t.delta_period_steps < 1:
        raise InvalidValue("train_config.delta_period_steps", "must be >= 1")
    if t.optimizer != "adam":
        raise InvalidValue("train_config.optimizer", f"unsupported optimizer {t.optimizer!r}")
    if not 0 <= t.adam_beta1 < 1:
        raise InvalidValue("train_config.adam_beta1", "must be in [0, 1)")
    if not 0 <= t.adam_beta2 < 1:
        raise InvalidValue("train_config.adam_beta2", "must be in [0, 1)")
    if t.adam_epsilon <= 0:
        raise InvalidValue("train_config.adam_epsilon", "must be > 0")
    for metric in e.metrics:
        if metric not in METRIC_NAMES:
            raise InvalidValue("eval_config.metrics", f"unknown metric {metric!r}")
    if e.eval_interval < 1:
        raise InvalidValue("eval_config.eval_interval", "must be >= 1")


def build_config(obj: Any) -> PipelineConfig:
    """Validate a parsed JSON object into a PipelineConfig."""
    if not isinstance(obj, dict):
        raise InvalidValue("", "config must be a JSON object")
    for name in SECTION_NAMES:
        if name not in obj:
            raise MissingSection(name)
    for key in obj:
        if key not in SECTION_NAMES:
            raise UnknownKey(key)
    cfg = PipelineConfig(
        data_config=_parse_section("data_config", obj["data_config"], DataConfig()),
        feature_config=_parse_feature_specs(obj["feature_config"]),
        model_config=_parse_section("model_config", obj["model_config"], ModelConfig()),
        train_config=_parse_section("train_config", obj["train_config"], TrainConfig()),
        eval_config=_parse_section("eval_config", obj["eval_config"], EvalConfig()),
    )
    _validate(cfg)
    return cfg


def parse_host_port(text: str, path: str) -> tuple[str, int]:
    """Split "host:port"; raises InvalidValue at `path` unless the port is an integer in 0-65535."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise InvalidValue(path, "expected host:port")
    try:
        number = int(port)
    except ValueError:
        raise InvalidValue(path, f"port {port!r} is not an integer") from None
    if not 0 <= number <= 65535:
        raise InvalidValue(path, f"port {number} is outside 0-65535")
    return host, number


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or an integer past Python's digit limit;
        # RecursionError: arrays or objects nested too deep.
        raise InvalidValue("", f"invalid JSON: {exc}") from None


def parse_config(text: str) -> PipelineConfig:
    return build_config(_parse_json(text))


def to_plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_plain(v) for v in value]
    return value


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace, ASCII, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def apply_override(cfg: PipelineConfig, path: str, value: Any) -> PipelineConfig:
    """Return a copy of cfg with the single scalar leaf at `path` replaced."""
    parts = path.split(".")
    if len(parts) != 2:
        raise UnknownKey(path)
    section_name, leaf = parts
    if section_name not in SECTION_NAMES or section_name == "feature_config":
        raise UnknownKey(path)
    section = getattr(cfg, section_name)
    fields = {f.name for f in dataclasses.fields(section)}
    if leaf not in fields:
        raise UnknownKey(path)
    current = getattr(section, leaf)
    if isinstance(current, tuple):
        raise InvalidValue(path, "override targets must be scalar leaves")
    checked = _check_scalar(path, value, type(current))
    new_cfg = replace(cfg, **{section_name: replace(section, **{leaf: checked})})
    _validate(new_cfg)
    return new_cfg


def parse_search_space(text: str) -> SearchSpace:
    """Parse an HPO search space: dotted path -> {"_type", "_value"}."""
    return build_search_space(_parse_json(text))


def build_search_space(obj: Any) -> SearchSpace:
    if not isinstance(obj, dict):
        raise InvalidValue("", "search space must be a JSON object")
    entries = []
    for path, entry in obj.items():
        if not isinstance(entry, dict):
            raise InvalidValue(path, "entry must be an object with _type and _value")
        for key in entry:
            if key not in ("_type", "_value"):
                raise UnknownKey(f"{path}.{key}")
        kind = entry.get("_type")
        value = entry.get("_value")
        if kind not in DISTRIBUTION_KINDS:
            raise InvalidValue(path, f"unknown _type {kind!r}")
        if not isinstance(value, list):
            raise InvalidValue(path, "_value must be an array")
        if kind == "choice":
            if not value:
                raise InvalidValue(path, "choice list must be non-empty")
            entries.append((path, Distribution(kind="choice", values=tuple(value))))
            continue
        if len(value) != 2:
            raise InvalidValue(path, f"{kind} needs [lo, hi] bounds")
        lo, hi = value
        for bound in (lo, hi):
            if isinstance(bound, bool) or not isinstance(bound, (int, float)):
                raise InvalidValue(path, "bounds must be numbers")
            if not math.isfinite(bound):
                raise InvalidValue(path, "bounds must be finite")
        if not lo < hi:
            raise InvalidValue(path, "lo must be < hi")
        if kind == "loguniform" and lo <= 0:
            raise InvalidValue(path, "loguniform lo must be > 0")
        if kind == "randint":
            if int(lo) != lo or int(hi) != hi:
                raise InvalidValue(path, "randint bounds must be integers")
            entries.append((path, Distribution(kind="randint", lo=int(lo), hi=int(hi))))
        else:
            entries.append((path, Distribution(kind=kind, lo=float(lo), hi=float(hi))))
    return SearchSpace(entries=tuple(entries))
