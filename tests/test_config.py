"""Config parsing, validation, overrides, and search-space handling."""

import json

import pytest

from minirec.config import (
    apply_override,
    build_search_space,
    canonical_json,
    parse_config,
    parse_search_space,
    to_plain,
)
from minirec.errors import InvalidValue, MissingSection, UnknownKey

from helpers import UNPARSABLE_JSON, config_dict


def test_minimal_config_fills_defaults(tmp_path):
    obj = {
        "data_config": {"train_path": "t.csv"},
        "feature_config": [
            {"name": "u", "kind": "id", "source_columns": ["u"], "vocab_size": 10},
        ],
        "model_config": {},
        "train_config": {},
        "eval_config": {},
    }
    cfg = parse_config(json.dumps(obj))
    assert cfg.train_config.learning_rate == 0.001
    assert cfg.train_config.batch_size == 256
    assert cfg.train_config.seed == 42
    assert cfg.train_config.delta_period_steps == 100
    assert cfg.model_config.embedding_dim == 8
    assert cfg.model_config.model_type == "deepfm"
    assert cfg.eval_config.metrics == ("auc", "logloss")


def test_missing_section(tmp_path):
    obj = config_dict(tmp_path)
    del obj["eval_config"]
    with pytest.raises(MissingSection) as err:
        parse_config(json.dumps(obj))
    assert "eval_config" in str(err.value)


def test_unknown_top_level_key(tmp_path):
    obj = config_dict(tmp_path)
    obj["extra_config"] = {}
    with pytest.raises(UnknownKey):
        parse_config(json.dumps(obj))


def test_unknown_field_inside_section(tmp_path):
    obj = config_dict(tmp_path)
    obj["train_config"]["momentum"] = 0.9
    with pytest.raises(UnknownKey) as err:
        parse_config(json.dumps(obj))
    assert "train_config.momentum" in str(err.value)


@pytest.mark.parametrize(
    "section,field,value",
    [
        ("model_config", "embedding_regularization", -1.0),
        ("model_config", "embedding_dim", 0),
        ("model_config", "model_type", "wide_and_deep"),
        ("train_config", "batch_size", 0),
        ("train_config", "learning_rate", 0.0),
        ("train_config", "num_epochs", -1),
        ("train_config", "delta_period_steps", 0),
        ("eval_config", "metrics", ["auc", "ndcg"]),
        ("eval_config", "eval_interval", 0),
        ("data_config", "format", "parquet"),
        ("data_config", "delimiter", ",,"),
    ],
)
def test_invalid_values(tmp_path, section, field, value):
    obj = config_dict(tmp_path)
    obj[section][field] = value
    with pytest.raises(InvalidValue):
        parse_config(json.dumps(obj))


def test_label_column_without_utf8_form_rejected(tmp_path):
    """A JSON escape such as \\ud800 parses into a lone surrogate, which no CSV header can hold."""
    obj = config_dict(tmp_path)
    obj["data_config"]["label_column"] = "\ud800"
    with pytest.raises(InvalidValue) as err:
        parse_config(json.dumps(obj))
    assert "data_config.label_column" in str(err.value)


def test_bool_rejected_for_numeric_field(tmp_path):
    obj = config_dict(tmp_path)
    obj["train_config"]["batch_size"] = True
    with pytest.raises(InvalidValue):
        parse_config(json.dumps(obj))


def test_duplicate_slot_names(tmp_path):
    obj = config_dict(tmp_path)
    obj["feature_config"].append(dict(obj["feature_config"][0]))
    with pytest.raises(InvalidValue):
        parse_config(json.dumps(obj))


def test_empty_feature_config_rejected(tmp_path):
    obj = config_dict(tmp_path)
    obj["feature_config"] = []
    with pytest.raises(InvalidValue, match="at least one feature spec"):
        parse_config(json.dumps(obj))


def test_zero_epochs_allowed(tmp_path):
    obj = config_dict(tmp_path)
    obj["train_config"]["num_epochs"] = 0
    cfg = parse_config(json.dumps(obj))
    assert cfg.train_config.num_epochs == 0


class TestRoundtrip:
    def test_parse_serialize_parse(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        again = parse_config(canonical_json(to_plain(cfg)))
        assert again == cfg

    def test_serialization_is_canonical(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        assert canonical_json(to_plain(cfg)) == canonical_json(to_plain(cfg))
        # sorted keys, no whitespace
        text = canonical_json(to_plain(cfg))
        assert ": " not in text and ", " not in text

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestApplyOverride:
    def test_changes_exactly_one_leaf(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        out = apply_override(cfg, "model_config.embedding_regularization", 5e-5)
        assert out.model_config.embedding_regularization == 5e-5
        before = json.loads(canonical_json(to_plain(cfg)))
        after = json.loads(canonical_json(to_plain(out)))
        diffs = []
        for section in before:
            if before[section] == after[section]:
                continue
            for key in before[section]:
                if before[section][key] != after[section][key]:
                    diffs.append(f"{section}.{key}")
        assert diffs == ["model_config.embedding_regularization"]

    def test_identity_override(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        same = apply_override(cfg, "train_config.seed", cfg.train_config.seed)
        assert same == cfg

    def test_unknown_leaf(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        with pytest.raises(UnknownKey):
            apply_override(cfg, "model_config.no_such_field", 1)

    def test_type_mismatch(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        with pytest.raises(InvalidValue):
            apply_override(cfg, "train_config.batch_size", "large")

    def test_revalidates(self, tmp_path):
        cfg = parse_config(json.dumps(config_dict(tmp_path)))
        with pytest.raises(InvalidValue):
            apply_override(cfg, "train_config.learning_rate", -0.5)


class TestSearchSpace:
    def test_uniform_entry(self):
        space = parse_search_space(json.dumps({
            "model_config.embedding_regularization":
                {"_type": "uniform", "_value": [1e-6, 1e-4]},
        }))
        (path, dist), = space.entries
        assert path == "model_config.embedding_regularization"
        assert dist.kind == "uniform"
        assert (dist.lo, dist.hi) == (1e-6, 1e-4)

    def test_choice_entry(self):
        space = parse_search_space(json.dumps({
            "p": {"_type": "choice", "_value": [8, 16, 32]},
        }))
        (path, dist), = space.entries
        assert dist.kind == "choice"
        assert dist.values == (8, 16, 32)

    def test_loguniform_requires_positive_lo(self):
        with pytest.raises(InvalidValue):
            parse_search_space(json.dumps({
                "p": {"_type": "loguniform", "_value": [0, 1]},
            }))

    def test_unknown_type(self):
        with pytest.raises(InvalidValue):
            parse_search_space(json.dumps({"p": {"_type": "normal", "_value": [0, 1]}}))

    def test_bounds_must_order(self):
        with pytest.raises(InvalidValue):
            build_search_space({"p": {"_type": "uniform", "_value": [2.0, 1.0]}})

    def test_empty_choice(self):
        with pytest.raises(InvalidValue):
            build_search_space({"p": {"_type": "choice", "_value": []}})

    def test_randint_needs_integers(self):
        with pytest.raises(InvalidValue):
            build_search_space({"p": {"_type": "randint", "_value": [1.5, 4]}})


def test_to_plain_roundtrips_config(tmp_path):
    cfg = parse_config(json.dumps(config_dict(tmp_path)))
    plain = to_plain(cfg)
    assert isinstance(plain, dict)
    assert set(plain) == {"data_config", "feature_config", "model_config",
                          "train_config", "eval_config"}


@pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON.keys())
@pytest.mark.parametrize("parse", [parse_config, parse_search_space])
def test_unparsable_json_is_invalid_value(parse, text):
    with pytest.raises(InvalidValue, match="invalid JSON"):
        parse(text)
