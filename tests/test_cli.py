"""End-to-end command-line flows driven through main(argv)."""

import csv
import errno
import io
import json
import os
import re
import statistics
import time

import numpy as np
import pytest

from minirec import feature_select, serving, trainer
from minirec.artifact import load_artifact, save_artifact
from minirec.cli import main
from minirec.config import parse_config
from minirec.errors import DataError
from minirec.features import generate
from minirec.model import PROB_CLIP, forward

from helpers import (
    HOSTILE_VALUES,
    UNPARSABLE_JSON,
    config_dict,
    five_kind_feature_config,
    informative_feature_config,
    write_csv,
    write_informative_dataset,
    write_logistic_dataset,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else None


@pytest.fixture
def workspace(tmp_path):
    """Config file plus small train/eval CSVs following a learnable rule."""
    write_logistic_dataset(tmp_path, n_train=300, n_eval=150, seed=77)
    cfg = config_dict(tmp_path, train_config={
        "num_epochs": 2, "batch_size": 32, "learning_rate": 0.05,
        "seed": 7, "delta_period_steps": 50,
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestTrainCommand:
    def test_writes_artifact_and_report(self, workspace, tmp_path, capsys):
        model_dir = tmp_path / "model"
        code, summary = _run(capsys, [
            "train", "-c", str(workspace), "--model-dir", str(model_dir)])
        assert code == 0
        assert summary["command"] == "train"
        assert (model_dir / "model.erm").exists()
        report = json.loads((model_dir / "report.json").read_text())
        assert len(report["curves"]) == 2
        assert 0.0 <= summary["final_metrics"]["auc"] <= 1.0
        assert summary["steps"] > 0

    def test_matches_library_call_bitwise(self, workspace, tmp_path, capsys):
        model_dir = tmp_path / "cli_model"
        code, _ = _run(capsys, [
            "train", "-c", str(workspace), "--model-dir", str(model_dir)])
        assert code == 0
        art, _ = trainer.train(parse_config(workspace.read_text()))
        api_path = tmp_path / "api.erm"
        save_artifact(art, str(api_path))
        assert (model_dir / "model.erm").read_bytes() == api_path.read_bytes()

    def test_seed_flag_controls_artifact(self, workspace, tmp_path, capsys):
        paths = []
        for name, seed in (("a", "8"), ("b", "9"), ("c", "8")):
            model_dir = tmp_path / name
            code, _ = _run(capsys, [
                "train", "-c", str(workspace), "--model-dir", str(model_dir),
                "--seed", seed])
            assert code == 0
            paths.append((model_dir / "model.erm").read_bytes())
        assert paths[0] != paths[1]
        assert paths[0] == paths[2]

    def test_summary_times_the_phases_and_report_json_is_stable(self, workspace, tmp_path, capsys):
        """stdout reports samples/s and seconds per phase; report.json holds neither, so two runs write the same bytes."""
        reports = []
        for name in ("a", "b"):
            model_dir = tmp_path / name
            start = time.perf_counter()
            code, summary = _run(capsys, ["train", "-c", str(workspace), "--model-dir", str(model_dir),
                                          "--queue", f"file://{tmp_path / name}.dq"])
            wall = time.perf_counter() - start
            assert code == 0
            phases = summary["phase_s"]
            assert set(phases) == {"load", "init", "steps", "eval", "emit"}
            assert all(seconds > 0.0 for seconds in phases.values()), phases
            assert sum(phases.values()) <= wall
            assert summary["samples_per_s"] == 2 * 300 / phases["steps"]
            reports.append((model_dir / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_empty_training_file_refused_before_training(self, workspace, tmp_path, capsys, monkeypatch):
        empty = tmp_path / "empty.csv"
        write_csv(empty, ["label", "user_id", "item_id"], [])
        monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: pytest.fail("training started"))
        model_dir = tmp_path / "model"
        code = main(["train", "-c", str(workspace), "--train", str(empty), "--model-dir", str(model_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "training file" in err and "has no data rows" in err and "Traceback" not in err
        assert not (model_dir / "model.erm").exists()


class TestTrainQueueFaults:
    """A queue file that cannot be written or synced ends `train` with exit 2, one error line and no outputs."""

    @staticmethod
    def _failing_fsync(monkeypatch):
        calls = []

        def fsync(fd):
            calls.append(fd)
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    @staticmethod
    def _train(capsys, config, tmp_path, queue):
        model_dir = tmp_path / "model"
        code = main(["train", "-c", str(config), "--model-dir", str(model_dir), "--queue", f"file://{queue}"])
        err = capsys.readouterr().err.strip().splitlines()
        assert not (model_dir / "model.erm").exists()
        return code, err

    def test_failed_sync_of_the_last_frame(self, workspace, tmp_path, capsys, monkeypatch):
        """Training succeeds; the last frame's fsync fails while the queue closes, and that is the error."""
        calls = self._failing_fsync(monkeypatch)
        code, err = self._train(capsys, workspace, tmp_path, tmp_path / "q")
        assert code == 2 and len(calls) == 1
        assert len(err) == 1 and re.fullmatch(r"error: cannot sync queue file .*q\.dq.*injected fsync failure", err[0])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose writes fail")
    def test_failed_write(self, workspace, tmp_path, capsys):
        (tmp_path / "q.dq").symlink_to("/dev/full")
        code, err = self._train(capsys, workspace, tmp_path, tmp_path / "q")
        assert code == 2
        assert len(err) == 1 and re.fullmatch(r"error: cannot write queue file .*q\.dq.*", err[0])

    def test_training_error_is_reported_before_a_close_error(self, workspace, tmp_path, capsys, monkeypatch):
        """Frame 1 is published after step 10 and its fsync fails; then eval fails, and eval's error is the one shown."""
        cfg = json.loads(workspace.read_text())
        cfg["train_config"]["delta_period_steps"] = 10
        config = tmp_path / "period10.json"
        config.write_text(json.dumps(cfg))
        calls = self._failing_fsync(monkeypatch)

        def failing_eval(*args):
            raise DataError(1, "planted eval failure")

        monkeypatch.setattr(trainer, "evaluate_params", failing_eval)
        code, err = self._train(capsys, config, tmp_path, tmp_path / "q")
        assert code == 2 and len(calls) == 1
        assert err == ["error: bad data row 1: planted eval failure"]


class TestEvalCommand:
    def test_reports_metrics(self, workspace, tmp_path, capsys):
        model_dir = tmp_path / "model"
        _run(capsys, ["train", "-c", str(workspace), "--model-dir", str(model_dir)])
        code, summary = _run(capsys, [
            "eval", "-c", str(workspace), "--model", str(model_dir / "model.erm")])
        assert code == 0
        assert summary["rows"] == 150
        assert 0.0 <= summary["auc"] <= 1.0
        assert summary["logloss"] > 0.0

    def test_missing_artifact_is_runtime_error(self, workspace, tmp_path, capsys):
        code, _ = _run(capsys, [
            "eval", "-c", str(workspace), "--model", str(tmp_path / "absent.erm")])
        assert code == 2


class TestExportAndPredict:
    def test_export_then_predict_matches_api(self, workspace, tmp_path, capsys):
        model_dir = tmp_path / "init"
        code, summary = _run(capsys, [
            "export", "-c", str(workspace), "--model-dir", str(model_dir)])
        assert code == 0
        assert summary["model_version"] == 0

        scores_path = tmp_path / "scores.txt"
        eval_csv = tmp_path / "eval.csv"
        code, summary = _run(capsys, [
            "predict-file", "--model", str(model_dir / "model.erm"),
            "--input", str(eval_csv), "--out", str(scores_path)])
        assert code == 0
        assert summary["rows"] == 150

        art = load_artifact(str(model_dir / "model.erm"))
        batch = generate(trainer.read_columns(str(eval_csv)), art.config.feature_config)
        want = [float(forward(art.params, batch.take([i])).probability[0])
                for i in range(len(batch))]
        got = [float(line) for line in scores_path.read_text().splitlines()]
        assert got == want


class TestHpoCommand:
    def test_search_smoke(self, workspace, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({
            "train_config.learning_rate": {"_type": "loguniform", "_value": [1e-3, 0.2]},
        }))
        trials_path = tmp_path / "trials.json"
        code, summary = _run(capsys, [
            "hpo", "-c", str(workspace), "--space", str(space_path),
            "--max-trials", "3", "--epochs", "2", "--out", str(trials_path)])
        assert code == 0
        assert summary["trials"] == 3
        assert isinstance(summary["best_metric"], float)
        trials = json.loads(trials_path.read_text())
        assert len(trials) == 3
        for trial in trials:
            assert set(trial) >= {"trial_id", "assignment", "curve", "status",
                                  "final_metric"}
            assert "train_config.learning_rate" in trial["assignment"]


    def test_header_only_training_file_names_the_cause(self, workspace, tmp_path, capsys, monkeypatch):
        empty = tmp_path / "empty.csv"
        write_csv(empty, ["label", "user_id", "item_id"], [])
        cfg = json.loads(workspace.read_text())
        cfg["data_config"]["train_path"] = str(empty)
        config = tmp_path / "empty_train.json"
        config.write_text(json.dumps(cfg))
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "train_config.learning_rate": {"_type": "loguniform", "_value": [1e-3, 0.2]},
        }))
        reads = []
        load_dataset = trainer.load_dataset
        monkeypatch.setattr(trainer, "load_dataset",
                            lambda cfg, path: reads.append(path) or load_dataset(cfg, path))
        code = main(["hpo", "-c", str(config), "--space", str(space), "--max-trials", "3", "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "trial 0 failed" in err and "has no data rows" in err and "Traceback" not in err
        # The failed load is not repeated for the second and third trials.
        assert reads == [str(empty)]


class TestSelectFeaturesCommand:
    def test_prunes_to_keep_fraction(self, tmp_path, capsys):
        train, valid = tmp_path / "train.csv", tmp_path / "eval.csv"
        write_informative_dataset(train, 6, (0, 1), 600, 5, scale=3.0)
        write_informative_dataset(valid, 6, (0, 1), 300, 1005, scale=3.0)
        cfg = config_dict(tmp_path, feature_config=informative_feature_config(6, vocab=200),
                          model_config={"embedding_dim": 4, "mlp_hidden_dims": [8]},
                          train_config={"num_epochs": 2, "learning_rate": 0.05,
                                        "batch_size": 64, "seed": 3})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        report_path = tmp_path / "report.json"
        code, summary = _run(capsys, [
            "select-features", "-c", str(cfg_path), "--keep-fraction", "0.5",
            "--out", str(report_path)])
        assert code == 0
        assert len(summary["kept"]) == 3
        assert len(summary["dropped"]) == 3
        assert set(summary["kept"]).isdisjoint(summary["dropped"])
        report = json.loads(report_path.read_text())
        assert len(report["importances"]) == 6
        assert [s["name"] for s in report["kept_feature_config"]] == summary["kept"]

    @pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
    def test_bad_keep_fraction_rejected_before_training(self, workspace, capsys, monkeypatch,
                                                        fraction):
        monkeypatch.setattr(feature_select, "train_with_gates",
                            lambda *args, **kwargs: pytest.fail("gate training started"))
        code, _ = _run(capsys, [
            "select-features", "-c", str(workspace), "--keep-fraction", fraction])
        assert code == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--tau", "0", "tau"), ("--tau", "-1", "tau"), ("--tau", "nan", "tau"),
        ("--tau", "inf", "tau"), ("--gate-lr", "0", "gate_learning_rate"),
        ("--gate-lr", "nan", "gate_learning_rate"), ("--lambda-g", "-1", "lambda_g"),
        ("--lambda-g", "inf", "lambda_g"),
    ])
    def test_bad_gate_setting_rejected_before_training(self, workspace, capsys, monkeypatch,
                                                       flag, value, name):
        monkeypatch.setattr(feature_select, "load_dataset",
                            lambda *args, **kwargs: pytest.fail("gate training started"))
        code = main(["select-features", "-c", str(workspace), flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert f"'{name}'" in err and "Traceback" not in err

    def test_empty_validation_file_refused_before_training(self, workspace, tmp_path, capsys, monkeypatch):
        empty = tmp_path / "empty.csv"
        write_csv(empty, ["label", "user_id", "item_id"], [])
        monkeypatch.setattr(feature_select, "fit",
                            lambda *args, **kwargs: pytest.fail("gate training started"))
        code = main(["select-features", "-c", str(workspace), "--valid", str(empty)])
        err = capsys.readouterr().err
        assert code == 2
        assert "has no data rows" in err and "Traceback" not in err


    def test_empty_training_file_refused_before_training(self, workspace, tmp_path, capsys, monkeypatch):
        empty = tmp_path / "empty.csv"
        write_csv(empty, ["label", "user_id", "item_id"], [])
        monkeypatch.setattr(feature_select, "fit",
                            lambda *args, **kwargs: pytest.fail("gate training started"))
        code = main(["select-features", "-c", str(workspace), "--train", str(empty)])
        err = capsys.readouterr().err
        assert code == 2
        assert "training file" in err and "has no data rows" in err and "Traceback" not in err


class TestStreamJoinCommand:
    def test_joins_event_log(self, workspace, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        events = [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1",
             "payload": {"user_id": "u1", "item_id": "a"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"},
            {"kind": "click", "event_time": 12, "request_id": "r1", "item_key": "a"},
        ]
        events_path.write_text("".join(json.dumps(e) + "\n" for e in events))
        out_path = tmp_path / "samples.csv"
        stats_path = tmp_path / "stats.json"
        code, summary = _run(capsys, [
            "stream-join", "-c", str(workspace), "--events", str(events_path),
            "--window-ms", "5", "--out", str(out_path), "--stats", str(stats_path)])
        assert code == 0
        assert summary["samples"] == 1
        lines = out_path.read_text().splitlines()
        assert lines[0] == "label,item_id,user_id"
        assert lines[1] == "1,a,u1"
        assert json.loads(stats_path.read_text())["samples"] == 1

    def test_payload_key_equal_to_label_column_is_runtime_error(self, workspace, tmp_path, capsys):
        """A payload "label" would become a second label column, read in place of the joined one."""
        events_path = tmp_path / "events.jsonl"
        events = [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1",
             "payload": {"user_id": "u1", "label": "0", "note": "x"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"},
            {"kind": "click", "event_time": 12, "request_id": "r1", "item_key": "a"},
        ]
        events_path.write_text("".join(json.dumps(e) + "\n" for e in events))
        out_path = tmp_path / "samples.csv"
        code = main(["stream-join", "-c", str(workspace), "--events", str(events_path),
                     "--window-ms", "5", "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'payload:label'" in err and "Traceback" not in err
        assert not out_path.exists()

    def test_non_utf8_line_is_malformed(self, workspace, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        events = [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1",
             "payload": {"user_id": "u1", "item_id": "a"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"},
            {"kind": "click", "event_time": 12, "request_id": "r1", "item_key": "a"},
        ]
        lines = [json.dumps(e).encode() + b"\n" for e in events]
        lines.insert(1, b'{"kind": "click", "request_id": "r\xff"}\n')
        events_path.write_bytes(b"".join(lines))
        code, summary = _run(capsys, [
            "stream-join", "-c", str(workspace), "--events", str(events_path),
            "--window-ms", "5", "--out", str(tmp_path / "samples.csv")])
        assert code == 0
        assert (summary["samples"], summary["malformed"]) == (1, 1)

    @pytest.mark.parametrize("line", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON.keys())
    def test_unparsable_line_is_malformed(self, workspace, tmp_path, capsys, line):
        events_path = tmp_path / "events.jsonl"
        events = [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1", "payload": {"user_id": "u1"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"},
        ]
        events_path.write_text(line + "\n" + "".join(json.dumps(e) + "\n" for e in events))
        code, summary = _run(capsys, [
            "stream-join", "-c", str(workspace), "--events", str(events_path),
            "--window-ms", "5", "--out", str(tmp_path / "samples.csv")])
        assert code == 0
        assert (summary["samples"], summary["malformed"]) == (1, 1)

    def test_bad_window_is_runtime_error(self, workspace, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text("")
        code, _ = _run(capsys, [
            "stream-join", "-c", str(workspace), "--events", str(events_path),
            "--window-ms", "0", "--out", str(tmp_path / "out.csv")])
        assert code == 2


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, workspace, capsys):
        assert main(["train", "-c", str(workspace)]) == 1

    def test_missing_config_is_runtime_error(self, tmp_path, capsys):
        code, _ = _run(capsys, [
            "train", "-c", str(tmp_path / "none.json"),
            "--model-dir", str(tmp_path / "m")])
        assert code == 2

    @pytest.mark.parametrize("text", [*UNPARSABLE_JSON.values(), b'{"a": "\xff"}'],
                             ids=[*UNPARSABLE_JSON.keys(), "non_utf8_byte"])
    def test_unparsable_config_is_runtime_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["train", "-c", str(config), "--model-dir", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON.keys())
    def test_unparsable_search_space_is_runtime_error(self, workspace, tmp_path, capsys, text):
        space = tmp_path / "space.json"
        space.write_text(text)
        code = main(["hpo", "-c", str(workspace), "--space", str(space)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("bind", ["127.0.0.1:abc", "127.0.0.1:65536", "127.0.0.1:-1"])
    def test_bad_bind_port_is_runtime_error(self, workspace, tmp_path, capsys, bind):
        model_dir = tmp_path / "init"
        assert main(["export", "-c", str(workspace), "--model-dir", str(model_dir)]) == 0
        code = main(["serve", "--model", str(model_dir / "model.erm"), "--bind", bind])
        assert code == 2
        assert "--bind" in capsys.readouterr().err

    def test_bad_queue_port_is_runtime_error(self, workspace, tmp_path, capsys):
        code = main(["train", "-c", str(workspace), "--model-dir", str(tmp_path / "m"),
                     "--queue", "tcp://127.0.0.1:abc"])
        assert code == 2
        assert "queue" in capsys.readouterr().err

    def test_memory_queue_url_is_runtime_error(self, workspace, tmp_path, capsys):
        """No process-local queue: frames published to it could never reach a server."""
        code = main(["train", "-c", str(workspace), "--model-dir", str(tmp_path / "m"),
                     "--queue", "mem://x"])
        assert code == 2
        assert "unknown queue scheme 'mem'" in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.erm").exists()

    @pytest.mark.parametrize("interval", ["0", "-5"])
    @pytest.mark.parametrize("queue", [None, "file"])
    def test_bad_poll_interval_rejected_before_serving(self, workspace, tmp_path, capsys,
                                                       monkeypatch, interval, queue):
        model_dir = tmp_path / "init"
        assert main(["export", "-c", str(workspace), "--model-dir", str(model_dir)]) == 0
        monkeypatch.setattr(serving, "_Server",
                            lambda *args, **kwargs: pytest.fail("server started"))
        argv = ["serve", "--model", str(model_dir / "model.erm"), "--bind", "127.0.0.1:0",
                "--poll-interval-ms", interval]
        if queue:
            argv += ["--queue", f"file://{tmp_path / 'q'}"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "poll_interval_ms" in err and "Traceback" not in err

    def test_corrupt_artifact_is_runtime_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.erm"
        bad.write_bytes(b"junk")
        code, _ = _run(capsys, [
            "eval", "-c", str(workspace), "--model", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("bad_row", [
        "0,u\xff\n".encode("latin-1"), b"0," + b"x" * 200_000 + b"\n",
    ], ids=["non_utf8_byte", "long_field"])
    @pytest.mark.parametrize("command", ["train", "eval", "predict-file"])
    def test_unreadable_csv_row_is_named(self, workspace, tmp_path, capsys, command, bad_row):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"label,user_id,item_id\n1,u1,i1\n\n" + bad_row + b"1,u2,i2\n")
        model_dir = tmp_path / "model"
        assert main(["export", "-c", str(workspace), "--model-dir", str(model_dir)]) == 0
        argv = {
            "train": ["train", "-c", str(workspace), "--train", str(bad), "--model-dir", str(model_dir)],
            "eval": ["eval", "-c", str(workspace), "--model", str(model_dir / "model.erm"), "--eval", str(bad)],
            "predict-file": ["predict-file", "--model", str(model_dir / "model.erm"),
                             "--input", str(bad), "--out", str(tmp_path / "scores.txt")],
        }[command]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "bad data row 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "hpo", "select-features", "stream-join", "predict-file"])
    def test_unwritable_output_is_runtime_error(self, workspace, tmp_path, capsys, command):
        missing = str(tmp_path / "missing" / "out.json")
        model_dir = tmp_path / "model"
        assert main(["export", "-c", str(workspace), "--model-dir", str(model_dir)]) == 0
        # train writes report.json into the model directory; a directory of that name cannot be opened.
        (model_dir / "report.json").mkdir()
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"train_config.learning_rate": {"_type": "choice", "_value": [0.05]}}))
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"kind": "impression", "event_time": 1, "request_id": "r", "item_key": "a"}))
        argv = {
            "train": ["train", "-c", str(workspace), "--model-dir", str(model_dir)],
            "hpo": ["hpo", "-c", str(workspace), "--space", str(space), "--max-trials", "1", "--epochs", "1",
                    "--out", missing],
            "select-features": ["select-features", "-c", str(workspace), "--out", missing],
            "stream-join": ["stream-join", "-c", str(workspace), "--events", str(events), "--window-ms", "5",
                            "--out", str(tmp_path / "samples.csv"), "--stats", missing],
            "predict-file": ["predict-file", "--model", str(model_dir / "model.erm"),
                             "--input", str(tmp_path / "eval.csv"), "--out", missing],
        }[command]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write") and "Traceback" not in err

    @pytest.mark.parametrize("earlier", ["absent", "present"])
    @pytest.mark.parametrize("command", ["train", "stream-join"])
    def test_failed_output_leaves_earlier_outputs_as_they_were(self, workspace, tmp_path, capsys, command, earlier):
        """A command whose later output fails leaves no new file and every old one byte-identical."""
        model_dir, out, stats = tmp_path / "model", tmp_path / "samples.csv", tmp_path / "st.json"
        model_dir.mkdir()
        if earlier == "present":
            assert main(["export", "-c", str(workspace), "--model-dir", str(model_dir)]) == 0
            out.write_text("label,old\n1,x\n")
        events = tmp_path / "events.jsonl"
        events.write_text("".join(json.dumps(e) + "\n" for e in [
            {"kind": "feature_log", "event_time": 10, "request_id": "r1", "payload": {"user_id": "u1"}},
            {"kind": "impression", "event_time": 10, "request_id": "r1", "item_key": "a"}]))
        train = ["train", "-c", str(workspace), "--model-dir", str(model_dir)]
        join = ["stream-join", "-c", str(workspace), "--events", str(events), "--window-ms", "5", "--out", str(out)]

        def files():
            return {str(p.relative_to(tmp_path)): p.read_bytes() if p.is_file() else None
                    for p in tmp_path.rglob("*")}

        # train writes model.erm, then report.json, which is a directory here.
        (model_dir / "report.json").mkdir()
        before = files()
        capsys.readouterr()
        if command == "train":
            code = main(train)
        else:
            code = main([*join, "--stats", str(tmp_path / "missing" / "st.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert files() == before

        # With every output writable, the outputs appear and nothing else does.
        (model_dir / "report.json").rmdir()
        del before["model/report.json"]
        code = main(train if command == "train" else [*join, "--stats", str(stats)])
        assert code == 0
        added = {"train": {"model/model.erm", "model/report.json"}, "stream-join": {"samples.csv", "st.json"}}[command]
        after = files()
        assert set(after) == set(before) | added
        assert {name: data for name, data in after.items() if name not in added} == {
            name: data for name, data in before.items() if name not in added}

    @pytest.mark.parametrize("command", ["eval", "serve"])
    def test_deeply_nested_artifact_header_is_runtime_error(self, workspace, tmp_path, capsys, command):
        header = b"[" * 200_000
        bad = tmp_path / "nested.erm"
        bad.write_bytes(b"ERMODEL1" + len(header).to_bytes(4, "little") + header)
        argv = {"eval": ["eval", "-c", str(workspace), "--model", str(bad)],
                "serve": ["serve", "--model", str(bad), "--bind", "127.0.0.1:0"]}[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid header JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "predict-file"])
    def test_non_finite_logit_names_its_row(self, tmp_path, capsys, command):
        # Finite as float32, but the price's pooled embedding overflows the FM term.
        features = [{"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 50},
                    {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]}]
        rows = [[1, "u1", "2.5"], [0, "u2", "1e30"], [1, "u3", "3.4e38"], [0, "u4", "-1"]]
        write_csv(tmp_path / "data.csv", ["label", "user_id", "item_price"], rows)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_dict(tmp_path, feature_config=features)))
        model = tmp_path / "model" / "model.erm"
        assert main(["export", "-c", str(config), "--model-dir", str(model.parent)]) == 0
        out = tmp_path / "scores.txt"
        argv = {"eval": ["eval", "-c", str(config), "--model", str(model), "--eval", str(tmp_path / "data.csv")],
                "predict-file": ["predict-file", "--model", str(model), "--input", str(tmp_path / "data.csv"),
                                 "--out", str(out)]}[command]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "bad data row 2" in err and "is not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict-file"])
    def test_feature_error_names_its_row(self, tmp_path, capsys, command):
        features = [{"name": "user_age", "kind": "numeric_bucket", "source_columns": ["user_age"],
                     "boundaries": [18, 30]}]
        rows = [[1, "20"], [0, "41"], [1, ""], [0, "abc"], [1, "1e300"]]
        write_csv(tmp_path / "train.csv", ["label", "user_age"], rows)
        write_csv(tmp_path / "eval.csv", ["label", "user_age"], rows[:3])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_dict(tmp_path, feature_config=features)))
        if command == "train":
            argv = ["train", "-c", str(config), "--model-dir", str(tmp_path / "model")]
        else:
            assert main(["export", "-c", str(config), "--model-dir", str(tmp_path / "model")]) == 0
            argv = ["predict-file", "--model", str(tmp_path / "model" / "model.erm"),
                    "--input", str(tmp_path / "train.csv"), "--out", str(tmp_path / "scores.txt")]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "bad data row 4" in err and "'user_age'" in err and "'abc'" in err
        assert "Traceback" not in err


_FUZZ_HEADER = ["label", "user_id", "user_tags", "user_age", "item_id", "item_cats", "item_price"]
# Written as the one byte 0xff, which no UTF-8 text holds.
_NON_UTF8 = "\ue000"
# The HTTP corpus as cell text (JSON text for what is not a string), a non-UTF-8 byte and a 200 kB field.
_HOSTILE_CELLS = [v if isinstance(v, str) else json.dumps(v) for v in HOSTILE_VALUES] + [
    f"u{_NON_UTF8}", "x" * 200_000]


def _write_fuzz_csv(path, rows):
    """The rows under the header; lone surrogates written as their surrogatepass bytes."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([_FUZZ_HEADER, *rows])
    path.write_bytes(text.getvalue().encode("utf-8", "surrogatepass").replace(_NON_UTF8.encode(), b"\xff"))


def _fuzz_files(tmp_path, good):
    """Seeded CSVs: each hostile cell in each column of data row 4, then mixtures; with their hostile rows."""
    cases = []
    for cell in _HOSTILE_CELLS:
        for col in range(len(_FUZZ_HEADER)):
            rows = [list(row) for row in good]
            rows[3][col] = cell
            cases.append((rows, {4}))
    rng = np.random.default_rng(29)
    for _ in range(30):
        rows, bad = [list(row) for row in good], set()
        for _ in range(int(rng.integers(1, 6))):
            row, col = int(rng.integers(len(rows))), int(rng.integers(len(_FUZZ_HEADER)))
            rows[row][col] = _HOSTILE_CELLS[int(rng.integers(len(_HOSTILE_CELLS)))]
            bad.add(row + 1)
        cases.append((rows, bad))
    for i, (rows, bad) in enumerate(cases):
        path = tmp_path / f"fuzz{i}.csv"
        _write_fuzz_csv(path, rows)
        yield path, bad


class TestCliFuzz:
    def test_hostile_cells_exit_0_or_2_and_name_their_row(self, tmp_path, capsys):
        """train, eval and predict-file on CSVs with hostile cells exit 0 or 2, each within a measured budget.

        An exit 2 prints one error line, no traceback, that names a data
        row holding a hostile cell (training names the data rows whose
        logit is not finite). An exit 0 writes outputs of the right shape. The oracle
        reads exit codes, messages and output shapes, never scores.
        """
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_dict(tmp_path, feature_config=five_kind_feature_config())))
        good = [[i % 2, f"u{i}", "t1|t2", str(15 + 7 * i), f"i{i}", "c1", "2.5"] for i in range(8)]
        clean = tmp_path / "clean.csv"
        _write_fuzz_csv(clean, good)
        model = tmp_path / "model" / "model.erm"
        assert main(["export", "-c", str(config), "--model-dir", str(model.parent)]) == 0
        scores = tmp_path / "scores.txt"

        def argv(command, path):
            return {"train": ["train", "-c", str(config), "--train", str(path), "--eval", str(clean),
                              "--model-dir", str(tmp_path / "trained")],
                    "eval": ["eval", "-c", str(config), "--model", str(model), "--eval", str(path)],
                    "predict-file": ["predict-file", "--model", str(model), "--input", str(path),
                                     "--out", str(scores)]}[command]

        def run(command, path):
            capsys.readouterr()
            start = time.perf_counter()
            code = main(argv(command, path))
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            return code, elapsed, out, err

        # The budget: a generous multiple of the command's median time on the clean file.
        budget = {}
        for command in ("train", "eval", "predict-file"):
            times = []
            for _ in range(3):
                code, elapsed, _, _ = run(command, clean)
                assert code == 0
                times.append(elapsed)
            budget[command] = 0.5 + 25 * statistics.median(times)

        codes = set()
        for path, bad in _fuzz_files(tmp_path, good):
            for command in ("train", "eval", "predict-file"):
                scores.unlink(missing_ok=True)
                code, elapsed, out, err = run(command, path)
                case = (command, path.name)
                assert code in (0, 2), case
                assert elapsed < budget[command], (case, elapsed, budget[command])
                assert "Traceback" not in err, case
                codes.add(code)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (case, err[:300])
                    named = re.search(r"bad data row (\d+):|data rows \[([\d, ]+)\]", err)
                    assert named, (case, err[:300])
                    rows = {int(named[1])} if named[1] else {int(r) for r in named[2].split(",")}
                    assert rows & bad, (case, err[:300])
                    assert not scores.exists(), case
                    continue
                summary = json.loads(out.strip().splitlines()[-1])
                if command == "train":
                    assert summary["steps"] > 0 and (tmp_path / "trained" / "model.erm").is_file(), case
                elif command == "eval":
                    assert summary["rows"] == len(good) and 0.0 <= summary["auc"] <= 1.0, case
                else:
                    values = [float(line) for line in scores.read_text().splitlines()]
                    assert len(values) == len(good), case
                    assert all(np.float32(PROB_CLIP) <= v <= np.float32(1.0 - PROB_CLIP) for v in values), case
        assert codes == {0, 2}
