"""Command-line entry point.

One command per subsystem: train, eval, export, serve, hpo,
select-features, stream-join, predict-file. Every subcommand is a thin
adapter over the library API and prints a one-line JSON summary to stdout
on success. Exit codes: 0 success, 1 usage error, 2 runtime error. The
EASYREC_LOG environment variable sets the log level (default WARNING).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import artifact as artifact_mod
from . import feature_select as fs_mod
from . import hpo as hpo_mod
from . import sample_stream, serving, trainer
from .config import (
    PipelineConfig,
    apply_override,
    parse_config,
    parse_host_port,
    parse_search_space,
    to_plain,
)
from .delta_stream import open_consumer, open_publisher
from .errors import InvalidValue, IoError, MinirecError
from .features import generate
from .model import init_params

log = logging.getLogger("minirec.cli")

ARTIFACT_FILENAME = "model.erm"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _setup_logging() -> None:
    level_name = os.environ.get("EASYREC_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(asctime)s %(levelname)s %(name)s %(message)s"
    )


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path!r}: {exc}") from exc


def _write_lines(path: str, lines: Iterable[str], what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise IoError(f"cannot write {what} {path!r}: {exc}") from exc


@contextlib.contextmanager
def _outputs(*paths: str):
    """Yield a temporary path beside each output; rename them onto the outputs only after the block succeeds.

    If the block or any rename fails, the temporary files are removed and
    every output already renamed is put back as it was, so a failed
    command leaves no new file and every old one byte-identical.
    """
    temps = [f"{path}.{os.getpid()}.part" for path in paths]
    olds = [f"{temp}.old" for temp in temps]
    renamed: list[tuple[str, bool, str]] = []
    try:
        yield temps
        for path, temp, old in zip(paths, temps, olds):
            if os.path.isdir(path):
                raise IoError(f"cannot write {path!r}: it is a directory")
            try:
                existed = os.path.lexists(path)
                if existed:
                    # A hard link keeps the old file to put back.
                    os.link(path, old, follow_symlinks=False)
                os.replace(temp, path)
            except OSError as exc:
                raise IoError(f"cannot write {path!r}: {exc}") from exc
            renamed.append((path, existed, old))
    except BaseException:
        for path, existed, old in reversed(renamed):
            if existed:
                os.replace(old, path)
            else:
                os.remove(path)
        raise
    finally:
        for name in (*temps, *olds):
            with contextlib.suppress(OSError):
                os.remove(name)


def _load_config(path: str, seed: int | None) -> PipelineConfig:
    cfg = parse_config(_read_text(path, "config"))
    if seed is not None:
        cfg = apply_override(cfg, "train_config.seed", seed)
    return cfg


def _emit(summary: dict) -> None:
    print(json.dumps(summary))


def _cmd_train(args) -> None:
    cfg = _load_config(args.config, args.seed)
    os.makedirs(args.model_dir, exist_ok=True)
    sink = open_publisher(args.queue) if args.queue else None
    try:
        art, report = trainer.train(cfg, train_path=args.train, eval_path=args.eval, sink=sink)
    finally:
        if sink is not None:
            sink.close()
    path = os.path.join(args.model_dir, ARTIFACT_FILENAME)
    report_json = json.dumps({"curves": report.curves, "final_metrics": report.final_metrics}, indent=2)
    with _outputs(path, os.path.join(args.model_dir, "report.json")) as (model_tmp, report_tmp):
        artifact_mod.save_artifact(art, model_tmp)
        _write_lines(report_tmp, [report_json, "\n"], "report")
    _emit(
        {
            "command": "train",
            "artifact": path,
            "model_version": art.model_version,
            "steps": report.steps,
            "epochs_run": report.epochs_run,
            "deltas_emitted": report.deltas_emitted,
            "final_metrics": report.final_metrics,
        }
    )


def _cmd_eval(args) -> None:
    cfg = _load_config(args.config, None)
    art = artifact_mod.load_artifact(args.model)
    eval_path = args.eval or cfg.data_config.eval_path
    if not eval_path:
        raise InvalidValue("--eval", "no eval path given and config has none")
    batch, labels = trainer.load_dataset(art.config, eval_path)
    metrics = trainer.evaluate_params(art.config, art.params, batch, labels)
    _emit({"command": "eval", "model_version": art.model_version, "rows": len(batch), **metrics})


def _cmd_export(args) -> None:
    cfg = _load_config(args.config, args.seed)
    os.makedirs(args.model_dir, exist_ok=True)
    params = init_params(cfg, np.random.default_rng([cfg.train_config.seed, 0]))
    art = artifact_mod.ModelArtifact(
        config=cfg, params=params, seed=cfg.train_config.seed, step_count=0
    )
    path = os.path.join(args.model_dir, ARTIFACT_FILENAME)
    artifact_mod.save_artifact(art, path)
    _emit({"command": "export", "artifact": path, "model_version": 0})


def _cmd_serve(args) -> None:
    bind = parse_host_port(args.bind, "--bind")
    model = serving.load_model(args.model)
    cache = serving.LruCache(args.cache_capacity) if args.cache_capacity > 0 else None
    consumer = open_consumer(args.queue) if args.queue else None
    handle = serving.http_serve(
        model,
        cache,
        consumer=consumer,
        bind=bind,
        poll_interval_ms=args.poll_interval_ms,
    )
    _emit(
        {
            "command": "serve",
            "address": f"{handle.address[0]}:{handle.address[1]}",
            "model_version": model.version,
        }
    )
    sys.stdout.flush()
    try:
        while True:
            handle._server_thread.join(timeout=1.0)
    except KeyboardInterrupt:
        pass
    finally:
        handle.shutdown()
        if consumer is not None:
            consumer.close()


def _cmd_hpo(args) -> None:
    cfg = _load_config(args.config, args.seed)
    space = parse_search_space(_read_text(args.space, "search space"))
    best, trials = hpo_mod.run_search(
        cfg,
        space,
        max_trials=args.max_trials,
        epochs=args.epochs,
        seed=cfg.train_config.seed,
        enable_stopping=not args.no_early_stop,
    )
    if args.out:
        with _outputs(args.out) as (out_tmp,):
            _write_lines(out_tmp, [json.dumps([t.to_plain() for t in trials], indent=2), "\n"], "trials")
    _emit(
        {
            "command": "hpo",
            "best_trial": best.trial_id,
            "best_assignment": best.assignment,
            "best_metric": best.final_metric,
            "trials": len(trials),
            "results": args.out,
        }
    )


def _cmd_select_features(args) -> None:
    if not 0.0 < args.keep_fraction <= 1.0:
        raise InvalidValue("--keep-fraction", "must be in (0, 1]")
    cfg = _load_config(args.config, args.seed)
    result = fs_mod.train_with_gates(
        cfg,
        train_path=args.train,
        valid_path=args.valid,
        tau=args.tau,
        lambda_g=args.lambda_g,
        gate_learning_rate=args.gate_lr,
    )
    kept = fs_mod.select(cfg.feature_config, result.importances, args.keep_fraction)
    report = {
        "importances": fs_mod.importances_to_plain(result.importances),
        "kept_feature_config": [to_plain(spec) for spec in kept],
    }
    if args.out:
        with _outputs(args.out) as (out_tmp,):
            _write_lines(out_tmp, [json.dumps(report, indent=2), "\n"], "report")
    _emit(
        {
            "command": "select-features",
            "kept": [s.name for s in kept],
            "dropped": [s.name for s in cfg.feature_config if s.name not in {k.name for k in kept}],
            "report": args.out,
        }
    )


def _cmd_stream_join(args) -> None:
    cfg = _load_config(args.config, None)
    join_cfg = sample_stream.JoinConfig(
        label_window_ms=args.window_ms, allowed_lateness_ms=args.lateness_ms
    )
    with _outputs(args.out, *([args.stats] if args.stats else [])) as (out_tmp, *stats_tmp):
        stats = sample_stream.run_pipeline(
            args.events,
            join_cfg,
            out_tmp,
            stats_path=stats_tmp[0] if stats_tmp else None,
            label_column=cfg.data_config.label_column,
            delimiter=cfg.data_config.delimiter,
        )
    _emit({"command": "stream-join", "output": args.out, **stats.to_plain()})


def _cmd_predict_file(args) -> None:
    art = artifact_mod.load_artifact(args.model)
    columns = trainer.read_columns(args.input, art.config.data_config.delimiter)
    batch = generate(columns, art.config.feature_config)
    trainer.raise_first_error(batch.errors)
    scores = trainer.score_all(art.params, batch)
    with _outputs(args.out) as (out_tmp,):
        _write_lines(out_tmp, (f"{s!r}\n" for s in scores), "scores")
    _emit(
        {
            "command": "predict-file",
            "rows": len(scores),
            "output": args.out,
            "model_version": art.model_version,
        }
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="minirec", description="Miniature CTR recommendation platform")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("train", help="train a model and export its artifact")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--train", help="training CSV (overrides data_config.train_path)")
    p.add_argument("--eval", help="evaluation CSV (overrides data_config.eval_path)")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--queue", help="delta queue URL to publish to: file://BASE, tcp://HOST:PORT, or BASE")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate an artifact on a CSV")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--eval", help="evaluation CSV (default: config eval_path)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export", help="write a version-0 initialization artifact")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("serve", help="serve an artifact over HTTP")
    p.add_argument("--model", required=True)
    p.add_argument("--queue", help="delta queue URL to poll")
    p.add_argument("--bind", default="127.0.0.1:8080")
    p.add_argument("--cache-capacity", type=int, default=1024)
    p.add_argument("--poll-interval-ms", type=int, default=1000)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("hpo", help="random search over a parameter space")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--max-trials", type=int, default=16)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="trials JSON output path")
    p.add_argument("--no-early-stop", action="store_true")
    p.set_defaults(func=_cmd_hpo)

    p = sub.add_parser("select-features", help="variational-dropout feature selection")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--train", help="training CSV (overrides data_config.train_path)")
    p.add_argument("--valid", help="validation CSV (overrides data_config.eval_path)")
    p.add_argument("--keep-fraction", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=fs_mod.DEFAULT_TAU)
    p.add_argument("--lambda-g", type=float, default=fs_mod.DEFAULT_LAMBDA_G)
    p.add_argument("--gate-lr", type=float, default=fs_mod.DEFAULT_GATE_LR)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="importance report output path")
    p.set_defaults(func=_cmd_select_features)

    p = sub.add_parser("stream-join", help="join an event log into training samples")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--events", required=True, help="JSON-lines event file")
    p.add_argument("--window-ms", type=int, required=True)
    p.add_argument("--lateness-ms", type=int, default=0)
    p.add_argument("--out", required=True, help="samples CSV output path")
    p.add_argument("--stats", help="stats JSON output path")
    p.set_defaults(func=_cmd_stream_join)

    p = sub.add_parser("predict-file", help="score a CSV against an artifact")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict_file)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 1
    try:
        args.func(args)
    except MinirecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())
