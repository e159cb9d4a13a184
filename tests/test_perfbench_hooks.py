"""Every function the benchmark's traced mode wraps still exists where it looks for it.

perfbench/*.py install timing wrappers with `tracer.wrap(owner, "attr", ...)`,
where owner is a module, mostly minirec's, or a class in one. A renamed or moved
function breaks only the traced run, which the tier-1 suite does not start;
this test reads the calls from the benchmark's source and resolves each. A
function that still exists but is no longer called would leave its layer
metric at zero, so the hot names are also checked to be reached.
"""

import ast
import importlib
import json
import os
import threading
from pathlib import Path

import numpy as np

from minirec import delta_stream, sample_stream, serving, trainer
from minirec.model import init_params
from minirec.sample_stream import JoinConfig

from helpers import make_config, write_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_names(tree: ast.AST) -> dict[str, str]:
    """Local name -> module for `import x`, `import x as y` and `from minirec import x`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "minirec":
            for alias in node.names:
                names[alias.asname or alias.name] = f"minirec.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def _dotted(node: ast.expr) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def wrapped_hooks() -> list[tuple[str, object, str]]:
    """(file, owner, attribute) of every tracer.wrap call."""
    hooks = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _dotted(node.func) == ["tracer", "wrap"]):
                continue
            owner, attr = _dotted(node.args[0]), node.args[1]
            assert owner is not None and owner[0] in modules and isinstance(attr, ast.Constant), \
                f"{path.name}: {ast.unparse(node)}"
            obj = importlib.import_module(modules[owner[0]])
            for part in owner[1:]:
                obj = getattr(obj, part)
            hooks.append((path.name, obj, attr.value))
    return hooks


def test_every_traced_hook_resolves():
    hooks = wrapped_hooks()
    assert len(hooks) >= 25, hooks
    missing = []
    for name, owner, attr in hooks:
        # The tracer reads a class attribute from the class's own __dict__.
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{name}: {owner.__name__}.{attr}")
    assert missing == []


def test_hooks_are_reached(tmp_path, monkeypatch):
    """The wrapped names are the ones a training run, a request and a join call: once per file, side or event."""
    calls = {}

    def count(module, attr):
        original = getattr(module, attr)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    for attr in ("generate", "load_dataset", "forward", "backward"):
        count(trainer, attr)
    for attr in ("generate", "compute_parts"):
        count(serving, attr)

    rows = [[k % 2, f"u{k % 5}", f"i{k % 3}"] for k in range(20)]
    write_csv(tmp_path / "train.csv", ["label", "user_id", "item_id"], rows)
    write_csv(tmp_path / "eval.csv", ["label", "user_id", "item_id"], rows)
    cfg = make_config(tmp_path, train_config={"num_epochs": 1, "batch_size": 8, "delta_period_steps": 1})
    _, report = trainer.train(cfg)
    assert report.steps == 3
    assert calls["trainer.load_dataset"] == calls["trainer.generate"] == 2
    assert calls["trainer.forward"] == calls["trainer.backward"] == 3

    # train_publish's traced run times os.fsync, which a file publisher calls from its helper thread
    threads = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (threads.append(threading.current_thread()), fsync(fd)))
    publisher = delta_stream.FilePublisher(str(tmp_path / "queue"))
    _, report = trainer.train(cfg, sink=publisher)
    publisher.close()
    assert report.deltas_emitted == 3 and len(threads) == 3
    assert threading.main_thread() not in threads

    model = serving.ServingModel(init_params(cfg, np.random.default_rng(0)), cfg)
    items = [{"key": k, "features": {"item_id": k}} for k in ("a", "b")]
    assert None not in serving.score(model, {"user": {"user_id": "u1"}, "items": items}).scores
    # one generate call per side (user, items, cross) and one compute_parts call over every slot
    assert calls["serving.generate"] == 3
    assert calls["serving.compute_parts"] == 1

    # join_events' traced run times Joiner.feed: run_pipeline calls it once per decoded line
    count(sample_stream.Joiner, "feed")
    events = [{"kind": "impression", "event_time": t, "request_id": f"r{t}", "item_key": "i"} for t in range(5)]
    lines = [json.dumps(e) for e in events] + ["", "not json", '{"kind": "scroll"}', "[1]"]
    (tmp_path / "events.jsonl").write_text("\n".join(lines) + "\n")
    stats = sample_stream.run_pipeline(str(tmp_path / "events.jsonl"), JoinConfig(label_window_ms=5),
                                       str(tmp_path / "samples.csv"))
    assert stats.malformed == 3
    assert calls["Joiner.feed"] == len(events) + 2


def test_rows_per_step_observer_counts_distinct_rows(tmp_path, monkeypatch):
    """train_publish's traced run records, per optimizer step, the distinct table rows the step touched.

    The observer reads the gradient the optimizer receives. Here a real
    Tracer runs it over a small training run, and each recorded value is
    checked against the rows counted from that step's features.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    common = importlib.import_module("common")
    train_publish = importlib.import_module("train_publish")

    features = [
        {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 7},
        {"name": "item_tags", "kind": "multi_id", "source_columns": ["item_tags"], "vocab_size": 5},
        {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
    ]
    rows = [[k % 2, f"u{k % 9}", "|".join(f"t{j}" for j in range(k % 4)), str(k % 3)] for k in range(40)]
    write_csv(tmp_path / "train.csv", ["label", "user_id", "item_tags", "item_price"], rows)
    write_csv(tmp_path / "eval.csv", ["label", "user_id", "item_tags", "item_price"], rows[:10])
    cfg = make_config(tmp_path, feature_config=features, train_config={"num_epochs": 2, "batch_size": 8})

    # Each step's rows, counted from its rows of the training batch in the epoch's shuffled order:
    # each hashed slot's distinct ids, plus row 0 of a numeric_raw slot with a nonzero value,
    # counted once in the embedding tables and once in the first-order tables.
    batch, _ = trainer.load_dataset(cfg, cfg.data_config.train_path)
    shuffle = np.random.default_rng([cfg.train_config.seed, 1])
    expected = []
    for _ in range(2):
        order = shuffle.permutation(len(batch))
        for start in range(0, len(order), 8):
            step = batch.take(order[start:start + 8])
            touched = sum(len(set(step.ids[name].ids.tolist())) for name in step.ids)
            touched += sum(bool(np.any(values != 0.0)) for values in step.dense.values())
            expected.append(2 * touched)

    samples = []
    forward = trainer.forward

    def counting_forward(params, step, slot_scale=None):
        samples.append(step.n)
        return forward(params, step, slot_scale)

    monkeypatch.setattr(trainer, "forward", counting_forward)
    tracer = common.Tracer()
    train_publish._trace(tracer)
    try:
        _, report = trainer.train(cfg)
    finally:
        tracer.restore()
    assert report.steps == 10
    assert samples == [8] * 10
    assert tracer.values["optim.rows"] == expected
    assert trainer.forward is counting_forward
