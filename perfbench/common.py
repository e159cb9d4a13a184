"""Shared pieces of the minirec benchmark: paths, seeded inputs, statistics, tracing.

Everything minirec sees is generated from the workload seed: the pipeline
config and the training CSV (with a planted logistic rule so AUC can be
checked) here, the request bodies in serve.py and the event log in
join_events.py. SpeedProbe rescales CPU-bound times on a machine whose
speed drifts; Tracer records the spans of a traced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import resource
import struct
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

N_USERS = 5000
N_ITEMS = 1000
N_TAGS = 40
N_CATS = 24
AGE_BOUNDARIES = [18, 25, 35, 50, 65]
ZIPF_S = 1.1


def require_source() -> None:
    """Exit with code 2 unless the minirec sources sit next to the benchmark."""
    if not (SRC / "minirec" / "__init__.py").is_file():
        print(f"perfbench: no minirec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a minirec process: sources on the path, default log level."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EASYREC_LOG", None)
    return env


def pipeline_config(seed: int, delta_period_steps: int = 4, batch_size: int = 32) -> dict:
    """Seven slots covering all five feature kinds, split user/item/cross for serving."""
    return {
        "data_config": {"label_column": "label"},
        "feature_config": [
            {"name": "user_id", "kind": "id", "source_columns": ["user_id"], "vocab_size": 20000},
            {"name": "user_tags", "kind": "multi_id", "source_columns": ["user_tags"],
             "vocab_size": 1000, "pooling": "mean"},
            {"name": "user_age", "kind": "numeric_bucket", "source_columns": ["user_age"],
             "boundaries": AGE_BOUNDARIES},
            {"name": "item_id", "kind": "id", "source_columns": ["item_id"], "vocab_size": 5000},
            {"name": "item_cats", "kind": "multi_id", "source_columns": ["item_cats"],
             "vocab_size": 500},
            {"name": "item_price", "kind": "numeric_raw", "source_columns": ["item_price"]},
            {"name": "user_x_item", "kind": "cross", "source_columns": ["user_id", "item_id"],
             "vocab_size": 50000},
        ],
        "model_config": {"model_type": "deepfm", "embedding_dim": 8, "mlp_hidden_dims": [64, 32]},
        "train_config": {"learning_rate": 0.01, "batch_size": batch_size, "num_epochs": 1,
                         "seed": seed, "delta_period_steps": delta_period_steps},
        "eval_config": {"metrics": ["auc", "logloss"]},
    }


def zipf_probs(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return p / p.sum()


class World:
    """Seeded users, items and the planted click rule that labels them."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 7])
        self.user_probs = zipf_probs(N_USERS)
        self.item_probs = zipf_probs(N_ITEMS)
        self.user_age = rng.integers(16, 75, N_USERS)
        self.user_tags = [rng.choice(N_TAGS, int(rng.integers(1, 4)), replace=False) for _ in range(N_USERS)]
        self.item_cats = [rng.choice(N_CATS, int(rng.integers(1, 3)), replace=False) for _ in range(N_ITEMS)]
        self.item_price = np.round(rng.lognormal(3.0, 0.6, N_ITEMS), 2)
        self.w_age = rng.normal(0.0, 1.0, len(AGE_BOUNDARIES) + 1)
        self.w_cat = rng.normal(0.0, 1.0, N_CATS)
        self.affinity = rng.normal(0.0, 1.0, (N_TAGS, N_CATS))

    def user_features(self, u: int) -> dict[str, str]:
        return {
            "user_id": f"u{u}",
            "user_tags": "|".join(f"t{t}" for t in self.user_tags[u]),
            "user_age": str(int(self.user_age[u])),
        }

    def item_features(self, i: int) -> dict[str, str]:
        return {
            "item_id": f"i{i}",
            "item_cats": "|".join(f"c{c}" for c in self.item_cats[i]),
            "item_price": f"{self.item_price[i]:.2f}",
        }

    def logit(self, u: int, i: int) -> float:
        bucket = int(np.searchsorted(AGE_BOUNDARIES, self.user_age[u], side="right"))
        cats = self.item_cats[i]
        aff = float(np.mean([self.affinity[t, c] for t in self.user_tags[u] for c in cats]))
        return (-0.5 + self.w_age[bucket] + float(np.mean(self.w_cat[cats])) + aff
                - 0.4 * (math.log(self.item_price[i]) - 3.0))

    def draw_users(self, rng, n: int) -> np.ndarray:
        return rng.choice(N_USERS, n, p=self.user_probs)

    def draw_items(self, rng, n: int) -> np.ndarray:
        return rng.choice(N_ITEMS, n, p=self.item_probs)


def write_training_csv(path: Path, world: World, rng, rows: int) -> list[float]:
    """Rows labelled by the planted rule; returns the true logits (the AUC oracle)."""
    users, items = world.draw_users(rng, rows), world.draw_items(rng, rows)
    logits = []
    cols = ["label", "user_id", "user_tags", "user_age", "item_id", "item_cats", "item_price"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for u, i in zip(users.tolist(), items.tolist()):
            z = world.logit(u, i)
            label = int(rng.random() < 1.0 / (1.0 + math.exp(-z)))
            rec = {"label": str(label), **world.user_features(u), **world.item_features(i)}
            fh.write(",".join(rec[c] for c in cols) + "\n")
            logits.append(z)
    return logits


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tracer:
    """In-memory spans around functions patched at the names their callers use.

    A span is (name, start_ns, end_ns, span_id, parent_id); the parent is the
    innermost open span on the same thread. Aggregates (count, total and
    self time) cover every call; retained spans are capped so a hot path
    cannot exhaust memory, and are written out by `write`.
    """

    MAX_SPANS = 200_000

    def __init__(self):
        self.spans: list[tuple] = []
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a traced wrapper; observe(tracer, args, result) records counts."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.count[name] += 1
                    tracer.total_ns[name] += duration
                    tracer.self_ns[name] += duration - frame[1]
                    if len(tracer.spans) < tracer.MAX_SPANS:
                        tracer.spans.append((name, start, end, span_id, parent))
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def record(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mean_us(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total_ns[name] / n / 1e3 if n else 0.0

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"count": self.count[name], "total_us": self.total_ns[name] / 1e3,
                       "self_us": self.self_ns[name] / 1e3}
                for name in sorted(self.count)
            },
            "values": {name: vals for name, vals in sorted(self.values.items())},
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**self.summary(), "retained": [list(s) for s in self.spans]}, fh)


PROBE_REF_S = 0.006
_F32 = np.float32


def _probe_kernel() -> int:
    """Fixed interpreter work in minirec's style: byte hashing, dicts, 8-float vectors."""
    rows: dict[int, tuple] = {}
    g = np.linspace(-1, 1, 8, dtype=_F32)
    b1, b2 = _F32(0.9), _F32(0.999)
    total = 0
    for i in range(300):
        h = 0xCBF29CE484222325
        for b in b"user_%d" % i:
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        m, v = rows.get(h % 257, (np.zeros(8, _F32), np.zeros(8, _F32)))
        m = b1 * m + (_F32(1) - b1) * g
        v = b2 * v + (_F32(1) - b2) * (g * g)
        g = g - _F32(0.01) * m / (np.sqrt(v) + _F32(1e-8))
        rows[h % 257] = (m, v)
        total += len(struct.pack("<HQ", i, h))
    return total


class SpeedProbe:
    """How slow this machine runs right now, relative to a fixed reference.

    On a shared virtual machine the same code can run up to twice as slow
    from one minute to the next. A run times a fixed kernel between its operations;
    factor() is the mean of the kernel times just before and after the
    operation over PROBE_REF_S, so a wall time divided by it (or a rate
    multiplied by it) is the figure at the reference speed.
    """

    def __init__(self):
        _probe_kernel()
        self.last = self.sample()
        self.factors: list[float] = []

    @staticmethod
    def sample() -> float:
        """Kernel time now over the reference."""
        start = time.perf_counter()
        _probe_kernel()
        return (time.perf_counter() - start) / PROBE_REF_S

    def factor(self) -> float:
        now = self.sample()
        f = (self.last + now) / 2
        self.last = now
        self.factors.append(f)
        return f


def timed_median(fn, reps: int, probe: SpeedProbe) -> float:
    """Median over `reps` calls of fn() of the wall time at reference speed."""
    times = []
    probe.factor()
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed / probe.factor())
    return median(times)


class Outcome:
    """What one measured phase of a workload produced.

    e2e holds the end-to-end metrics, named holds the workload's own
    figures under the names they have in the workload's description,
    layers the per-layer metrics (traced phases only), cost a
    lower-is-better number used to compare a traced with an untraced phase.
    """

    def __init__(self):
        self.e2e: dict[str, float] = {}
        self.named: dict[str, object] = {}
        self.layers: dict[str, float] = {}
        self.gates: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.cost = 0.0
        self.probe = SpeedProbe()

    def gate(self, name: str, ok: bool) -> None:
        self.gates[name] = bool(ok) and self.gates.get(name, True)
        if not ok:
            print(f"perfbench: gate {name} failed", file=sys.stderr)
