"""Random-search hyper-parameter optimization with median-rule stopping.

Trial assignments are drawn from a splitmix64 stream whose seed is the
trial_id-th output of a splitmix64 generator seeded with the global seed,
so trial t's assignment depends only on (global_seed, t) and never on
earlier trials' outcomes. Trials run sequentially; a running trial is
pruned when its best metric so far falls strictly below the median of the
completed trials' running-mean curves at the same epoch.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .config import Distribution, PipelineConfig, SearchSpace, apply_override
from .errors import MinirecError

_MASK64 = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """splitmix64 PRNG; u64 outputs and unit doubles via (x >> 11) * 2^-53."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def trial_rng(global_seed: int, trial_id: int) -> SplitMix64:
    seeder = SplitMix64(global_seed)
    seed = seeder.next_u64()
    for _ in range(trial_id):
        seed = seeder.next_u64()
    return SplitMix64(seed)


def sample_value(dist: Distribution, rng: SplitMix64) -> Any:
    u = rng.next_unit()
    if dist.kind == "uniform":
        return dist.lo + u * (dist.hi - dist.lo)
    if dist.kind == "loguniform":
        return math.exp(math.log(dist.lo) + u * (math.log(dist.hi) - math.log(dist.lo)))
    if dist.kind == "choice":
        return dist.values[min(int(u * len(dist.values)), len(dist.values) - 1)]
    # randint: integer uniform over [lo, hi)
    span = int(dist.hi) - int(dist.lo)
    return int(dist.lo) + min(int(u * span), span - 1)


def sample(space: SearchSpace, rng: SplitMix64) -> dict[str, Any]:
    """One assignment; entries drawn in declaration order."""
    return {path: sample_value(dist, rng) for path, dist in space.entries}


def median_stop_decision(
    current: list[float], completed: list[list[float]], min_completed: int = 3
) -> bool:
    """Median stopping rule, metric higher-is-better.

    At epoch t = len(current): stop iff best-so-far(current) is strictly
    below the median over completed trials of mean(curve[:t]). Never stops
    while fewer than min_completed trials have completed.
    """
    if len(completed) < min_completed:
        return False
    t = len(current)
    # statistics.mean is exact rational arithmetic: the strict-< tie rule
    # must not be decided by sum-order rounding (mean of a constant curve
    # has to equal that constant).
    running_means = [statistics.mean(c[:t]) for c in completed if c]
    if not running_means:
        return False
    return max(current) < statistics.median(running_means)


@dataclass
class Trial:
    trial_id: int
    assignment: dict[str, Any]
    curve: list[float] = field(default_factory=list)
    status: str = "running"
    final_metric: float | None = None
    error: str | None = None

    def to_plain(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "assignment": self.assignment,
            "curve": self.curve,
            "status": self.status,
            "final_metric": self.final_metric,
            "error": self.error,
        }


def _trainer_evaluate(cfg: PipelineConfig, epochs: int, stop_check, loaded: dict) -> list[float]:
    """Default objective: the trainer's loop, reporting the primary eval metric per epoch.

    `loaded` holds each data_config's datasets, or the error its load
    raised, which every later trial on it raises again without re-reading
    the files (a search cannot override feature_config).
    """
    from .trainer import fit, load_splits

    cfg = apply_override(cfg, "train_config.num_epochs", epochs)
    if cfg.data_config not in loaded:
        try:
            loaded[cfg.data_config] = load_splits(cfg)
        except MinirecError as exc:
            loaded[cfg.data_config] = exc
    if isinstance(loaded[cfg.data_config], MinirecError):
        raise loaded[cfg.data_config]
    metrics = cfg.eval_config.metrics
    metric = "auc" if "auc" in metrics else metrics[0]
    curve: list[float] = []

    def callback(epoch: int, epoch_metrics: dict | None) -> bool:
        if epoch_metrics is None:
            return False
        value = epoch_metrics[metric]
        curve.append(-value if metric == "logloss" else value)
        return stop_check(curve)

    fit(cfg, *loaded[cfg.data_config], epoch_callback=callback)
    return curve


def run_search(
    base_cfg: PipelineConfig,
    space: SearchSpace,
    max_trials: int,
    epochs: int,
    seed: int,
    evaluate_fn: Callable[[PipelineConfig, int, Callable[[list[float]], bool]], list[float]] | None = None,
    enable_stopping: bool = True,
    min_completed: int = 3,
) -> tuple[Trial, list[Trial]]:
    """Sequential random search.

    evaluate_fn(cfg, epochs, stop_check) must run up to `epochs` epochs,
    append to its metric curve per epoch, consult stop_check(curve) after
    each one, and return the curve (shorter when stopped). The default
    runs the trainer on files read once per search. The best trial
    maximizes final metric (best-so-far for pruned trials); failed trials never win.
    """
    evaluate = evaluate_fn if evaluate_fn is not None else partial(_trainer_evaluate, loaded={})
    trials: list[Trial] = []
    completed_curves: list[list[float]] = []
    for trial_id in range(max_trials):
        assignment = sample(space, trial_rng(seed, trial_id))
        trial = Trial(trial_id=trial_id, assignment=assignment)
        trials.append(trial)
        cfg = base_cfg
        try:
            for path, value in assignment.items():
                cfg = apply_override(cfg, path, value)
        except MinirecError as exc:
            trial.status = "failed"
            trial.error = str(exc)
            continue

        pruned = False

        def stop_check(curve: list[float]) -> bool:
            nonlocal pruned
            if not enable_stopping:
                return False
            if median_stop_decision(curve, completed_curves, min_completed):
                pruned = True
                return True
            return False

        try:
            curve = evaluate(cfg, epochs, stop_check)
        except MinirecError as exc:
            trial.status = "failed"
            trial.error = str(exc)
            continue
        trial.curve = list(curve)
        if pruned:
            trial.status = "pruned"
            trial.final_metric = max(curve) if curve else None
        else:
            trial.status = "completed"
            trial.final_metric = curve[-1] if curve else None
            if curve:
                completed_curves.append(list(curve))

    viable = [t for t in trials if t.final_metric is not None]
    if not viable:
        failed = next((t for t in trials if t.error is not None), None)
        cause = "" if failed is None else f"; trial {failed.trial_id} failed: {failed.error}"
        raise MinirecError(f"no trial produced a metric{cause}")
    best = max(viable, key=lambda t: (t.final_metric, -t.trial_id))
    return best, trials
