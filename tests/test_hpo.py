"""Random search: sampling streams, median stopping, and the search driver."""

import json
import math

import numpy as np
import pytest

from minirec import trainer
from minirec.config import Distribution, SearchSpace, apply_override, parse_search_space
from minirec.errors import DataError
from minirec.hpo import (
    SplitMix64,
    median_stop_decision,
    run_search,
    sample,
    sample_value,
    trial_rng,
)

from helpers import make_config, splitmix64_reference, write_logistic_dataset


class TestSplitMix64:
    def test_reference_sequence_seed_zero(self):
        rng = SplitMix64(0)
        got = [rng.next_u64() for _ in range(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_matches_reference_any_seed(self):
        for seed in (1, 42, 2**63, 0xDEADBEEF):
            rng = SplitMix64(seed)
            got = [rng.next_u64() for _ in range(10)]
            assert got == splitmix64_reference(seed, 10)

    def test_unit_interval(self):
        rng = SplitMix64(7)
        for _ in range(10_000):
            u = rng.next_unit()
            assert 0.0 <= u < 1.0

    def test_trial_rng_uses_trial_indexed_seed(self):
        seeds = splitmix64_reference(99, 5)
        for trial_id in range(5):
            expect = splitmix64_reference(seeds[trial_id], 3)
            rng = trial_rng(99, trial_id)
            assert [rng.next_u64() for _ in range(3)] == expect


class TestSampleValue:
    def test_uniform_bounds(self):
        dist = Distribution(kind="uniform", lo=1e-6, hi=1e-4)
        rng = SplitMix64(1)
        for _ in range(10_000):
            v = sample_value(dist, rng)
            assert 1e-6 <= v <= 1e-4

    def test_loguniform_bounds_and_distribution(self):
        dist = Distribution(kind="loguniform", lo=1e-6, hi=1e-4)
        rng = SplitMix64(2)
        draws = [sample_value(dist, rng) for _ in range(10_000)]
        assert all(1e-6 <= v <= 1e-4 for v in draws)
        # ln(v) should be empirically uniform: KS statistic below 0.02
        logs = np.sort(np.log(draws))
        cdf = (logs - math.log(1e-6)) / (math.log(1e-4) - math.log(1e-6))
        empirical = np.arange(1, len(logs) + 1) / len(logs)
        ks = float(np.max(np.abs(cdf - empirical)))
        assert ks < 0.02

    def test_choice_singleton(self):
        dist = Distribution(kind="choice", values=(8,))
        rng = SplitMix64(3)
        assert all(sample_value(dist, rng) == 8 for _ in range(100))

    def test_choice_hits_every_value(self):
        dist = Distribution(kind="choice", values=(8, 16, 32))
        rng = SplitMix64(4)
        seen = {sample_value(dist, rng) for _ in range(1000)}
        assert seen == {8, 16, 32}

    def test_randint_half_open(self):
        dist = Distribution(kind="randint", lo=2, hi=5)
        rng = SplitMix64(5)
        seen = {sample_value(dist, rng) for _ in range(1000)}
        assert seen == {2, 3, 4}


class TestSampleAssignment:
    def test_declaration_order_and_determinism(self):
        space = parse_search_space(json.dumps({
            "train_config.learning_rate": {"_type": "loguniform", "_value": [1e-4, 1e-1]},
            "model_config.embedding_dim": {"_type": "choice", "_value": [4, 8]},
        }))
        a = sample(space, SplitMix64(11))
        b = sample(space, SplitMix64(11))
        assert a == b
        assert list(a) == ["train_config.learning_rate", "model_config.embedding_dim"]


class TestMedianStopDecision:
    def test_insufficient_history(self):
        assert median_stop_decision([0.5], [[0.9] * 4, [0.8] * 4]) is False

    def test_spec_median_case(self):
        completed = [[0.70, 0.70, 0.70], [0.72, 0.72, 0.72], [0.74, 0.74, 0.74]]
        assert median_stop_decision([0.60, 0.65, 0.71], completed) is True

    def test_tie_is_not_stopped(self):
        completed = [[0.70] * 3, [0.72] * 3, [0.74] * 3]
        assert median_stop_decision([0.60, 0.65, 0.72], completed) is False

    def test_running_mean_prefix(self):
        """Medians are over running means of the first t epochs only."""
        completed = [[0.9, 0.1, 0.1], [0.8, 0.2, 0.2], [0.7, 0.3, 0.3]]
        # at t=1 running means are [0.9, 0.8, 0.7], median 0.8
        assert median_stop_decision([0.75], completed, min_completed=3) is True
        assert median_stop_decision([0.85], completed, min_completed=3) is False


def _toy_objective(optimum=1e-5):
    """Constant per-epoch curve: -(ln lr - ln optimum)^2."""

    def evaluate(cfg, epochs, stop_check):
        value = -(math.log(cfg.train_config.learning_rate) - math.log(optimum)) ** 2
        curve = []
        for _ in range(epochs):
            curve.append(value)
            if stop_check(curve):
                break
        return curve

    return evaluate


def _toy_space():
    return SearchSpace(entries=(
        ("train_config.learning_rate", Distribution(kind="loguniform", lo=1e-6, hi=1e-4)),
    ))


class TestRunSearch:
    def test_single_trial(self, tmp_path):
        cfg = make_config(tmp_path)
        best, trials = run_search(cfg, _toy_space(), max_trials=1, epochs=4, seed=5,
                                  evaluate_fn=_toy_objective())
        assert len(trials) == 1
        assert best is trials[0]
        assert best.status == "completed"

    def test_deterministic(self, tmp_path):
        cfg = make_config(tmp_path)
        best1, trials1 = run_search(cfg, _toy_space(), max_trials=8, epochs=4, seed=9,
                                    evaluate_fn=_toy_objective())
        best2, trials2 = run_search(cfg, _toy_space(), max_trials=8, epochs=4, seed=9,
                                    evaluate_fn=_toy_objective())
        assert [t.assignment for t in trials1] == [t.assignment for t in trials2]
        assert best1.trial_id == best2.trial_id

    def test_assignments_independent_of_outcomes(self, tmp_path):
        """Trial t's sample depends only on (seed, t), not earlier curves."""
        cfg = make_config(tmp_path)
        _, plain = run_search(cfg, _toy_space(), max_trials=6, epochs=3, seed=13,
                              evaluate_fn=_toy_objective(), enable_stopping=False)
        _, stopped = run_search(cfg, _toy_space(), max_trials=6, epochs=3, seed=13,
                                evaluate_fn=_toy_objective(), enable_stopping=True)
        assert [t.assignment for t in plain] == [t.assignment for t in stopped]

    def test_pruned_trials_have_short_curves(self, tmp_path):
        cfg = make_config(tmp_path)
        _, trials = run_search(cfg, _toy_space(), max_trials=16, epochs=8, seed=3,
                               evaluate_fn=_toy_objective())
        pruned = [t for t in trials if t.status == "pruned"]
        completed = [t for t in trials if t.status == "completed"]
        assert pruned, "expected at least one pruned trial at this budget"
        assert all(len(t.curve) < 8 for t in pruned)
        assert all(len(t.curve) == 8 for t in completed)

    def test_stopping_preserves_best(self, tmp_path):
        cfg = make_config(tmp_path)
        objective = _toy_objective()
        for seed in range(6):
            best_plain, _ = run_search(cfg, _toy_space(), max_trials=16, epochs=8,
                                       seed=seed, evaluate_fn=objective,
                                       enable_stopping=False)
            best_stop, _ = run_search(cfg, _toy_space(), max_trials=16, epochs=8,
                                      seed=seed, evaluate_fn=objective,
                                      enable_stopping=True)
            assert best_plain.assignment == best_stop.assignment

    def test_failed_trial_skipped(self, tmp_path):
        cfg = make_config(tmp_path)
        calls = []

        def flaky(inner_cfg, epochs, stop_check):
            calls.append(inner_cfg.train_config.learning_rate)
            if len(calls) == 2:
                raise DataError(row=0, reason="synthetic failure")
            return [0.5] * epochs

        best, trials = run_search(cfg, _toy_space(), max_trials=4, epochs=2, seed=21,
                                  evaluate_fn=flaky)
        assert [t.status for t in trials].count("failed") == 1
        assert best.status == "completed"

    def test_trial_to_plain_schema(self, tmp_path):
        cfg = make_config(tmp_path)
        _, trials = run_search(cfg, _toy_space(), max_trials=2, epochs=2, seed=1,
                               evaluate_fn=_toy_objective())
        plain = trials[0].to_plain()
        assert {"trial_id", "assignment", "curve", "status", "final_metric"} <= set(plain)
        json.dumps(plain)


def _count_loads(monkeypatch):
    """The paths trainer.load_dataset is called with, in call order."""
    loads = []
    load_dataset = trainer.load_dataset

    def counting_load(cfg, path):
        loads.append(path)
        return load_dataset(cfg, path)

    monkeypatch.setattr(trainer, "load_dataset", counting_load)
    return loads


class TestTrainerObjective:
    def test_search_reads_each_file_once_and_matches_train(self, tmp_path, monkeypatch):
        """The default objective loads train and eval once per search; each trial's curve is its own train run's."""
        write_logistic_dataset(tmp_path, n_train=300, n_eval=150, seed=77)
        cfg = make_config(tmp_path, train_config={"batch_size": 32, "seed": 7})
        space = SearchSpace(entries=(
            ("train_config.learning_rate", Distribution(kind="loguniform", lo=1e-3, hi=0.2)),
        ))
        loads = _count_loads(monkeypatch)
        _, trials = run_search(cfg, space, max_trials=3, epochs=2, seed=11)
        assert loads == [cfg.data_config.train_path, cfg.data_config.eval_path]
        assert [t.status for t in trials] == ["completed"] * 3

        for trial in trials:
            trial_cfg = cfg
            for path, value in {**trial.assignment, "train_config.num_epochs": 2}.items():
                trial_cfg = apply_override(trial_cfg, path, value)
            _, report = trainer.train(trial_cfg)
            assert trial.curve == [entry["auc"] for entry in report.curves]

    def test_each_data_config_is_loaded_once(self, tmp_path, monkeypatch):
        """A trial whose data_config no earlier trial had loads its own files; later ones reuse them."""
        write_logistic_dataset(tmp_path, n_train=200, n_eval=100, seed=78)
        other_eval = tmp_path / "eval2.csv"
        other_eval.write_bytes((tmp_path / "eval.csv").read_bytes())
        cfg = make_config(tmp_path, train_config={"batch_size": 32})
        evals = (cfg.data_config.eval_path, str(other_eval))
        space = SearchSpace(entries=(("data_config.eval_path", Distribution(kind="choice", values=evals)),))
        loads = _count_loads(monkeypatch)
        _, trials = run_search(cfg, space, max_trials=6, epochs=1, seed=2, enable_stopping=False)
        first_seen = list(dict.fromkeys(t.assignment["data_config.eval_path"] for t in trials))
        assert sorted(first_seen) == sorted(evals)
        assert loads == [p for eval_path in first_seen for p in (cfg.data_config.train_path, eval_path)]
        curves = {}
        for t in trials:
            assert curves.setdefault(t.assignment["data_config.eval_path"], t.curve) == t.curve
