"""Stream-join output is pinned: the benchmark's join_events logs join to recorded bytes and stats.

The joiner must give the same samples, in the same order, and the same
counts however it is restructured. This test builds perfbench's
join_events log for a few seeds, in arrival order (jittered, with
stragglers) and in time order, runs `run_pipeline` over each and compares
the sha256 of the CSV and the stats with literals recorded before the
join was restructured.

Seed 97 was not used while the join was being changed.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from minirec.sample_stream import JoinConfig, run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

STATS_KEYS = ("malformed", "dup_impressions", "dup_clicks", "dup_logs", "late_dropped", "feature_missing", "samples")

# (seed, order) -> (CSV sha256, stats in STATS_KEYS order)
PINNED = {
    (0, "arrival"): ("72aa559a0816d670ce4e476a38eeacc71dc1bba360c8261ae0545bc409a0f23f", (0, 382, 478, 85, 68, 1302, 6158)),
    (0, "time"): ("26ca2b8be841390e20821f2c74476c7a7d604637f120d9aeaeb0e18ca12e5cb8", (0, 382, 478, 85, 68, 1302, 6158)),
    (1, "arrival"): ("e2c29eae3c0e1f6936187686abdf631a36465a0d47dbc45e88ab77981f4000b9", (0, 339, 472, 105, 72, 1206, 6288)),
    (1, "time"): ("b80919cabb60a522495981f90d599bdd297fb0bbbb1d2153cc8b87fef30f4689", (0, 339, 472, 105, 72, 1206, 6288)),
    (2, "arrival"): ("5741ffda1a9e4a57ea43836afba29d2fb7c4e39bc3311d28832a9db560bbb9a8", (0, 374, 418, 114, 77, 1252, 6137)),
    (2, "time"): ("312d0c28bd1144b592e37fbe53e214620e02578d27cf060dc38752e9b8a74a7a", (0, 374, 418, 114, 77, 1252, 6137)),
    (97, "arrival"): ("f5dfb0402ae75e5164d4bddf91f769abbe25ffdb57d8e7d5cb8a0588231175e0", (0, 338, 472, 117, 63, 1099, 6419)),
    (97, "time"): ("a4d16cbbaa312f618cecc89d736cb82897f5582feeea82e699b6522380dd14a1", (0, 338, 472, 117, 63, 1099, 6419)),
}


def join_digest(work: Path, seed: int, order: str) -> tuple[str, tuple[int, ...]]:
    """Join the join_events log of `seed` in `order` under `work`; the CSV's sha256 and the stats."""
    join_events = importlib.import_module("join_events")
    events, _ = join_events.make_events(seed)
    log, out = work / "events.jsonl", work / "samples.csv"
    join_events.write_log(log, events, {"arrival": 0, "time": 1}[order])
    cfg = JoinConfig(label_window_ms=join_events.WINDOW_MS, allowed_lateness_ms=join_events.LATENESS_MS)
    stats = run_pipeline(str(log), cfg, str(out)).to_plain()
    assert sorted(stats) == sorted(STATS_KEYS)
    return hashlib.sha256(out.read_bytes()).hexdigest(), tuple(stats[k] for k in STATS_KEYS)


@pytest.mark.parametrize("seed,order", sorted(PINNED))
def test_join_events_output_is_pinned(tmp_path, monkeypatch, seed, order):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert join_digest(tmp_path, seed, order) == PINNED[seed, order]
