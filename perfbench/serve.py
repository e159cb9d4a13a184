"""serve_batch and serve_live: the scoring service over HTTP, in its own process.

serve_batch  closed loop: 2 threads, each with one keep-alive connection,
             send 1 user x 64 Zipf-drawn items per request; the item cache
             holds the whole catalog, and no delta queue is attached.
serve_live   open loop: 1 thread sends 1-item requests at LIVE_RATE per
             second, timed from when each was due, while a second thread
             publishes precomputed delta frames over tcp:// on a seeded
             schedule. Every frame bumps the version, so the cache misses.

The untraced server is `python -m minirec serve`; the traced one is
serve_launcher.py, which mirrors it. Set-up time is the median over
several in-process repetitions of the calls the server makes before it
answers; a cold process start also pays interpreter and numpy imports,
which varied too much between runs to bound.
"""

from __future__ import annotations

import http.client
import json
import math
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import common

BATCH_ITEMS = 64
BATCH_CLIENTS = 2
BATCH_POOL = 256
BATCH_WARMUP_S = 1.0
GATE_SAMPLES = 16
LIVE_RATE = 15.0
FRAME_PERIOD_S = 0.2
LIVE_BATCH = 16
SETUP_REPS = 15
CACHE_CAPACITY = 2 * common.N_ITEMS
THINK_MAX_S = 0.010
POLL_MS = 200
START_TIMEOUT_S = 60.0


class Server:
    """One scoring-server process and the address it answers on."""

    def __init__(self, work: Path, model: str, queue: str | None, spans_out: Path | None):
        if spans_out is None:
            cmd = [sys.executable, "-m", "minirec", "serve"]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
                   "--spans-out", str(spans_out)]
        cmd += ["--model", model, "--bind", "127.0.0.1:0",
                "--cache-capacity", str(CACHE_CAPACITY), "--poll-interval-ms", str(POLL_MS)]
        if queue:
            cmd += ["--queue", queue]
        self.queue = queue
        self.spans_out = spans_out
        if spans_out is not None:
            spans_out.unlink(missing_ok=True)
        self._stderr = open(work / "server.stderr", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=common.child_env(), stdout=subprocess.PIPE,
                                     stderr=self._stderr, cwd=str(work))
        try:
            line = self._first_line(start + START_TIMEOUT_S)
            self.port = int(json.loads(line)["address"].rpartition(":")[2])
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            while get_json(conn, "/v1/version") is None:
                if self.proc.poll() is not None or time.perf_counter() > start + START_TIMEOUT_S:
                    raise RuntimeError("server did not answer /v1/version")
                time.sleep(0.005)
            conn.close()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _first_line(self, deadline: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(deadline - time.perf_counter(), 0.0)):
                raise RuntimeError("server did not report its address in time")
        line = self.proc.stdout.readline().decode()
        if not line:
            raise RuntimeError(f"server exited with {self.proc.wait()}")
        return line

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> dict | None:
        """Stop the process; returns the traced server's span summary, if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if self.spans_out is not None and self.spans_out.exists():
            return json.loads(self.spans_out.read_text())
        return None


def get_json(conn: http.client.HTTPConnection, path: str):
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
    except (ConnectionError, OSError):
        conn.close()
        return None
    return json.loads(body) if resp.status == 200 else None


def post_predict(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    """POST /v1/predict; a request that fails on the wire reads as status 0."""
    try:
        conn.request("POST", "/v1/predict", body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return 0, b""


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def in_process_setup(model_path: str, live: bool, reps: int, probe: common.SpeedProbe) -> float:
    """Median time, at reference speed, of the library calls `minirec serve`
    makes before it answers: load the artifact, open the queue, start HTTP."""
    from minirec import serving
    from minirec.delta_stream import open_consumer

    times, started = [], []
    probe.factor()
    try:
        for _ in range(reps):
            queue = f"tcp://127.0.0.1:{free_port()}" if live else None
            start = time.perf_counter()
            model = serving.load_model(model_path)
            consumer = open_consumer(queue) if queue else None
            handle = serving.http_serve(model, serving.LruCache(CACHE_CAPACITY), consumer=consumer,
                                        bind=("127.0.0.1", 0), poll_interval_ms=POLL_MS)
            conn = http.client.HTTPConnection(*handle.address, timeout=30)
            answered = get_json(conn, "/v1/version") == {"model_version": 0}
            elapsed = time.perf_counter() - start
            conn.close()
            started.append((handle, consumer))
            if not answered:
                raise RuntimeError("in-process server did not answer /v1/version")
            times.append(elapsed / probe.factor())
    finally:
        # Each shutdown waits up to half a second for the serve loop; wait for all at once.
        stoppers = [threading.Thread(target=h.shutdown) for h, _ in started]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join()
        for _, consumer in started:
            if consumer is not None:
                consumer.close()
    return common.median(times)


def start_server(work: Path, model: str, tracer, live: bool, seed: int) -> Server:
    queue = f"tcp://127.0.0.1:{free_port()}" if live else None
    name = "serve_live" if live else "serve_batch"
    spans = common.OUT_DIR / f"spans-{name}-seed{seed}-server.json" if tracer is not None else None
    return Server(work, model, queue, spans)


def make_request(world: common.World, rng, n_items: int) -> dict:
    user = int(world.draw_users(rng, 1)[0])
    return {"user": world.user_features(user),
            "items": [{"key": f"i{i}", "features": world.item_features(i)}
                      for i in world.draw_items(rng, n_items).tolist()]}


def prepare(work: Path, seed: int, config: dict):
    """Write the config and the version-0 artifact the server loads."""
    from minirec import artifact
    from minirec.config import build_config
    from minirec.model import init_params

    cfg = build_config(config)
    params = init_params(cfg, np.random.default_rng([seed, 0]))
    path = work / "model.erm"
    artifact.save_artifact(artifact.ModelArtifact(cfg, params, seed, 0), str(path))
    return cfg, str(path)


def server_layers(out: common.Outcome, summary: dict | None, model_path: str) -> None:
    if summary is None:
        raise RuntimeError("the traced server wrote no spans")
    spans, values = summary["spans"], summary["values"]

    def mean_us(name):
        s = spans.get(name)
        return s["total_us"] / s["count"] if s else 0.0

    items = sum(values.get("serving.items", [])) or 1
    out.layers.update({
        "features.generate_us": mean_us("features.generate"),
        "model.compute_parts_us": mean_us("model.compute_parts"),
        "model.assemble_us": mean_us("model.assemble"),
        "serving.score_us_per_item": spans["serving.score"]["total_us"] / items,
        "serving.score_p50_us": out.named["score_p50_us"],
        "serving.cache_hit_ratio": out.named["cache_hit_ratio"],
        "serving.http_overhead_ms": out.named["http_overhead_ms"],
        "artifact.load_s": mean_us("artifact.load") / 1e6,
        "artifact.bytes": float(Path(model_path).stat().st_size),
        "delta_stream.decode_us": mean_us("delta_stream.decode"),
        "serving.apply_delta_us": mean_us("serving.apply_delta"),
    })


def _trace_parent(tracer) -> None:
    from minirec import artifact
    tracer.wrap(artifact, "save_artifact", "artifact.save")


def run_batch(work: Path, seed: int, seconds: float, tracer, setup_reps: int = SETUP_REPS) -> common.Outcome:
    from minirec import serving

    out = common.Outcome()
    world = common.World(seed)
    rng = np.random.default_rng([seed, 2])
    if tracer is not None:
        _trace_parent(tracer)
    _, model_path = prepare(work, seed, common.pipeline_config(seed))
    requests = [make_request(world, rng, BATCH_ITEMS) for _ in range(BATCH_POOL)]
    bodies = [json.dumps(r).encode() for r in requests]

    out.e2e["setup_s"] = in_process_setup(model_path, False, setup_reps, out.probe)
    server = start_server(work, model_path, tracer, False, seed)
    try:
        def client(idx: int, until: float, log: list, samples: list) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            think = np.random.default_rng([seed, 6, idx])
            k = idx
            while time.perf_counter() < until:
                body = bodies[k % BATCH_POOL]
                start = time.perf_counter()
                status, data = post_predict(conn, body)
                latency = time.perf_counter() - start
                reply = json.loads(data) if status == 200 else {}
                scores = reply.get("scores", [])
                log.append((latency, status, sum(s is None for s in scores),
                            reply.get("cache_hits", 0), len(scores)))
                if len(samples) < GATE_SAMPLES:
                    samples.append((k % BATCH_POOL, scores))
                k += BATCH_CLIENTS
                time.sleep(think.uniform(0.0, THINK_MAX_S))
            conn.close()

        def closed_loop(duration: float):
            logs = [[] for _ in range(BATCH_CLIENTS)]
            samples = [[] for _ in range(BATCH_CLIENTS)]
            until = time.perf_counter() + duration
            threads = [threading.Thread(target=client, args=(i, until, logs[i], samples[i]))
                       for i in range(BATCH_CLIENTS)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return [e for log in logs for e in log], [s for ss in samples for s in ss], time.perf_counter() - start

        closed_loop(BATCH_WARMUP_S)
        log, samples, elapsed = closed_loop(seconds)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        metrics = get_json(conn, "/v1/metrics")
        conn.close()
        out.e2e["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        summary = server.stop()

    latencies_ms = [e[0] * 1e3 for e in log]
    out.attempted = len(log)
    out.failed = sum(e[1] != 200 for e in log) + sum(e[2] for e in log)
    local = serving.load_model(model_path)
    exact = all(serving.score(local, requests[k]).scores == scores for k, scores in samples)
    out.gate("http_scores_bitwise_equal", exact and len(samples) > 0)

    out.e2e["throughput_per_s"] = len(log) / elapsed
    out.e2e["latency_p50_ms"] = common.percentile(latencies_ms, 50)
    out.e2e["latency_p90_ms"] = common.percentile(latencies_ms, 90)
    out.cost = out.e2e["latency_p50_ms"]
    hits, lookups = sum(e[3] for e in log), sum(e[4] for e in log)
    out.named.update({
        "predict_rps": out.e2e["throughput_per_s"],
        "server_process_start_s": server.ready_s,
        "predict_p50_ms": out.e2e["latency_p50_ms"],
        "predict_p90_ms": out.e2e["latency_p90_ms"],
        "requests": len(log),
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "score_p50_us": metrics["latency_p50_us"],
        "http_overhead_ms": out.e2e["latency_p50_ms"] - metrics["latency_p50_us"] / 1e3,
    })
    if tracer is not None:
        tracer.restore()
        server_layers(out, summary, model_path)
        out.layers["artifact.save_s"] = tracer.mean_us("artifact.save") / 1e6
    return out


def train_frames(work: Path, seed: int, n_frames: int, world: common.World):
    """Train in-process, one frame per step, collecting the frames in memory."""
    from minirec import trainer
    from minirec.config import build_config

    class Collect(list):
        def publish(self, frame: bytes) -> None:
            self.append(frame)

    config = common.pipeline_config(seed, delta_period_steps=1, batch_size=LIVE_BATCH)
    csv_path = work / "live-train.csv"
    common.write_training_csv(csv_path, world, np.random.default_rng([seed, 3]), n_frames * LIVE_BATCH)
    frames = Collect()
    art, _ = trainer.train(build_config(config), str(csv_path), "", sink=frames)
    return config, list(frames), art.params


def run_live(work: Path, seed: int, seconds: float, tracer, setup_reps: int = SETUP_REPS) -> common.Outcome:
    from minirec import serving
    from minirec.delta_stream import open_publisher

    out = common.Outcome()
    world = common.World(seed)
    rng = np.random.default_rng([seed, 4])
    n_frames = max(int((seconds - 0.5) / FRAME_PERIOD_S), 1)
    config, frames, final_params = train_frames(work, seed, n_frames, world)
    if tracer is not None:
        _trace_parent(tracer)
    cfg, model_path = prepare(work, seed, config)
    n_requests = max(int(seconds * LIVE_RATE), 1)
    bodies = [json.dumps(make_request(world, rng, 1)).encode() for _ in range(n_requests)]
    frame_offsets = [(k + 0.5 + rng.uniform(-0.4, 0.4)) * FRAME_PERIOD_S for k in range(n_frames)]
    probe_request = make_request(world, rng, 8)

    out.e2e["setup_s"] = in_process_setup(model_path, True, setup_reps, out.probe)
    server = start_server(work, model_path, tracer, True, seed)
    publisher = None
    try:
        publisher = open_publisher(server.queue)
        published: list[float] = []

        def publish_all(start: float) -> None:
            for offset, frame in zip(frame_offsets, frames):
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                publisher.publish(frame)
                published.append(time.perf_counter())

        log = []  # (due, sent, done, status, version, nulls, hits)
        start = time.perf_counter() + 0.05
        pub_thread = threading.Thread(target=publish_all, args=(start,))
        pub_thread.start()
        j = 0
        # Requests past the run length only wait for the last frame to show.
        while j < n_requests or (log[-1][4] < n_frames and j < n_requests + 3 * LIVE_RATE):
            due = start + j / LIVE_RATE
            # Spin rather than sleep: waking from an idle CPU added a delay
            # to every request that varied between runs on a shared VM.
            while time.perf_counter() < due:
                pass
            sent = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            status, data = post_predict(conn, bodies[j % n_requests])
            done = time.perf_counter()
            conn.close()
            reply = json.loads(data) if status == 200 else {}
            scores = reply.get("scores", [None])
            log.append((due, sent, done, status, reply.get("model_version", -1),
                        sum(s is None for s in scores), reply.get("cache_hits", 0)))
            j += 1
        pub_thread.join()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        version = get_json(conn, "/v1/version")
        metrics = get_json(conn, "/v1/metrics")
        status, data = post_predict(conn, json.dumps(probe_request).encode())
        probe_reply = json.loads(data) if status == 200 else {}
        conn.close()
        out.e2e["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        summary = server.stop()
        if publisher is not None:
            publisher.close()

    timed = log[:n_requests]
    out.attempted = len(log) + len(frames)
    out.failed = sum(e[3] != 200 for e in log) + sum(e[5] for e in log)
    out.failed += len(frames) - metrics["deltas_applied"]
    lags_ms = []
    for v, returned in enumerate(published, start=1):
        seen = [e[2] for e in log if e[4] >= v]
        if seen:
            lags_ms.append((min(seen) - returned) * 1e3)
        else:
            out.failed += 1
    local = serving.ServingModel(final_params, cfg)
    out.gate("final_version", version == {"model_version": n_frames})
    out.gate("probe_score_bitwise_equal",
             probe_reply.get("scores") == serving.score(local, probe_request).scores
             and probe_reply.get("model_version") == n_frames)

    latencies_ms = [(e[2] - e[0]) * 1e3 for e in timed]
    late_ms = [max(e[1] - e[0], 0.0) * 1e3 for e in timed]
    out.e2e["throughput_per_s"] = len(timed) / (timed[-1][2] - start)
    out.e2e["latency_p50_ms"] = common.percentile(latencies_ms, 50)
    out.e2e["latency_p90_ms"] = common.percentile(latencies_ms, 90)
    out.cost = out.e2e["latency_p50_ms"]
    hits = sum(e[6] for e in timed)
    out.named.update({
        "predict_p50_ms": out.e2e["latency_p50_ms"],
        "predict_p90_ms": out.e2e["latency_p90_ms"],
        "server_process_start_s": server.ready_s,
        "update_lag_p50_ms": common.percentile(lags_ms, 50) if lags_ms else math.nan,
        "update_lag_p90_ms": common.percentile(lags_ms, 90) if lags_ms else math.nan,
        "offered_rate_per_s": LIVE_RATE,
        "frames": len(frames),
        "requests": len(timed),
        "generator_late_ms": float(np.mean(late_ms)),
        "cache_hit_ratio": hits / len(timed),
        "score_p50_us": metrics["latency_p50_us"],
    })
    out.named["http_overhead_ms"] = out.e2e["latency_p50_ms"] - metrics["latency_p50_us"] / 1e3
    if tracer is not None:
        tracer.restore()
        server_layers(out, summary, model_path)
        out.layers["artifact.save_s"] = tracer.mean_us("artifact.save") / 1e6
    return out

