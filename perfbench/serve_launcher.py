"""Traced scoring server: `minirec serve` with spans around the serving layers.

    python3 perfbench/serve_launcher.py --model M [--queue URL] --bind H:P
        --cache-capacity N --poll-interval-ms MS --spans-out PATH

Mirrors `minirec serve` (cli._cmd_serve): the same library calls in the
same order, the same one-line JSON on stdout once listening, and a clean
shutdown on SIGINT. The wrappers are installed at the names serving.py
calls, before the model is loaded; the span summary is written at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def install(tracer: common.Tracer) -> None:
    from minirec import serving

    tracer.wrap(serving, "load_artifact", "artifact.load")
    tracer.wrap(serving, "score", "serving.score",
                lambda t, args, result: t.record("serving.items", len(result.scores)))
    tracer.wrap(serving, "generate", "features.generate")
    tracer.wrap(serving, "compute_parts", "model.compute_parts")
    tracer.wrap(serving, "assemble", "model.assemble")
    tracer.wrap(serving, "decode_delta", "delta_stream.decode")
    tracer.wrap(serving.ServingModel, "apply_delta", "serving.apply_delta")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", required=True)
    parser.add_argument("--queue")
    parser.add_argument("--bind", default="127.0.0.1:0")
    parser.add_argument("--cache-capacity", type=int, default=1024)
    parser.add_argument("--poll-interval-ms", type=int, default=1000)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    common.require_source()
    from minirec import serving
    from minirec.delta_stream import open_consumer

    tracer = common.Tracer()
    install(tracer)
    host, _, port = args.bind.rpartition(":")
    model = serving.load_model(args.model)
    cache = serving.LruCache(args.cache_capacity) if args.cache_capacity > 0 else None
    consumer = open_consumer(args.queue) if args.queue else None
    handle = serving.http_serve(model, cache, consumer=consumer, bind=(host, int(port)),
                                poll_interval_ms=args.poll_interval_ms)
    print(json.dumps({"command": "serve", "address": f"{handle.address[0]}:{handle.address[1]}",
                      "model_version": model.version}), flush=True)
    try:
        while True:
            handle._server_thread.join(timeout=1.0)
    except KeyboardInterrupt:
        pass
    finally:
        handle.shutdown()
        if consumer is not None:
            consumer.close()
        tracer.write(Path(args.spans_out))


if __name__ == "__main__":
    main()
