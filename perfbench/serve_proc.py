#!/usr/bin/env python3
"""The server process of the ``serve_http`` workload.

Runs the pipeline ``repro-ajax serve --site`` runs — crawl SimTube,
build the in-memory engine, serve it with ``SearchServer`` under the
default ``ServeConfig`` — in a process of its own, so the load
generator never shares its interpreter lock.

Protocol: one line on stdout when serving,
``READY {"port": ..., "setup_s": ...}``; then one JSON line on stdout
per command read from stdin:

* ``trace on`` / ``trace off`` — wrap or unwrap the serving layers,
* ``dump <path>`` — write the spans recorded since the last ``stats``,
* ``stats`` — span totals and cache counters since the last ``stats``,
* ``stop`` — shut down (also on end of input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--videos", type=int, required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    common.import_program()
    from perfbench.layers import install_serve_layers
    from perfbench.serve import build_service
    from perfbench.tracer import Tracer
    from repro.serve import SearchServer

    service = build_service(args.seed, args.videos)
    server = SearchServer(service, port=0).start()
    common.freeze_setup()
    reply = {"port": server.port, "setup_s": time.perf_counter() - started}
    print("READY " + json.dumps(reply), flush=True)

    tracer = Tracer()
    registry = service.registry
    last = {"hits": 0, "misses": 0, "evictions": 0}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.reset()
                install_serve_layers(tracer)
                answer = {"ok": True}
            elif command == "trace off":
                tracer.unpatch()
                answer = {"ok": True}
            elif command.startswith("dump "):
                answer = {"spans": tracer.write(Path(command[len("dump "):]))}
            elif command == "stats":
                times = tracer.layer_times()
                now = {
                    "hits": service.cache.hits,
                    "misses": service.cache.misses,
                    "evictions": int(registry.counter("serve.cache_evicted")),
                }
                answer = {
                    "self_ms": {k: v / 1e6 for k, v in times.self_ns.items()},
                    "total_ms": {k: v / 1e6 for k, v in times.total_ns.items()},
                    "calls": dict(times.calls),
                    "cache": {k: now[k] - last[k] for k in now},
                }
                last = now
                tracer.reset()
            elif command == "stop":
                break
            else:
                answer = {"error": f"unknown command {command!r}"}
            print(json.dumps(answer), flush=True)
    finally:
        tracer.unpatch()
        server.stop()
    print(json.dumps({"peak_rss_mb": common.peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
