#!/usr/bin/env python3
"""The repository benchmark: crawl, search and serve workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crawl_simtube --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced repeats with repeats in which the
entry points of each layer are wrapped from outside (see
``perfbench/layers.py``), and reports per-layer self times, the
unattributed remainder and the tracing overhead.  Every run checks the
program's outputs; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record —
provenance, chosen sizes, the issue-level metric names and every
figure — goes to ``.perfbench_out/``, with the spans of traced runs.

The program is imported from ``src/``; there is nothing to build.  With
no ``src/repro`` in the checkout the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Workload names, their reasons and the metric names and units.
BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {workload["name"]: workload["why"] for workload in BENCHMARK["workloads"]}
#: End-to-end metrics: every workload reports every one.
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
#: Per-layer metrics, reported by traced runs (0 where a layer is idle).
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}

#: workload -> the module that runs it
MODULES = {
    "crawl_simtube": "perfbench.crawl",
    "search_broad": "perfbench.search",
    "search_selective": "perfbench.search",
    "serve_http": "perfbench.serve",
}


class RunOutput:
    """What a workload hands back besides its figures."""

    def __init__(self) -> None:
        #: The sizes the workload chose (recorded with the result).
        self.sizes: dict = {}
        #: The tracer of a traced run, whose spans are written out.
        self.spans = None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build_metrics(figures: dict, trace: bool) -> dict:
    if trace:
        layers = figures["layers"]
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"layer figures missing from BENCHMARK.json: {sorted(unknown)}")
        return {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    return {
        name: {"value": float(figures[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        common.import_program()
    except common.MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    why = WHY[args.workload]
    module = importlib.import_module(MODULES[args.workload])
    out = RunOutput()
    started = time.time()
    steal_before, total_before = common.cpu_ticks()
    figures = module.run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    steal_after, total_after = common.cpu_ticks()
    figures.setdefault("peak_rss_mb", common.peak_rss_mb())
    metrics = build_metrics(figures, bool(args.trace))
    problems = figures["problems"]
    correct = not problems and figures["failed"] == 0
    failed_share = figures["failed"] / figures["attempted"]

    record = {
        "workload": args.workload,
        "why": why,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "provenance": common.provenance(args.seed),
        # CPU time the hypervisor took from this machine during the run:
        # latency figures of runs with a high share are host noise.
        "host_steal_share": common.share(
            steal_after - steal_before, total_after - total_before
        ),
        "sizes": out.sizes,
        "samples": figures.get("samples", {}),
        "metric_aliases": figures.get("aliases", {}),
        "figures": {k: v for k, v in figures.items() if k not in ("problems", "layers")},
        "layers": figures.get("layers", {}),
        "problems": problems,
        "ops_failed_share": failed_share,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    if out.spans is not None:
        record["spans_written"] = out.spans.write(common.OUT_DIR / f"{stem}.spans.jsonl")
    (common.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"host_steal_share: {record['host_steal_share']:.4f}")
    print(f"sizes: {json.dumps(out.sizes, sort_keys=True)}")
    print(f"samples: {json.dumps(figures.get('samples', {}), sort_keys=True)}")
    for alias, name in figures.get("aliases", {}).items():
        if not args.trace:
            print(f"  {alias} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  ops_failed_share = {failed_share:.6g} of {figures['attempted']} attempted")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(figures["attempted"]),
                "failed": int(figures["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
