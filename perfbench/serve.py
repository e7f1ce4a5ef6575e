"""Workload ``serve_http``: the search service under open-loop HTTP load.

The server process (``serve_proc.py``) runs what ``repro-ajax serve
--site`` runs: crawl SimTube (from a replayed response table), build
the in-memory engine, serve it with ``SearchServer`` under the default
``ServeConfig`` (query cache and telemetry on).  This process is the
load generator, on one keep-alive connection.  Requests fall due on a
fixed schedule that does not wait for answers (open loop); one that
falls due while another is in flight goes out when that one returns,
and every latency is timed from when the request fell due, so a stall
shows as lateness of the requests behind it.  Both processes share one
CPU (see :func:`run`).

Traffic is a Zipf mix over ``full_workload()`` queries, each with a
result offset of 0, 10 or 20.  The pool holds more keys than the
256-entry ``QueryCache``, so both hits and misses happen.  A fixed
ladder of request rates follows a warm-up; latency is reported at the
nominal rate, and the workload's rate is the capacity: the rate answered
at the saturated top rung, where requests go out back to back.  Which
rungs meet the latency limit with no growing backlog
(:func:`meets_limit`) is recorded with the result.

Every 200 response body must equal the answer an in-process
``SearchService`` gave in set-up; anything else counts as failed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from urllib.parse import urlencode

from repro.clock import CostModel
from repro.crawler import AjaxCrawler
from repro.search import SearchEngine
from repro.serve import SearchService, ServeConfig
from repro.sites.queries import full_workload

from perfbench.common import (
    OUT_DIR,
    ROOT,
    interquartile_mean,
    median,
    median_of,
    peak_rss_mb,
    percentile,
    share,
    tail_percentile,
)
from perfbench.crawl import check_crawl, extract_states, make_inputs, record_responses

#: Videos the server crawls before it serves.
VIDEOS = 40
#: SimTube seed of the site served, the same for every run (the
#: paper's seed 7); ``--seed`` draws the request sequence.  With the
#: site drawn from ``--seed`` too, capacity followed the site's text:
#: seeds 313 and 314 answered about 1550 and 1880 req/s, run after run.
SITE_SEED = 7
#: Distinct queries in the traffic pool, times the offsets below.
POOL_QUERIES = 200
OFFSETS = (0, 10, 20)
LIMIT = 10
#: Zipf exponent of key popularity.
ZIPF_S = 1.0
#: Request rates of the ladder (requests per second) and the nominal one.
#: The top rung is past saturation (over one connection the service
#: answers about 1000-2000 req/s): there requests go out as fast as
#: answers come back, and the rate answered is the service's capacity,
#: the highest rate it can sustain without a growing backlog.
LADDER = (125, 250, 500, 4000)
NOMINAL = 500
SATURATED = 4000
#: Seconds of traffic at each rate below the nominal one.
RUNG_SECONDS = 1.0
#: Requests per measurement window at the nominal rate (one second).
WINDOW_REQUESTS = 500
#: Windows at the saturated rate, and requests in each (well under a
#: second at capacity).
SATURATED_WINDOWS = 8
SATURATED_REQUESTS = 600
#: Latency limit a rung's p99 must meet (failed requests count as misses).
LATENCY_LIMIT_MS = 50.0
LIMIT_PERCENTILE = 99.0
#: A rung whose schedule ends with more due-but-unsent requests than
#: this has a growing backlog.
BACKLOG_LIMIT = 4
#: Server start-ups timed per run (the last one serves).
SETUPS = 3
#: Tail percentile reported at the nominal rate (the median over the
#: one-second windows).  Not p99: on a shared 2-vCPU host the p99 of a
#: window is set by the host's scheduling stalls and moved 2-3x between
#: runs of the same code.  Not p95: while the host took 3-6% of the CPU,
#: half of a run's windows had their p95 raised 2-30x, so the median
#: window's p95 moved 2.5x between runs.
TAIL = 90.0


def build_service(seed: int, videos: int):
    """Crawl, index and wrap in a ``SearchService`` (the ``serve --site``
    pipeline, over a replayed SimTube)."""
    inputs = make_inputs(seed, videos=videos)
    replay = record_responses(inputs)
    crawled = AjaxCrawler(replay, cost_model=CostModel(network_jitter=0.0)).crawl(inputs.urls)
    problems = check_crawl(inputs, extract_states(crawled.models), crawled.failed_urls)
    if problems or replay.misses:
        raise RuntimeError(f"serve set-up crawl is wrong: {problems[:3]} {replay.misses[:3]}")
    engine = SearchEngine.build(crawled.models)
    return SearchService(engine, ServeConfig(), models=crawled.models, site=inputs.site)


def request_path(query: str, offset: int) -> str:
    return "/search?" + urlencode({"q": query, "limit": LIMIT, "offset": offset})


def expected_bodies(service, keys) -> dict:
    """key -> the two bodies a correct server may send (cached or not)."""
    bodies = {}
    for query, offset in keys:
        page = service.search({"q": query, "limit": str(LIMIT), "offset": str(offset)})
        page = {k: v for k, v in page.items() if k != "cached"}
        bodies[(query, offset)] = tuple(
            json.dumps(dict(page, cached=flag), sort_keys=True).encode("utf-8")
            for flag in (False, True)
        )
    return bodies


class Traffic:
    """Zipf-popular queries, each with a uniformly drawn result offset.

    Popularity follows the workload's own rank order (the paper's most
    popular queries first), so it is the same for every seed; the seed
    picks the request sequence.
    """

    def __init__(self, seed: int) -> None:
        self.queries = [query.text for query in full_workload(POOL_QUERIES)]
        self.keys = [(query, offset) for query in self.queries for offset in OFFSETS]
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.queries))]
        self.seed = seed

    def draw(self, count: int, label: str) -> list[tuple[str, int]]:
        rng = random.Random(f"{self.seed}|{label}")
        queries = rng.choices(self.queries, weights=self.weights, k=count)
        return [(query, rng.choice(OFFSETS)) for query in queries]


@dataclass
class Rung:
    rate: float
    latency_ms: list[float]
    #: send -> response, per request (what the client-server path costs).
    round_trip_ms: list[float]
    late_ms: list[float]
    max_backlog: int
    backlog_end: int
    failed: int
    problems: list[str]
    #: First due time to last response, seconds.
    span_s: float

    @property
    def attempted(self) -> int:
        return len(self.latency_ms)

    def limit_latency_ms(self) -> float:
        """The percentile the latency limit applies to; a failed request
        misses the limit, so it sorts last."""
        return percentile(self.latency_ms + [float("inf")] * self.failed, LIMIT_PERCENTILE)


def meets_limit(windows: list[Rung]) -> bool:
    """Whether a rate meets the latency limit with no growing backlog.

    Judged on the median of its one-second windows: the host this was
    tuned on stalls whole 100-200 ms at times, which failed the nominal
    rate on three runs in five while most of their windows were fine.
    """
    return (
        median([window.limit_latency_ms() for window in windows]) <= LATENCY_LIMIT_MS
        and windows[-1].backlog_end <= BACKLOG_LIMIT
    )


def drive(port: int, rate: float, keys: list, bodies: dict) -> Rung:
    """Send ``keys`` at ``rate`` per second over one connection."""
    paths = [request_path(query, offset) for query, offset in keys]
    count = len(keys)
    records = []
    start = time.perf_counter() + 0.01
    interval = 1.0 / rate
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        for index, path in enumerate(paths):
            due = start + index * interval
            # Spin rather than sleep: on a virtual machine a halted vCPU
            # wakes late when the host is busy, which put milliseconds
            # of host noise into every latency (the one-second-window
            # p95 was 4x higher when sleeping).
            while time.perf_counter() < due:
                pass
            sent = time.perf_counter()
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                status, body = 0, repr(error).encode()
            records.append((due, sent, time.perf_counter(), status, body))
    finally:
        connection.close()
    end_of_schedule = start + count * interval
    latency, round_trip, late, problems = [], [], [], []
    failed = max_backlog = backlog_end = 0
    for index, (due, sent, done, status, body) in enumerate(records):
        if status != 200 or body not in bodies[keys[index]]:
            failed += 1
            problems.append(f"{paths[index]}: HTTP {status}, body {body[:80]!r}")
            continue
        latency.append((done - due) * 1000.0)
        round_trip.append((done - sent) * 1000.0)
        late.append((sent - due) * 1000.0)
        max_backlog = max(max_backlog, int((sent - start) * rate) - index)
        if sent > end_of_schedule:
            backlog_end += 1
    span_s = max(record[2] for record in records) - start
    return Rung(rate, latency, round_trip, late, max_backlog, backlog_end, failed, problems, span_s)


class ServerProcess:
    """One ``serve_proc.py`` child and its line protocol."""

    def __init__(self, site_seed: int) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_proc.py"),
             "--seed", str(site_seed), "--videos", str(VIDEOS)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"server process failed to start: {line!r}")
        self.setup_s = time.perf_counter() - started
        self.port = json.loads(line[len("READY "):])["port"]
        self.peak_rss_mb = 0.0

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def close(self) -> None:
        process = self.process
        try:
            if process.poll() is None:
                process.stdin.write("stop\n")
                process.stdin.flush()
                for line in process.stdout:
                    if line.startswith("{"):
                        self.peak_rss_mb = json.loads(line).get("peak_rss_mb", 0.0)
                process.wait(timeout=20)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            process.kill()
            process.wait(timeout=20)


def run(workload: str, seed: int, seconds: float, trace: bool, out) -> dict:
    # Pin this process, and so the server processes it starts, to one
    # CPU.  With one connection the two take turns anyway; on separate
    # vCPUs every request waited for the host to wake a halted one, and
    # the windows' p95 was about 1.6x higher and moved with host load.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        return _run(workload, seed, seconds, trace, out)
    finally:
        os.sched_setaffinity(0, cpus)


def _run(workload: str, seed: int, seconds: float, trace: bool, out) -> dict:
    traffic = Traffic(seed)
    bodies = expected_bodies(build_service(SITE_SEED, VIDEOS), traffic.keys)
    setup_times = []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.close()
        server = ServerProcess(SITE_SEED)
        setup_times.append(server.setup_s)
    out.sizes.update(
        videos=VIDEOS,
        site_seed=SITE_SEED,
        pool_keys=len(traffic.keys),
        cache_entries=256,
        zipf_s=ZIPF_S,
        ladder_rps=list(LADDER),
        rung_seconds=RUNG_SECONDS,
        window_requests=WINDOW_REQUESTS,
        nominal_rps=NOMINAL,
        saturated_rps=SATURATED,
        saturated_windows=SATURATED_WINDOWS,
        saturated_requests=SATURATED_REQUESTS,
        latency_limit_ms=LATENCY_LIMIT_MS,
        limit_percentile=LIMIT_PERCENTILE,
        tail_percentile=TAIL,
        backlog_limit=BACKLOG_LIMIT,
        # One, not two: with two connections the server's two handler
        # threads contend for the interpreter lock and the latency tail
        # followed the host's scheduling noise (p90 moved 3x between
        # one-second windows); with one it repeats.
        connections=1,
        pinned_cpus=1,
    )
    try:
        spans_path = OUT_DIR / f"{workload}-seed{seed}-trace1.spans.jsonl"
        figures = _measure(server, traffic, bodies, seconds, trace, spans_path)
    finally:
        server.close()
    figures["setup_s"] = median(setup_times)
    figures["peak_rss_mb"] = peak_rss_mb() + server.peak_rss_mb
    return figures


def _measure(
    server: ServerProcess, traffic: Traffic, bodies: dict, seconds: float, trace: bool, spans_path
) -> dict:
    # Warm-up: fill the query cache and the server's code paths.
    warm = drive(server.port, NOMINAL, traffic.draw(int(NOMINAL * 0.1 * seconds), "warm"), bodies)
    rungs: list[Rung] = [warm]
    if trace:
        return _measure_traced(server, traffic, bodies, seconds, rungs, spans_path)
    # Most of the time goes to the nominal rate, in one-second windows
    # whose percentiles are combined across windows: a stall of the
    # host spoils a window, not the figure.  Nominal and saturated
    # windows alternate, so that each figure samples the whole run: the
    # host's speed drifts over seconds (whole windows ran 30% slower).
    count = max(3, round(0.5 * seconds * NOMINAL / WINDOW_REQUESTS))
    plan = [
        (rate, traffic.draw(int(rate * RUNG_SECONDS), f"rung{rate}"))
        for rate in LADDER
        if rate < NOMINAL
    ]
    for i in range(max(count, SATURATED_WINDOWS)):
        if i < count:
            plan.append((NOMINAL, traffic.draw(WINDOW_REQUESTS, f"nominal{i}")))
        if i < SATURATED_WINDOWS:
            plan.append((SATURATED, traffic.draw(SATURATED_REQUESTS, f"saturated{i}")))
    windows: dict[int, list[Rung]] = {rate: [] for rate in LADDER}
    for rate, keys in plan:
        windows[rate].append(drive(server.port, rate, keys, bodies))
    ladder = {rate: merge(parts) for rate, parts in windows.items()}
    nominal_windows = windows[NOMINAL]
    rungs.extend(ladder.values())
    for window in nominal_windows:
        tail_percentile(window.attempted, TAIL)
    passing = [rate for rate in LADDER if meets_limit(windows[rate])]
    # Correct answers per second; a failed request adds nothing.
    capacity = [window.attempted / window.span_s for window in windows[SATURATED]]
    figures = _totals(rungs)
    figures.update(
        rate_per_s=interquartile_mean(capacity),
        latency_p50_ms=median([percentile(w.latency_ms, 50) for w in nominal_windows]),
        latency_tail_ms=median([percentile(w.latency_ms, TAIL) for w in nominal_windows]),
        aliases={
            "serve_max_rps": "rate_per_s",
            "serve_p50_ms": "latency_p50_ms",
            f"serve_p{TAIL:g}_ms": "latency_tail_ms",
        },
        samples={
            "nominal_requests": ladder[NOMINAL].attempted,
            "nominal_window_tail_ms": [
                round(percentile(w.latency_ms, TAIL), 4) for w in nominal_windows
            ],
            "passing_rungs": passing,
            "saturated_window_rps": [round(rps, 2) for rps in capacity],
            "rungs": {
                str(rate): {
                    "requests": rung.attempted,
                    "p50_ms": round(percentile(rung.latency_ms, 50), 4),
                    "p99_ms": round(percentile(rung.latency_ms, 99), 4),
                    "backlog_end": rung.backlog_end,
                    "max_backlog": rung.max_backlog,
                    "failed": rung.failed,
                }
                for rate, rung in ladder.items()
            },
        },
    )
    return figures


def _measure_traced(server, traffic, bodies, seconds, rungs, spans_path) -> dict:
    """Alternate untraced and traced rungs at the nominal rate; the
    server writes the spans of the last traced rung to ``spans_path``."""
    pairs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not pairs:
        # Fresh keys for every rung, so the cache sees steady-state traffic.
        plain = drive(server.port, NOMINAL, traffic.draw(WINDOW_REQUESTS, f"plain{len(pairs)}"), bodies)
        server.command("stats")  # the traced rung's counters start here
        server.command("trace on")
        keys = traffic.draw(WINDOW_REQUESTS, f"traced{len(pairs)}")
        traced = drive(server.port, NOMINAL, keys, bodies)
        server.command(f"dump {spans_path}")
        stats = server.command("stats")
        server.command("trace off")
        rungs.extend([plain, traced])
        pairs.append((plain, traced, stats))
    layers = [_serve_layers(plain, traced, stats) for plain, traced, stats in pairs]
    figures = _totals(rungs)
    figures["layers"] = median_of(layers)
    figures["samples"] = {"pairs": len(pairs), "requests_per_rung": WINDOW_REQUESTS}
    return figures


def _serve_layers(plain: Rung, traced: Rung, stats: dict) -> dict:
    requests = traced.attempted
    total = stats["total_ms"]
    self_ms = stats["self_ms"]
    cache = stats["cache"]
    round_trip = sum(traced.round_trip_ms)
    service_ms = share(total.get("serve.service", 0.0), requests)
    return {
        "serve.http_ms": share(self_ms.get("serve.http", 0.0), requests),
        "serve.service_ms": service_ms,
        "serve.engine_ms": share(total.get("serve.engine", 0.0), requests),
        "serve.cache_hit_rate": share(cache["hits"], cache["hits"] + cache["misses"]),
        "serve.cache_evictions": cache["evictions"],
        "serve.transport_ms": share(round_trip, requests) - service_ms,
        "loadgen.late_ms": share(sum(traced.late_ms), requests),
        "loadgen.backlog": traced.max_backlog,
        "trace.wall_ms": round_trip,
        "trace.unattributed_share": share(round_trip - total.get("serve.http", 0.0), round_trip),
        "trace.overhead_share": (
            share(sum(traced.round_trip_ms), requests)
            / share(sum(plain.round_trip_ms), plain.attempted)
            - 1.0
        ),
    }


def merge(windows: list[Rung]) -> Rung:
    """Back-to-back windows at one rate, as one rung."""
    return Rung(
        rate=windows[0].rate,
        latency_ms=[ms for w in windows for ms in w.latency_ms],
        round_trip_ms=[ms for w in windows for ms in w.round_trip_ms],
        late_ms=[ms for w in windows for ms in w.late_ms],
        max_backlog=max(w.max_backlog for w in windows),
        backlog_end=windows[-1].backlog_end,
        failed=sum(w.failed for w in windows),
        problems=[p for w in windows for p in w.problems],
        span_s=sum(w.span_s for w in windows),
    )


def _totals(rungs: list[Rung]) -> dict:
    problems = [problem for rung in rungs for problem in rung.problems[:5]]
    return {
        "attempted": sum(rung.attempted + rung.failed for rung in rungs),
        "failed": sum(rung.failed for rung in rungs),
        "problems": problems,
    }
