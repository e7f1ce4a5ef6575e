"""Workload ``crawl_simtube``: AJAX-crawl SimTube watch pages.

``AjaxCrawler.crawl`` with the default ``CrawlerConfig`` (hot node on)
over SyntheticYouTube, the site the paper's chapter 7 figures crawl.
Nearly all of the time goes to JavaScript, DOM and browser work, and
its inputs repeat heavily (the same handler strings and comment
fragments are parsed again and again), which makes it the workload on
which memoising parses or cheaper snapshot restores would show.

Inputs are drawn from ``--seed`` but always have the same shape: the
crawled videos are a stratified sample whose comment-page counts follow
one fixed histogram (the Figure 7.1 mixture), so every seed crawls the
same number of states and page sizes, with different text.

The site is served from a response table recorded in set-up:
SimTube is a pure function of ``(seed, video, page)``, and replaying
keeps HTML rendering in ``repro.sites`` out of the crawler's time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.browser import JS_ACCOUNT
from repro.clock import CostModel
from repro.crawler.ajax import AjaxCrawler
from repro.crawler.config import DEFAULT_CONFIG
from repro.dom.hashing import clear_digest_memo
from repro.net.http import Request
from repro.net.server import SimulatedServer
from repro.sites.distributions import CommentPageDistribution
from repro.sites.youtube import SiteConfig, SyntheticYouTube

from perfbench.common import (
    Deadline,
    freeze_setup,
    interquartile_mean,
    median,
    median_of,
    percentile,
    settle,
    share,
    tail_percentile,
)
from perfbench.layers import install_crawl_layers
from perfbench.tracer import Tracer

#: Videos crawled per repeat.
VIDEOS = 100
#: Video indexes the stratified sample may draw from.
VIDEO_POOL = 3000
#: Reference sample that fixes the page-count histogram (paper seed 7).
REFERENCE_SEED = 7
REFERENCE_VIDEOS = 20_000
#: Per-page latency percentile reported as the tail.
TAIL = 95.0
#: Set-ups timed per run (the median is reported).
SETUPS = 3


def page_count_quota(videos: int) -> dict[int, int]:
    """Videos per comment-page count: the reference histogram scaled
    to ``videos`` by largest remainder (independent of the run's seed)."""
    histogram = CommentPageDistribution(seed=REFERENCE_SEED).histogram(
        range(REFERENCE_VIDEOS)
    )
    exact = {pages: count * videos / REFERENCE_VIDEOS for pages, count in histogram.items()}
    quota = {pages: int(value) for pages, value in exact.items()}
    by_remainder = sorted(exact, key=lambda pages: (-(exact[pages] - quota[pages]), pages))
    for pages in by_remainder[: videos - sum(quota.values())]:
        quota[pages] += 1
    return {pages: count for pages, count in sorted(quota.items()) if count}


@dataclass
class CrawlInputs:
    """One seed's site, the videos to crawl and their ground truth."""

    site: object
    indexes: list[int]
    urls: list[str]
    max_states: int
    #: video index -> comment pages (ground truth).
    pages: dict[int, int]

    @property
    def expected_states(self) -> int:
        return sum(min(self.pages[i], self.max_states) for i in self.indexes)


def make_inputs(seed: int, videos: int = VIDEOS, pool: int = VIDEO_POOL) -> CrawlInputs:
    site = SyntheticYouTube(SiteConfig(num_videos=pool, seed=seed))
    wanted = page_count_quota(videos)
    taken: dict[int, int] = {}
    indexes: list[int] = []
    pages: dict[int, int] = {}
    for index in range(pool):
        count = site.comment_pages_of(index)
        if taken.get(count, 0) < wanted.get(count, 0):
            taken[count] = taken.get(count, 0) + 1
            indexes.append(index)
            pages[index] = count
    if len(indexes) != videos:
        raise RuntimeError(
            f"seed {seed}: {pool} videos cannot fill the page-count quota {wanted}"
        )
    return CrawlInputs(
        site=site,
        indexes=indexes,
        urls=[site.video_url(i) for i in indexes],
        max_states=DEFAULT_CONFIG.max_states,
        pages=pages,
    )


# -- response replay -----------------------------------------------------------


def _response_keys(inputs: CrawlInputs) -> list[tuple[str, str, str]]:
    site = inputs.site
    base = site.config.base_url
    keys = [("GET", base + "/ajax-robots.json", "")]
    for index, url in zip(inputs.indexes, inputs.urls):
        keys.append(("GET", url, ""))
        video_id = url.rsplit("=", 1)[1]
        for page in range(1, inputs.pages[index] + 1):
            keys.append(("GET", f"{base}/comments?v={video_id}&p={page}", ""))
    return keys


def _live(site, key: tuple[str, str, str]):
    method, url, body = key
    return site.handle(Request(method, url, body))


class ReplayServer(SimulatedServer):
    """Serves recorded responses; a request outside the table is a
    miss, answered live and reported (the table was incomplete)."""

    def __init__(self, site, table: dict) -> None:
        self.site = site
        self.table = table
        self.misses: list[tuple[str, str, str]] = []

    def handle(self, request):
        key = (request.method, request.url, request.body)
        response = self.table.get(key)
        if response is None:
            self.misses.append(key)
            return self.site.handle(request)
        return response


def record_responses(inputs: CrawlInputs):
    """A replay server over every response the crawl can request."""
    table = {key: _live(inputs.site, key) for key in _response_keys(inputs)}
    return ReplayServer(inputs.site, table)


def replay_mismatches(replay) -> list[str]:
    """URLs whose recorded response differs from a live render."""
    bad = []
    for key, recorded in replay.table.items():
        live = _live(replay.site, key)
        if (live.status, live.body, live.content_type, live.headers) != (
            recorded.status, recorded.body, recorded.content_type, recorded.headers
        ):
            bad.append(key[1])
    return bad


# -- the crawl and its checks --------------------------------------------------


def extract_states(models) -> dict[str, list[str]]:
    """The crawl's output as ``url -> [state text, ...]``."""
    return {model.url: [state.text for state in model.states()] for model in models}


def check_crawl(inputs: CrawlInputs, states: dict[str, list[str]], failed_urls) -> list[str]:
    """Problems with a crawl's output, one per failed page (empty = correct).

    Each page must hold ``min(comment pages, state cap)`` states, and
    each state's text must contain the ground-truth comments of exactly
    one comment page, a different one for every state.
    """
    site = inputs.site
    problems = [f"{url}: crawl failed" for url in failed_urls]
    for index, url in zip(inputs.indexes, inputs.urls):
        texts = states.get(url)
        if texts is None:
            if url not in failed_urls:
                problems.append(f"{url}: no model")
            continue
        wanted = min(inputs.pages[index], inputs.max_states)
        if len(texts) != wanted:
            problems.append(f"{url}: {len(texts)} states, expected {wanted}")
            continue
        seen: set[int] = set()
        for text in texts:
            hits = [
                page
                for page in range(1, inputs.pages[index] + 1)
                if site.comment_text(index, page, 0) in text
                and site.comment_text(index, page, site.config.comments_per_page - 1) in text
            ]
            if len(hits) != 1 or hits[0] in seen:
                problems.append(f"{url}: a state matches comment pages {hits}")
                break
            seen.add(hits[0])
    return problems


class TimedCrawler(AjaxCrawler):
    """``AjaxCrawler`` that keeps the wall time of every page."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.page_seconds: list[float] = []

    def crawl_page(self, url):
        start = time.perf_counter()
        try:
            return super().crawl_page(url)
        finally:
            self.page_seconds.append(time.perf_counter() - start)


@dataclass
class CrawlRepeat:
    wall_s: float
    page_s: list[float]
    states: int
    problems: list[str]
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def crawl_once(inputs: CrawlInputs, replay, tracer=None) -> CrawlRepeat:
    """One crawl of every input URL, from the same process state."""
    # The digest memo is module-global: without this, later repeats
    # hash fewer bytes than the first.
    clear_digest_memo()
    crawler = TimedCrawler(replay, config=DEFAULT_CONFIG)
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    with tracer.span("run") if tracer is not None else nullcontext():
        result = crawler.crawl(inputs.urls)
    wall = time.perf_counter() - start
    report = result.report
    pages = report.num_pages
    counts = {
        "crawl.virtual_ms": crawler.clock.now_ms,
        "crawl.js_virtual_ms": crawler.clock.spent_on(JS_ACCOUNT),
        "dom.hash_bytes": sum(m.hash_bytes_hashed for m in report.pages),
        "net.ajax_calls": report.total_ajax_calls,
        "net.cached_hits": report.total_cached_hits,
        "crawler.states": report.total_states,
        "crawler.events": report.total_events,
        "crawler.pages": pages,
    }
    repeat = CrawlRepeat(
        wall_s=wall,
        page_s=list(crawler.page_seconds),
        states=report.total_states,
        problems=check_crawl(inputs, extract_states(result.models), result.failed_urls),
        counts=counts,
    )
    if tracer is not None:
        repeat.layers = crawl_layer_metrics(tracer, counts, CostModel().js_step_ms)
    return repeat


def crawl_layer_metrics(tracer, counts: dict, js_step_ms: float) -> dict:
    """Per-layer figures of one traced crawl (times in ms per crawl)."""
    times = tracer.layer_times()
    calls = times.calls
    events = counts["crawler.events"]
    hot_total = counts["net.ajax_calls"] + counts["net.cached_hits"]
    wall_ms = times.total_ms("run")
    return {
        "js.parse_ms": times.self_ms("js.parse"),
        "js.parse_calls": calls["js.parse"],
        "js.parse_distinct_share": share(len(tracer.distinct["js.parse"]), calls["js.parse"]),
        "js.exec_ms": times.self_ms("js.exec"),
        "js.steps": tracer.counts["js.steps"],
        "dom.fragment_parse_ms": times.self_ms("dom.fragment_parse"),
        "dom.fragment_parses": calls["dom.fragment_parse"],
        "dom.fragment_distinct_share": share(
            len(tracer.distinct["dom.fragment_parse"]), calls["dom.fragment_parse"]
        ),
        "dom.document_parse_ms": times.self_ms("dom.document_parse"),
        "dom.clone_ms": times.self_ms("dom.clone"),
        "dom.clones": calls["dom.clone"],
        "dom.hash_ms": times.self_ms("dom.hash"),
        "dom.hash_bytes": tracer.counts["dom.hash_bytes"],
        "dom.hash_nodes_hashed": tracer.counts["dom.hash_nodes_hashed"],
        "dom.hash_nodes_skipped": tracer.counts["dom.hash_nodes_skipped"],
        "dom.serialize_ms": times.self_ms("dom.serialize"),
        "browser.load_ms": times.self_ms("browser.load"),
        "browser.dispatch_ms": times.self_ms("browser.dispatch"),
        "browser.restore_ms": times.self_ms("browser.restore"),
        "browser.restores": calls["browser.restore"],
        "browser.snapshot_ms": times.self_ms("browser.snapshot"),
        "browser.events_ms": times.self_ms("browser.events"),
        "net.fetch_ms": times.self_ms("net.fetch") + times.self_ms("net.ajax"),
        "net.ajax_calls": calls["net.ajax"],
        "net.cached_hits": counts["net.cached_hits"],
        "crawler.hotnode_hit_share": share(counts["net.cached_hits"], hot_total),
        "crawler.new_state_share": share(
            counts["crawler.states"] - counts["crawler.pages"], events
        ),
        "crawler.self_ms": times.self_ms("crawler.crawl_page"),
        "crawl.virtual_ms": counts["crawl.virtual_ms"],
        "trace.wall_ms": wall_ms,
        "trace.unattributed_share": share(times.self_ms("run"), wall_ms),
        # Cross-checks against the program's own counters.
        "_js_steps_from_virtual": round(counts["crawl.js_virtual_ms"] / js_step_ms),
        "_hash_bytes_program": counts["dom.hash_bytes"],
    }


# -- the workload --------------------------------------------------------------


def setup(seed: int):
    inputs = make_inputs(seed)
    replay = record_responses(inputs)
    return inputs, replay


def run(workload: str, seed: int, seconds: float, trace: bool, out) -> dict:
    """Measure crawls for ``seconds``; returns the workload's figures."""
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs, replay = setup(seed)
        setup_times.append(time.perf_counter() - start)
    problems = [f"replayed response differs from live: {url}" for url in replay_mismatches(replay)]
    out.sizes.update(
        videos=len(inputs.urls),
        video_pool=VIDEO_POOL,
        expected_states=inputs.expected_states,
        max_states_per_page=inputs.max_states,
        page_count_quota=page_count_quota(len(inputs.urls)),
        recorded_responses=len(replay.table),
        tail_percentile=TAIL,
    )

    tracer = None
    if trace:
        tracer = Tracer()
    freeze_setup()
    repeats: list[CrawlRepeat] = []
    traced: list[CrawlRepeat] = []
    deadline = Deadline(seconds)
    while not deadline.expired or len(repeats) < 2 or (trace and not traced):
        settle()
        use_tracer = trace and len(repeats) > len(traced)
        if use_tracer:
            install_crawl_layers(tracer)
            try:
                traced.append(crawl_once(inputs, replay, tracer))
            finally:
                tracer.unpatch()
        else:
            repeats.append(crawl_once(inputs, replay))
    if replay.misses:
        problems.append(f"{len(replay.misses)} requests missed the response table")

    every = repeats + traced
    failed = 0
    for repeat in every:
        if repeat.states != inputs.expected_states:
            repeat.problems.append(
                f"{repeat.states} states crawled, expected {inputs.expected_states}"
            )
        failed += len(repeat.problems)
        problems.extend(repeat.problems[:5])
    problems.extend(_count_drift(every, traced))

    page_ms = [s * 1000.0 for repeat in repeats for s in repeat.page_s]
    tail_percentile(len(page_ms), TAIL)
    figures = {
        "attempted": len(every) * len(inputs.urls),
        "failed": failed,
        "problems": problems,
        "setup_s": median(setup_times),
        "rate_per_s": typical_rate(repeats),
        "latency_p50_ms": percentile(page_ms, 50),
        "latency_tail_ms": percentile(page_ms, TAIL),
        "aliases": {
            "crawl_states_per_s": "rate_per_s",
            "crawl_page_p50_ms": "latency_p50_ms",
            f"crawl_page_p{TAIL:g}_ms": "latency_tail_ms",
        },
        "samples": {
            "repeats": len(repeats),
            "pages": len(page_ms),
            "traced_repeats": len(traced),
            "repeat_wall_s": [round(r.wall_s, 4) for r in repeats],
            "traced_wall_s": [round(r.wall_s, 4) for r in traced],
        },
    }
    if trace:
        layers = median_of([r.layers for r in traced])
        layers["trace.overhead_share"] = (
            median([r.wall_s for r in traced]) / median([r.wall_s for r in repeats]) - 1.0
        )
        figures["layers"] = layers
        out.spans = tracer
    return figures


def typical_rate(repeats: list[CrawlRepeat]) -> float:
    """States per second of a typical crawl.

    Each page's wall time is the interquartile mean over the repeats,
    so a burst of outside load that slows part of one repeat does not
    move the figure.
    """
    per_page = zip(*(repeat.page_s for repeat in repeats))
    return repeats[0].states / sum(interquartile_mean(list(times)) for times in per_page)


def _count_drift(every: list[CrawlRepeat], traced: list[CrawlRepeat]) -> list[str]:
    """Count-type figures must repeat exactly across all repeats."""
    problems = []
    first = every[0].counts
    for repeat in every[1:]:
        for key in ("crawl.virtual_ms", "crawl.js_virtual_ms", "dom.hash_bytes"):
            if repeat.counts[key] != first[key]:
                problems.append(f"{key} drifted between repeats: {first[key]} vs {repeat.counts[key]}")
    for repeat in traced:
        layers = repeat.layers
        if layers["js.steps"] != layers["_js_steps_from_virtual"]:
            problems.append(
                f"traced js.steps {layers['js.steps']} != program's "
                f"{layers['_js_steps_from_virtual']}"
            )
        if layers["dom.hash_bytes"] != layers["_hash_bytes_program"]:
            problems.append(
                f"traced dom.hash_bytes {layers['dom.hash_bytes']} != program's "
                f"{layers['_hash_bytes_program']}"
            )
        if layers["crawl.virtual_ms"] != first["crawl.virtual_ms"]:
            problems.append("crawl.virtual_ms differs between traced and untraced crawls")
    for key in ("js.steps", "dom.hash_bytes", "js.parse_calls", "dom.fragment_parses"):
        values = {repeat.layers[key] for repeat in traced}
        if len(values) > 1:
            problems.append(f"{key} drifted between traced repeats: {sorted(values)}")
    return problems
