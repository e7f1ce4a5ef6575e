"""Workloads ``search_broad`` and ``search_selective``: the segmented index.

Set-up mints a corpus with ``corpus_spec``/``corpus_models`` (the state
texts a conformance crawl would produce, without crawling).  Each
measured repeat then

1. builds a ``SegmentedIndex`` in a fresh directory (the write path:
   memtable adds, flushes, size-tiered compaction, segment encoding),
2. reopens it cold (empty block cache) behind a ``SearchEngine`` and
3. sends one pass of a seeded, closed-loop, single-client query stream
   to ``SearchEngine.search(q, limit=10)``; steps 2 and 3 run
   :data:`PASSES` times per build.

The two workloads share steps 1 and 2 and differ in the stream:

* ``search_broad``: ``WORD_CORPUS`` words and pairs of them with at
  least 100 matches each, so scoring every match and sorting dominate;
  a top-k change would move it.
* ``search_selective``: ``<word|area> <marker>`` conjunctions with
  exactly one match, so block skipping dominates and scoring is idle;
  a top-k change should leave it unchanged.

Every repeat does identical work from the same process state, so the
count-type figures (blocks decoded, postings encoded) repeat exactly.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.search.engine import SearchEngine
from repro.search.ranking import ajaxrank
from repro.search.segmented import SegmentedIndex
from repro.testgen.corpus import corpus_models, corpus_spec
from repro.testgen.generator import WORD_CORPUS

from perfbench.common import (
    Deadline,
    freeze_setup,
    in_child,
    interquartile_mean,
    median,
    median_of,
    percentile,
    scratch_dir,
    settle,
    share,
    tail_percentile,
)
from perfbench.layers import install_index_layers, install_query_layers
from perfbench.tracer import Tracer

#: States in the minted corpus.
STATES = 12_000
#: Memtable flush threshold in postings: small enough that a build
#: flushes several segments and compacts them.
FLUSH_POSTINGS = 20_000
#: Results asked for per query.
LIMIT = 10
#: Least matches of a broad query.
BROAD_MIN_MATCHES = 100
#: A broad pass sends every qualifying word this many times (its first
#: time decodes cold blocks, later times hit the block cache) ...
BROAD_WORD_REPEATS = 3
#: ... plus this many distinct qualifying word pairs, in seeded order.
#: The mix is fixed so every seed puts the median among warm word
#: queries and the tail among cold ones; 26 words x 3 + 22 pairs makes
#: a pass of 100 queries, ten beyond the reported p90.
BROAD_PAIRS = 22
#: Queries in a selective pass; every fourth pairs the marker with
#: ``area`` (a list spanning every state) instead of one of its words.
#: Each query decodes the marker's block and one block of the other
#: list, and a decode costs several times the rest of the query.  Few
#: enough queries that most of those blocks are still cold keeps the
#: median among queries decoding two blocks; at 400 per pass about
#: half found the second block cached and the median flipped between
#: the two groups from run to run.
SELECTIVE_QUERIES = 100
#: Cold query passes per build, each after its own reopen.  A broad
#: pass takes about as long as the build; the speed of one pass moved
#: 20% from pass to pass on the host this was tuned on (p50 of
#: identical passes 22-28 ms), so the latency figures want more passes
#: in a run than builds.
PASSES = 2
#: Set-ups timed per run (the median is reported).
SETUPS = 3

#: Tail percentile reported.  Not p99 for the selective class: its
#: p99 over ~2400 sub-millisecond queries is set by a few dozen host
#: scheduling stalls, and moved up to 5x between runs of the same code.
#: Not p95 for the broad class: while the host took 6-10% of the CPU,
#: its p95 over ~300 queries doubled (49 to 94 ms) within five runs.
TAIL = 90.0


@dataclass
class Corpus:
    spec: object
    models: list
    ajaxranks: dict
    #: term -> set of (uri, state_id), from the state texts.
    postings: dict

    def matches(self, query: str) -> set:
        terms = query.split()
        found = set(self.postings.get(terms[0], ()))
        for term in terms[1:]:
            found &= self.postings.get(term, set())
        return found


def make_corpus(seed: int, states: int = STATES) -> Corpus:
    spec = corpus_spec(states, seed=seed)
    models = corpus_models(spec)
    ajaxranks = {}
    postings: dict[str, set] = {}
    for model in models:
        for state_id, rank in ajaxrank(model).items():
            ajaxranks[(model.url, state_id)] = rank
        for state in model.states():
            key = (model.url, state.state_id)
            for term in set(state.text.split()):
                postings.setdefault(term, set()).add(key)
    return Corpus(spec=spec, models=models, ajaxranks=ajaxranks, postings=postings)


def make_queries(corpus: Corpus, query_class: str, seed: int) -> list[str]:
    """The seeded query sequence of one pass."""
    rng = random.Random(f"{seed}|{query_class}")
    if query_class == "broad":
        words = [w for w in WORD_CORPUS if len(corpus.matches(w)) >= BROAD_MIN_MATCHES]
        pairs = [
            f"{a} {b}"
            for i, a in enumerate(WORD_CORPUS)
            for b in WORD_CORPUS[i + 1 :]
            if len(corpus.matches(f"{a} {b}")) >= BROAD_MIN_MATCHES
        ]
        if not words or len(pairs) < BROAD_PAIRS:
            raise RuntimeError("corpus too small for broad queries")
        queries = words * BROAD_WORD_REPEATS + rng.sample(pairs, BROAD_PAIRS)
    else:
        queries = []
        for index in range(SELECTIVE_QUERIES):
            page = rng.choice(corpus.spec.pages)
            state = rng.randrange(page.num_states)
            other = "area" if index % 4 == 0 else rng.choice(page.words[state])
            queries.append(f"{other} {page.markers[state]}")
    rng.shuffle(queries)
    return queries


def reference_answers(corpus: Corpus, queries: list[str]) -> dict[str, list[tuple]]:
    """query -> its right top results as ``(uri, state_id, score)``.

    From a reference engine over the same models on the in-memory
    ``InvertedFile``, asked for every match (no limit): every match
    scored and fully sorted by ``(-score, uri, state_id)``, then cut to
    ``LIMIT``.  Neither the segmented index nor a limited search path
    takes part, so a wrong top-k or a wrong segment read shows.
    """
    reference = SearchEngine.build(corpus.models)
    return {
        query: [(r.uri, r.state_id, r.score) for r in reference.search(query)[:LIMIT]]
        for query in sorted(set(queries))
    }


def check_results(corpus: Corpus, expected: dict, query: str, results, query_class: str) -> str:
    """Why a query's top results are wrong ('' when they are right)."""
    want = expected[query]
    keys = [(result.uri, result.state_id) for result in results]
    if keys != [(uri, state_id) for uri, state_id, _ in want]:
        return f"{query!r}: top {len(keys)} results differ from the reference top {len(want)}"
    for result, (_, _, score) in zip(results, want):
        if not math.isclose(result.score, score, rel_tol=1e-9, abs_tol=1e-12):
            return f"{query!r}: {result.uri} {result.state_id} scored {result.score}, expected {score}"
    if query_class == "selective" and len(corpus.matches(query)) != 1:
        return f"{query!r}: {len(corpus.matches(query))} marker states, expected 1"
    return ""


@dataclass
class SearchRepeat:
    build_s: float
    #: One entry per query pass: the cold reopen, then each query's time.
    reopen_s: list[float]
    pass_ms: list[list[float]]
    problems: list[str]
    #: Counts of one pass (every pass of a build must give the same).
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    engine: object = None

    @property
    def wall_s(self) -> float:
        return self.build_s + sum(self.reopen_s) + sum(map(sum, self.pass_ms)) / 1000.0


def _phase(tracer, name: str):
    """The root span of one phase of a traced repeat."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _query_pass(corpus: Corpus, path, queries: list[str]):
    """Reopen the index cold and send every query once."""
    start = time.perf_counter()
    engine = SearchEngine(SegmentedIndex.open(path), ajaxranks=corpus.ajaxranks)
    reopened = time.perf_counter()
    query_ms = []
    answers = []
    for query in queries:
        begin = time.perf_counter()
        results = engine.search(query, limit=LIMIT)
        query_ms.append((time.perf_counter() - begin) * 1000.0)
        answers.append(results)
    return reopened - start, query_ms, answers, engine


def _pass_counts(engine, answers) -> dict:
    stats = engine.index.stats()
    merge = engine.index.merge_stats
    return {
        "search.blocks_decoded": merge.blocks_decoded,
        "search.blocks_skipped": merge.blocks_skipped,
        "search.postings_decoded": merge.postings_decoded,
        "search.num_bytes": stats["num_bytes"],
        "search.num_postings": stats["num_postings"],
        "search.segments": stats["num_segments"],
        "search.cache_hits": stats["cache"]["hits"],
        "search.cache_misses": stats["cache"]["misses"],
        "search.results": sum(len(results) for results in answers),
    }


def search_once(
    corpus: Corpus, expected: dict, queries: list[str], query_class: str, tracer=None
) -> SearchRepeat:
    """Build, then :data:`PASSES` times reopen cold and run a query pass."""
    path = scratch_dir("index")
    if tracer is not None:
        tracer.reset()
    with _phase(tracer, "build"):
        start = time.perf_counter()
        index = SegmentedIndex(path, flush_threshold=FLUSH_POSTINGS)
        index.build(corpus.models)
        index.close()
        built = time.perf_counter()
    if tracer is not None:
        # Compaction reads blocks too: count only the query phase's.
        tracer.distinct.clear()
    reopen_s, pass_ms, answers, counts = [], [], [], []
    engine = None
    with _phase(tracer, "queries"):
        for _ in range(PASSES):
            if engine is not None:
                engine.index.close()
            took, query_ms, results, engine = _query_pass(corpus, path, queries)
            reopen_s.append(took)
            pass_ms.append(query_ms)
            answers.append(results)
            counts.append(_pass_counts(engine, results))
    problems = [
        problem
        for results in answers
        for query, result in zip(queries, results)
        if (problem := check_results(corpus, expected, query, result, query_class))
    ]
    problems.extend(
        f"pass {number} of one build gave other counts: {other} vs {counts[0]}"
        for number, other in enumerate(counts[1:], 2)
        if other != counts[0]
    )
    repeat = SearchRepeat(
        build_s=built - start,
        reopen_s=reopen_s,
        pass_ms=pass_ms,
        problems=problems,
        counts=counts[0],
        engine=engine,
    )
    if tracer is not None:
        repeat.layers = search_layer_metrics(tracer, repeat.counts)
    return repeat


def search_layer_metrics(tracer, counts: dict) -> dict:
    """Per-layer figures of one traced repeat: ms per build for the
    write path, ms per query pass for the read path."""
    build = tracer.layer_times(under="build")
    query = tracer.layer_times(under="queries")
    per_pass = 1.0 / PASSES
    everything = tracer.layer_times()
    wall_ms = build.total_ms("build") + query.total_ms("queries")
    cache_lookups = counts["search.cache_hits"] + counts["search.cache_misses"]
    return {
        "search.add_ms": build.self_ms("search.add"),
        "search.flush_ms": build.self_ms("search.flush"),
        "search.flushes": build.calls["search.flush"],
        "search.write_ms": build.self_ms("search.write"),
        "codec.encode_ms": build.self_ms("codec.encode"),
        "search.compact_ms": build.self_ms("search.compact"),
        "search.compactions": tracer.counts["search.compactions"],
        "search.bytes_per_posting": share(counts["search.num_bytes"], counts["search.num_postings"]),
        "search.evaluate_ms": query.self_ms("search.evaluate") * per_pass,
        "codec.decode_ms": query.self_ms("codec.decode") * per_pass,
        "search.blocks_decoded": counts["search.blocks_decoded"],
        "search.blocks_skipped": counts["search.blocks_skipped"],
        "search.postings_decoded": counts["search.postings_decoded"],
        "search.decode_share": share(query.total_ms("codec.decode"), query.total_ms("search.query")),
        "search.block_cache_hit_rate": share(counts["search.cache_hits"], cache_lookups),
        "search.distinct_blocks": len(tracer.distinct["search.blocks"]),
        "search.score_ms": query.self_ms("search.query") * per_pass,
        "search.matches_per_result": share(
            tracer.counts["search.matches"] * per_pass, counts["search.results"]
        ),
        "trace.wall_ms": wall_ms,
        "trace.unattributed_share": share(
            everything.self_ms("build") + everything.self_ms("queries"), wall_ms
        ),
    }


def install_layers(tracer) -> None:
    install_index_layers(tracer)
    install_query_layers(tracer)


def run(workload: str, seed: int, seconds: float, trace: bool, out) -> dict:
    query_class = workload.split("_", 1)[1]
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        corpus = make_corpus(seed)
        queries = make_queries(corpus, query_class, seed)
        setup_times.append(time.perf_counter() - start)
    # The oracle is the benchmark's own work, not the program's set-up,
    # and its reference engine is not the program's memory.
    start = time.perf_counter()
    expected = in_child(reference_answers, corpus, queries)
    oracle_s = time.perf_counter() - start
    out.sizes.update(
        states=STATES,
        pages=len(corpus.models),
        flush_postings=FLUSH_POSTINGS,
        block_cache_blocks=1024,
        limit=LIMIT,
        query_class=query_class,
        queries_per_pass=len(queries),
        distinct_queries=len(set(queries)),
        tail_percentile=TAIL,
        broad_min_matches=BROAD_MIN_MATCHES,
        broad_word_repeats=BROAD_WORD_REPEATS,
        broad_pairs=BROAD_PAIRS,
    )

    tracer = None
    if trace:
        tracer = Tracer()
    freeze_setup()
    repeats: list[SearchRepeat] = []
    traced: list[SearchRepeat] = []
    deadline = Deadline(seconds)
    minimum = 3
    last = None
    while not deadline.expired or len(repeats) < minimum or (trace and not traced):
        if last is not None:
            last.engine.index.close()
            last.engine = None
        settle()
        if trace and len(repeats) > len(traced):
            install_layers(tracer)
            try:
                last = search_once(corpus, expected, queries, query_class, tracer)
            finally:
                tracer.unpatch()
            traced.append(last)
        else:
            last = search_once(corpus, expected, queries, query_class)
            repeats.append(last)
    every = repeats + traced
    problems = []
    failed = 0
    for repeat in every:
        failed += len(repeat.problems)
        problems.extend(repeat.problems[:5])
    # The limit-10 answers cannot show the match count: check it once.
    engine = last.engine
    for query in sorted(set(queries)):
        total = engine.result_count(query)
        wanted = len(corpus.matches(query))
        if total != wanted:
            failed += 1
            problems.append(f"{query!r}: {total} matches, expected {wanted}")
    engine.index.close()
    last.engine = None
    shutil.rmtree(scratch_dir("index"), ignore_errors=True)
    problems.extend(_count_drift(every, traced))

    # Each query's typical time is its median over the run's passes
    # (every pass sends the same queries in the same order from the same
    # cold start), and the percentiles are over those: a burst of host
    # load slows one pass of a query, not the figure.  Pooled over all
    # passes, the broad p90 followed the host's CPU steal (33 to 45 ms
    # over ten runs at 1-3% steal).
    passes = [query_ms for repeat in repeats for query_ms in repeat.pass_ms]
    query_ms = [median(list(times)) for times in zip(*passes)]
    tail_percentile(len(query_ms), TAIL)
    figures = {
        "attempted": len(every) * (PASSES * len(queries) + 1) + len(set(queries)),
        "failed": failed,
        "problems": problems,
        "setup_s": median(setup_times),
        "rate_per_s": interquartile_mean([STATES / repeat.build_s for repeat in repeats]),
        "latency_p50_ms": percentile(query_ms, 50),
        "latency_tail_ms": percentile(query_ms, TAIL),
        "aliases": {
            "index_states_per_s": "rate_per_s",
            f"query_{query_class}_p50_ms": "latency_p50_ms",
            f"query_{query_class}_p{TAIL:g}_ms": "latency_tail_ms",
        },
        "samples": {
            "repeats": len(repeats),
            "passes": len(passes),
            "traced_repeats": len(traced),
            "build_s": [round(r.build_s, 4) for r in repeats],
            "reopen_s": [round(took, 4) for r in repeats for took in r.reopen_s],
            "segments": every[0].counts["search.segments"],
            "oracle_s": round(oracle_s, 4),
        },
    }
    if trace:
        layers = median_of([repeat.layers for repeat in traced])
        layers["trace.overhead_share"] = (
            median([r.wall_s for r in traced]) / median([r.wall_s for r in repeats]) - 1.0
        )
        figures["layers"] = layers
        out.spans = tracer
    return figures


def _count_drift(every: list[SearchRepeat], traced: list[SearchRepeat]) -> list[str]:
    """Count-type figures must repeat exactly, traced or not."""
    problems = []
    first = every[0].counts
    for repeat in every[1:]:
        for key in ("search.blocks_decoded", "search.postings_decoded", "search.num_bytes"):
            if repeat.counts[key] != first[key]:
                problems.append(f"{key} drifted between repeats: {first[key]} vs {repeat.counts[key]}")
    for key in ("search.distinct_blocks", "search.compactions", "search.flushes"):
        values = {repeat.layers[key] for repeat in traced}
        if len(values) > 1:
            problems.append(f"{key} drifted between traced repeats: {sorted(values)}")
    return problems
