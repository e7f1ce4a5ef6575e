"""Tests of the benchmark itself: wrappers, self times, output checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import crawl, layers, run, search, serve
from perfbench.common import ROOT, tail_percentile
from perfbench.tracer import Tracer

CRAWL_SPANS = {
    "js.parse", "js.exec", "dom.fragment_parse", "dom.document_parse", "dom.clone",
    "dom.hash", "dom.serialize", "browser.load", "browser.events", "browser.dispatch",
    "browser.restore", "browser.snapshot", "net.fetch", "net.ajax", "crawler.crawl_page",
}
SEARCH_SPANS = {
    "search.add", "search.flush", "search.compact", "search.write", "codec.encode",
    "search.query", "search.evaluate", "search.block", "codec.decode",
}


@pytest.fixture(scope="module")
def tiny_crawl():
    inputs = crawl.make_inputs(seed=3, videos=6)
    return inputs, crawl.record_responses(inputs)


def traced_crawl(tiny_crawl):
    inputs, replay = tiny_crawl
    tracer = Tracer()
    layers.install_crawl_layers(tracer)
    try:
        repeat = crawl.crawl_once(inputs, replay, tracer)
    finally:
        tracer.unpatch()
    return tracer, repeat


def test_patches_replace_the_names_callers_look_up_and_restore_them():
    import repro.browser.bindings as bindings
    import repro.browser.page as page
    import repro.js.interpreter as interpreter
    from repro.dom import parser

    originals = (bindings.parse_fragment, page.hash_tree, interpreter.parse_program)
    tracer = Tracer()
    layers.install_crawl_layers(tracer)
    try:
        assert bindings.parse_fragment.__wrapped__ is originals[0]
        assert page.hash_tree.__wrapped__ is originals[1]
        assert interpreter.parse_program.__wrapped__ is originals[2]
        # The defining module keeps its own name: callers bound the
        # function at import time, so only their names matter.
        assert parser.parse_fragment is originals[0]
    finally:
        tracer.unpatch()
    assert (bindings.parse_fragment, page.hash_tree, interpreter.parse_program) == originals


def test_every_crawl_wrapper_fires_and_counts_match_the_program(tiny_crawl):
    tracer, repeat = traced_crawl(tiny_crawl)
    calls = tracer.layer_times().calls
    assert {name for name in CRAWL_SPANS if calls[name] == 0} == set()
    assert repeat.problems == []
    assert repeat.layers["js.steps"] == repeat.layers["_js_steps_from_virtual"] > 0
    assert repeat.layers["dom.hash_bytes"] == repeat.layers["_hash_bytes_program"] > 0


def test_self_times_sum_to_the_traced_wall_time(tiny_crawl):
    tracer, repeat = traced_crawl(tiny_crawl)
    times = tracer.layer_times()
    wall = times.total_ns["run"]
    assert sum(times.self_ns.values()) <= wall
    assert all(value >= 0 for value in times.self_ns.values())
    unattributed = repeat.layers["trace.unattributed_share"]
    assert 0.0 <= unattributed < 1.0
    assert unattributed == pytest.approx(times.self_ns["run"] / wall)


def test_untraced_and_traced_crawls_agree_on_counts(tiny_crawl):
    inputs, replay = tiny_crawl
    plain = crawl.crawl_once(inputs, replay)
    again = crawl.crawl_once(inputs, replay)
    tracer, traced = traced_crawl(tiny_crawl)
    assert crawl._count_drift([plain, again, traced], [traced]) == []
    assert plain.counts["crawl.virtual_ms"] == traced.layers["crawl.virtual_ms"]


def test_a_dropped_or_altered_state_fails_the_crawl_check(tiny_crawl):
    inputs, replay = tiny_crawl
    from repro.crawler.ajax import AjaxCrawler

    result = AjaxCrawler(replay).crawl(inputs.urls)
    states = crawl.extract_states(result.models)
    assert crawl.check_crawl(inputs, states, []) == []

    multi = next(url for url, texts in states.items() if len(texts) > 1)
    dropped = dict(states, **{multi: states[multi][:-1]})
    assert crawl.check_crawl(inputs, dropped, []) != []

    texts = list(states[multi])
    texts[-1] = texts[0]
    assert crawl.check_crawl(inputs, dict(states, **{multi: texts}), []) != []
    assert crawl.check_crawl(inputs, states, [inputs.urls[0]]) != []


def test_replayed_responses_equal_live_ones(tiny_crawl):
    _, replay = tiny_crawl
    assert crawl.replay_mismatches(replay) == []
    key = next(iter(replay.table))
    replay.table[key] = type(replay.table[key])(body="tampered")
    try:
        assert crawl.replay_mismatches(replay) == [key[1]]
    finally:
        del replay.table[key]


@pytest.fixture(scope="module")
def tiny_corpus():
    return search.make_corpus(seed=2, states=400)


def traced_search(corpus, query_class: str):
    queries = search.make_queries(corpus, query_class, seed=2)
    expected = search.reference_answers(corpus, queries)
    tracer = Tracer()
    search.install_layers(tracer)
    try:
        repeat = search.search_once(corpus, expected, queries, query_class, tracer)
    finally:
        tracer.unpatch()
    repeat.engine.index.close()
    return tracer, repeat


@pytest.fixture(scope="module")
def small_index():
    """Sizes for a 400-state corpus: flush often enough to compact."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "FLUSH_POSTINGS", 500)
        patch.setattr(search, "BROAD_MIN_MATCHES", 4)
        patch.setattr(search, "BROAD_WORD_REPEATS", 1)
        patch.setattr(search, "BROAD_PAIRS", 2)
        patch.setattr(search, "SELECTIVE_QUERIES", 20)
        yield


@pytest.mark.parametrize("query_class", ["broad", "selective"])
def test_search_wrappers_fire_and_results_check(tiny_corpus, small_index, query_class):
    tracer, repeat = traced_search(tiny_corpus, query_class)
    times = tracer.layer_times()
    assert {name for name in SEARCH_SPANS if times.calls[name] == 0} == set()
    assert repeat.problems == []
    assert repeat.layers["search.compactions"] > 0
    assert sum(times.self_ns.values()) <= times.total_ns["build"] + times.total_ns["queries"]
    query = tracer.layer_times(under="queries")
    assert query.calls["search.add"] == 0
    assert query.calls["search.query"] == sum(map(len, repeat.pass_ms)) > 0
    assert len(repeat.pass_ms) == search.PASSES
    assert 0.0 < repeat.layers["search.decode_share"] < 1.0


def _results(answers):
    from repro.search.engine import SearchResult

    return [SearchResult(uri=uri, state_id=state_id, score=score) for uri, state_id, score in answers]


def test_an_altered_search_result_fails_the_check(tiny_corpus):
    query = search.make_queries(tiny_corpus, "selective", seed=2)[0]
    expected = search.reference_answers(tiny_corpus, [query])
    (uri, state_id, score), = expected[query]
    check = search.check_results
    assert check(tiny_corpus, expected, query, _results(expected[query]), "selective") == ""
    wrong = _results([(uri, "s999", score)])
    assert check(tiny_corpus, expected, query, wrong, "selective") != ""
    assert check(tiny_corpus, expected, query, [], "selective") != ""
    rescored = _results([(uri, state_id, score * 2 + 1)])
    assert check(tiny_corpus, expected, query, rescored, "selective") != ""


def test_matches_that_are_not_the_top_ten_fail_the_check(tiny_corpus, small_index):
    query = search.make_queries(tiny_corpus, "broad", seed=2)[0]
    expected = search.reference_answers(tiny_corpus, [query])
    from repro.search.engine import SearchEngine

    every = SearchEngine.build(tiny_corpus.models).search(query)
    assert len(every) > search.LIMIT
    check = search.check_results
    right = _results(expected[query])
    assert check(tiny_corpus, expected, query, right, "broad") == ""
    # Ten real matches in rank order, but not the best ten.
    below = _results([(r.uri, r.state_id, r.score) for r in every[1 : search.LIMIT + 1]])
    assert check(tiny_corpus, expected, query, below, "broad") != ""
    # The right ten in the wrong order.
    assert check(tiny_corpus, expected, query, right[::-1], "broad") != ""


@pytest.fixture(scope="module")
def traced_serving():
    """Serve 30 requests traced, then again with one expected body altered."""
    from repro.serve import SearchServer

    service = serve.build_service(seed=4, videos=4)
    keys = serve.Traffic(seed=4).draw(30, "test")
    bodies = serve.expected_bodies(serve.build_service(seed=4, videos=4), set(keys))
    tampered = dict(bodies)
    tampered[keys[0]] = (b"{}", b"{}")
    tracer = Tracer()
    layers.install_serve_layers(tracer)
    server = SearchServer(service).start()
    try:
        good = serve.drive(server.port, 200, keys, bodies)
        bad = serve.drive(server.port, 200, keys, tampered)
    finally:
        server.stop()
        tracer.unpatch()
    return tracer.layer_times(), keys, good, bad


def test_serve_wrappers_fire_and_an_altered_body_fails(traced_serving):
    times, keys, good, bad = traced_serving
    assert times.calls["serve.http"] == times.calls["serve.service"] == 60
    assert times.calls["serve.engine"] > 0
    assert good.failed == 0 and good.attempted == 30
    assert bad.failed == keys.count(keys[0])


def test_layer_figures_are_the_declared_per_layer_metrics(
    tiny_crawl, tiny_corpus, small_index, traced_serving
):
    times, _, good, _ = traced_serving
    stats = {
        "self_ms": {name: ns / 1e6 for name, ns in times.self_ns.items()},
        "total_ms": {name: ns / 1e6 for name, ns in times.total_ns.items()},
        "cache": {"hits": 1, "misses": 1, "evictions": 0},
    }
    produced = {"trace.overhead_share"}  # added by each workload's run()
    for figures in (
        traced_crawl(tiny_crawl)[1].layers,
        traced_search(tiny_corpus, "broad")[1].layers,
        serve._serve_layers(good, good, stats),
    ):
        names = {name for name in figures if not name.startswith("_")}
        assert names <= set(run.PER_LAYER)
        produced |= names
    assert produced == set(run.PER_LAYER)


def test_tail_percentile_needs_ten_samples_beyond():
    tail_percentile(1000, 99.0)
    with pytest.raises(ValueError):
        tail_percentile(999, 99.0)


def test_every_workload_in_benchmark_json_has_a_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.MODULES)
    assert "setup_s" in run.END_TO_END


def test_without_the_program_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_simtube",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
