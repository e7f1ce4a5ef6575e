"""Which entry points of which layer the traced runs wrap.

Each ``install_*`` function patches one group of layers on a
:class:`~perfbench.tracer.Tracer`.  Names are patched where the
*caller* looks them up: ``Page.restore`` calls the ``parse_document``
bound in ``repro.browser.page``, so that is the name replaced; patching
only ``repro.dom.parser.parse_document`` would miss every call.

Span names are ``<layer>.<operation>``; the per-layer metrics in
``BENCHMARK.json`` are derived from their self times and from the
counts the note hooks book.
"""

from __future__ import annotations

import repro.browser.bindings as bindings
import repro.browser.browser as browser_module
import repro.browser.page as page_module
import repro.js.interpreter as interpreter_module
import repro.search.engine as engine_module
import repro.search.segmented as segmented_module
import repro.search.segments as segments_module
from repro.browser.browser import Browser
from repro.browser.page import Page
from repro.crawler.ajax import AjaxCrawler
from repro.dom.node import Document
from repro.js.interpreter import Interpreter
from repro.net.gateway import NetworkGateway
from repro.search.engine import SearchEngine
from repro.search.segmented import SegmentedIndex
from repro.search.segments import SegmentReader
from repro.serve.handlers import SearchRequestHandler
from repro.serve.service import SearchService

from perfbench.tracer import Tracer


def _distinct_source(key: str):
    """Note hook: remember the first argument (a source text)."""

    def note(tracer: Tracer, args, kwargs, result, token) -> None:
        tracer.distinct[key].add(args[0])

    return note


def _steps_before(args, kwargs):
    interpreter = args[0]
    return interpreter.steps


def _note_steps(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.counts["js.steps"] += args[0].steps - before


def _note_hash(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["dom.hash_bytes"] += result.bytes_hashed
    tracer.counts["dom.hash_nodes_hashed"] += result.nodes_hashed
    tracer.counts["dom.hash_nodes_skipped"] += result.nodes_skipped


def install_crawl_layers(tracer: Tracer) -> None:
    """js, dom, browser, net and crawler entry points of a crawl."""
    # js: every handler string is parsed by Interpreter.run.
    tracer.patch(
        interpreter_module, "parse_program", "js.parse",
        note=_distinct_source("js.parse"),
    )
    tracer.patch(Interpreter, "run", "js.exec", pre=_steps_before, note=_note_steps)
    # dom: innerHTML assignment, page load, snapshot restore, hashing.
    tracer.patch(
        bindings, "parse_fragment", "dom.fragment_parse",
        note=_distinct_source("dom.fragment_parse"),
    )
    tracer.patch(browser_module, "parse_document", "dom.document_parse")
    tracer.patch(page_module, "parse_document", "dom.document_parse")
    tracer.patch(Document, "clone", "dom.clone")
    tracer.patch(page_module, "hash_tree", "dom.hash", note=_note_hash)
    tracer.patch(page_module, "serialize", "dom.serialize")
    # browser: the page operations the crawler drives.
    tracer.patch(Browser, "load", "browser.load")
    tracer.patch(Page, "events", "browser.events")
    tracer.patch(Page, "dispatch", "browser.dispatch")
    tracer.patch(Page, "restore", "browser.restore")
    tracer.patch(Page, "snapshot", "browser.snapshot")
    # net: the gateway is the single choke point to the (replayed) server.
    tracer.patch(NetworkGateway, "fetch_page", "net.fetch")
    tracer.patch(NetworkGateway, "ajax_request", "net.ajax")
    # crawler: one span per page; its self time is the crawl loop.
    tracer.patch(AjaxCrawler, "crawl_page", "crawler.crawl_page")


def _note_compactions(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["search.compactions"] += result


def _note_block(tracer: Tracer, args, kwargs, result, token) -> None:
    reader, term, block = args[0], args[1], args[2]
    tracer.distinct["search.blocks"].add((reader.name, term, block))


def install_index_layers(tracer: Tracer) -> None:
    """The write path of the segmented index."""
    tracer.patch(SegmentedIndex, "add_model", "search.add")
    tracer.patch(SegmentedIndex, "flush", "search.flush")
    tracer.patch(SegmentedIndex, "maybe_compact", "search.compact", note=_note_compactions)
    tracer.patch(segmented_module, "write_segment", "search.write")
    tracer.patch(segments_module, "encode_block", "codec.encode")


def _note_matches(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["search.matches"] += len(result)


def install_query_layers(tracer: Tracer) -> None:
    """The read path: boolean evaluation, block decode, scoring."""
    tracer.patch(SearchEngine, "search", "search.query")
    tracer.patch(engine_module, "evaluate", "search.evaluate", note=_note_matches)
    tracer.patch(segments_module, "decode_block", "codec.decode")
    # A block read through the shared cache; its self time is the cache
    # lookup, and codec.decode nests inside it on a miss.
    tracer.patch(SegmentReader, "decode_block_at", "search.block", note=_note_block)


def install_serve_layers(tracer: Tracer) -> None:
    """The serving tier: HTTP handler, service call (cache, telemetry), engine."""
    tracer.patch(SearchRequestHandler, "do_GET", "serve.http")
    tracer.patch(SearchService, "search", "serve.service")
    tracer.patch(SearchEngine, "search", "serve.engine")
