"""A loaded page: DOM plus a live JavaScript context.

The :class:`Page` is what the crawler operates on.  It can

* run the page's ``<script>`` elements and the body ``onload``,
* enumerate and dispatch user events (producing new DOM states),
* report whether the last dispatch changed the DOM,
* snapshot and restore its complete state (DOM **and** script
  variables), which implements the ``appModel.rollback(t)`` step of
  Algorithm 3.1.1.

All JavaScript execution charges virtual time proportional to the
number of interpreter steps; DOM re-parses charge parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.browser.bindings import DocumentHost, ElementHost, WindowHost
from repro.browser.events import (
    DEFAULT_EVENT_TYPES,
    EventBinding,
    enumerate_events,
    onload_handler,
)
from repro.clock import CostModel, SimClock
from repro.dom import (
    Document,
    DomHashes,
    Element,
    HashStats,
    Node,
    hash_tree,
    parse_document,
    reference_state_hash,
    serialize,
)
from repro.errors import BrowserError, JavascriptError
from repro.js import Interpreter
from repro.obs import NULL_RECORDER

#: Clock account for JavaScript execution.
JS_ACCOUNT = "javascript"
#: Clock account for HTML parsing / DOM (re)construction.
PARSE_ACCOUNT = "parsing"


@dataclass
class PageSnapshot:
    """Everything needed to restore a page to an earlier state."""

    html: str
    globals_snapshot: dict[str, Any]
    hash: str
    #: Lazily parsed master tree (with warm Merkle hash caches) that
    #: :meth:`Page.restore` clones instead of re-parsing ``html`` on
    #: every rollback.  Populated on first restore; never mutated.
    master: Optional[Document] = None


class Page:
    """One loaded AJAX page."""

    def __init__(
        self,
        url: str,
        document: Document,
        interpreter: Interpreter,
        clock: SimClock,
        cost_model: CostModel,
        javascript_enabled: bool = True,
        incremental_hashing: bool = True,
        recorder=NULL_RECORDER,
    ) -> None:
        self.url = url
        self.document = document
        self.interpreter = interpreter
        self.clock = clock
        self.cost_model = cost_model
        self.javascript_enabled = javascript_enabled
        self.recorder = recorder
        #: When True (default) state/region hashing reuses the Merkle
        #: subtree caches and rollbacks clone a warm master tree; False
        #: reproduces the seed full-rewalk + re-parse behaviour (the
        #: baseline mode of the hashing benchmark).
        self.incremental_hashing = incremental_hashing
        #: Hashing work accounting for this page (all passes, all kinds).
        self.hash_stats = HashStats()
        self.document_host = DocumentHost(self)
        self.window_host = WindowHost(self)
        self._element_hosts: dict[int, ElementHost] = {}
        #: Parsed ``innerHTML`` markup of this page, by markup text.  An
        #: assignment inserts clones, so the prototypes are never put in
        #: a tree or hashed and every clone arrives with cold hash caches,
        #: exactly like a fresh parse.  (Page scope: markup repeats
        #: across one page's events, rarely across pages.)
        self.fragment_prototypes: dict[str, list[Node]] = {}
        self._dirty = False
        #: JavaScript errors swallowed while loading page scripts.
        self.script_errors: list[JavascriptError] = []
        interpreter.define_global("document", self.document_host)
        interpreter.define_global("window", self.window_host)

    # -- host helpers ------------------------------------------------------------

    def wrap_element(self, element: Element) -> ElementHost:
        """The (cached) host wrapper for a DOM element."""
        host = self._element_hosts.get(id(element))
        if host is None or host.element is not element:
            host = ElementHost(element, self)
            self._element_hosts[id(element)] = host
        return host

    def note_dom_mutation(self, parse_bytes: int = 0) -> None:
        """Called by bindings whenever a script mutates the DOM."""
        self._dirty = True
        if parse_bytes:
            self.clock.advance(self.cost_model.html_parse_ms(parse_bytes), PARSE_ACCOUNT)

    # -- script execution ----------------------------------------------------------

    def run_scripts(self) -> None:
        """Execute all ``<script>`` elements in document order.

        Like a browser, a script block that fails (syntax or runtime
        error) is skipped without aborting the page: later blocks still
        run.  Failures are collected in :attr:`script_errors`.
        """
        if not self.javascript_enabled:
            return
        for script in self.document.root.get_elements_by_tag("script"):
            source = "".join(
                child.data for child in script.children if hasattr(child, "data")
            )
            if not source.strip():
                continue
            try:
                self.execute_js(source)
            except JavascriptError as error:
                self.script_errors.append(error)

    def run_onload(self) -> None:
        """Invoke the body ``onload`` handler (Algorithm 3.1.1 line 3).

        A failing onload is recorded in :attr:`script_errors` rather than
        raised: the crawl proceeds with whatever DOM the page has.
        """
        if not self.javascript_enabled:
            return
        handler = onload_handler(self.document)
        if not handler:
            return
        try:
            self.execute_js(handler)
        except JavascriptError as error:
            self.script_errors.append(error)

    def execute_js(self, source: str) -> Any:
        """Run ``source`` in the page context, charging virtual time."""
        if not self.javascript_enabled:
            raise BrowserError("JavaScript is disabled for this page")
        before = self.interpreter.steps
        with self.recorder.span("js_exec") as span:
            try:
                return self.interpreter.run(source)
            finally:
                delta = self.interpreter.steps - before
                self.clock.advance(self.cost_model.js_execution_ms(delta), JS_ACCOUNT)
                span.annotate(steps=delta)

    # -- events ------------------------------------------------------------------------

    def events(self, event_types=DEFAULT_EVENT_TYPES) -> list[EventBinding]:
        """Invocable events in the current DOM."""
        return enumerate_events(self.document, event_types)

    def dispatch(self, binding: EventBinding) -> bool:
        """Fire one event; returns True when the DOM changed.

        Raises :class:`~repro.errors.BrowserError` when the binding's
        source element no longer exists in the current DOM.
        """
        element = binding.locator.resolve(self.document)
        if element is None:
            raise BrowserError(f"event source {binding.describe()} not found")
        if element.get_attribute(binding.event_type) != binding.handler:
            # The locator resolved, but to an element that no longer
            # carries this event (the DOM shifted under a path locator).
            raise BrowserError(f"event source {binding.describe()} is stale")
        if binding.input_value is not None:
            # Forms extension: type the value into the source element
            # before firing the handler (kept as an attribute so state
            # snapshots and hashes capture it).
            element.set_attribute("value", binding.input_value)
        self._dirty = False
        # Make `this` available to the handler the way browsers do.
        self.interpreter.define_global("this", self.wrap_element(element))
        try:
            self.execute_js(binding.handler)
        except JavascriptError:
            # A failing handler must not kill the crawl; the DOM may
            # still have partially changed.
            return self._dirty
        return self._dirty

    @property
    def dom_changed(self) -> bool:
        """Whether a mutation happened since the last dispatch began."""
        return self._dirty

    # -- state identity & rollback ----------------------------------------------------------

    def content_hash(self) -> str:
        """Hash identifying the current DOM state (duplicate detection)."""
        if self.incremental_hashing:
            return hash_tree(self.document, stats=self.hash_stats).state
        return reference_state_hash(self.document, stats=self.hash_stats)

    def hash_state(self) -> DomHashes:
        """One combined Merkle pass: state hash plus full region map.

        Re-hashes only subtrees dirtied since the last pass (or the
        last :meth:`restore`, whose cloned master arrives fully cached).
        """
        with self.recorder.span("hash_pass") as span:
            hashes = hash_tree(self.document, stats=self.hash_stats)
            span.annotate(
                nodes_hashed=hashes.nodes_hashed,
                nodes_skipped=hashes.nodes_skipped,
                incremental=hashes.incremental,
            )
        return hashes

    def snapshot(self) -> PageSnapshot:
        """Capture DOM and script globals for a later :meth:`restore`."""
        return PageSnapshot(
            html=serialize(self.document),
            globals_snapshot=dict(self.interpreter.global_env.bindings),
            hash=self.content_hash(),
        )

    def restore(self, snapshot: PageSnapshot) -> None:
        """Roll the page back to ``snapshot`` (DOM and script variables).

        The virtual clock is always charged the full re-parse cost (the
        simulated browser still parses); with incremental hashing the
        *wall-clock* work is a clone of the snapshot's master tree,
        which carries warm Merkle caches so the post-rollback base
        hashes are cache reads instead of full re-hashes.
        """
        if self.incremental_hashing:
            master = snapshot.master
            if master is None:
                master = parse_document(snapshot.html, url=self.url)
                # Warm the caches once; every later restore clones them.
                hash_tree(master, stats=self.hash_stats)
                snapshot.master = master
            self.document = master.clone()
        else:
            self.document = parse_document(snapshot.html, url=self.url)
        self.clock.advance(
            self.cost_model.html_parse_ms(len(snapshot.html)), PARSE_ACCOUNT
        )
        self.interpreter.global_env.bindings = dict(snapshot.globals_snapshot)
        self._element_hosts.clear()
        self._dirty = False

    @property
    def text(self) -> str:
        """Visible text of the current state (what gets indexed)."""
        return self.document.text_content
