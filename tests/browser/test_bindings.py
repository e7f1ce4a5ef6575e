"""Unit tests for the document/element/window host bindings."""

import pytest

import repro.browser.bindings as bindings_module
from repro.browser import Browser
from repro.clock import CostModel
from repro.dom import inner_html
from repro.dom.hashing import clear_digest_memo
from repro.errors import JsTypeError
from repro.net import Response, RoutedServer


def make_browser(body, script=""):
    server = RoutedServer()

    @server.route(r"/page")
    def page(request, match):
        return Response(
            body=f"<html><body>{body}<script>{script}</script></body></html>"
        )

    return Browser(server, cost_model=CostModel(network_jitter=0.0))


def load(body, script=""):
    return make_browser(body, script).load("http://b.test/page")


class TestDocumentHost:
    def test_get_element_by_id(self):
        page = load('<div id="x">hi</div>')
        assert page.execute_js("document.getElementById('x').textContent;") == "hi"

    def test_missing_element_is_null(self):
        page = load("<div></div>")
        assert page.execute_js("document.getElementById('nope');") is None

    def test_title(self):
        server = RoutedServer()

        @server.route(r"/page")
        def handler(request, match):
            return Response(
                body="<html><head><title>T</title></head><body></body></html>"
            )

        browser = Browser(server, cost_model=CostModel(network_jitter=0.0))
        page = browser.load("http://b.test/page")
        assert page.execute_js("document.title;") == "T"

    def test_body_accessor(self):
        page = load("<p>x</p>")
        assert page.execute_js("document.body.tagName;") == "BODY"

    def test_create_element_and_append(self):
        page = load('<div id="root"></div>')
        page.execute_js(
            """
            var el = document.createElement('span');
            el.textContent = 'added';
            document.getElementById('root').appendChild(el);
            """
        )
        assert "added" in page.text

    def test_get_elements_by_tag_name(self):
        page = load("<p>a</p><p>b</p>")
        assert page.execute_js("document.getElementsByTagName('p').length;") == 2.0

    def test_document_url(self):
        page = load("<div></div>")
        assert page.execute_js("document.URL;") == "http://b.test/page"

    def test_document_not_writable(self):
        page = load("<div></div>")
        from repro.errors import JavascriptError

        with pytest.raises(JavascriptError):
            page.interpreter.run("document.title = 'nope';")


class TestElementHost:
    def test_inner_html_get(self):
        page = load('<div id="x"><b>bold</b></div>')
        assert page.execute_js("document.getElementById('x').innerHTML;") == "<b>bold</b>"

    def test_inner_html_set_marks_dirty(self):
        page = load('<div id="x">old</div>')
        page._dirty = False
        page.execute_js("document.getElementById('x').innerHTML = '<i>new</i>';")
        assert page.dom_changed
        assert "new" in page.text

    def test_get_set_attribute(self):
        page = load('<a id="l" href="/x">link</a>')
        assert page.execute_js("document.getElementById('l').getAttribute('href');") == "/x"
        page.execute_js("document.getElementById('l').setAttribute('href', '/y');")
        assert page.document.get_element_by_id("l").get_attribute("href") == "/y"

    def test_missing_attribute_is_null(self):
        page = load('<div id="x"></div>')
        assert page.execute_js("document.getElementById('x').getAttribute('nope');") is None

    def test_id_and_tag_name(self):
        page = load('<div id="x"></div>')
        assert page.execute_js("document.getElementById('x').id;") == "x"
        assert page.execute_js("document.getElementById('x').tagName;") == "DIV"

    def test_parent_node(self):
        page = load('<div id="outer"><span id="inner"></span></div>')
        assert (
            page.execute_js("document.getElementById('inner').parentNode.id;")
            == "outer"
        )

    def test_value_round_trip(self):
        page = load('<input id="q" type="text">')
        page.execute_js("document.getElementById('q').value = 'typed';")
        assert page.execute_js("document.getElementById('q').value;") == "typed"
        # The value lives in the attribute: snapshots capture it.
        assert page.document.get_element_by_id("q").get_attribute("value") == "typed"

    def test_style_writes_ignored_for_state(self):
        page = load('<div id="x">text</div>')
        page._dirty = False
        page.execute_js("document.getElementById('x').style.color = 'red';")
        assert page.dom_changed is False

    def test_text_content_set(self):
        page = load('<div id="x"><b>old</b></div>')
        page.execute_js("document.getElementById('x').textContent = 'plain';")
        assert page.document.get_element_by_id("x").text_content == "plain"
        assert page.document.get_element_by_id("x").get_elements_by_tag("b") == []

    def test_unknown_property_set_raises(self):
        page = load('<div id="x"></div>')
        from repro.errors import JavascriptError

        with pytest.raises(JavascriptError):
            page.interpreter.run("document.getElementById('x').bogus = 1;")

    def test_element_wrapper_cached(self):
        page = load('<div id="x"></div>')
        element = page.document.get_element_by_id("x")
        assert page.wrap_element(element) is page.wrap_element(element)


class _NoMemo(dict):
    """A fragment memo that never keeps anything: every set re-parses."""

    def __setitem__(self, key, value):
        pass


def count_fragment_parses(monkeypatch):
    calls = []
    original = bindings_module.parse_fragment

    def counting(markup):
        calls.append(markup)
        return original(markup)

    monkeypatch.setattr(bindings_module, "parse_fragment", counting)
    return calls


class TestInnerHtmlMemo:
    MARKUP = '<p class="c" id="p">one <b>two</b></p>'

    def set_html(self, page, element_id, markup=MARKUP):
        page.execute_js(
            f"document.getElementById('{element_id}').innerHTML = '{markup}';"
        )

    def test_repeat_insertion_is_pristine_after_mutating_the_first(self, monkeypatch):
        calls = count_fragment_parses(monkeypatch)
        page = load('<div id="a"></div><div id="b"></div>')
        self.set_html(page, "a")
        page.execute_js(
            "var p = document.getElementById('p');"
            " p.setAttribute('class', 'changed'); p.textContent = 'mutated';"
        )
        self.set_html(page, "b")
        first = page.document.get_element_by_id("a")
        second = page.document.get_element_by_id("b")
        assert inner_html(first) == '<p class="changed" id="p">mutated</p>'
        assert inner_html(second) == self.MARKUP
        assert first.children[0] is not second.children[0]
        assert calls == [self.MARKUP]

    def test_hash_stats_equal_fresh_parses(self):
        def run(memo):
            clear_digest_memo()
            page = load('<div id="a">x</div><div id="b">y</div>')
            if not memo:
                page.fragment_prototypes = _NoMemo()
            hashes = [page.hash_state().state]
            base = page.snapshot()
            for element_id in ("a", "b", "a"):
                self.set_html(page, element_id)
                hashes.append(page.hash_state().state)
                page.restore(base)
                hashes.append(page.hash_state().state)
            self.set_html(page, "b", "<i>other</i>")
            self.set_html(page, "a")
            hashes.append(page.hash_state().state)
            return hashes, page.hash_stats.snapshot()

        assert run(memo=True) == run(memo=False)

    def test_pages_do_not_share_the_memo(self, monkeypatch):
        calls = count_fragment_parses(monkeypatch)
        browser = make_browser('<div id="a"></div>')
        one = browser.load("http://b.test/page")
        two = browser.load("http://b.test/page")
        self.set_html(one, "a")
        self.set_html(one, "a")
        assert two.fragment_prototypes == {}
        self.set_html(two, "a")
        assert calls == [self.MARKUP, self.MARKUP]
        assert inner_html(two.document.get_element_by_id("a")) == self.MARKUP


class TestWindowHost:
    def test_window_document(self):
        page = load('<div id="x">w</div>')
        assert page.execute_js("window.document.getElementById('x').textContent;") == "w"

    def test_location(self):
        page = load("<div></div>")
        assert page.execute_js("window.location;") == "http://b.test/page"

    def test_alert_is_noop(self):
        page = load("<div></div>")
        page.execute_js("window.alert('hello');")  # must not raise

    def test_set_timeout_runs_immediately(self):
        page = load('<div id="x">old</div>')
        page.execute_js(
            """
            window.setTimeout(function () {
                document.getElementById('x').innerHTML = 'timed';
            }, 1000);
            """
        )
        assert "timed" in page.text

    def test_window_not_writable(self):
        page = load("<div></div>")
        from repro.errors import JavascriptError

        with pytest.raises(JavascriptError):
            page.interpreter.run("window.location = 'elsewhere';")
