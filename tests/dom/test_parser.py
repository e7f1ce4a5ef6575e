"""Unit tests for the HTML tokenizer/parser."""

import pytest

from repro.dom import Element, HtmlParser, Text, parse_document, parse_fragment, unescape
from repro.errors import HtmlParseError


class TestBasicParsing:
    def test_single_element(self):
        (node,) = parse_fragment("<div></div>")
        assert isinstance(node, Element)
        assert node.tag == "div"

    def test_nested_elements(self):
        (outer,) = parse_fragment("<div><span><b>x</b></span></div>")
        span = outer.children[0]
        bold = span.children[0]
        assert (outer.tag, span.tag, bold.tag) == ("div", "span", "b")
        assert bold.text_content == "x"

    def test_text_between_elements(self):
        nodes = parse_fragment("a<b>c</b>d")
        kinds = [type(node).__name__ for node in nodes]
        assert kinds == ["Text", "Element", "Text"]

    def test_attributes_double_quoted(self):
        (node,) = parse_fragment('<a href="http://x/" id="l1">x</a>')
        assert node.get_attribute("href") == "http://x/"
        assert node.id == "l1"

    def test_attributes_single_quoted(self):
        (node,) = parse_fragment("<a href='y'>x</a>")
        assert node.get_attribute("href") == "y"

    def test_attributes_unquoted(self):
        (node,) = parse_fragment("<input type=text name=q>")
        assert node.get_attribute("type") == "text"
        assert node.get_attribute("name") == "q"

    def test_boolean_attribute(self):
        (node,) = parse_fragment("<input disabled>")
        assert node.has_attribute("disabled")
        assert node.get_attribute("disabled") == ""

    def test_attribute_names_lowercased(self):
        (node,) = parse_fragment('<div onClick="f()"></div>')
        assert node.get_attribute("onclick") == "f()"

    def test_void_elements_have_no_children(self):
        nodes = parse_fragment("<br><img src=x><hr>")
        assert [n.tag for n in nodes] == ["br", "img", "hr"]
        assert all(not n.children for n in nodes)

    def test_self_closing_syntax(self):
        (node,) = parse_fragment("<div/>")
        assert node.tag == "div"
        assert node.children == []

    def test_comment_skipped(self):
        nodes = parse_fragment("a<!-- hidden -->b")
        assert "".join(n.data for n in nodes if isinstance(n, Text)) == "ab"

    def test_doctype_skipped(self):
        doc = parse_document("<!DOCTYPE html><html><body>x</body></html>")
        assert doc.body is not None
        assert doc.body.text_content == "x"

    def test_entities_in_text(self):
        (node,) = parse_fragment(
            "<p>a &amp; b &lt;c&gt; &#39;q&#39; &#x41;&nbsp;&apos;</p>"
        )
        assert node.text_content == "a & b <c> 'q' A\u00a0'"

    def test_entities_in_attributes(self):
        (node,) = parse_fragment('<div title="a &quot;b&quot;"></div>')
        assert node.get_attribute("title") == 'a "b"'

    def test_unknown_entity_left_alone(self):
        assert unescape("&bogus;") == "&bogus;"

    def test_bare_less_than_is_text(self):
        nodes = parse_fragment("1 < 2")
        text = "".join(n.data for n in nodes if isinstance(n, Text))
        assert text == "1 < 2"


class TestScriptElements:
    def test_script_body_is_raw(self):
        (node,) = parse_fragment("<script>if (a < b) { go(); }</script>")
        assert node.tag == "script"
        assert node.children[0].data == "if (a < b) { go(); }"

    def test_script_with_markup_like_content(self):
        (node,) = parse_fragment('<script>x = "<div>not an element</div>";</script>')
        assert "<div>" in node.children[0].data
        assert node.get_elements_by_tag("div") == []

    def test_style_is_raw(self):
        (node,) = parse_fragment("<style>a > b { color: red; }</style>")
        assert node.children[0].data == "a > b { color: red; }"


class TestLenientRecovery:
    def test_unclosed_element_tolerated(self):
        (node,) = parse_fragment("<div><span>x")
        assert node.tag == "div"
        assert node.children[0].tag == "span"

    def test_stray_close_ignored(self):
        nodes = parse_fragment("a</div>b")
        text = "".join(n.data for n in nodes if isinstance(n, Text))
        assert text == "ab"

    def test_mismatched_close_pops_to_ancestor(self):
        (outer,) = parse_fragment("<div><span>x</div>")
        assert outer.tag == "div"

    def test_document_without_html_gets_synthesized_root(self):
        doc = parse_document("<p>hello</p>")
        assert doc.root.tag == "html"
        assert doc.body is not None
        assert doc.body.text_content == "hello"


class TestStrictMode:
    def test_unclosed_element_raises(self):
        with pytest.raises(HtmlParseError):
            HtmlParser(strict=True).parse_fragment("<div>")

    def test_stray_close_raises(self):
        with pytest.raises(HtmlParseError):
            HtmlParser(strict=True).parse_fragment("</div>")

    def test_unterminated_comment_raises(self):
        with pytest.raises(HtmlParseError):
            HtmlParser(strict=True).parse_fragment("<!-- never ends")

    def test_unterminated_script_raises(self):
        with pytest.raises(HtmlParseError):
            HtmlParser(strict=True).parse_fragment("<script>var x;")

    def test_well_formed_passes(self):
        nodes = HtmlParser(strict=True).parse_fragment("<div><p>ok</p></div>")
        assert len(nodes) == 1


class TestRealisticPage:
    PAGE = """<!DOCTYPE html>
    <html>
    <head><title>Video</title></head>
    <body onload="init()">
      <h1 id="title">Enjoy the Ride</h1>
      <div id="recent_comments"><p>First comment</p></div>
      <div id="nav">
        <a id="prev" onclick="prevPage()">prev</a>
        <a id="next" onclick="nextPage()">next</a>
      </div>
      <script type="text/javascript">var currentPage = 1;</script>
    </body>
    </html>"""

    def test_structure(self):
        doc = parse_document(self.PAGE, url="http://yt.test/watch?v=1")
        assert doc.url == "http://yt.test/watch?v=1"
        assert doc.body.get_attribute("onload") == "init()"
        assert doc.get_element_by_id("title").text_content == "Enjoy the Ride"
        assert doc.get_element_by_id("next").get_attribute("onclick") == "nextPage()"

    def test_script_preserved(self):
        doc = parse_document(self.PAGE)
        (script,) = doc.root.get_elements_by_tag("script")
        assert "currentPage = 1" in script.children[0].data
