"""Unit tests for the JavaScript lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JsSyntaxError
from repro.js import tokenize
from repro.js.tokens import PUNCTUATORS, TokenType
from tests.js.reference_lexer import reference_tokenize


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source) if t.type is not TokenType.EOF]


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]

    def test_decimal(self):
        assert kinds("3.14") == [(TokenType.NUMBER, "3.14")]

    def test_leading_dot(self):
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]

    def test_hex(self):
        assert kinds("0xFF") == [(TokenType.NUMBER, "0xFF")]

    def test_exponent(self):
        assert kinds("1e3 2.5E-2") == [
            (TokenType.NUMBER, "1e3"),
            (TokenType.NUMBER, "2.5E-2"),
        ]

    def test_malformed_exponent(self):
        with pytest.raises(JsSyntaxError):
            tokenize("1e")


class TestStrings:
    def test_double_quoted(self):
        assert kinds('"hello"') == [(TokenType.STRING, "hello")]

    def test_single_quoted(self):
        assert kinds("'hi'") == [(TokenType.STRING, "hi")]

    def test_escapes(self):
        assert kinds(r'"a\nb\tc\\d"') == [(TokenType.STRING, "a\nb\tc\\d")]

    def test_quote_escape(self):
        assert kinds(r'"say \"hi\""') == [(TokenType.STRING, 'say "hi"')]

    def test_unicode_escape(self):
        assert kinds(r'"A"') == [(TokenType.STRING, "A")]

    def test_hex_escape(self):
        assert kinds(r'"\x41"') == [(TokenType.STRING, "A")]

    def test_unterminated(self):
        with pytest.raises(JsSyntaxError):
            tokenize('"never ends')

    def test_newline_in_string(self):
        with pytest.raises(JsSyntaxError):
            tokenize('"a\nb"')


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        assert kinds("getUrl") == [(TokenType.IDENTIFIER, "getUrl")]

    def test_dollar_and_underscore(self):
        assert kinds("$x _y") == [
            (TokenType.IDENTIFIER, "$x"),
            (TokenType.IDENTIFIER, "_y"),
        ]

    def test_keywords(self):
        assert kinds("var function return") == [
            (TokenType.KEYWORD, "var"),
            (TokenType.KEYWORD, "function"),
            (TokenType.KEYWORD, "return"),
        ]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("variable")[0] == (TokenType.IDENTIFIER, "variable")


class TestPunctuatorsAndComments:
    def test_maximal_munch(self):
        assert [v for _, v in kinds("a===b")] == ["a", "===", "b"]
        assert [v for _, v in kinds("a==b")] == ["a", "==", "b"]
        assert [v for _, v in kinds("i++")] == ["i", "++"]

    def test_line_comment(self):
        assert kinds("a // comment\nb") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(JsSyntaxError):
            tokenize("/* forever")

    def test_unexpected_character(self):
        with pytest.raises(JsSyntaxError):
            tokenize("a # b")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_token_present(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF


class TestNonAsciiInput:
    """Numeric literals and escape digits are ASCII-only (the numeric
    regressions are pinned in tests/testgen/test_fuzz.py); identifiers
    keep Unicode letters and digits."""

    def test_non_ascii_digit_continues_an_identifier(self):
        assert kinds("a\u00b2") == [(TokenType.IDENTIFIER, "a\u00b2")]

    @pytest.mark.parametrize(
        "source", ['"\\uZZZZ"', '"\\u 12 "', '"\\x1_"', '"\\u\u0661\u0662\u0663\u0664"']
    )
    def test_non_hex_escape_is_syntax_error(self, source):
        with pytest.raises(JsSyntaxError, match="escape"):
            tokenize(source)


# -- the character-at-a-time lexer as oracle ----------------------------------

def outcome(lex, source):
    """The token stream, or the syntax error message, of ``lex(source)``."""
    try:
        return [(t.type, t.value, t.line, t.column) for t in lex(source)]
    except JsSyntaxError as error:
        return str(error)


_FRAGMENTS = st.sampled_from(
    list(PUNCTUATORS)
    + [" ", "\t", "\r", "\n", "//", "/*", "*/", "'", '"', "\\", "\\u", "\\x",
       "0x", "0X", "1e", "e+", ".", "0", "42", "3.5", "ff", "var", "in", "_", "$",
       "\u00e9", "\u0661", "\u00b2", "\u0301", "\u2167", "\u0130", "\u00a0", "#", "@"]
)
_JS_LIKE = st.lists(_FRAGMENTS | st.text(max_size=3), max_size=40).map("".join)


class TestMatchesReferenceLexer:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
    def test_arbitrary_text(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @settings(max_examples=600, deadline=None)
    @given(_JS_LIKE)
    def test_js_like_text(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize(
        "source",
        [
            "function f(a, b) { return a >= b ? 'x\\n' : \"y\\u0041\"; }\n// c\n/* d\ne */ f(1.5e-3, 0x1F);",
            "/* never closed\n  ...",
            "'a\\\nb'",
            "x /**/ y /*/ z",
            "1..2 .5 5. 1e+",
        ],
    )
    def test_pinned_sources(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)
