"""Tokenizer for the JavaScript subset.

Supports decimal and hexadecimal numbers, single- and double-quoted
strings with the common escapes, identifiers, keywords, punctuators and
both comment styles.  Positions are tracked for error messages and for
the debugger's line notifications.

Runs of trivia, identifier tails, string bodies and punctuators are each
matched with one compiled regular expression; line and column are then
updated from the newline count of the consumed slice.  Numeric literals
are ASCII-only, as ECMAScript specifies.
"""

from __future__ import annotations

import re

from repro.errors import JsSyntaxError
from repro.js.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "/": "/",
}

_ASCII_DIGITS = frozenset("0123456789")

#: Whitespace, line comments and *terminated* block comments.
_TRIVIA_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+", re.S)
#: ``[\w$]`` matches exactly the characters for which ``str.isalnum()``
#: holds, plus ``_`` and ``$``.
_IDENT_TAIL_RE = re.compile(r"[\w$]*")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]*")
_DECIMAL_RE = re.compile(r"[0-9]*(?:\.[0-9]*)?")
_DIGITS_RE = re.compile(r"[0-9]*")
_STRING_RUN_RE = {
    '"': re.compile(r'[^"\\\n]*'),
    "'": re.compile(r"[^'\\\n]*"),
}
#: The hex digits a ``\u`` / ``\x`` escape needs, and its name in errors.
_HEX_ESCAPES = {
    "u": (re.compile(r"[0-9a-fA-F]{4}"), "unicode"),
    "x": (re.compile(r"[0-9a-fA-F]{2}"), "hex"),
}
#: An ordered alternation tries the punctuators in table order (longest
#: first), so the first alternative that matches is the maximal munch.
_PUNCTUATOR_RE = re.compile("|".join(re.escape(punct) for punct in PUNCTUATORS))


class Lexer:
    """Converts JavaScript source text into a list of tokens."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> list[Token]:
        """Tokenize the whole input, ending with a single EOF token."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.type is TokenType.EOF:
                return tokens

    # -- internals -----------------------------------------------------------

    def _move_to(self, end: int) -> None:
        """Consume ``source[pos:end]``, keeping line and column in step."""
        newlines = self.source.count("\n", self.pos, end)
        if newlines:
            self.line += newlines
            self.column = end - self.source.rfind("\n", self.pos, end)
        else:
            self.column += end - self.pos
        self.pos = end

    def _skip_trivia(self) -> None:
        match = _TRIVIA_RE.match(self.source, self.pos)
        if match is not None:
            self._move_to(match.end())
        if self.source.startswith("/*", self.pos):
            self._move_to(len(self.source))
            raise JsSyntaxError("unterminated block comment", self.line, self.column)

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        source, pos = self.source, self.pos
        if pos >= len(source):
            return Token(TokenType.EOF, "", line, column)
        char = source[pos]
        if char in _ASCII_DIGITS or (
            char == "." and source[pos + 1:pos + 2] in _ASCII_DIGITS
        ):
            return self._read_number(line, column)
        if char in "\"'":
            return self._read_string(line, column)
        if char.isalpha() or char in "_$":
            # Identifiers and punctuators hold no newline: only the
            # column moves.
            end = _IDENT_TAIL_RE.match(source, pos + 1).end()
            word = source[pos:end]
            self.column += end - pos
            self.pos = end
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENTIFIER
            return Token(kind, word, line, column)
        match = _PUNCTUATOR_RE.match(source, pos)
        if match is not None:
            self.column += match.end() - pos
            self.pos = match.end()
            return Token(TokenType.PUNCTUATOR, match.group(), line, column)
        raise JsSyntaxError(f"unexpected character {char!r}", line, column)

    def _read_number(self, line: int, column: int) -> Token:
        source, start = self.source, self.pos
        match = _HEX_RE.match(source, start)
        if match is not None:
            end = match.end()
            self._move_to(end)
            if end - start == 2:
                raise JsSyntaxError("malformed hex literal", self.line, self.column)
            return Token(TokenType.NUMBER, source[start:end], line, column)
        end = _DECIMAL_RE.match(source, start).end()
        if source[end:end + 1] in ("e", "E"):
            end += 1
            if source[end:end + 1] in ("+", "-"):
                end += 1
            if source[end:end + 1] not in _ASCII_DIGITS:
                self._move_to(end)
                raise JsSyntaxError("malformed exponent", self.line, self.column)
            end = _DIGITS_RE.match(source, end).end()
        self._move_to(end)
        return Token(TokenType.NUMBER, source[start:end], line, column)

    def _read_string(self, line: int, column: int) -> Token:
        source = self.source
        quote = source[self.pos]
        run_re = _STRING_RUN_RE[quote]
        self._move_to(self.pos + 1)
        parts: list[str] = []
        while True:
            end = run_re.match(source, self.pos).end()
            parts.append(source[self.pos:end])
            self._move_to(end)
            if end >= len(source):
                raise JsSyntaxError("unterminated string literal", line, column)
            char = source[end]
            if char == quote:
                self._move_to(end + 1)
                return Token(TokenType.STRING, "".join(parts), line, column)
            if char == "\n":
                raise JsSyntaxError("newline in string literal", self.line, self.column)
            # A backslash escape.
            self._move_to(end + 1)
            escape = source[self.pos:self.pos + 1]
            if escape in _HEX_ESCAPES:
                digits_re, kind = _HEX_ESCAPES[escape]
                self._move_to(self.pos + 1)
                match = digits_re.match(source, self.pos)
                if match is None:
                    raise JsSyntaxError(f"bad {kind} escape", self.line, self.column)
                parts.append(chr(int(match.group(), 16)))
                self._move_to(match.end())
                continue
            parts.append(_ESCAPES.get(escape, escape))
            if escape:
                self._move_to(self.pos + 1)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` with a fresh :class:`Lexer`."""
    return Lexer(source).tokenize()
