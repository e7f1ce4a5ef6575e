"""Character-at-a-time JavaScript lexer: the oracle for ``repro.js.lexer``.

This is the straightforward lexer the regex-driven one replaced: it
steps one character at a time and moves line/column in ``_advance``.
It carries the same fixes (ASCII-only numeric literals, ``0x`` without
digits and non-hex escapes rejected), so for every input the two must
produce the same token stream or the same ``JsSyntaxError`` message.
"""

from __future__ import annotations

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

_DIGITS = "0123456789"
_HEX_DIGITS = "0123456789abcdefABCDEF"


def _is_digit(char: str) -> bool:
    return char != "" and char in _DIGITS


def _is_hex(text: str) -> bool:
    return all(char in _HEX_DIGITS for char in text)


class ReferenceLexer:
    """Converts JavaScript source text into a list of tokens."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.type is TokenType.EOF:
                return tokens

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise JsSyntaxError("unterminated block comment", self.line, self.column)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return Token(TokenType.EOF, "", line, column)
        char = self._peek()
        if _is_digit(char) or (char == "." and _is_digit(self._peek(1))):
            return self._read_number(line, column)
        if char in "\"'":
            return self._read_string(line, column)
        if char.isalpha() or char in "_$":
            return self._read_identifier(line, column)
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenType.PUNCTUATOR, punct, line, column)
        raise JsSyntaxError(f"unexpected character {char!r}", line, column)

    def _read_number(self, line: int, column: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() and self._peek() in _HEX_DIGITS:
                self._advance()
            if self.pos - start == 2:
                raise JsSyntaxError("malformed hex literal", self.line, self.column)
            return Token(TokenType.NUMBER, self.source[start:self.pos], line, column)
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == ".":
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        if self._peek() in ("e", "E"):
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            if not _is_digit(self._peek()):
                raise JsSyntaxError("malformed exponent", self.line, self.column)
            while _is_digit(self._peek()):
                self._advance()
        return Token(TokenType.NUMBER, self.source[start:self.pos], line, column)

    def _read_string(self, line: int, column: int) -> Token:
        quote = self._peek()
        self._advance()
        parts: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise JsSyntaxError("unterminated string literal", line, column)
            char = self._peek()
            if char == quote:
                self._advance()
                return Token(TokenType.STRING, "".join(parts), line, column)
            if char == "\n":
                raise JsSyntaxError("newline in string literal", self.line, self.column)
            if char == "\\":
                self._advance()
                escape = self._peek()
                if escape == "u":
                    self._advance()
                    hex_digits = self.source[self.pos:self.pos + 4]
                    if len(hex_digits) < 4 or not _is_hex(hex_digits):
                        raise JsSyntaxError("bad unicode escape", self.line, self.column)
                    parts.append(chr(int(hex_digits, 16)))
                    self._advance(4)
                    continue
                if escape == "x":
                    self._advance()
                    hex_digits = self.source[self.pos:self.pos + 2]
                    if len(hex_digits) < 2 or not _is_hex(hex_digits):
                        raise JsSyntaxError("bad hex escape", self.line, self.column)
                    parts.append(chr(int(hex_digits, 16)))
                    self._advance(2)
                    continue
                parts.append(_ESCAPES.get(escape, escape))
                self._advance()
                continue
            parts.append(char)
            self._advance()

    def _read_identifier(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek() and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        word = self.source[start:self.pos]
        kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENTIFIER
        return Token(kind, word, line, column)


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` with a fresh :class:`ReferenceLexer`."""
    return ReferenceLexer(source).tokenize()
