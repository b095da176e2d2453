"""A character-loop lexer for the `.net` language: the reference that the
differential test in test_dsl.py holds `sideband.dsl`'s regex lexer to.

It walks the text one character at a time and tracks the line and column of
every token.  A lexing error is a `dsl.ParseError` with the diagnostic the
parser must give for it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from sideband.dsl import ParseDiagnostic, ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | punct | eof
    text: str
    line: int
    column: int
    value: float | None = None
    unit: str | None = None


_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UNIT_RE = re.compile(r"[A-Za-z]+")
_PUNCT = ";=,():."


def _snippet(text: str, line: int) -> str:
    """Line ``line`` of ``text``: only a newline ends a line, and one
    trailing carriage return is not part of it."""
    snippet = text.split("\n")[line - 1]
    return snippet[:-1] if snippet.endswith("\r") else snippet


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def diag(msg: str, ln: int, cl: int) -> ParseError:
        return ParseError(ParseDiagnostic(ln, cl, msg, _snippet(text, ln)))

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch in "+-."):
            num_text = m.group(0)
            start_col = col
            i = m.end()
            col += len(num_text)
            unit = None
            um = _UNIT_RE.match(text, i)
            if um:
                unit = um.group(0)
                i = um.end()
                col += len(unit)
            try:
                value = float(num_text)
            except ValueError:
                raise diag(f"malformed number {num_text!r}", line, start_col)
            tokens.append(Token("number", num_text + (unit or ""), line, start_col,
                                value=value, unit=unit))
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            ident = m.group(0)
            tokens.append(Token("ident", ident, line, col))
            i = m.end()
            col += len(ident)
            continue
        raise diag(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def diagnostic(text: str, tok: Token, message: str) -> ParseDiagnostic:
    """The diagnostic that the parser built for an error at ``tok``."""
    return ParseDiagnostic(tok.line, tok.column, message, _snippet(text, tok.line))
