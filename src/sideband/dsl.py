"""Parser and serializer for the `.net` network-description language.

Statement-oriented grammar, `;`-terminated, `#` comments, insignificant
whitespace.  Numeric literals take optional units (m/cm/mm, s/ms/us/ns/ps,
Hz/kHz/MHz/GHz, dB); lengths normalise to seconds for delays via the exact
speed of light, dB values convert to linear variance as 10^(x/10).  The full
grammar ships in grammar.ebnf next to this module.

parse() reports syntax and statement-local semantic problems (unknown
keywords, duplicate names, unit mismatches, out-of-range parameters,
unphysical squeezing) with line/column diagnostics; global wiring issues are
the business of network.validate, so a parsed spec can still fail there.

Tokens are plain strings.  Positions are worked out only for a diagnostic,
which lexes the text again with offsets: a character that no token takes is
then the error reported.  Only '\n' starts a line, and the snippet is that
line without one trailing '\r'.

An override NAME.PARAM=VALUE given to parse() is read as if written in the
statement NAME, under that statement's checks; a refused one raises
OverrideError.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields

from .network import (
    ELEMENT_KINDS,
    Combo,
    Delay,
    DetectorDecl,
    ElementDecl,
    FreqList,
    FreqRange,
    Measurement,
    NetworkSpec,
    QuadSpectrum,
    RESERVED_PREFIX,
    SPELLINGS,
    SourceDecl,
    SPEED_OF_LIGHT,
    VACUUM_SPECTRUM,
)

KEYWORDS = frozenset({"source", "det", "measure", "weights", "from", "vacuum", "coherent",
                      "squeezed", "sum", "diff", "single", "freqs", *ELEMENT_KINDS})

LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

# parameter dimensions
PLAIN, LENGTH, TIME, FREQ, VAR = "plain", "length", "time", "freq", "var"

# element keyword -> (class, parameter dimensions, required parameters)
_ELEMENTS = {kw: (cls, {p: spec.dim for p, spec in cls.params.items()},
                  tuple(f.name for f in fields(cls) if f.default is MISSING))
             for kw, cls in ELEMENT_KINDS.items()}
# a delay may give its length= in place of tau=: an override of one
# replaces the other
_ELEMENTS[Delay.keyword][1]["length"] = LENGTH
_REPLACES = {"tau": "length", "length": "tau"}

#: every element's output slot names
_SLOTS = frozenset(p for cls in ELEMENT_KINDS.values() for p in cls.ports)


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    snippet: str

    def __str__(self) -> str:
        # the snippet's own tabs, so that a terminal sets the caret under the token
        pad = "".join(ch if ch == "\t" else " " for ch in self.snippet[:self.column - 1])
        caret = pad.ljust(self.column - 1) + "^"
        return f"line {self.line}, col {self.column}: {self.message}\n  {self.snippet}\n  {caret}"


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class OverrideError(ValueError):
    """A NAME.PARAM=VALUE override that the network cannot take."""


class SerializeError(ValueError):
    pass


# A token is an identifier, a number with its unit letters, a punctuation
# mark, a comment or one character that no other token takes.  Whitespace
# matches nothing, so the scan steps over it.  There are no groups, so
# findall gives the tokens as plain strings.
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"[A-Za-z_][A-Za-z0-9_]*|{_NUMBER}[A-Za-z]*|[;=,():.]|#[^\n]*|[^ \t\r\n]")
#: a number token's value and unit ('' for none)
_NUMBER_RE = re.compile(rf"({_NUMBER})([A-Za-z]*)")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# dimension -> (units, base unit) of each dimension that takes units other than dB
_UNITS = {LENGTH: (LENGTH_UNITS, "m"), TIME: (TIME_UNITS, "s"), FREQ: (FREQ_UNITS, "Hz")}


def _kind(tok: str) -> str:
    """A token's kind, read off its first character: eof (the empty token),
    ident, number, punct, or bad for a character that no token takes.
    ``\\d`` and ``str.isdecimal`` both mean Unicode category Nd."""
    if not tok:
        return "eof"
    if tok[0] in _IDENT_START:
        return "ident"
    if tok[0].isdecimal() or (tok[0] in "+-." and len(tok) > 1):
        return "number"
    return "punct" if tok in ";=,():." else "bad"  # tok is one character


def _lex(text: str) -> list[tuple[int, str]]:
    """The tokens that _Parser holds for ``text``, each with its offset:
    comments dropped, then eof at a comment that ends the text, else at the
    end.  The first character that no token takes raises ParseError."""
    lexed, end = [], len(text)
    for m in _TOKEN_RE.finditer(text):
        tok = m[0]
        if tok[0] == "#":
            if m.end() == len(text):
                end = m.start()
        elif _kind(tok) == "bad":
            raise ParseError(_diagnostic(text, m.start(), f"unexpected character {tok!r}"))
        else:
            lexed.append((m.start(), tok))
    lexed.append((end, ""))
    return lexed


def _diagnostic(text: str, offset: int, message: str) -> ParseDiagnostic:
    """``message`` at ``offset`` into ``text``.  Only '\\n' starts a line;
    '\\r' and '\\t' are one column each.  The snippet is the offset's line
    without one trailing '\\r'."""
    start = text.rfind("\n", 0, offset) + 1
    end = text.find("\n", offset)
    snippet = text[start:end] if end >= 0 else text[start:]
    return ParseDiagnostic(text.count("\n", 0, offset) + 1, offset - start + 1, message,
                           snippet.removesuffix("\r"))


class _Parser:
    """Recursive descent over the text's tokens, held as plain strings with
    eof as ''.  A token is referred to by its index; its position in the
    text is worked out only for a diagnostic."""

    def __init__(self, text: str, overrides: Iterable[str] = ()):
        self.text = text
        self.tokens = [tok for tok in _TOKEN_RE.findall(text) if tok[0] != "#"]
        self.tokens.append("")
        self.pos = 0
        self.names: set[str] = set()
        # statement name -> parameter -> (override item, value token)
        self.overrides: dict[str, dict[str, tuple[str, str]]] = {}
        for item in overrides:  # NAME.PARAM=VALUE, read by a parser of its own
            p = _Parser(item)
            try:
                name = p.expect_ident("statement name")
                p.expect_punct(".")
                key = p.expect_ident("parameter name")
                p.expect_punct("=")
                value = p.tokens[p.pos]
                if _kind(value) != "number":
                    raise p.found("a number")
                p.pos += 1
                p.expect_end("override")
            except ParseError as exc:
                raise self.error(exc.diagnostic.message, item) from None
            slot = self.overrides.setdefault(name, {})
            slot.pop(_REPLACES.get(key), None)
            slot[key] = (item, value)

    # -- token plumbing

    def error(self, message: str, ref: int | str | None = None) -> ParseError | OverrideError:
        """The error for ``message`` at token index ``ref`` (default the next
        token), or in the override item ``ref``.  The text is lexed again
        here, with offsets: a character in it that no token takes is the
        error raised, whatever ``message`` was."""
        lexed = _lex(self.text)
        if isinstance(ref, str):
            return OverrideError(f"override {ref!r}: {message}")
        offset = lexed[self.pos if ref is None else ref][0]
        return ParseError(_diagnostic(self.text, offset, message))

    def found(self, what: str) -> ParseError:
        tok = self.tokens[self.pos]
        return self.error(f"expected {what}, found {tok!r}" if tok
                          else f"expected {what}, found end of input")

    def expect_punct(self, ch: str):
        if self.tokens[self.pos] != ch:
            raise self.found(repr(ch))
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _IDENT_START:
            raise self.found(what)
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if it is ``text``: a punctuation mark or
        keyword matches only a token of that kind."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect_end(self, what: str):
        if self.tokens[self.pos]:
            raise self.error(f"trailing input after {what}")

    # -- names, ports, quantities

    def fresh_name(self) -> str:
        name = self.expect_ident("name")
        if name in KEYWORDS:
            raise self.error(f"{name!r} is a reserved word", self.pos - 1)
        if name.startswith(RESERVED_PREFIX):
            raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved", self.pos - 1)
        if name in self.names:
            raise self.error(f"duplicate name {name!r}", self.pos - 1)
        self.names.add(name)
        return name

    def port(self) -> str:
        name = self.expect_ident("port")
        if name in KEYWORDS:
            raise self.error(f"{name!r} is a reserved word", self.pos - 1)
        if self.accept("."):
            slot = self.expect_ident("output slot")
            if slot not in _SLOTS:
                raise self.error(f"unknown output slot {slot!r}", self.pos - 1)
            name += "." + slot
        return name

    def quantity(self, dim: str) -> float:
        """The next token, a number, in the base unit of ``dim``."""
        tok = self.tokens[self.pos]
        if _kind(tok) != "number":
            raise self.found("a number")
        self.pos += 1
        return self.value(tok, dim, self.pos - 1)

    def value(self, tok: str, dim: str, ref: int | str) -> float:
        """The number token ``tok`` in the base unit of ``dim``; it must be
        finite.  An error is placed at ``ref``."""
        num, unit = _NUMBER_RE.fullmatch(tok).groups()
        try:
            value = self._scaled(float(num), unit, dim, ref) if unit else float(num)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise self.error(f"number out of range: {tok!r}", ref)
        return value

    def _scaled(self, value: float, unit: str, dim: str, ref: int | str) -> float:
        """``value``, given in ``unit``, in the base unit of ``dim``."""
        if dim == PLAIN:
            raise self.error(f"unit mismatch: {unit!r} on a dimensionless value", ref)
        if dim == VAR:
            if unit == "dB":
                return 10.0 ** (value / 10.0)
            raise self.error(f"unit mismatch: expected dB or none, got {unit!r}", ref)
        table, base = _UNITS[dim]
        if unit not in table:
            raise self.error(f"unit mismatch: expected {base}, got {unit!r}", ref)
        return value * table[unit]

    def params(self, schema: dict[str, str], subject: str,
               name: str) -> dict[str, tuple[float, int | str]]:
        """Collect trailing key=value pairs until ';' against a dimension
        schema, then write in the overrides of statement ``name``.  Each
        value comes with the index of its token, or its override item."""
        out: dict[str, tuple[float, int | str]] = {}
        tokens = self.tokens
        while tokens[self.pos][:1] in _IDENT_START:
            key = tokens[self.pos]
            if key not in schema:
                raise self.error(f"unknown parameter {key!r} for {subject}")
            if key in out:
                raise self.error(f"parameter {key!r} given twice")
            self.pos += 1
            self.expect_punct("=")
            out[key] = (self.quantity(schema[key]), self.pos - 1)
        for key, (item, tok) in self.overrides.pop(name, {}).items():
            if key not in schema:
                raise self.error(f"unknown parameter {key!r} for {subject}", item)
            out.pop(_REPLACES.get(key), None)
            out[key] = (self.value(tok, schema[key], item), item)
        return out

    def blame(self, *refs: int | str) -> int | str:
        """The first of ``refs`` that an override supplied, else the first."""
        return next((r for r in refs if isinstance(r, str)), refs[0])

    def require(self, params, key: str, kw: int) -> tuple[float, int | str]:
        if key not in params:
            raise self.error(f"missing required parameter {key!r}", kw)
        return params[key]

    # -- statements

    def parse_network(self) -> NetworkSpec:
        sources: list[SourceDecl] = []
        elements: list[ElementDecl] = []
        detectors: list[DetectorDecl] = []
        measurements: list[Measurement] = []
        while self.tokens[self.pos]:
            kw = self.pos
            keyword = self.expect_ident("statement keyword")
            if keyword == "source":
                sources.append(self.source_stmt(kw))
            elif keyword in ELEMENT_KINDS:
                elements.append(self.element_stmt(kw))
            elif keyword == "det":
                detectors.append(self.det_stmt())
            elif keyword == "measure":
                measurements.append(self.measure_stmt())
            else:
                raise self.error(f"unknown statement keyword {keyword!r}", kw)
            self.expect_punct(";")
        for name, slot in self.overrides.items():  # no statement took them
            key, (item, _) = next(iter(slot.items()))
            raise self.error(f"{name!r} takes no parameter {key!r}" if name in self.names
                             else f"no statement named {name!r}", item)
        return NetworkSpec(
            sources=tuple(sources),
            elements=tuple(elements),
            detectors=tuple(detectors),
            measurements=tuple(measurements),
        )

    def amplitude(self, params, kw: int) -> complex:
        amp, _ = self.require(params, "amp", kw)
        if "phase" in params and "amp_im" in params:
            raise self.error("give either phase= or amp_im=, not both",
                             self.blame(params["phase"][1], params["amp_im"][1]))
        if "phase" in params:
            phase = params["phase"][0]
            return complex(amp * math.cos(phase), amp * math.sin(phase))
        return complex(amp, params.get("amp_im", (0.0, None))[0])

    def source_stmt(self, kw: int) -> SourceDecl:
        name = self.fresh_name()
        kind = self.expect_ident("source kind")
        if kind == "vacuum":
            return SourceDecl(name)
        if kind == "coherent":
            params = self.params({"amp": PLAIN, "amp_im": PLAIN, "phase": PLAIN},
                                 "coherent", name)
            return SourceDecl(name, self.amplitude(params, kw))
        if kind == "squeezed":
            params = self.params(
                {"amp": PLAIN, "amp_im": PLAIN, "phase": PLAIN, "vx": VAR, "vy": VAR},
                "squeezed", name)
            vx, vx_ref = self.require(params, "vx", kw)
            vy, vy_ref = self.require(params, "vy", kw)
            if vx <= 0:
                raise self.error("vx out of range: must be > 0", vx_ref)
            if vy <= 0:
                raise self.error("vy out of range: must be > 0", vy_ref)
            if vx * vy < 1.0:
                raise self.error(f"Heisenberg bound violated: vx*vy = {vx * vy:.6g} < 1",
                                 self.blame(vx_ref, vy_ref))
            return SourceDecl(name, self.amplitude(params, kw),
                              QuadSpectrum.constant(vx, vy))
        raise self.error(f"unknown source kind {kind!r}", self.pos - 1)

    def element_stmt(self, kw: int) -> ElementDecl:
        keyword = self.tokens[kw]
        cls, schema, required = _ELEMENTS[keyword]
        name = self.fresh_name()
        inputs: list[str] = []
        if self.accept("from"):
            inputs.append(self.port())
            while self.accept(","):
                inputs.append(self.port())
        if len(inputs) > cls.n_inputs:
            raise self.error(f"{keyword} takes at most {cls.n_inputs} input(s)", kw)

        params = self.params(schema, keyword, name)
        if cls is Delay:
            if ("tau" in params) == ("length" in params):
                raise self.error("delay needs exactly one of tau= or length=", kw)
            if "length" in params:
                length, ref = params.pop("length")
                params["tau"] = (length / SPEED_OF_LIGHT, ref)
        for key in required:
            self.require(params, key, kw)
        element = cls(**{key: value for key, (value, _) in params.items()})
        for param, problem in element.problems[:1]:
            raise self.error(f"{param} {problem}", params[param][1])
        return ElementDecl(name, element, tuple(inputs))

    def det_stmt(self) -> DetectorDecl:
        name = self.fresh_name()
        if not self.accept("from"):
            raise self.error("expected 'from'")
        return DetectorDecl(name, self.port())

    def measure_stmt(self) -> Measurement:
        name = self.fresh_name()
        kind = self.expect_ident("combo kind (sum/diff/single/weights)")
        if kind not in SPELLINGS and kind != "weights":
            raise self.error(f"unknown combo kind {kind!r}", self.pos - 1)
        self.expect_punct("(")
        weights: list[tuple[str, float]] = []
        if kind == "weights":  # weights(D=W{,D=W})
            while not weights or self.accept(","):
                det = self.expect_ident("detector name")
                self.expect_punct("=")
                weights.append((det, self.quantity(PLAIN)))
        for sign in SPELLINGS.get(kind, ()):  # single(D), sum(D,D), diff(D,D)
            if weights:
                self.expect_punct(",")
            weights.append((self.expect_ident("detector name"), sign))
        self.expect_punct(")")

        if not self.accept("freqs"):
            raise self.error("expected 'freqs'")
        self.expect_punct("=")
        return Measurement(name, Combo(tuple(weights)), self.freqs())

    def freqs(self) -> FreqRange | FreqList:
        """A frequency axis: LO:HI:STEP with STEP > 0, or F{,F}."""
        first = self.quantity(FREQ)
        nxt = self.pos
        if self.accept(":"):
            stop = self.quantity(FREQ)
            self.expect_punct(":")
            step = self.quantity(FREQ)
            if step <= 0:
                raise self.error("frequency step must be > 0", nxt)
            return FreqRange(first, stop, step)
        values = [first]
        while self.accept(","):
            values.append(self.quantity(FREQ))
        return FreqList(tuple(values))


def parse(text: str, overrides: Iterable[str] = ()) -> NetworkSpec:
    """Parse network-description text into a NetworkSpec.

    Raises ParseError with a positioned diagnostic on any syntax error,
    unknown keyword, duplicate name, unit mismatch, out-of-range parameter,
    or Heisenberg-violating squeezed source.

    Each override NAME.PARAM=VALUE acts as if PARAM=VALUE were written in
    the statement NAME: a later override of the same parameter wins, tau=
    and length= replace each other, and amp= is read with the statement's
    phase= or amp_im=.  An override that is malformed, names no statement
    or parameter, or gives a value the statement refuses raises
    OverrideError.
    """
    return _Parser(text, overrides).parse_network()


def parse_quantity(text: str, dim: str = FREQ) -> float:
    """Parse a standalone quantity like '20.5MHz' (CLI flag helper)."""
    p = _Parser(text)
    value = p.quantity(dim)
    p.expect_end("quantity")
    return value


def parse_frequency_range(text: str) -> FreqRange | FreqList:
    """Parse a frequency axis as a measure statement's freqs= writes it:
    'LO:HI:STEP' or comma-separated frequencies (CLI flag helper)."""
    p = _Parser(text)
    freqs = p.freqs()
    p.expect_end("frequencies")
    return freqs


# ---------------------------------------------------------------------------
# Serialization

def _num(x: float) -> str:
    return repr(float(x))


def _check_serializable_name(name: str):
    if name.startswith(RESERVED_PREFIX):
        raise SerializeError(
            f"cannot serialize compiled artifacts (reserved name {name!r})")


def _source_line(decl: SourceDecl) -> str:
    """The keyword is read off the values: zero amplitude with vacuum noise
    is a vacuum, vacuum noise a coherent beam, anything else squeezed."""
    _check_serializable_name(decl.name)
    amp, noise = decl.amp, decl.noise
    if amp == 0 and noise == VACUUM_SPECTRUM:
        return f"source {decl.name} vacuum;"
    parts = [f"amp={_num(amp.real)}"]
    if amp.imag != 0.0:
        parts.append(f"amp_im={_num(amp.imag)}")
    if noise == VACUUM_SPECTRUM:
        return f"source {decl.name} coherent " + " ".join(parts) + ";"
    if not noise.is_constant:
        raise SerializeError(
            f"tabulated spectra are not expressible in the text format ({decl.name})")
    parts.append(f"vx={_num(noise.vx)}")
    parts.append(f"vy={_num(noise.vy)}")
    return f"source {decl.name} squeezed " + " ".join(parts) + ";"


def _element_line(decl: ElementDecl) -> str:
    _check_serializable_name(decl.name)
    for p in decl.inputs:
        _check_serializable_name(p)
    el = decl.element
    wiring = f" from {', '.join(decl.inputs)}" if decl.inputs else ""
    values = "".join(f" {p}={_num(getattr(el, p))}" for p in el.params
                     if p != "carrier_phase" or el.carrier_phase != 0.0)
    return f"{el.keyword} {decl.name}{wiring}{values};"


def _measure_line(m: Measurement) -> str:
    _check_serializable_name(m.name)
    c = m.combo  # spelled as c.kind reads its weights
    terms = (c.detectors if c.kind in SPELLINGS
             else [f"{d}={_num(w)}" for d, w in c.weights])
    combo = f"{c.kind}({','.join(terms)})"
    if isinstance(m.freqs, FreqRange):
        f = m.freqs
        freqs = f"{_num(f.start)}:{_num(f.stop)}:{_num(f.step)}"
    else:
        freqs = ",".join(_num(v) for v in m.freqs.values_hz)
    return f"measure {m.name} {combo} freqs={freqs};"


def serialize(spec: NetworkSpec) -> str:
    """Render a spec as canonical text; parse(serialize(s)) == s structurally.

    Delays serialize by tau (seconds) so the value survives the round trip
    bit-exactly; injected-vacuum rosters and other compile artifacts are
    rejected.
    """
    lines: list[str] = []
    lines.extend(_source_line(s) for s in spec.sources)
    lines.extend(_element_line(e) for e in spec.elements)
    for d in spec.detectors:
        _check_serializable_name(d.name)
        _check_serializable_name(d.input)
        lines.append(f"det {d.name} from {d.input};")
    lines.extend(_measure_line(m) for m in spec.measurements)
    return "\n".join(lines) + "\n"
