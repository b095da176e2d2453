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
    element_problems,
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
        caret = " " * (self.column - 1) + "^"
        return f"line {self.line}, col {self.column}: {self.message}\n  {self.snippet}\n  {caret}"


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class OverrideError(ValueError):
    """A NAME.PARAM=VALUE override that the network cannot take."""


class SerializeError(ValueError):
    pass


# One match per token; the kind is the name of the group that matched.
# Whitespace matches nothing, so finditer steps over it.  A comment that runs
# to a newline matches no named group and is dropped; one that ends the text
# is skipped by the eof lookahead, so eof sits at its '#'.
_TOKEN_RE = re.compile(r"""
      (?P<number> (?P<num> [+-]? (?: \d+\.?\d* | \.\d+ ) (?: [eE][+-]?\d+ )? )
                  (?P<unit> [A-Za-z]+ )? )
    | (?P<punct> [;=,():.] )
    | (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<eof> (?= (?: \#[^\n]* )? \Z ) )
    | \#[^\n]*
    | (?P<bad> [^ \t\r\n] )
""", re.VERBOSE)


class _Parser:
    """Recursive descent over token matches: ``tok.lastgroup`` is the kind,
    ``tok[0]`` the text and ``tok.start()`` the offset into the text."""

    def __init__(self, text: str, overrides: Iterable[str] = ()):
        self.text = text
        self.lines = text.splitlines() or [""]
        self.tokens: list[re.Match] = []
        for tok in _TOKEN_RE.finditer(text):
            if tok.lastgroup == "bad":
                raise self.error(f"unexpected character {tok[0]!r}", tok)
            if tok.lastgroup:
                self.tokens.append(tok)
            if tok.lastgroup == "eof":
                break
        self.pos = 0
        self.names: set[str] = set()
        # statement name -> parameter -> (parameter token, value token)
        self.overrides: dict[str, dict[str, tuple[re.Match, re.Match]]] = {}
        for item in overrides:
            name, key, value = _read_override(item)
            slot = self.overrides.setdefault(name, {})
            slot.pop(_REPLACES.get(key[0]), None)
            slot[key[0]] = (key, value)

    # -- token plumbing

    def peek(self) -> re.Match:
        return self.tokens[self.pos]

    def advance(self) -> re.Match:
        tok = self.tokens[self.pos]
        if tok.lastgroup != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        """Whether the next token is ``text``: a punctuation mark or keyword
        matches only a token of that kind."""
        return self.peek()[0] == text

    def error(self, message: str, tok: re.Match | None = None) -> ParseError | OverrideError:
        tok = tok or self.peek()
        if tok.string is not self.text:  # an override's token
            return OverrideError(f"override {tok.string!r}: {message}")
        # only '\n' starts a line; '\r' and '\t' are one column each
        offset = tok.start()
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        snippet = self.lines[line - 1] if line - 1 < len(self.lines) else ""
        return ParseError(ParseDiagnostic(line, column, message, snippet))

    def found(self, what: str) -> ParseError:
        tok = self.peek()
        return self.error(f"expected {what}, found {tok[0]!r}" if tok.lastgroup != "eof"
                          else f"expected {what}, found end of input")

    def expect_punct(self, ch: str) -> re.Match:
        if not self.at(ch):
            raise self.found(repr(ch))
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> re.Match:
        if self.peek().lastgroup != "ident":
            raise self.found(what)
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect_end(self, what: str):
        if self.peek().lastgroup != "eof":
            raise self.error(f"trailing input after {what}")

    # -- names, ports, quantities

    def fresh_name(self) -> str:
        tok = self.expect_ident("name")
        if tok[0] in KEYWORDS:
            raise self.error(f"{tok[0]!r} is a reserved word", tok)
        if tok[0].startswith(RESERVED_PREFIX):
            raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved", tok)
        if tok[0] in self.names:
            raise self.error(f"duplicate name {tok[0]!r}", tok)
        self.names.add(tok[0])
        return tok[0]

    def port(self) -> str:
        tok = self.expect_ident("port")
        if tok[0] in KEYWORDS:
            raise self.error(f"{tok[0]!r} is a reserved word", tok)
        name = tok[0]
        if self.accept("."):
            slot = self.expect_ident("output slot")
            if slot[0] not in _SLOTS:
                raise self.error(f"unknown output slot {slot[0]!r}", slot)
            name += "." + slot[0]
        return name

    def quantity(self, dim: str) -> float:
        """The next token, a number, in the base unit of ``dim``."""
        if self.peek().lastgroup != "number":
            raise self.found("a number")
        return self.value(self.advance(), dim)

    def value(self, tok: re.Match, dim: str) -> float:
        """The number token ``tok`` in the base unit of ``dim``; it must be finite."""
        try:
            value = self._scaled(tok, dim)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise self.error(f"number out of range: {tok[0]!r}", tok)
        return value

    def _scaled(self, tok: re.Match, dim: str) -> float:
        unit, value = tok["unit"], float(tok["num"])
        if dim == PLAIN:
            if unit is not None:
                raise self.error(f"unit mismatch: {unit!r} on a dimensionless value", tok)
            return value
        if dim == VAR:
            if unit is None:
                return value
            if unit == "dB":
                return 10.0 ** (value / 10.0)
            raise self.error(f"unit mismatch: expected dB or none, got {unit!r}", tok)
        table, base = {
            LENGTH: (LENGTH_UNITS, "m"),
            TIME: (TIME_UNITS, "s"),
            FREQ: (FREQ_UNITS, "Hz"),
        }[dim]
        if unit is None:
            return value
        if unit not in table:
            raise self.error(f"unit mismatch: expected {base}, got {unit!r}", tok)
        return value * table[unit]

    def params(self, schema: dict[str, str], subject: str,
               name: str) -> dict[str, tuple[float, re.Match]]:
        """Collect trailing key=value pairs until ';' against a dimension
        schema, then write in the overrides of statement ``name``."""
        out: dict[str, tuple[float, re.Match]] = {}
        while self.peek().lastgroup == "ident":
            key_tok = self.advance()
            key = key_tok[0]
            if key not in schema:
                raise self.error(f"unknown parameter {key!r} for {subject}", key_tok)
            if key in out:
                raise self.error(f"parameter {key!r} given twice", key_tok)
            self.expect_punct("=")
            val_tok = self.peek()
            out[key] = (self.quantity(schema[key]), val_tok)
        for key, (key_tok, val_tok) in self.overrides.pop(name, {}).items():
            if key not in schema:
                raise self.error(f"unknown parameter {key!r} for {subject}", key_tok)
            out.pop(_REPLACES.get(key), None)
            out[key] = (self.value(val_tok, schema[key]), val_tok)
        return out

    def blame(self, *toks: re.Match) -> re.Match:
        """The first of ``toks`` that an override supplied, else the first."""
        return next((t for t in toks if t.string is not self.text), toks[0])

    def require(self, params, key: str, kw_tok: re.Match) -> tuple[float, re.Match]:
        if key not in params:
            raise self.error(f"missing required parameter {key!r}", kw_tok)
        return params[key]

    # -- statements

    def parse_network(self) -> NetworkSpec:
        sources: list[SourceDecl] = []
        elements: list[ElementDecl] = []
        detectors: list[DetectorDecl] = []
        measurements: list[Measurement] = []
        while self.peek().lastgroup != "eof":
            kw = self.expect_ident("statement keyword")
            if kw[0] == "source":
                sources.append(self.source_stmt(kw))
            elif kw[0] in ELEMENT_KINDS:
                elements.append(self.element_stmt(kw))
            elif kw[0] == "det":
                detectors.append(self.det_stmt())
            elif kw[0] == "measure":
                measurements.append(self.measure_stmt())
            else:
                raise self.error(f"unknown statement keyword {kw[0]!r}", kw)
            self.expect_punct(";")
        for name, slot in self.overrides.items():  # no statement took them
            key, (key_tok, _) = next(iter(slot.items()))
            raise self.error(f"{name!r} takes no parameter {key!r}" if name in self.names
                             else f"no statement named {name!r}", key_tok)
        return NetworkSpec(
            sources=tuple(sources),
            elements=tuple(elements),
            detectors=tuple(detectors),
            measurements=tuple(measurements),
        )

    def amplitude(self, params, kw_tok: re.Match) -> complex:
        amp, _ = self.require(params, "amp", kw_tok)
        if "phase" in params and "amp_im" in params:
            raise self.error("give either phase= or amp_im=, not both",
                             self.blame(params["phase"][1], params["amp_im"][1]))
        if "phase" in params:
            phase = params["phase"][0]
            return complex(amp * math.cos(phase), amp * math.sin(phase))
        return complex(amp, params.get("amp_im", (0.0, None))[0])

    def source_stmt(self, kw: re.Match) -> SourceDecl:
        name = self.fresh_name()
        kind = self.expect_ident("source kind")
        if kind[0] == "vacuum":
            return SourceDecl(name)
        if kind[0] == "coherent":
            params = self.params({"amp": PLAIN, "amp_im": PLAIN, "phase": PLAIN},
                                 "coherent", name)
            return SourceDecl(name, self.amplitude(params, kw))
        if kind[0] == "squeezed":
            params = self.params(
                {"amp": PLAIN, "amp_im": PLAIN, "phase": PLAIN, "vx": VAR, "vy": VAR},
                "squeezed", name)
            vx, vx_tok = self.require(params, "vx", kw)
            vy, vy_tok = self.require(params, "vy", kw)
            if vx <= 0:
                raise self.error("vx out of range: must be > 0", vx_tok)
            if vy <= 0:
                raise self.error("vy out of range: must be > 0", vy_tok)
            if vx * vy < 1.0:
                raise self.error(f"Heisenberg bound violated: vx*vy = {vx * vy:.6g} < 1",
                                 self.blame(vx_tok, vy_tok))
            return SourceDecl(name, self.amplitude(params, kw),
                              QuadSpectrum.constant(vx, vy))
        raise self.error(f"unknown source kind {kind[0]!r}", kind)

    def element_stmt(self, kw: re.Match) -> ElementDecl:
        cls, schema, required = _ELEMENTS[kw[0]]
        name = self.fresh_name()
        inputs: list[str] = []
        if self.accept("from"):
            inputs.append(self.port())
            while self.accept(","):
                inputs.append(self.port())
        if len(inputs) > cls.n_inputs:
            raise self.error(f"{kw[0]} takes at most {cls.n_inputs} input(s)", kw)

        params = self.params(schema, kw[0], name)
        if cls is Delay:
            if ("tau" in params) == ("length" in params):
                raise self.error("delay needs exactly one of tau= or length=", kw)
            if "length" in params:
                length, tok = params.pop("length")
                params["tau"] = (length / SPEED_OF_LIGHT, tok)
        for key in required:
            self.require(params, key, kw)
        element = cls(**{key: value for key, (value, _) in params.items()})
        for param, problem in element_problems(element)[:1]:
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
        if kind[0] not in SPELLINGS and kind[0] != "weights":
            raise self.error(f"unknown combo kind {kind[0]!r}", kind)
        self.expect_punct("(")
        weights: list[tuple[str, float]] = []
        if kind[0] == "weights":  # weights(D=W{,D=W})
            while not weights or self.accept(","):
                det = self.expect_ident("detector name")[0]
                self.expect_punct("=")
                weights.append((det, self.quantity(PLAIN)))
        for sign in SPELLINGS.get(kind[0], ()):  # single(D), sum(D,D), diff(D,D)
            if weights:
                self.expect_punct(",")
            weights.append((self.expect_ident("detector name")[0], sign))
        self.expect_punct(")")

        if not self.accept("freqs"):
            raise self.error("expected 'freqs'")
        self.expect_punct("=")
        return Measurement(name, Combo(tuple(weights)), self.freqs())

    def freqs(self) -> FreqRange | FreqList:
        """A frequency axis: LO:HI:STEP with STEP > 0, or F{,F}."""
        first = self.quantity(FREQ)
        nxt = self.peek()
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


def _read_override(item: str) -> tuple[str, re.Match, re.Match]:
    """The statement name, parameter token and value token of NAME.PARAM=VALUE."""
    try:
        p = _Parser(item)
        name = p.expect_ident("statement name")[0]
        p.expect_punct(".")
        key = p.expect_ident("parameter name")
        p.expect_punct("=")
        if p.peek().lastgroup != "number":
            raise p.found("a number")
        value = p.advance()
        p.expect_end("override")
    except ParseError as exc:
        raise OverrideError(f"override {item!r}: {exc.diagnostic.message}") from None
    return name, key, value


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
