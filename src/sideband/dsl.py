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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .network import (
    BeamSplitter,
    Coherent,
    Combo,
    ComplexAmp,
    Delay,
    DetectorDecl,
    ElementDecl,
    FreqList,
    FreqRange,
    Loss,
    Measurement,
    NetworkSpec,
    PhaseShift,
    QuadSpectrum,
    RESERVED_PREFIX,
    SourceDecl,
    SPEED_OF_LIGHT,
    SqueezedCoherent,
    Vacuum,
)

KEYWORDS = frozenset({
    "source", "bs", "phase", "delay", "loss", "det", "measure",
    "from", "vacuum", "coherent", "squeezed", "sum", "diff", "single", "freqs",
})

LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

# parameter dimensions
PLAIN, LENGTH, TIME, FREQ, VAR = "plain", "length", "time", "freq", "var"

DEFAULT_SPLIT = math.sqrt(0.5)  # 50/50 beamsplitter field transmittance


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


class SerializeError(ValueError):
    pass


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


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    lines = text.splitlines() or [""]
    i, line, col = 0, 1, 1
    n = len(text)

    def diag(msg: str, ln: int, cl: int) -> ParseError:
        snippet = lines[ln - 1] if ln - 1 < len(lines) else ""
        return ParseError(ParseDiagnostic(ln, cl, msg, snippet))

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines() or [""]
        self.tokens = _lex(text)
        self.pos = 0
        self.names: dict[str, Token] = {}

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        snippet = self.lines[tok.line - 1] if tok.line - 1 < len(self.lines) else ""
        return ParseError(ParseDiagnostic(tok.line, tok.column, message, snippet))

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            raise self.error(f"expected {ch!r}, found {tok.text!r}" if tok.kind != "eof"
                             else f"expected {ch!r}, found end of input")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.text!r}" if tok.kind != "eof"
                             else f"expected {what}, found end of input")
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == word:
            self.advance()
            return True
        return False

    # -- names, ports, quantities

    def fresh_name(self) -> str:
        tok = self.expect_ident("name")
        if tok.text in KEYWORDS:
            raise self.error(f"{tok.text!r} is a reserved word", tok)
        if tok.text.startswith(RESERVED_PREFIX):
            raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved", tok)
        if tok.text in self.names:
            raise self.error(f"duplicate name {tok.text!r}", tok)
        self.names[tok.text] = tok
        return tok.text

    def port(self) -> str:
        tok = self.expect_ident("port")
        if tok.text in KEYWORDS:
            raise self.error(f"{tok.text!r} is a reserved word", tok)
        name = tok.text
        if self.peek().kind == "punct" and self.peek().text == ".":
            self.advance()
            slot = self.expect_ident("output slot")
            if slot.text not in ("out", "out1", "out2"):
                raise self.error(f"unknown output slot {slot.text!r}", slot)
            name += "." + slot.text
        return name

    def quantity(self, dim: str) -> float:
        tok = self.peek()
        if tok.kind != "number":
            raise self.error(f"expected a number, found {tok.text!r}" if tok.kind != "eof"
                             else "expected a number, found end of input")
        self.advance()
        return self.convert(tok, dim)

    def convert(self, tok: Token, dim: str) -> float:
        """A number token in the base unit of ``dim``; it must be finite."""
        try:
            value = self._scaled(tok, dim)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise self.error(f"number out of range: {tok.text!r}", tok)
        return value

    def _scaled(self, tok: Token, dim: str) -> float:
        unit, value = tok.unit, tok.value
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

    def params(self, schema: dict[str, str], subject: str) -> dict[str, tuple[float, Token]]:
        """Collect trailing key=value pairs until ';' against a dimension schema."""
        out: dict[str, tuple[float, Token]] = {}
        while self.peek().kind == "ident":
            key_tok = self.advance()
            key = key_tok.text
            if key not in schema:
                raise self.error(f"unknown parameter {key!r} for {subject}", key_tok)
            if key in out:
                raise self.error(f"parameter {key!r} given twice", key_tok)
            self.expect_punct("=")
            val_tok = self.peek()
            out[key] = (self.quantity(schema[key]), val_tok)
        return out

    def require(self, params, key: str, kw_tok: Token) -> tuple[float, Token]:
        if key not in params:
            raise self.error(f"missing required parameter {key!r}", kw_tok)
        return params[key]

    # -- statements

    def parse_network(self) -> NetworkSpec:
        sources: list[SourceDecl] = []
        elements: list[ElementDecl] = []
        detectors: list[DetectorDecl] = []
        measurements: list[Measurement] = []
        while self.peek().kind != "eof":
            kw = self.expect_ident("statement keyword")
            if kw.text == "source":
                sources.append(self.source_stmt(kw))
            elif kw.text in ("bs", "phase", "delay", "loss"):
                elements.append(self.element_stmt(kw))
            elif kw.text == "det":
                detectors.append(self.det_stmt())
            elif kw.text == "measure":
                measurements.append(self.measure_stmt(kw))
            else:
                raise self.error(f"unknown statement keyword {kw.text!r}", kw)
            self.expect_punct(";")
        return NetworkSpec(
            sources=tuple(sources),
            elements=tuple(elements),
            detectors=tuple(detectors),
            measurements=tuple(measurements),
        )

    def amplitude(self, params, kw_tok: Token) -> ComplexAmp:
        amp, _ = self.require(params, "amp", kw_tok)
        if "phase" in params and "amp_im" in params:
            raise self.error("give either phase= or amp_im=, not both",
                             params["phase"][1])
        if "phase" in params:
            return ComplexAmp.from_polar(amp, params["phase"][0])
        return ComplexAmp(amp, params.get("amp_im", (0.0, None))[0])

    def source_stmt(self, kw: Token) -> SourceDecl:
        name = self.fresh_name()
        kind = self.expect_ident("source kind")
        if kind.text == "vacuum":
            return SourceDecl(name, Vacuum())
        if kind.text == "coherent":
            params = self.params({"amp": PLAIN, "amp_im": PLAIN, "phase": PLAIN}, "coherent")
            return SourceDecl(name, Coherent(self.amplitude(params, kw)))
        if kind.text == "squeezed":
            params = self.params(
                {"amp": PLAIN, "amp_im": PLAIN, "phase": PLAIN, "vx": VAR, "vy": VAR},
                "squeezed")
            vx, vx_tok = self.require(params, "vx", kw)
            vy, vy_tok = self.require(params, "vy", kw)
            if vx <= 0:
                raise self.error("vx out of range: must be > 0", vx_tok)
            if vy <= 0:
                raise self.error("vy out of range: must be > 0", vy_tok)
            if vx * vy < 1.0:
                raise self.error(
                    f"Heisenberg bound violated: vx*vy = {vx * vy:.6g} < 1", vx_tok)
            noise = QuadSpectrum.constant(vx, vy)
            return SourceDecl(name, SqueezedCoherent(self.amplitude(params, kw), noise))
        raise self.error(f"unknown source kind {kind.text!r}", kind)

    def element_stmt(self, kw: Token) -> ElementDecl:
        name = self.fresh_name()
        inputs: list[str] = []
        if self.accept_keyword("from"):
            inputs.append(self.port())
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                inputs.append(self.port())
        max_inputs = 2 if kw.text == "bs" else 1
        if len(inputs) > max_inputs:
            raise self.error(f"{kw.text} takes at most {max_inputs} input(s)", kw)

        if kw.text == "bs":
            params = self.params({"t": PLAIN}, "bs")
            t, t_tok = params.get("t", (DEFAULT_SPLIT, None))
            if not 0.0 <= t <= 1.0:
                raise self.error("t out of range [0,1]", t_tok)
            element = BeamSplitter(t)
        elif kw.text == "phase":
            params = self.params({"phi": PLAIN}, "phase")
            phi, _ = self.require(params, "phi", kw)
            element = PhaseShift(phi)
        elif kw.text == "delay":
            params = self.params(
                {"tau": TIME, "length": LENGTH, "carrier_phase": PLAIN}, "delay")
            if ("tau" in params) == ("length" in params):
                raise self.error("delay needs exactly one of tau= or length=", kw)
            if "tau" in params:
                tau, tok = params["tau"]
            else:
                length, tok = params["length"]
                tau = length / SPEED_OF_LIGHT
            if tau < 0:
                raise self.error("delay out of range: must be >= 0", tok)
            element = Delay(tau, params.get("carrier_phase", (0.0, None))[0])
        else:  # loss
            params = self.params({"eta": PLAIN}, "loss")
            eta, eta_tok = self.require(params, "eta", kw)
            if not 0.0 <= eta <= 1.0:
                raise self.error("eta out of range [0,1]", eta_tok)
            element = Loss(eta)
        return ElementDecl(name, element, tuple(inputs))

    def det_stmt(self) -> DetectorDecl:
        name = self.fresh_name()
        tok = self.peek()
        if not self.accept_keyword("from"):
            raise self.error("expected 'from'", tok)
        return DetectorDecl(name, self.port())

    def measure_stmt(self, kw: Token) -> Measurement:
        name = self.fresh_name()
        combo_tok = self.expect_ident("combo kind (sum/diff/single)")
        if combo_tok.text not in ("sum", "diff", "single"):
            raise self.error(f"unknown combo kind {combo_tok.text!r}", combo_tok)
        self.expect_punct("(")
        dets = [self.expect_ident("detector name").text]
        if combo_tok.text != "single":
            self.expect_punct(",")
            dets.append(self.expect_ident("detector name").text)
        self.expect_punct(")")
        combo = Combo(combo_tok.text, tuple(dets))

        freqs_tok = self.peek()
        if not self.accept_keyword("freqs"):
            raise self.error("expected 'freqs'", freqs_tok)
        self.expect_punct("=")
        first = self.quantity(FREQ)
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text == ":":
            self.advance()
            stop = self.quantity(FREQ)
            self.expect_punct(":")
            step = self.quantity(FREQ)
            if step <= 0:
                raise self.error("frequency step must be > 0", nxt)
            freqs = FreqRange(first, stop, step)
        elif nxt.kind == "punct" and nxt.text == ",":
            values = [first]
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                values.append(self.quantity(FREQ))
            freqs = FreqList(tuple(values))
        else:
            freqs = FreqList((first,))
        return Measurement(name, combo, freqs)


def parse(text: str) -> NetworkSpec:
    """Parse network-description text into a NetworkSpec.

    Raises ParseError with a positioned diagnostic on any syntax error,
    unknown keyword, duplicate name, unit mismatch, out-of-range parameter,
    or Heisenberg-violating squeezed source.
    """
    return _Parser(text).parse_network()


def parse_quantity(text: str, dim: str = FREQ) -> float:
    """Parse a standalone quantity like '20.5MHz' (CLI flag helper)."""
    p = _Parser(text)
    value = p.quantity(dim)
    if p.peek().kind != "eof":
        raise p.error("trailing input after quantity")
    return value


def parse_frequency_range(text: str):
    """Parse 'LO:HI:STEP' or a single frequency; returns FreqRange or FreqList."""
    p = _Parser(text)
    first = p.quantity(FREQ)
    if p.peek().kind == "punct" and p.peek().text == ":":
        p.advance()
        stop = p.quantity(FREQ)
        p.expect_punct(":")
        step = p.quantity(FREQ)
        if p.peek().kind != "eof":
            raise p.error("trailing input after frequency range")
        return FreqRange(first, stop, step)
    if p.peek().kind != "eof":
        raise p.error("trailing input after frequency")
    return FreqList((first,))


# ---------------------------------------------------------------------------
# Serialization

def _num(x: float) -> str:
    return repr(float(x))


def _check_serializable_name(name: str):
    if name.startswith(RESERVED_PREFIX):
        raise SerializeError(
            f"cannot serialize compiled artifacts (reserved name {name!r})")


def _source_line(decl: SourceDecl) -> str:
    _check_serializable_name(decl.name)
    spec = decl.spec
    if isinstance(spec, Vacuum):
        return f"source {decl.name} vacuum;"
    amp = spec.amp
    parts = [f"amp={_num(amp.re)}"]
    if amp.im != 0.0:
        parts.append(f"amp_im={_num(amp.im)}")
    if isinstance(spec, Coherent):
        return f"source {decl.name} coherent " + " ".join(parts) + ";"
    noise = spec.noise
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
    if isinstance(el, BeamSplitter):
        return f"bs {decl.name}{wiring} t={_num(el.t)};"
    if isinstance(el, PhaseShift):
        return f"phase {decl.name}{wiring} phi={_num(el.phi)};"
    if isinstance(el, Delay):
        extra = "" if el.carrier_phase == 0.0 else f" carrier_phase={_num(el.carrier_phase)}"
        return f"delay {decl.name}{wiring} tau={_num(el.tau)}{extra};"
    if isinstance(el, Loss):
        return f"loss {decl.name}{wiring} eta={_num(el.eta)};"
    raise SerializeError(f"unknown element {el!r}")


def _measure_line(m: Measurement) -> str:
    _check_serializable_name(m.name)
    combo = f"{m.combo.kind}({','.join(m.combo.detectors)})"
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
