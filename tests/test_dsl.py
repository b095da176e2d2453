import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sideband import dsl, presets
from sideband.network import (
    ELEMENT_KINDS,
    Combo,
    Delay,
    DetectorDecl,
    FreqRange,
    NetworkSpec,
    QuadSpectrum,
    SourceDecl,
    VACUUM_SPECTRUM,
    validate,
)

import netgen
import reference_lex

C = 299792458.0


def parse_error(text: str) -> dsl.ParseDiagnostic:
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text)
    return err.value.diagnostic


class TestParse:
    def test_minimal_program(self):
        spec = dsl.parse("source a coherent amp=100; det D1 from a;")
        assert len(spec.sources) == 1 and len(spec.detectors) == 1
        assert spec.sources[0] == SourceDecl("a", 100.0, VACUUM_SPECTRUM)
        assert validate(spec) == []

    def test_mz_preset_delay(self, mz_phase_text):
        spec = dsl.parse(mz_phase_text)
        assert validate(spec) == []
        delay = next(e.element for e in spec.elements if isinstance(e.element, Delay))
        assert delay.tau == 7.32 / C
        assert delay.tau == pytest.approx(2.4416891768504732e-08, rel=1e-15)
        assert delay.carrier_phase == pytest.approx(math.pi / 2)

    def test_all_presets_parse_and_validate(self):
        for name in presets.available():
            spec = dsl.parse(presets.load(name))
            assert validate(spec) == [], name

    def test_squeezed_source_db_units(self):
        spec = dsl.parse(
            "source s1 squeezed amp=140 vx=-2.1dB vy=+18dB; det D from s1;")
        noise = spec.sources[0].noise
        assert noise.vx == pytest.approx(10 ** -0.21)
        assert noise.vy == pytest.approx(10 ** 1.8)

    def test_frequency_units_and_ranges(self):
        spec = dsl.parse(
            "source a coherent amp=1; det D from a;"
            "measure PM single(D) freqs=15MHz:25MHz:0.5MHz;")
        freqs = spec.measurements[0].freqs
        assert freqs == FreqRange(15e6, 25e6, 0.5e6)
        assert len(freqs.values()) == 21

    def test_frequency_list(self):
        spec = dsl.parse(
            "source a coherent amp=1; det D from a;"
            "measure M single(D) freqs=1MHz,2500kHz,5e6;")
        assert spec.measurements[0].freqs.values() == (1e6, 2.5e6, 5e6)

    def test_comments_and_whitespace(self):
        spec = dsl.parse(
            "# header\nsource a coherent amp=1;  # trailing\n\n\tdet D from a;\n")
        assert len(spec.detectors) == 1

    def test_length_units(self):
        spec = dsl.parse("source a coherent amp=1;"
                         "delay L from a length=732cm; det D from L.out;")
        assert spec.elements[0].element.tau == pytest.approx(7.32 / C)

    def test_open_bs_port_allowed(self):
        spec = dsl.parse("source a coherent amp=1; bs B from a t=0.5;"
                         "det D1 from B.out1; det D2 from B.out2;")
        assert validate(spec) == []


class TestParseDiagnostics:
    def test_t_out_of_range(self):
        diag = parse_error("source a coherent amp=1; bs B1 from a t=1.2;")
        assert "t out of range [0,1]" in diag.message
        assert diag.line == 1
        # the diagnostic points inside the offending value token
        assert diag.snippet[diag.column - 1:].startswith("1.2")

    def test_unknown_keyword(self):
        diag = parse_error("source a coherent amp=1; splitter B from a;")
        assert "unknown statement keyword" in diag.message
        assert diag.snippet[diag.column - 1:].startswith("splitter")

    def test_duplicate_name(self):
        diag = parse_error("source a coherent amp=1; loss a from a eta=0.5;")
        assert "duplicate name" in diag.message

    def test_unit_mismatch_on_dimensionless(self):
        diag = parse_error("source a coherent amp=1; bs B from a t=0.5m;")
        assert "unit mismatch" in diag.message

    def test_unit_mismatch_wrong_dimension(self):
        diag = parse_error("source a coherent amp=1;"
                           "delay L from a length=5Hz; det D from L.out;")
        assert "unit mismatch" in diag.message

    def test_heisenberg_violation_positioned(self):
        diag = parse_error("source s squeezed amp=1 vx=-3dB vy=0dB; det D from s;")
        assert "Heisenberg" in diag.message

    def test_missing_semicolon(self):
        diag = parse_error("source a coherent amp=1")
        assert "';'" in diag.message

    def test_missing_required_param(self):
        diag = parse_error("source a coherent amp=1; loss L from a; det D from L.out;")
        assert "missing required parameter 'eta'" in diag.message

    def test_delay_needs_exactly_one_length(self):
        diag = parse_error("source a coherent amp=1;"
                           "delay L from a tau=1ns length=1m; det D from L.out;")
        assert "exactly one of" in diag.message

    def test_reserved_word_as_name(self):
        diag = parse_error("source measure coherent amp=1;")
        assert "reserved word" in diag.message

    @pytest.mark.parametrize("combo, message", [
        ("weights()", "expected detector name"),
        ("weights(C)", "expected '='"),
        ("weights(C=1Hz)", "unit mismatch"),
        ("weights(C=1 D=1)", "expected ')'"),
        ("weights(C=1,)", "expected detector name"),
        ("prod(C,D)", "unknown combo kind 'prod'"),
    ])
    def test_bad_combo_is_positioned(self, combo, message):
        diag = parse_error("source a coherent amp=1; bs B from a;"
                           f"det C from B.out1; det D from B.out2; measure M {combo} freqs=1MHz;")
        assert message in diag.message

    @pytest.mark.parametrize("text, message", [
        ("source __a coherent amp=1;", "names starting with '__' are reserved"),
        ("source a coherent amp=1; det D from measure;", "'measure' is a reserved word"),
        ("source a squeezed amp=1 vx=0.5Hz vy=2;",
         "unit mismatch: expected dB or none, got 'Hz'"),
        ("source a coherent amp=1 amp=2;", "parameter 'amp' given twice"),
        ("source a squeezed amp=1 vx=2 vy=0;", "vy out of range: must be > 0"),
        ("source a thermal amp=1;", "unknown source kind 'thermal'"),
        ("source a coherent amp=1; phase P from a, a phi=0;",
         "phase takes at most 1 input(s)"),
    ])
    def test_statement_rule_is_a_parse_error(self, text, message):
        assert parse_error(text).message == message

    def test_weights_is_a_reserved_word(self):
        diag = parse_error("source a coherent amp=1; det weights from a;")
        assert "'weights' is a reserved word" in diag.message

    def test_unexpected_character(self):
        diag = parse_error("source a coherent amp=1; det D from a; @")
        assert "unexpected character" in diag.message
        assert diag.column == len("source a coherent amp=1; det D from a; ") + 1

    @pytest.mark.parametrize("text, line, column, snippet", [
        ("# note\u2028 more\nsource a coherent amp=1;\ndet D from a @;", 3, 14,
         "det D from a @;"),
        ("# a\x0cb\nsource a coherent amp=1;\ndet D from a @;", 3, 14, "det D from a @;"),
        ("# a\x0bb\r\nsource a coherent amp=1;\r\ndet D frm a;\r\n", 3, 7, "det D frm a;"),
        ("source a coherent amp=1;\rdet D from a @;", 1, 39,
         "source a coherent amp=1;\rdet D from a @;"),
    ])
    def test_snippet_is_the_line_that_only_newlines_delimit(self, text, line, column, snippet):
        d = parse_error(text)
        assert (d.line, d.column, d.snippet) == (line, column, snippet)

    @pytest.mark.parametrize("text, column, caret", [
        ("\tbeamsplitter ZZ t=oops;", 2, "\t^"),
        ("source a coherent amp=1;\n\tdet\tD frm a;", 8, "\t   \t  ^"),
        ("source a coherent amp=1;\ndet D from a\t", 14, " " * 12 + "\t^"),
    ])
    def test_caret_sits_under_the_token_after_a_tab(self, text, column, caret):
        # the caret line pads with the snippet's own tabs, so a terminal
        # expands both lines alike; the column still counts a tab as one
        d = parse_error(text)
        *_, snippet, shown = str(d).split("\n")
        assert d.column == column and shown == "  " + caret
        assert shown.expandtabs().index("^") == len(snippet[:2 + column - 1].expandtabs())

    @pytest.mark.parametrize("text, overrides", [
        ("det; @", []),
        ("source a vacuum; @", ["nope.t=1"]),
        ("source a vacuum; @", ["a.t=@"]),
    ])
    def test_a_character_no_token_takes_is_the_error_reported(self, text, overrides):
        with pytest.raises(dsl.ParseError) as err:
            dsl.parse(text, overrides)
        assert err.value.diagnostic.message == "unexpected character '@'"
        assert err.value.diagnostic.column == text.index("@") + 1

    def test_position_is_always_in_bounds(self):
        for text in ("", ";", "det", "source a vacuum; det D from", "measure M"):
            try:
                dsl.parse(text)
            except dsl.ParseError as err:
                d = err.diagnostic
                assert d.line >= 1 and d.column >= 1
                assert d.column <= len(d.snippet) + 1


class TestSerialize:
    def test_minimal_round_trip(self):
        spec = dsl.parse("source a coherent amp=100; det D1 from a;")
        assert dsl.parse(dsl.serialize(spec)) == spec

    def test_preset_round_trips_exact_values(self, mz_phase_text):
        spec = dsl.parse(mz_phase_text)
        again = dsl.parse(dsl.serialize(spec))
        assert again == spec
        d1 = next(e.element for e in spec.elements if isinstance(e.element, Delay))
        d2 = next(e.element for e in again.elements if isinstance(e.element, Delay))
        assert d1.tau == d2.tau and d1.carrier_phase == d2.carrier_phase

    @pytest.mark.parametrize("source, line", [
        (SourceDecl("v"), "source v vacuum;"),
        (SourceDecl("a", 5.0), "source a coherent amp=5.0;"),
        (SourceDecl("a", 3 - 4j), "source a coherent amp=3.0 amp_im=-4.0;"),
        (SourceDecl("s", 2.0, QuadSpectrum.constant(0.5, 2.0)),
         "source s squeezed amp=2.0 vx=0.5 vy=2.0;"),
        (SourceDecl("s", 0j, QuadSpectrum.constant(2.0, 3.0)),
         "source s squeezed amp=0.0 vx=2.0 vy=3.0;"),
    ])
    def test_keyword_is_read_off_the_values(self, source, line):
        assert dsl.serialize(NetworkSpec(sources=(source,))) == line + "\n"

    @pytest.mark.parametrize("text, same", [
        ("source a coherent amp=0;", "source a vacuum;"),
        ("source a squeezed amp=5 vx=1 vy=1;", "source a coherent amp=5;"),
    ])
    def test_source_kinds_that_give_the_same_values_parse_equal(self, text, same):
        assert dsl.parse(text) == dsl.parse(same)

    @pytest.mark.parametrize("combo, weights, spelled", [
        ("weights(C=1)", (("C", 1.0),), "single(C)"),
        ("weights(C=1, D=1)", (("C", 1.0), ("D", 1.0)), "sum(C,D)"),
        ("weights(C=1,D=-1)", (("C", 1.0), ("D", -1.0)), "diff(C,D)"),
        ("weights(D=1, C=-1)", (("D", 1.0), ("C", -1.0)), "diff(D,C)"),
        ("weights(C=-1, D=1)", (("C", -1.0), ("D", 1.0)), "weights(C=-1.0,D=1.0)"),
        ("weights(C=1, D=-0.5)", (("C", 1.0), ("D", -0.5)), "weights(C=1.0,D=-0.5)"),
        ("weights(D=+2.5e-1)", (("D", 0.25),), "weights(D=0.25)"),
        ("weights(C=-1)", (("C", -1.0),), "weights(C=-1.0)"),
        ("single(D)", (("D", 1.0),), "single(D)"),
        ("sum(D,C)", (("D", 1.0), ("C", 1.0)), "sum(D,C)"),
        ("diff(C,D)", (("C", 1.0), ("D", -1.0)), "diff(C,D)"),
    ])
    def test_combo_spelling_is_read_off_the_weights(self, combo, weights, spelled):
        spec = dsl.parse("source a coherent amp=1; bs B from a;"
                         f"det C from B.out1; det D from B.out2; measure M {combo} freqs=1MHz;")
        assert spec.measurements[0].combo == Combo(weights)
        text = dsl.serialize(spec)
        assert text.splitlines()[-1] == f"measure M {spelled} freqs=1000000.0;"
        assert dsl.parse(text) == spec

    def test_rejects_compiled_artifacts(self):
        spec = NetworkSpec(sources=(SourceDecl("__vac0"),))
        with pytest.raises(dsl.SerializeError, match="compiled artifacts"):
            dsl.serialize(spec)

    def test_rejects_tabulated_spectra(self):
        spec = NetworkSpec(
            sources=(SourceDecl("s", 1.0, QuadSpectrum.tabulated([0, 1], [1, 1], [1, 1])),),
            detectors=(DetectorDecl("D", "s"),))
        with pytest.raises(dsl.SerializeError):
            dsl.serialize(spec)


class TestGrammarDoc:
    def test_shipped_ebnf_covers_the_token_set(self):
        from importlib import resources
        text = (resources.files("sideband") / "grammar.ebnf").read_text()
        quoted = set(re.findall(r'"([^"]+)"', text))
        assert dsl.KEYWORDS <= quoted
        for table in (dsl.LENGTH_UNITS, dsl.TIME_UNITS, dsl.FREQ_UNITS):
            assert set(table) <= quoted
        assert "dB" in quoted
        for punct in ";=,():.":
            assert punct in quoted
        for keyword, cls in ELEMENT_KINDS.items():  # keywords are in KEYWORDS
            for param in cls.params:
                assert re.search(rf"\b{param}=", text), (keyword, param)


class TestFuzzRoundTrip:
    def test_random_specs_round_trip(self):
        rng = random.Random(20260810)
        for i in range(200):
            spec = netgen.random_spec(rng)
            text = dsl.serialize(spec)
            assert dsl.parse(text) == spec, f"case {i}:\n{text}"

    def test_invalid_mutations_give_positioned_diagnostics(self):
        rng = random.Random(4242)
        mutations = ["keyword", "semicolon", "badchar", "equals", "truncate",
                     "duplicate", "badunit"]
        checked = 0
        for i in range(200):
            text = dsl.serialize(netgen.random_spec(rng))
            kind = mutations[i % len(mutations)]
            mutant = self._mutate(text, kind, rng)
            with pytest.raises(dsl.ParseError) as err:
                dsl.parse(mutant)
            d = err.value.diagnostic
            lines = mutant.splitlines() or [""]
            assert 1 <= d.line <= len(lines) + 1
            assert d.column >= 1
            checked += 1
        assert checked == 200

    @staticmethod
    def _mutate(text: str, kind: str, rng: random.Random) -> str:
        if kind == "keyword":
            return re.sub(r"^(source|bs|phase|delay|loss|det|measure)",
                          "bogus", text, count=1, flags=re.M)
        if kind == "semicolon":
            idx = text.rindex(";")
            return text[:idx] + text[idx + 1:]
        if kind == "badchar":
            pos = rng.randrange(len(text))
            return text[:pos] + "@" + text[pos:]
        if kind == "equals":
            if "=" not in text:  # vacuum-only specs may carry no params
                return text.rstrip().rstrip(";")
            idx = text.index("=")
            return text[:idx] + ":" + text[idx + 1:]
        if kind == "truncate":
            return text[:int(len(text) * 0.7)].rstrip().rstrip(";")
        if kind == "duplicate":
            first = text.splitlines()[0]
            return text + first + "\n"
        if kind == "badunit":
            if not re.search(r"=(\d)", text):
                return text.rstrip().rstrip(";")
            return re.sub(r"=(\d)", r"=\1Qz", text, count=1)
        raise AssertionError(kind)


# Pieces that mutants insert: separators, comments, line breaks, number and
# unit fragments, and characters the lexer must refuse.
PIECES = [" ", "\t", "\r", "\r\n", "\n", "#", "# note", ";", "=", ",", ":", ".",
          "(", ")", "+", "-", "e", "E5", "1", "0.5", ".5", "5.", "MHz", "dB", "ns",
          "cm", "x", "_", "@", "\u0663", "\u00b2", "\u00b5", "\x0b"]
TRAILING_COMMENTS = ["#", "# end", " #x\r", "\t# \u00e9", "# end\n", "#\r\n"]


@st.composite
def lexer_texts(draw):
    """A preset or a serialized random spec, then up to five mutations."""
    if draw(st.booleans()):
        text = presets.load(draw(st.sampled_from(presets.available())))
    else:
        seed = draw(st.integers(0, 2 ** 32 - 1))
        text = dsl.serialize(netgen.random_spec(random.Random(seed)))
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["insert", "delete", "truncate", "comment", "breaks"]))
        if op == "insert":
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        elif op == "delete" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + text[i + 1:]
        elif op == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif op == "comment":
            text += draw(st.sampled_from(TRAILING_COMMENTS))
        elif op == "breaks":
            text = text.replace("\n", draw(st.sampled_from(["\r\n", "\r", " \n\t"])))
    return text


class TestLexerAgainstReference:
    """The regex lexer gives the character-loop lexer's tokens and diagnostics."""

    @staticmethod
    def check(text: str):
        try:
            expected = reference_lex._lex(text)
        except dsl.ParseError as err:
            for call in (dsl._lex, dsl.parse):
                with pytest.raises(dsl.ParseError) as ours:
                    call(text)
                assert str(ours.value) == str(err)
                assert ours.value.diagnostic == err.diagnostic
            return
        lexed = dsl._lex(text)  # offsets worked out once per text
        assert [tok for _, tok in lexed] == dsl._Parser(text).tokens
        got = []
        for offset, tok in lexed:
            d = dsl._diagnostic(text, offset, "")
            kind, value, unit = dsl._kind(tok), None, None
            if kind == "number":
                num, unit = dsl._NUMBER_RE.fullmatch(tok).groups()
                value, unit = float(num), unit or None
            got.append(reference_lex.Token(kind, tok, d.line, d.column, value, unit))
        assert got == expected
        for (offset, _), tok in zip(lexed, expected):
            ours = dsl._diagnostic(text, offset, f"at {tok.text!r}")
            theirs = reference_lex.diagnostic(text, tok, f"at {tok.text!r}")
            assert ours == theirs and str(ours) == str(theirs)

    @pytest.mark.parametrize("text", [
        "", "#", "a # c", "a;\n# c", "a\r\nb\r@", "x=1.5MHz;", "x=\u0663;",
        "x=\u00b2;", "\t\r1e5e", "+a", ".5.", "5._", "a\rb # c\r",
    ])
    def test_edge_cases(self, text):
        self.check(text)

    @settings(max_examples=300)
    @given(text=lexer_texts())
    def test_random_and_mutated_specs(self, text):
        self.check(text)


# Override parameters: every one some statement takes, plus one none takes.
OVERRIDE_PARAMS = ["amp", "amp_im", "phase", "vx", "vy", "t", "phi", "tau", "length",
                   "carrier_phase", "eta", "x"]
# the parameters each statement takes, by keyword or source kind
STATEMENT_PARAMS = {"coherent": OVERRIDE_PARAMS[:3], "squeezed": OVERRIDE_PARAMS[:5],
                    "bs": ["t"], "phase": ["phi"], "loss": ["eta"],
                    "delay": ["tau", "length", "carrier_phase"]}
# Values in and out of each range, in every unit family, and not finite; a
# parameter draws from its own family more often.
PLAIN_VALUES = ["0", "0.01", "0.5", "1", "1.5", "-1", "50"]
VAR_VALUES = ["0.5", "2", "-3dB", "+15dB"]
FAMILY_VALUES = {"vx": VAR_VALUES, "vy": VAR_VALUES, "tau": ["24.4ns", "0", "-1ns"],
                 "length": ["7.32m", "732cm", "-1m"]}
OVERRIDE_VALUES = PLAIN_VALUES + VAR_VALUES + ["7.32m", "24.4ns", "5MHz", "1e400"]


def write_in(text: str, override: str) -> str:
    """``text`` with PARAM=VALUE written into the statement NAME, replacing the
    statement's own PARAM= and, for tau= and length=, the other one."""
    target, value = override.split("=", 1)
    name, key = target.split(".")
    drop = {"tau": "(tau|length)", "length": "(tau|length)"}.get(key, key)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        words = line.split()
        if len(words) > 1 and words[1] == name and not words[0].startswith("#"):
            line = re.sub(rf"\s{drop}=[^\s;]+", "", line)
            lines[i] = line[:line.rindex(";")] + f" {key}={value};"
    return "\n".join(lines) + "\n"


@st.composite
def override_cases(draw):
    """A preset or serialized random spec, and one or two overrides of its
    statements, mostly of parameters the statement takes."""
    if draw(st.booleans()):
        text = presets.load(draw(st.sampled_from(presets.available())))
    else:
        seed = draw(st.integers(0, 2 ** 32 - 1))
        text = dsl.serialize(netgen.random_spec(random.Random(seed)))
    statements = [line.split() for line in text.splitlines()
                  if line.strip() and not line.startswith("#")]

    def mostly(usual, other):  # three draws in four from ``usual``
        return draw(st.sampled_from(usual if usual and draw(st.integers(0, 3)) else other))

    overrides = []
    for _ in range(draw(st.integers(1, 2))):
        words = mostly([w for w in statements if "=" in w[-1]], statements)
        key = mostly(STATEMENT_PARAMS.get(words[2] if words[0] == "source" else words[0]),
                     OVERRIDE_PARAMS)
        value = mostly(FAMILY_VALUES.get(key, PLAIN_VALUES), OVERRIDE_VALUES)
        overrides.append(f"{words[1]}.{key}={value}")
    return text, overrides


def parsed_or_refused(text, overrides=()):
    error = dsl.OverrideError if overrides else dsl.ParseError
    try:
        return dsl.parse(text, overrides)
    except error:
        return "refused"


class TestOverrides:
    @settings(max_examples=300)
    @given(case=override_cases())
    def test_override_acts_as_if_written_in_the_statement(self, case):
        text, overrides = case
        written = text
        for override in overrides:
            written = write_in(written, override)
        assert parsed_or_refused(text, overrides) == parsed_or_refused(written)

    def test_amp_keeps_the_statement_phase(self):
        text = "source a coherent amp=100 phase=0.5; det D from a;"
        spec = dsl.parse(text, ["a.amp=50"])
        assert spec == dsl.parse(text.replace("amp=100", "amp=50"))
        amp = spec.sources[0].amp
        assert abs(amp) == pytest.approx(50.0)
        assert math.atan2(amp.imag, amp.real) == pytest.approx(0.5)

    def test_later_override_wins_and_tau_replaces_length(self, mz_phase_text):
        spec = dsl.parse(mz_phase_text, ["LONG.length=1m", "LONG.tau=2ns", "B1.t=1.5",
                                         "B1.t=0.25"])
        assert spec == dsl.parse(mz_phase_text.replace("length=7.32m", "tau=2ns")
                                 .replace("t=0.7071067811865476", "t=0.25", 1))

    @pytest.mark.parametrize("override,message", [
        ("B1.t=1.5", "t out of range [0,1]"),
        ("a.vy=0.5", "Heisenberg bound violated: vx*vy = 0.308298 < 1"),
        ("a.amp_im=5", "give either phase= or amp_im=, not both"),
        ("v.vx=2", "'v' takes no parameter 'vx'"),
        ("nosuch.t=0.5", "no statement named 'nosuch'"),
        ("B1.t=abc", "expected a number, found 'abc'"),
        ("B1.t", "expected '=', found end of input"),
    ])
    def test_refusal_names_the_override(self, mz_phase_text, override, message):
        text = mz_phase_text.replace("amp=100", "amp=100 phase=0.5")
        with pytest.raises(dsl.OverrideError) as err:
            dsl.parse(text, [override])
        assert str(err.value) == f"override {override!r}: {message}"
