"""Surface syntax for models and for local-form expressions.

The grammar is line oriented.  A model file lists declarations in a fixed
order: the header (name, base dimension, metric, parameters), the field
declarations, an optional algebra block, the bracket kind, the named
densities with their master, and an optional foliation block::

    model maxwell
    dim 4
    metric 1 -1 -1 -1
    field A { parity 0, ghost 0, role field, shape 4 }
    ...
    structure odd-BV
    density S = ...
    master S
    foliation {
      time 0
      map A -> A
      field E { parity 0, ghost 0, role source, shape 3 }
      phase A[0],[0] := lam
      density H = ...
    }

A ``{ key value, key value }`` attribute block, on ``field`` and ``algebra``
lines, reads each value in place with the reader of its key; every value
ends at the ``,`` before the next key or at the closing ``}``, so a stray
token after a value is an error at that token.  The model name and the
structure kind are one word: names joined by ``-`` with no space, as in
``odd-BV``.

Expressions use ``+ - * ^`` with ``*`` and ``^`` both denoting the graded
product, ``dx[j]``, ``x[j]``, ``vol``, ``del(...)``, ``d(...)``,
``ib(j, ...)`` for contraction of a horizontal form with the j-th
coordinate field, rational literals like ``3/4``, parameters by name, and
jet variables written ``A[0],[1 2]`` (component labels, then derivative
indices).  Those atom names are reserved; ``#`` starts a comment.  The
canonical rendering produced by ``model.print_model`` parses back to an
equal model.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from . import foliation, forms, kernel, model, symplectic
from .forms import LocalForm
from .kernel import FieldSpec, GradedScalar, Spectrum


class ParseError(Exception):
    """Bad surface syntax, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<assign>:=)
  | (?P<op>[{}()\[\],=+\-*^])
""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - start + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, m.group(), line, m.start() - start + 1))
        if kind == "nl":
            line += 1
            start = m.end()
        pos = m.end()
    toks.append(Token("nl", "\n", line, max(len(text) - start, 0) + 1))
    toks.append(Token("eof", "", line + 1, 1))
    return toks


_RESERVED = {"dx", "x", "vol", "del", "d", "ib"}

# How an error message names the tokens that have no text of their own.
_ENDS = {"nl": "end of line", "eof": "end of file"}
# How an error message names what a token kind must be, when any text of
# that kind will do.
_WANTED = _ENDS | {"name": "a name", "number": "a number", "arrow": "'->'",
                   "assign": "':='"}


def _shown(t: Token) -> str:
    return _ENDS.get(t.kind) or repr(t.text)


class _Parser:
    def __init__(self, toks: Sequence[Token]):
        self.toks = list(toks)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str, t: Optional[Token] = None):
        t = t or self.peek()
        raise ParseError(message, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = repr(text) if text is not None else _WANTED[kind]
            self.fail(f"expected {want}, got {_shown(t)}", t)
        return self.next()

    def at(self, kind: str, text: Optional[str] = None,
           ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def end_line(self) -> None:
        self.expect("nl")
        self.skip_blank()

    def skip_blank(self) -> None:
        while self.at("nl"):
            self.next()

    # -- small shared pieces ----------------------------------------------

    def integer(self) -> int:
        t = self.peek()
        if t.kind != "number" or "/" in t.text:
            self.fail(f"expected an integer, got {_shown(t)}", t)
        return int(self.next().text)

    def signed_integer(self) -> int:
        if self.at("op", "-"):
            self.next()
            return -self.integer()
        return self.integer()

    def fraction(self, t: Token) -> Fraction:
        """The rational literal of a number token, with nonzero denominator."""
        if re.fullmatch(r"\d+/0+", t.text):
            self.fail(f"zero denominator in {t.text!r}", t)
        return Fraction(t.text)

    def number(self) -> Fraction:
        neg = False
        if self.at("op", "-"):
            self.next()
            neg = True
        q = self.fraction(self.expect("number"))
        return -q if neg else q

    def name(self) -> str:
        return self.expect("name").text

    def word(self) -> str:
        """One hyphenated word: a name, then any number of ``-`` names, with
        no space in between (``odd-BV``)."""
        t = self.expect("name")
        text, end = t.text, t.col + len(t.text)
        while self.at("op", "-") and self.peek().col == end:
            self.next()
            t = self.peek()
            if t.col != end + 1:
                self.fail("expected a name right after '-'", t)
            text += "-" + self.name()
            end = t.col + len(t.text)
        return text

    def names(self) -> tuple[str, ...]:
        out = []
        while self.at("name"):
            out.append(self.name())
        return tuple(out)

    def int_list(self) -> tuple[int, ...]:
        out = []
        while self.at("number"):
            out.append(self.integer())
        return tuple(out)

    def num_list(self) -> tuple[Fraction, ...]:
        out = []
        while self.at("number") or self.at("op", "-"):
            out.append(self.number())
        return tuple(out)

    # -- expressions -------------------------------------------------------

    def expression(self, spectrum: Spectrum) -> LocalForm:
        a = self.term(spectrum)
        while self.at("op", "+") or self.at("op", "-"):
            if self.next().text == "+":
                a = a + self.term(spectrum)
            else:
                a = a - self.term(spectrum)
        return a

    def term(self, spectrum: Spectrum) -> LocalForm:
        a = self.factor(spectrum)
        while self.at("op", "*") or self.at("op", "^"):
            self.next()
            a = forms.wedge(a, self.factor(spectrum))
        return a

    def factor(self, spectrum: Spectrum) -> LocalForm:
        if self.at("op", "-"):
            self.next()
            return self.factor(spectrum).scale(-1)
        return self.atom(spectrum)

    def atom(self, spectrum: Spectrum) -> LocalForm:
        dim = spectrum.dim
        if self.at("op", "("):
            self.next()
            a = self.expression(spectrum)
            self.expect("op", ")")
            return a
        if self.at("number"):
            return forms.scalar_form(dim, self.fraction(self.next()))
        t = self.peek()
        if t.kind != "name":
            self.fail(f"expected an expression, got {_shown(t)}")
        word = self.next().text
        if word == "vol":
            return forms.volume(dim)
        if word == "dx":
            j = self.bracketed_index(dim)
            return forms.dx(dim, j)
        if word == "x":
            j = self.bracketed_index(dim)
            return forms.scalar_form(
                dim, GradedScalar.generator(kernel.coord_gen(j)))
        if word in ("d", "del"):
            self.expect("op", "(")
            a = self.expression(spectrum)
            self.expect("op", ")")
            return forms.d(a) if word == "d" else forms.delta(a)
        if word == "ib":
            self.expect("op", "(")
            j = self.integer()
            if not 0 <= j < dim:
                self.fail(f"direction {j} out of range for dimension {dim}", t)
            self.expect("op", ",")
            arg = self.peek()
            a = self.expression(spectrum)
            if not a.is_zero() and a.vdeg() != 0:
                self.fail("ib(j, ...) takes a horizontal form", arg)
            self.expect("op", ")")
            return forms.interior_coordinate(a, j)
        if word in spectrum.parameters:
            return forms.scalar_form(dim, kernel.parameter(word))
        try:
            spectrum.field(word)
        except KeyError:
            self.fail(f"unknown name {word!r}", t)
        g = self.jet_of(spectrum, word, t)
        return forms.scalar_form(dim, GradedScalar.generator(g))

    def bracketed_index(self, dim: int) -> int:
        self.expect("op", "[")
        t = self.peek()
        j = self.integer()
        self.expect("op", "]")
        if not 0 <= j < dim:
            self.fail(f"direction {j} out of range for dimension {dim}", t)
        return j

    def jet_indices(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        comp: tuple[int, ...] = ()
        mi: tuple[int, ...] = ()
        if self.at("op", "["):
            self.next()
            comp = self.int_list()
            self.expect("op", "]")
        if self.at("op", ",") and self.at("op", "[", ahead=1):
            self.next()
            self.next()
            mi = self.int_list()
            self.expect("op", "]")
        return comp, mi

    def jet_generator(self, spectrum: Spectrum) -> kernel.Gen:
        t = self.peek()
        word = self.name()
        if word in _RESERVED or word in spectrum.parameters:
            self.fail(f"{word!r} is not a field", t)
        try:
            spectrum.field(word)
        except KeyError:
            self.fail(f"unknown field {word!r}", t)
        return self.jet_of(spectrum, word, t)

    def jet_of(self, spectrum: Spectrum, word: str, t: Token) -> kernel.Gen:
        """The jet variable of field ``word`` named by the indices that follow."""
        shape = spectrum.field(word).shape
        comp, mi = self.jet_indices()
        if len(comp) != len(shape):
            self.fail(f"field {word!r} takes {len(shape)} component "
                      f"labels, got {len(comp)}", t)
        for j in mi:
            if j >= spectrum.dim:
                self.fail(f"direction {j} out of range for dimension "
                          f"{spectrum.dim}", t)
        try:
            return kernel.jet_gen(spectrum, word, comp, mi)
        except ValueError as e:
            self.fail(str(e), t)

    def scalar_expression(self, spectrum: Spectrum) -> GradedScalar:
        t = self.peek()
        a = self.expression(spectrum)
        if a.is_zero():
            return kernel.ZERO
        if a.bidegree() != (0, 0):
            self.fail("expected a scalar expression", t)
        return a.terms[((), ())]

    # -- attribute blocks --------------------------------------------------

    def attributes(self, readers: dict[str, Callable[[], Any]],
                   ) -> dict[str, Any]:
        """``{ key value, key value }``: each value is read in place by its
        key's reader and must end at ``,`` or ``}``."""
        self.expect("op", "{")
        out: dict[str, Any] = {}
        while not self.at("op", "}"):
            if out:
                self.expect("op", ",")
            t = self.peek()
            key = self.name()
            if key not in readers:
                self.fail(f"unknown attribute {key!r}", t)
            if key in out:
                self.fail(f"duplicate attribute {key!r}", t)
            start = self.pos
            out[key] = readers[key]()
            if self.pos == start:
                self.fail(f"attribute {key!r} has no value", t)
        self.next()
        return out

    def field_spec(self, dim: int) -> FieldSpec:
        t = self.peek()
        fname = self.name()
        if fname in _RESERVED:
            self.fail(f"{fname!r} is reserved", t)
        attrs = self.attributes({
            "parity": self.integer, "ghost": self.signed_integer,
            "role": self.name, "shape": self.int_list,
            "conjugate": self.name, "slots": self.names,
            "factor": lambda: self.form_factor(dim)})
        for req in ("parity", "ghost", "role"):
            if req not in attrs:
                self.fail(f"field {fname!r} is missing {req!r}", t)
        attrs["slot_kinds"] = attrs.pop("slots", None)
        attrs["form_factor"] = attrs.pop("factor", None)
        try:
            return FieldSpec(fname, **attrs)
        except ValueError as e:
            self.fail(str(e), t)

    def form_factor(self, dim: int) -> LocalForm:
        t = self.peek()
        a = self.expression(Spectrum(dim, []))
        for (_, contacts), s in a.terms.items():
            if contacts or set(s.terms) != {()}:
                self.fail("factor must be a constant horizontal form", t)
        return a

    def densities(self, spectrum: Spectrum) -> dict[str, LocalForm]:
        """The ``density name = expression`` lines that follow."""
        out: dict[str, LocalForm] = {}
        while self.at("name", "density"):
            self.next()
            t = self.peek()
            dname = self.name()
            if dname in out:
                self.fail(f"duplicate density {dname!r}", t)
            self.expect("op", "=")
            out[dname] = self.expression(spectrum)
            self.end_line()
        return out

    # -- model files -------------------------------------------------------

    def model_file(self) -> model.Model:
        self.skip_blank()
        self.expect("name", "model")
        mname = self.word()
        self.end_line()

        self.expect("name", "dim")
        dim = self.integer()
        self.end_line()

        metric = None
        if self.at("name", "metric"):
            self.next()
            metric = self.num_list()
            if len(metric) != dim:
                self.fail(f"metric needs {dim} entries")
            self.end_line()

        parameters = []
        while self.at("name", "parameter"):
            self.next()
            parameters.append(self.name())
            self.end_line()

        fields = []
        field_toks: dict[str, Token] = {}
        while self.at("name", "field"):
            t = self.next()
            fields.append(self.field_spec(dim))
            field_toks.setdefault(fields[-1].name, t)
            self.end_line()

        algebra: dict[str, Any] = {}
        algebra_tok = None
        if self.at("name", "algebra"):
            algebra_tok = self.next()
            algebra = self.attributes({"constants": self.name,
                                       "form": self.num_list})
            self.end_line()

        try:
            spectrum = Spectrum(dim, fields, metric=metric,
                                parameters=tuple(parameters),
                                algebra_form=algebra.get("form"))
        except kernel.DeclarationError as e:
            self.fail(str(e), (e.algebra and algebra_tok) or field_toks[e.field])
        except ValueError as e:
            self.fail(str(e))

        self.expect("name", "structure")
        t = self.peek()
        structure_kind = self.word()
        if structure_kind not in symplectic.KIND_RULES:
            self.fail(f"unknown structure kind {structure_kind!r}; expected "
                      f"one of {', '.join(sorted(symplectic.KIND_RULES))}", t)
        self.end_line()

        densities = self.densities(spectrum)

        self.expect("name", "master")
        master = self.name()
        self.end_line()

        fol = None
        phase_densities: dict[str, LocalForm] = {}
        if self.at("name", "foliation"):
            self.next()
            fol, phase_densities = self.foliation_block(spectrum)
            self.end_line()

        self.expect("eof")
        try:
            return model.Model(mname, spectrum, structure_kind, densities,
                               master, foliation=fol,
                               phase_densities=phase_densities,
                               algebra_constants=algebra.get("constants"))
        except (model.ModelError, foliation.FoliationError, ValueError) as e:
            self.fail(str(e), self.toks[0])

    def foliation_block(self, spectrum: Spectrum,
                        ) -> tuple[foliation.FoliationContext,
                                   dict[str, LocalForm]]:
        start = self.peek()
        self.expect("op", "{")
        self.end_line()

        self.expect("name", "time")
        time = self.int_list()
        if not time:
            self.fail("expected time directions")
        self.end_line()

        field_map: dict[str, str] = {}
        while self.at("name", "map"):
            self.next()
            t = self.peek()
            src = self.name()
            if src not in spectrum.by_name:
                self.fail(f"unknown field {src!r}", t)
            self.expect("arrow")
            dst = self.name()
            if src in field_map:
                self.fail(f"field {src!r} mapped twice", t)
            field_map[src] = dst
            self.end_line()

        spatial_dim = spectrum.dim - len(set(time))
        extras = []
        while self.at("name", "field"):
            self.next()
            extras.append(self.field_spec(spatial_dim))
            self.end_line()

        try:
            spatial = model.phase_spectrum(spectrum, time, field_map, extras)
        except ValueError as e:
            self.fail(str(e), start)

        rules: dict[kernel.Gen, GradedScalar] = {}
        while self.at("name", "phase"):
            self.next()
            t = self.peek()
            g = self.jet_generator(spectrum)
            if g in rules:
                self.fail("duplicate phase rule", t)
            self.expect("assign")
            rules[g] = self.scalar_expression(spatial)
            self.end_line()

        phase_densities = self.densities(spatial)

        self.expect("op", "}")
        try:
            ctx = foliation.FoliationContext(spectrum, spatial, tuple(time),
                                             field_map, rules)
        except foliation.FoliationError as e:
            self.fail(str(e), start)
        return ctx, phase_densities


def parse_model(text: str) -> model.Model:
    """Parse a model file into a validated Model."""
    return _Parser(tokenize(text)).model_file()


def parse_expression(text: str, spectrum: Spectrum) -> LocalForm:
    """Parse a single local-form expression over the given spectrum."""
    p = _Parser(tokenize(text))
    p.skip_blank()
    a = p.expression(spectrum)
    p.skip_blank()
    p.expect("eof")
    return a
