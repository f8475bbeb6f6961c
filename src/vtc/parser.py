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
indices).  Those atom names are reserved; ``#`` starts a comment.  Any
character outside the grammar is an error at its own line and column.  The
canonical rendering produced by ``model.print_model`` parses back to an
equal model.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from . import foliation, forms, kernel, model, symplectic
from .forms import LocalForm
from .kernel import FieldSpec, GradedScalar, Spectrum


class ParseError(Exception):
    """Bad surface syntax, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# Every character of a text falls in one match: ``bad`` takes any character
# the grammar has no token for, so a blank is ASCII whitespace only.
_TOKEN_RE = re.compile(r"""
    (?P<blank>[ \t\r\f\v]+|\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<assign>:=)
  | (?P<op>[{}()\[\],=+\-*^])
  | (?P<bad>.)
""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, closed by an ``nl`` and an ``eof`` token."""
    toks: list[Token] = []
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        col = m.start() - start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        toks.append(Token(kind, m.group(), line, col))
        if kind == "nl":
            line += 1
            start = m.end()
    toks.append(Token("nl", "\n", line, len(text) - start + 1))
    toks.append(Token("eof", "", line + 1, 1))
    return toks


_RESERVED = {"dx", "x", "vol", "del", "d", "ib"}

# How an error message names the tokens that have no text of their own.
_ENDS = {"nl": "end of line", "eof": "end of file"}
# How an error message names what a token kind must be, when any text of
# that kind will do.
_WANTED = _ENDS | {"name": "a name", "number": "a number", "arrow": "'->'",
                   "assign": "':='"}


# How deep an expression may nest.  Each level costs the recursive descent
# at most four frames, so the deepest expression stays far below Python's
# default recursion limit of 1000 frames wherever the parser is called from,
# and whether an input parses does not depend on that limit.
MAX_NESTING = 100


def _shown(t: Token) -> str:
    return _ENDS.get(t.kind) or repr(t.text)


class _Parser:
    def __init__(self, toks: Sequence[Token]):
        # closed by the ``eof`` token, which ``next`` never passes
        self.toks = toks
        self.pos = 0
        # the levels of nesting open at the current token (``opened``)
        self.nesting = 0
        # the keyword token of each declaration, keyed by the
        # (declaration, name) pair a kernel.DeclarationError names
        self.declarations: dict[tuple[str, Optional[str]], Token] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str, t: Optional[Token] = None):
        t = t or self.peek()
        raise ParseError(message, t.line, t.col)

    def declared(self, build: Callable[[], Any],
                 at: Optional[Token] = None) -> Any:
        """``build()``, failing at ``at`` on a ``kernel.DeclarationError``
        or a ``foliation.FoliationError``, or else at the keyword of the
        declaration it names: the named one, else the unnamed one of its
        kind (the ``algebra`` line, for the algebra form a field's internal
        slot needs), else that field."""
        try:
            return build()
        except (kernel.DeclarationError, foliation.FoliationError) as e:
            d = self.declarations
            self.fail(str(e), at or d.get((e.declaration, e.name))
                      or d.get((e.declaration, None))
                      or d.get(("field", e.name)))

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

    def lines(self, keyword: str) -> Iterator[Token]:
        """The keyword token of each line of a run that starts with
        ``keyword``; the caller reads the rest of the line."""
        while self.at("name", keyword):
            yield self.next()
            self.end_line()

    # -- small shared pieces ----------------------------------------------

    def literal(self, read: Callable[[str], Any], t: Token) -> Any:
        """``read`` of a number token's text; a literal with more digits
        than Python converts (``sys.get_int_max_str_digits``) fails at
        its token."""
        try:
            return read(t.text)
        except ValueError:
            self.fail(f"number has more than {sys.get_int_max_str_digits()} "
                      "digits", t)

    def integer(self) -> int:
        t = self.peek()
        if t.kind != "number" or "/" in t.text:
            self.fail(f"expected an integer, got {_shown(t)}", t)
        return self.literal(int, self.next())

    def rational(self) -> Fraction:
        """A rational literal, with nonzero denominator."""
        t = self.expect("number")
        if re.fullmatch(r"[0-9]+/0+", t.text):
            self.fail(f"zero denominator in {t.text!r}", t)
        return self.literal(Fraction, t)

    def signed(self, read: Callable[[], Any]) -> Any:
        """``read()``, negated after a minus sign."""
        if self.at("op", "-"):
            self.next()
            return -read()
        return read()

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

    def many(self, read: Callable[[], Any], kind: str,
             signed: bool) -> tuple[Any, ...]:
        """The items ``read`` reads while the next token is of ``kind``, or
        is a minus sign when the items are ``signed``."""
        out = []
        while self.at(kind) or signed and self.at("op", "-"):
            out.append(self.signed(read))
        return tuple(out)

    def direction(self, j: int, dim: int, t: Token) -> int:
        """Coordinate direction ``j`` of dimension ``dim``; one out of
        range fails at ``t``."""
        if not 0 <= j < dim:
            self.fail(f"direction {j} out of range for dimension {dim}", t)
        return j

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

    def opened(self, t: Token) -> None:
        """Enter the level of nesting that ``t`` opens: a parenthesis,
        ``d(``, ``del(``, ``ib(`` or a unary minus.  The level past
        MAX_NESTING fails at ``t``."""
        if self.nesting == MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} levels deep", t)
        self.nesting += 1

    def closed(self) -> None:
        """Leave the level of nesting opened last."""
        self.nesting -= 1

    def factor(self, spectrum: Spectrum) -> LocalForm:
        if self.at("op", "-"):
            self.opened(self.next())
            a = self.factor(spectrum).scale(-1)
            self.closed()
            return a
        return self.atom(spectrum)

    def atom(self, spectrum: Spectrum) -> LocalForm:
        dim = spectrum.dim
        if self.at("op", "("):
            self.opened(self.next())
            a = self.expression(spectrum)
            self.expect("op", ")")
            self.closed()
            return a
        if self.at("number"):
            return forms.scalar_form(dim, self.rational())
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
            return forms.scalar_form(dim, kernel.x(j))
        if word in ("d", "del"):
            self.expect("op", "(")
            self.opened(t)
            a = self.expression(spectrum)
            self.expect("op", ")")
            self.closed()
            return forms.d(a) if word == "d" else forms.delta(a)
        if word == "ib":
            self.expect("op", "(")
            self.opened(t)
            j = self.direction(self.integer(), dim, t)
            self.expect("op", ",")
            arg = self.peek()
            a = self.expression(spectrum)
            if not a.is_zero() and a.vdeg() != 0:
                self.fail("ib(j, ...) takes a horizontal form", arg)
            self.expect("op", ")")
            self.closed()
            return forms.interior_coordinate(a, j)
        if word in spectrum.parameters:
            return forms.scalar_form(dim, kernel.parameter(word))
        g = self.jet_of(spectrum, t, "name")
        return forms.scalar_form(dim, GradedScalar.generator(g))

    def bracketed_index(self, dim: int) -> int:
        self.expect("op", "[")
        t = self.peek()
        j = self.integer()
        self.expect("op", "]")
        return self.direction(j, dim, t)

    def jet_indices(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        comp: tuple[int, ...] = ()
        mi: tuple[int, ...] = ()
        if self.at("op", "["):
            self.next()
            comp = self.many(self.integer, "number", False)
            self.expect("op", "]")
        if self.at("op", ",") and self.at("op", "[", ahead=1):
            self.next()
            self.next()
            mi = self.many(self.integer, "number", False)
            self.expect("op", "]")
        return comp, mi

    def jet_generator(self, spectrum: Spectrum) -> kernel.Gen:
        t = self.peek()
        word = self.name()
        if word in _RESERVED or word in spectrum.parameters:
            self.fail(f"{word!r} is not a field", t)
        return self.jet_of(spectrum, t, "field")

    def jet_of(self, spectrum: Spectrum, t: Token, what: str) -> kernel.Gen:
        """The jet variable of the field that name token ``t`` names, at the
        indices that follow; any other name fails at ``t`` as an unknown
        ``what``."""
        f = spectrum.by_name.get(t.text)
        if f is None:
            self.fail(f"unknown {what} {t.text!r}", t)
        comp, mi = self.jet_indices()
        if len(comp) != len(f.shape):
            self.fail(f"field {f.name!r} takes {len(f.shape)} component "
                      f"labels, got {len(comp)}", t)
        for j in mi:
            self.direction(j, spectrum.dim, t)
        try:
            return kernel.field_jet(spectrum, f, comp, mi)
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

    def field_spec(self, base: Spectrum) -> FieldSpec:
        """A field's name and attribute block; a ``factor`` is a form over
        ``base``."""
        t = self.peek()
        fname = self.name()
        if fname in _RESERVED:
            self.fail(f"{fname!r} is reserved", t)
        attrs = self.attributes({
            "parity": self.integer, "ghost": lambda: self.signed(self.integer),
            "role": self.name,
            "shape": lambda: self.many(self.integer, "number", False),
            "conjugate": self.name,
            "slots": lambda: self.many(self.name, "name", False),
            "factor": lambda: self.form_factor(base)})
        for req in ("parity", "ghost", "role"):
            if req not in attrs:
                self.fail(f"field {fname!r} is missing {req!r}", t)
        attrs["slot_kinds"] = attrs.pop("slots", None)
        attrs["form_factor"] = attrs.pop("factor", None)
        return self.declared(lambda: FieldSpec(fname, **attrs), t)

    def form_factor(self, base: Spectrum) -> LocalForm:
        t = self.peek()
        a = self.expression(base)
        for (_, contacts), s in a.terms.items():
            if contacts or set(s.terms) != {()}:
                self.fail("factor must be a constant horizontal form", t)
        return a

    def densities(self, spectrum: Spectrum,
                  declaration: str) -> dict[str, LocalForm]:
        """The ``density name = expression`` lines that follow."""
        out: dict[str, LocalForm] = {}
        for kw in self.lines("density"):
            t = self.peek()
            dname = self.name()
            if dname in out:
                self.fail(f"duplicate density {dname!r}", t)
            self.declarations[declaration, dname] = kw
            self.expect("op", "=")
            out[dname] = self.expression(spectrum)
        return out

    # -- model files -------------------------------------------------------

    def model_file(self) -> model.Model:
        self.skip_blank()
        self.expect("name", "model")
        mname = self.word()
        self.end_line()

        self.declarations["dim", None] = self.expect("name", "dim")
        dim = self.integer()
        self.end_line()

        metric = None
        if self.at("name", "metric"):
            self.declarations["metric", None] = self.next()
            metric = self.many(self.rational, "number", True)
            self.end_line()
        header = self.declared(lambda: Spectrum(dim, [], metric=metric))

        parameters = [self.name() for _ in self.lines("parameter")]

        fields = []
        for kw in self.lines("field"):
            fields.append(self.field_spec(header))
            self.declarations["field", fields[-1].name] = kw

        algebra: dict[str, Any] = {}
        if self.at("name", "algebra"):
            self.declarations["algebra", None] = self.next()
            algebra = self.attributes({
                "constants": self.name,
                "form": lambda: self.many(self.rational, "number", True)})
            self.end_line()

        spectrum = self.declared(lambda: Spectrum(
            dim, fields, metric=metric, parameters=tuple(parameters),
            algebra_form=algebra.get("form")))

        self.expect("name", "structure")
        t = self.peek()
        structure_kind = self.word()
        if structure_kind not in symplectic.KIND_RULES:
            self.fail(f"unknown structure kind {structure_kind!r}; expected "
                      f"one of {', '.join(sorted(symplectic.KIND_RULES))}", t)
        self.end_line()

        densities = self.densities(spectrum, "density")

        self.declarations["master", None] = self.expect("name", "master")
        master = self.name()
        self.end_line()

        fol = None
        phase_densities: dict[str, LocalForm] = {}
        if self.at("name", "foliation"):
            self.declarations["foliation", None] = self.next()
            fol, phase_densities = self.foliation_block(spectrum)
            self.end_line()

        self.expect("eof")
        return self.declared(lambda: model.Model(
            mname, spectrum, structure_kind, densities, master, foliation=fol,
            phase_densities=phase_densities,
            algebra_constants=algebra.get("constants")))

    def foliation_block(self, spectrum: Spectrum,
                        ) -> tuple[foliation.FoliationContext,
                                   dict[str, LocalForm]]:
        start = self.peek()
        self.expect("op", "{")
        self.end_line()

        self.expect("name", "time")
        # signed, so that check_time_directions names a negative direction
        time = self.many(self.integer, "number", True)
        if not time:
            self.fail("expected time directions")
        # first, so the leaf below drops only directions of the base
        self.declared(
            lambda: foliation.check_time_directions(spectrum.dim, time), start)
        self.end_line()

        field_map: dict[str, str] = {}
        for _ in self.lines("map"):
            t = self.peek()
            src = self.name()
            if src not in spectrum.by_name:
                self.fail(f"unknown field {src!r}", t)
            self.expect("arrow")
            dst = self.name()
            if src in field_map:
                self.fail(f"field {src!r} mapped twice", t)
            field_map[src] = dst

        leaf = self.declared(
            lambda: Spectrum(spectrum.dim - len(time), []), start)
        extras = [self.field_spec(leaf) for _ in self.lines("field")]

        spatial = self.declared(
            lambda: model.phase_spectrum(spectrum, time, field_map, extras),
            start)

        rules: dict[kernel.Gen, GradedScalar] = {}
        for _ in self.lines("phase"):
            t = self.peek()
            g = self.jet_generator(spectrum)
            if g in rules:
                self.fail("duplicate phase rule", t)
            self.expect("assign")
            rules[g] = self.scalar_expression(spatial)

        phase_densities = self.densities(spatial, "phase density")

        self.expect("op", "}")
        ctx = self.declared(lambda: foliation.FoliationContext(
            spectrum, spatial, tuple(time), field_map, rules), start)
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
