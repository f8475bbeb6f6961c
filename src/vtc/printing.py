"""Deterministic plain-text rendering in the model language.

Generators, scalars and local forms print in the surface syntax of model
files, so reprs, error messages and reports all name things the way a
model is written, and a printed scalar or form parses back to an equal
one (``parser.parse_expression``).  By example:

    3/2*k*x[0]*A[1],[0]*A[1],[0]   scalar term: coefficient, then factors,
                                   each power written out; a jet variable
                                   is field[components],[derivatives]
    dx[0] ^ dx[2]                  horizontal generators
    del(A[1],[0])                  contact generator (vertical differential
                                   of a jet variable)
    (A[0] + A[1]) ^ dx[1] ^ del(A[0])   form term: scalar coefficient,
                                   then form generators

Auxiliary generators, which no model file declares, print by name.  Terms
are emitted in a fixed canonical order, so equal objects always render to
identical strings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import kernel

if TYPE_CHECKING:
    from .forms import LocalForm


# A power of ten with fewer digits than any limit on int-to-str conversion
# Python allows (``sys.set_int_max_str_digits`` takes 0 or at least 640).
_CHUNK_DIGITS = 500
_CHUNK = 10 ** _CHUNK_DIGITS


def int_text(n: int) -> str:
    """The decimal text of an int of any size, as ``int.__repr__`` writes
    it.  That refuses more than ``sys.get_int_max_str_digits()`` digits;
    only then are the digits cut off by divmod, a chunk at a time."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    sign, rest = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(int.__repr__(rest))
    return sign + "".join(reversed(chunks))


def number_text(q: kernel.Coefficient) -> str:
    """``str`` of an exact coefficient, an int or a Fraction, of any size."""
    text = int_text(q.numerator)
    return text if q.denominator == 1 else f"{text}/{int_text(q.denominator)}"


def index_text(t: Sequence[int]) -> str:
    """Indices separated by spaces, as in ``A[0 1]`` or ``time 0``."""
    return " ".join(str(i) for i in t)


def gen_text(g: kernel.Gen) -> str:
    """A single generator in surface syntax."""
    if g[0] == 1:
        return f"x[{g[1]}]"
    if g[0] != 2:  # a parameter or an auxiliary, by name
        return g[1]
    s = kernel.jet_name(g)
    comp = kernel.jet_comp(g)
    mi = kernel.jet_mi(g)
    if comp:
        s += f"[{index_text(comp)}]"
    if mi:
        s += f",[{index_text(mi)}]"
    return s


def scalar_walk(s: kernel.GradedScalar) -> list[tuple]:
    """A scalar's (factor texts, coefficient) pairs in canonical order,
    each power of a generator written out as that many factors."""
    return [([gen_text(g) for g, p in m for _ in range(p)], c)
            for m, c in sorted(s.terms.items())]


def form_walk(a: LocalForm) -> list[tuple]:
    """A form's terms in canonical order, each generator spelled once: per
    term its dx directions, its contact texts and its ``scalar_walk``.

    ``form_text`` renders this walk, and a report's term list is built
    from the same one."""
    return [(dxs, [gen_text(g) for g in contacts], scalar_walk(s))
            for (dxs, contacts), s in sorted(a.terms.items())]


def sum_text(pairs: Iterable[tuple[list[str], kernel.Coefficient]]) -> str:
    """Join ordered (factor texts, coefficient) pairs into a signed sum.

    A unit coefficient is left out and an empty monomial prints as its
    coefficient; the first term carries its own minus sign, and every later
    negative term is joined with " - "."""
    out = ""
    for factors, c in pairs:
        a, body = abs(c), "*".join(factors)
        if not body:
            body = number_text(a)
        elif a != 1:
            body = f"{number_text(a)}*{body}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = "-" + body if c < 0 else body
    return out or "0"


def scalar_text(s: kernel.GradedScalar) -> str:
    """A graded scalar in surface syntax."""
    return sum_text(scalar_walk(s))


def walk_text(walk: list[tuple]) -> str:
    """A ``form_walk`` in surface syntax."""
    parts = []
    for dxs, contacts, pairs in walk:
        text = sum_text(pairs)
        if len(pairs) != 1 or text.startswith("-"):
            text = f"({text})"  # a sum or a negative coefficient, as a factor
        factors = [f"dx[{j}]" for j in dxs] + [f"del({c})" for c in contacts]
        if text != "1" or not factors:
            factors.insert(0, text)
        parts.append(" ^ ".join(factors))
    return " + ".join(parts) or "0"


def form_text(a: LocalForm) -> str:
    """A local form in surface syntax."""
    return walk_text(form_walk(a))


def component_texts(components: Mapping[kernel.Gen, kernel.GradedScalar],
                    ) -> dict[str, str]:
    """Scalars keyed by generator text, in generator order: the components
    of an evolutionary field, a master check's residual, or a foliation's
    jet rules."""
    return {gen_text(g): scalar_text(v)
            for g, v in sorted(components.items())}
