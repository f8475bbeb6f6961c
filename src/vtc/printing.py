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

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import kernel

if TYPE_CHECKING:
    from .forms import LocalForm


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


def mono_factors(mono: kernel.Monomial) -> list[str]:
    """A monomial's factors in surface syntax, each power written out."""
    return [gen_text(g) for g, p in mono for _ in range(p)]


def signed_sum(terms: Iterable[tuple], spell: Callable) -> str:
    """Join ordered (monomial, coefficient) pairs into a signed sum.

    A unit coefficient is left out and an empty monomial prints as its
    coefficient; the first term carries its own minus sign, and every later
    negative term is joined with " - "."""
    out = ""
    for m, c in terms:
        a = abs(c)
        body = str(a) if not m else spell(m) if a == 1 else f"{a}*{spell(m)}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = "-" + body if c < 0 else body
    return out or "0"


def scalar_text(s: kernel.GradedScalar) -> str:
    """A graded scalar in surface syntax."""
    return signed_sum(sorted(s.terms.items()),
                      lambda m: "*".join(mono_factors(m)))


def form_text(a: LocalForm) -> str:
    """A local form in surface syntax."""
    if a.is_zero():
        return "0"
    parts = []
    for (dxs, contacts), coeff in sorted(a.terms.items()):
        text = scalar_text(coeff)
        if len(coeff.terms) != 1 or text.startswith("-"):
            text = f"({text})"  # a sum or a negative coefficient, as a factor
        factors = [f"dx[{j}]" for j in dxs]
        factors += [f"del({gen_text(g)})" for g in contacts]
        if text != "1" or not factors:
            factors.insert(0, text)
        parts.append(" ^ ".join(factors))
    return " + ".join(parts)
