"""Deterministic plain-text rendering of scalars and local forms.

Output grammar, by example:

    3/2*k*x0*A[1]_0^2      scalar term: coefficient, parameters, coordinates,
                           jet variables (field[component]_derivatives)
    dx0^dx2                horizontal generators
    d(A[1]_0)              contact generator (vertical differential of a jet
                           variable)
    (C*A[0])*dx1^d(A[0])   form term: scalar block, then form generators

Terms are emitted in a fixed canonical order, so equal objects always render
to identical strings.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import kernel


def gen_str(g: kernel.Gen) -> str:
    rank = g[0]
    if rank == 0:
        return g[1]
    if rank == 1:
        return f"x{g[1]}"
    if rank == 2:
        name = kernel.jet_name(g)
        comp = kernel.jet_comp(g)
        mi = kernel.jet_mi(g)
        s = name
        if comp:
            s += "[" + ",".join(str(c) for c in comp) + "]"
        if mi:
            if all(i < 10 for i in mi):
                s += "_" + "".join(str(i) for i in mi)
            else:
                s += "_" + ",".join(str(i) for i in mi)
        return s
    if rank == 3:
        return g[1]
    raise ValueError(f"unknown generator {g!r}")


def mono_str(m: kernel.Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for g, e in m:
        s = gen_str(g)
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


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


def _ordered(s: "kernel.GradedScalar") -> list:
    return sorted(s.terms.items(), key=lambda t: kernel.mono_sort_key(t[0]))


def scalar_str(s: "kernel.GradedScalar") -> str:
    return signed_sum(_ordered(s), mono_str)


def key_str(dxs: Sequence[int], contacts: Sequence[kernel.Gen]) -> str:
    parts = [f"dx{i}" for i in dxs]
    parts += [f"d({gen_str(g)})" for g in contacts]
    return "^".join(parts)


def form_str(form) -> str:
    """Render a LocalForm (anything with a .terms mapping keyed by
    (dxs, contacts) with GradedScalar values).  A one-term coefficient
    joins its key as a signed product; a longer one is parenthesized."""
    chunks = []
    for (dxs, contacts) in sorted(form.terms):
        s = form.terms[(dxs, contacts)]
        ks = key_str(dxs, contacts)
        if not ks:
            chunks += [(mono_str(m) if m else "", c) for m, c in _ordered(s)]
        elif len(s.terms) == 1:
            ((m, c),) = s.terms.items()
            chunks.append((f"{mono_str(m)}*{ks}" if m else ks, c))
        else:
            chunks.append((f"({scalar_str(s)})*{ks}", 1))
    return signed_sum(chunks, str)
