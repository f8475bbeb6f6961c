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

from fractions import Fraction
from typing import Sequence

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


def scalar_str(s: "kernel.GradedScalar") -> str:
    if not s.terms:
        return "0"
    items = sorted(s.terms.items(), key=lambda t: kernel.mono_sort_key(t[0]))
    chunks = []
    for m, c in items:
        if not m:
            body = str(c)
        elif c == 1:
            body = mono_str(m)
        elif c == -1:
            body = "-" + mono_str(m)
        else:
            body = f"{c}*{mono_str(m)}"
        chunks.append(body)
    out = chunks[0]
    for body in chunks[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def key_str(dxs: Sequence[int], contacts: Sequence[kernel.Gen]) -> str:
    parts = [f"dx{i}" for i in dxs]
    parts += [f"d({gen_str(g)})" for g in contacts]
    return "^".join(parts)


def form_str(form) -> str:
    """Render a LocalForm (anything with a .terms mapping keyed by
    (dxs, contacts) with GradedScalar values)."""
    if not form.terms:
        return "0"
    chunks = []
    for (dxs, contacts) in sorted(form.terms):
        s = form.terms[(dxs, contacts)]
        ks = key_str(dxs, contacts)
        if not ks:
            chunks.append(scalar_str(s))
            continue
        if s.terms == {kernel.ONE_MONO: Fraction(1)}:
            chunks.append(ks)
        elif s.terms == {kernel.ONE_MONO: Fraction(-1)}:
            chunks.append("-" + ks)
        elif len(s.terms) == 1:
            chunks.append(f"{scalar_str(s)}*{ks}")
        else:
            chunks.append(f"({scalar_str(s)})*{ks}")
    out = chunks[0]
    for body in chunks[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out
