"""Built-in example models: Maxwell electrodynamics and chiral bosons.

Both are constructed programmatically here; the text renderings shipped
next to the package data are generated from these constructions, so the
parsed and programmatic models coincide.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources

from . import forms, foliation, kernel, model
from .forms import LocalForm, dressed
from .kernel import (EVEN, FieldSpec, ODD, ROLE_ANTIFIELD, ROLE_FIELD,
                     ROLE_SOURCE, Spectrum)
from .model import Model, phase_spectrum, structure_constants

ETA = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1))


def maxwell() -> Model:
    """Gauge electrodynamics on Minkowski space with its time slicing."""
    sp = Spectrum(4, [
        FieldSpec("A", EVEN, 0, ROLE_FIELD, (4,)),
        FieldSpec("C", ODD, 1, ROLE_FIELD, ()),
        FieldSpec("As", ODD, -1, ROLE_ANTIFIELD, (4,), conjugate="A"),
        FieldSpec("Cs", EVEN, -2, ROLE_ANTIFIELD, (), conjugate="C"),
    ], metric=ETA)

    def A(mu, *dd):
        return kernel.jet(sp, "A", (mu,), dd)

    def As(mu, *dd):
        return kernel.jet(sp, "As", (mu,), dd)

    C = kernel.jet(sp, "C")

    def F(mu, nu, *dd):
        return A(nu, mu, *dd) - A(mu, nu, *dd)

    L = kernel.ZERO
    for mu in range(4):
        for nu in range(4):
            L = L - Fraction(1, 4) * ETA[mu] * ETA[nu] * F(mu, nu) * F(mu, nu)
    for mu in range(4):
        L = L - ETA[mu] * C * As(mu, mu)
    S = forms.wedge(forms.scalar_form(4, L), forms.volume(4))

    extras = (FieldSpec("E", EVEN, 0, ROLE_SOURCE, (3,)),
              FieldSpec("lam", EVEN, 0, ROLE_FIELD, ()),
              FieldSpec("Cd", ODD, 1, ROLE_FIELD, ()))
    field_map = {"A": "A", "C": "C", "As": "As", "Cs": "Cs"}
    spl = phase_spectrum(sp, (0,), field_map, extras)

    def A3(i, *dd):
        return kernel.jet(spl, "A", (i,), dd)

    def E3(i, *dd):
        return kernel.jet(spl, "E", (i,), dd)

    rules = {kernel.jet_gen(sp, "A", (0,), (0,)): kernel.jet(spl, "lam"),
             kernel.jet_gen(sp, "C", (), (0,)): kernel.jet(spl, "Cd")}
    for i in (1, 2, 3):
        rules[kernel.jet_gen(sp, "A", (i,), (0,))] = A3(0, i - 1) - E3(i - 1)
    F_ctx = foliation.FoliationContext(sp, spl, (0,), field_map, rules)

    h = kernel.ZERO
    for i in range(3):
        h = h + Fraction(1, 2) * E3(i) * E3(i)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            fij = A3(j, i - 1) - A3(i, j - 1)
            h = h + Fraction(1, 4) * fij * fij
    H = forms.wedge(forms.scalar_form(3, h), forms.volume(3))

    return Model("maxwell", sp, "odd-BV", {"S": S}, "S",
                 foliation=F_ctx, phase_densities={"H": H})


DXP = ((1, (0,)), (1, (1,)))          # dx^0 + dx^1
DXM = ((1, (0,)), (-1, (1,)))         # dx^0 - dx^1
DXPM = ((-2, (0, 1)),)                # (dx^0+dx^1) ^ (dx^0-dx^1)


def chiral() -> Model:
    """su(2) chiral bosons with symbolic level k and a one-dimensional leaf."""
    sp = Spectrum(2, [
        FieldSpec("phi", EVEN, 0, ROLE_FIELD, (3,), slot_kinds=("internal",),
                  form_factor=DXP),
        FieldSpec("eta", ODD, -1, ROLE_FIELD, (3,), slot_kinds=("internal",),
                  form_factor=DXPM),
        FieldSpec("phib", EVEN, 0, ROLE_SOURCE, (3,), slot_kinds=("internal",),
                  conjugate="phi", form_factor=DXM),
        FieldSpec("etab", ODD, 1, ROLE_SOURCE, (3,), slot_kinds=("internal",),
                  conjugate="eta"),
    ], parameters=("k",), algebra_form=(1, 1, 1))
    eps = structure_constants(model.SU2)
    K = kernel.parameter("k")

    def etab(i):
        return forms.scalar_form(2, kernel.jet(sp, "etab", (i,)))

    O = LocalForm.zero(2)
    for i in range(3):
        O = O + forms.wedge(etab(i), forms.d(dressed(sp, "phi", (i,))))
        O = O + forms.wedge(etab(i),
                            forms.d(dressed(sp, "phib", (i,)))).scale(K)
    for (i, j, kk), s in sorted(eps.items()):
        O = O + forms.wedge_all([etab(i), dressed(sp, "phi", (j,)),
                                 dressed(sp, "phib", (kk,))]).scale(s)
        O = O + forms.wedge_all([dressed(sp, "eta", (i,)), etab(j),
                                 etab(kk)]).scale(s * Fraction(1, 2))

    field_map = {"phi": "phi", "phib": "phib", "etab": "etab"}
    spl = phase_spectrum(sp, (0,), field_map)
    F_ctx = foliation.FoliationContext(sp, spl, (0,), field_map)

    return Model("chiral", sp, "even-cotangent", {"O": O}, "O",
                 foliation=F_ctx, algebra_constants=model.SU2)


BUILTINS = {"maxwell": maxwell, "chiral": chiral}


def builtin(name: str) -> Model:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise model.ModelError(f"unknown built-in model {name!r}") from None


def model_text(name: str) -> str:
    """Shipped text rendering of a built-in model."""
    if name not in BUILTINS:
        raise model.ModelError(f"unknown built-in model {name!r}")
    return resources.files(__package__).joinpath(
        f"models/{name}.vtc").read_text(encoding="utf-8")
