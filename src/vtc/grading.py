"""Degree gradings, exponential jet-space flows, and derived multibrackets.

This module provides the bookkeeping for the two auxiliary gradings carried
by the jet algebra (the number of source factors and the number of antifield
factors), the formal diffeomorphisms e^X generated by degree-raising
evolutionary fields, a bounded search that homogenizes an inhomogeneous
presymplectic form by such a flow, and the nested-bracket construction that
turns a degree-n generator into an n-ary bracket on degree-0 densities.

Each stage of the homogenizer search solves one linear system: its columns
are candidate fields X_i = m_i * d/d(phi_i), its rows the form monomials of
their Lie images L_{X_i}(leading) and of the residual.  Only the candidates
that can be linked to the residual are imaged.  A row's block label
(``variational.block_key``) counts its factors per field component, and
the labels an image can reach are known before it is computed: contract
trades one phi_i contact for a total derivative of m_i, and neither total
derivatives nor delta change the counts.  Closing the residual's labels
under these predictions picks whole connected components of the system;
the rest is homogeneous, so its coefficients in the reduced row-echelon
solution are 0 and it cannot make the system inconsistent.  The retry
modulo d, taken only when the first solve is inconsistent, runs on the
full row set, as its bounds depend on every row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import forms, kernel, linsolve, symplectic, variational
from .forms import EvoField, LocalForm
from .kernel import Gen, GradedScalar, Spectrum

KIND_MOMENTUM = "momentum"
KIND_POLYVECTOR = "polyvector"


class TruncationError(kernel.EngineError):
    """An exponential series failed to stabilize within its order bound."""


class NoHomogenizerError(kernel.EngineError):
    """The bounded homogenizer search came up empty.

    This reports failure of the search within the configured jet-order and
    polynomial-degree bounds, not nonexistence of a homogenizer.
    """


class ArityError(kernel.EngineError):
    """Multibracket arguments do not match the generator's degree."""


# ---------------------------------------------------------------------------
# Degree splitting and Euler fields
# ---------------------------------------------------------------------------


def degree_split(a: LocalForm, kind: str) -> list[tuple[int, LocalForm]]:
    """Split a form into eigenforms of the chosen counting degree.

    ``kind`` selects which factors are counted: ``"momentum"`` counts source
    variables, ``"polyvector"`` counts antifield variables, in scalar
    coefficients and contact factors alike.  Returns (degree, component)
    pairs in increasing degree; their sum is the input.
    """
    if kind not in kernel.GRADING_ROLES:
        raise ValueError(f"unknown grading kind {kind!r}")
    return sorted(a.weight_split(kind).items())


def counting_field(spectrum: Spectrum, kind: str) -> EvoField:
    """The literal Euler field of a grading: X^a = phi^a on counted fields.

    Its Lie derivative multiplies each homogeneous component by its degree.
    """
    role = kernel.GRADING_ROLES[kind]
    comps: dict[Gen, GradedScalar] = {}
    for f in spectrum.fields:
        if f.role != role:
            continue
        for comp in f.components():
            g = kernel.jet_gen(spectrum, f.name, comp, ())
            comps[g] = GradedScalar.generator(g)
    return EvoField(spectrum, comps, parity=kernel.EVEN, ghost=0,
                    name=f"E[{kind}]")


@dataclass(frozen=True)
class EulerField:
    """A counting field, optionally conjugated by a flow e^X.

    Without a conjugator this is the literal field whose Lie derivative
    reads off the degree.  With one, the field is transported through the
    inverse flow, so that it measures the degree of the flow's image; a
    structure made homogeneous by e^X is an exact eigenform of the result.
    """

    kind: str
    conjugator: Optional[EvoField] = None
    truncation_order: int = 16

    def field(self, spectrum: Spectrum) -> EvoField:
        base = counting_field(spectrum, self.kind)
        if self.conjugator is None or self.conjugator.is_zero():
            return base
        total = base
        term = base
        for k in range(1, self.truncation_order + 1):
            term = forms.scale_field(
                forms.commutator(self.conjugator, term), Fraction(-1, k))
            if term.is_zero():
                return total
            total = forms.add_fields(total, term)
        raise TruncationError(
            f"conjugated Euler field did not stabilize within order "
            f"{self.truncation_order}")


# ---------------------------------------------------------------------------
# Exponential flows
# ---------------------------------------------------------------------------


@dataclass
class HomotopyDiffeo:
    """Formal diffeomorphism of the jet space generated by a vertical field.

    The pullback acts as e^{L_X}; the series must terminate on each input
    within ``truncation_order`` steps, which holds whenever X strictly
    raises a bounded grading (the only case produced here).
    """

    X: EvoField
    truncation_order: int = 16
    certificate: Optional["HomogenizerCertificate"] = None

    def inverse(self) -> "HomotopyDiffeo":
        return HomotopyDiffeo(forms.scale_field(self.X, -1),
                              self.truncation_order)


@dataclass(frozen=True)
class HomogenizerCertificate:
    """Record of a verified homogenization: h*(original) ~ leading mod d."""

    original: LocalForm
    leading: LocalForm
    degree: int
    pulled_back: LocalForm


def pullback(h: HomotopyDiffeo, a: LocalForm) -> LocalForm:
    """Apply the flow's pullback e^{L_X} to a form, term by term.

    Raises TruncationError, reporting the order bound, if the Lie series
    has not terminated after ``truncation_order`` steps.
    """
    total = a
    term = a
    for k in range(1, h.truncation_order + 1):
        term = forms.lie(h.X, term).scale(Fraction(1, k))
        if term.is_zero():
            return total
        total = total + term
    raise TruncationError(
        f"pullback series did not terminate within order {h.truncation_order}")


# ---------------------------------------------------------------------------
# Homogenizer search
# ---------------------------------------------------------------------------


def _ansatz_pool(spectrum: Spectrum, jet_order: int) -> list[Gen]:
    pool: list[Gen] = [kernel.param_gen(p) for p in spectrum.parameters]
    for f in spectrum.fields:
        for comp in f.components():
            for r in range(jet_order + 1):
                for mi in itertools.combinations_with_replacement(
                        range(spectrum.dim), r):
                    pool.append(kernel.jet_gen(spectrum, f.name, comp, mi))
    return sorted(pool)


def _candidate_monomials(pool: Sequence[Gen], poly_degree: int,
                         ) -> dict[tuple[int, int, int, int], list[kernel.Monomial]]:
    """Monomials over the pool bucketed by parity, ghost and counted degrees."""
    info = [(g, kernel.gen_parity(g), kernel.gen_ghost(g)) for g in pool]
    buckets: dict[tuple[int, int, int, int], list[kernel.Monomial]] = {}
    for r in range(1, poly_degree + 1):
        for combo in itertools.combinations_with_replacement(info, r):
            mono: list[tuple[Gen, int]] = []
            ok = True
            for g, p, _ in combo:
                if mono and mono[-1][0] == g:
                    if p:
                        ok = False
                        break
                    mono[-1] = (g, mono[-1][1] + 1)
                else:
                    mono.append((g, 1))
            if not ok:
                continue
            par = sum(p for _, p, _ in combo) % 2
            gh = sum(h for _, _, h in combo)
            srcdeg = kernel.mono_degree(tuple(mono), kernel.ROLE_SOURCE)
            afdeg = kernel.mono_degree(tuple(mono), kernel.ROLE_ANTIFIELD)
            buckets.setdefault((par, gh, srcdeg, afdeg), []).append(tuple(mono))
    return buckets


def _stage_basis(spectrum: Spectrum, kind: str, raise_by: int,
                 buckets: dict) -> list[tuple[Gen, kernel.Monomial]]:
    role = kernel.GRADING_ROLES[kind]
    basis: list[tuple[Gen, kernel.Monomial]] = []
    for f in spectrum.fields:
        own = 1 if f.role == role else 0
        for comp in f.components():
            direction = kernel.jet_gen(spectrum, f.name, comp, ())
            for (par, gh, srcdeg, afdeg), monos in buckets.items():
                if par != f.parity or gh != f.ghost:
                    continue
                counted = srcdeg if kind == KIND_MOMENTUM else afdeg
                if counted != raise_by + own:
                    continue
                basis.extend((direction, m) for m in monos)
    return basis


def _basis_field(spectrum: Spectrum, direction: Gen,
                 mono: kernel.Monomial) -> EvoField:
    return EvoField(spectrum, {direction: GradedScalar({mono: 1})},
                    parity=kernel.EVEN, ghost=0)


def _predicted_labels(leading: LocalForm,
                      basis: Sequence[tuple[Gen, kernel.Monomial]],
                      ) -> list[frozenset]:
    """For each candidate m * d/d(phi), the block labels its image can reach.

    lie(X, L) = contract(X, delta L) +- delta(contract(X, L)), and contract
    trades one contact with base phi for a total derivative of m, which
    keeps m's label, as delta does.  So each image row is labelled
    label(r) - (one phi factor) + label(m) for some row r of L or delta L
    holding a contact with base phi.
    """
    # rows of L and delta L with one contact taken out, by the contact's base
    # and then by label
    reduced: dict[Gen, dict[tuple, variational.MonoKey]] = {}
    for form in (leading, forms.delta(leading)):
        for (dxs, contacts, mono), _ in variational.form_mono_items(form):
            for idx, g in enumerate(contacts):
                rest = (dxs, contacts[:idx] + contacts[idx + 1:], mono)
                reduced.setdefault(kernel.jet_base(g), {}).setdefault(
                    variational.block_key(rest), rest)
    return [frozenset(variational.block_key((dxs, contacts, rest_mono + mono))
                      for dxs, contacts, rest_mono
                      in reduced.get(direction, {}).values())
            for direction, mono in basis]


def _candidates_in_reach(leading: LocalForm, residual: LocalForm,
                         basis: Sequence[tuple[Gen, kernel.Monomial]],
                         ) -> list[int]:
    """Indices of the candidates whose images can be linked to the residual.

    Starting from the residual's labels, take in every candidate whose
    predicted labels meet them, together with all its labels, until nothing
    changes.
    """
    groups: dict[frozenset, list[int]] = {}
    for i, labels in enumerate(_predicted_labels(leading, basis)):
        if labels:
            groups.setdefault(labels, []).append(i)
    reach = {variational.block_key(key)
             for key, _ in variational.form_mono_items(residual)}
    kept: list[int] = []
    grown = True
    while grown:
        grown = False
        for labels in list(groups):
            if not reach.isdisjoint(labels):
                kept.extend(groups.pop(labels))
                reach |= labels
                grown = True
    return sorted(kept)


def _stage_solve(spectrum: Spectrum, leading: LocalForm, residual: LocalForm,
                 basis: Sequence[tuple[Gen, kernel.Monomial]],
                 ) -> Optional[dict[int, Fraction]]:
    """Coefficients c with sum_i c_i L_{X_i}(leading) + residual = 0 mod d.

    Only the candidates in reach of the residual (``_candidates_in_reach``)
    pay for a Lie image.  Their rows, with the residual's, are whole
    connected components of the system over all candidates: every other
    candidate's image lies in labels outside the closure.  What is left out
    is a homogeneous system, on which the reduced row-echelon solution of
    ``solve_linear`` (free columns 0) is 0, and a homogeneous system is
    always consistent.  So the solution and the verdict of the first solve
    are those of the full system.  The retry modulo d needs all rows,
    because its coordinate-degree bound and its saturation depend on them,
    so it first adds the images left out.
    """
    rows: dict[tuple, dict] = {}

    def add_images(indices: Sequence[int]) -> None:
        for i in indices:
            direction, mono = basis[i]
            image = forms.lie(_basis_field(spectrum, direction, mono), leading)
            for key, c in variational.form_mono_items(image):
                rows.setdefault(key, {})[("c", i)] = c

    kept = _candidates_in_reach(leading, residual, basis)
    add_images(kept)
    rhs: dict[tuple, Fraction] = {}
    for key, c in variational.form_mono_items(residual):
        rhs[key] = rhs.get(key, 0) + c
        rows.setdefault(key, {})

    def solve() -> Optional[dict]:
        return linsolve.solve_linear(
            [(rows[key], -rhs.get(key, 0)) for key in sorted(rows)])

    sol = solve()
    if sol is None:
        # Retry modulo exact horizontal differentials: saturate the row set
        # with d-images of candidate primitives of the rows already present.
        kept_set = set(kept)
        add_images([i for i in range(len(basis)) if i not in kept_set])
        x_cap = variational.max_x_degree(rows) + 1
        d_cands = variational.saturate_d(spectrum.dim, rows, x_cap)
        for cand, image in d_cands.items():
            for row, c in image.items():
                rows.setdefault(row, {})[("b", cand)] = c
        sol = solve()
    if sol is None:
        return None
    return {i: v for (tag, i), v in sol.items() if tag == "c" and v}


def find_homogenizer(omega1: LocalForm, spectrum: Spectrum, *,
                     kind: str = KIND_MOMENTUM,
                     jet_order: int = 2, poly_degree: int = 3,
                     truncation_order: int = 16) -> HomotopyDiffeo:
    """Search for a flow whose pullback reduces a form to its leading degree.

    The form is split by the chosen counting degree; the flow's generator is
    built degree by degree as a linear combination of candidate evolutionary
    fields (components polynomial in jet variables up to ``jet_order``
    derivatives and ``poly_degree`` factors, parameters included), with the
    coefficients determined by a linear solve modulo exact horizontal
    differentials.  The returned flow carries a certificate recording the
    verified identity; failure to find a generator within the bounds raises
    NoHomogenizerError, which does not assert that none exists.
    """
    parts = degree_split(omega1, kind)
    if not parts:
        zero = EvoField(spectrum, {}, parity=kernel.EVEN, ghost=0)
        return HomotopyDiffeo(zero, truncation_order,
                              HomogenizerCertificate(omega1, omega1, 0, omega1))
    k0, leading = parts[0]
    if leading.is_zero():
        raise NoHomogenizerError("leading degree component vanishes")
    X_total = EvoField(spectrum, {}, parity=kernel.EVEN, ghost=0)
    buckets = None
    for _stage in range(truncation_order):
        h = HomotopyDiffeo(X_total, truncation_order)
        current = pullback(h, omega1)
        tail = [(k, comp) for k, comp in degree_split(current, kind) if k > k0]
        if not tail:
            cert = HomogenizerCertificate(omega1, leading, k0, current)
            if not variational.equiv_mod_d(current, leading):
                raise NoHomogenizerError(
                    "flow stabilized on an inequivalent leading part")
            return HomotopyDiffeo(X_total, truncation_order, cert)
        gap, residual = tail[0]
        if buckets is None:
            buckets = _candidate_monomials(
                _ansatz_pool(spectrum, jet_order), poly_degree)
        basis = _stage_basis(spectrum, kind, gap - k0, buckets)
        sol = _stage_solve(spectrum, leading, residual, basis) if basis else None
        if sol is None:
            raise NoHomogenizerError(
                f"no generator of degree {gap - k0} within jet order "
                f"{jet_order} and polynomial degree {poly_degree} removes "
                f"the degree-{gap} component")
        comps: dict[Gen, GradedScalar] = {}
        for i, c in sorted(sol.items()):
            direction, mono = basis[i]
            comps.setdefault(direction, kernel.ZERO)
            comps[direction] = comps[direction] + GradedScalar({mono: c})
        X_total = forms.add_fields(
            X_total, EvoField(spectrum, comps, parity=kernel.EVEN, ghost=0))
    raise NoHomogenizerError(
        f"homogenization did not stabilize within {truncation_order} stages")


# ---------------------------------------------------------------------------
# Derived multibrackets
# ---------------------------------------------------------------------------


def derived_bracket(generator: LocalForm, args: Sequence[LocalForm],
                    structure: symplectic.PresympStructure,
                    kind: str = KIND_MOMENTUM) -> LocalForm:
    """n-ary bracket of degree-0 densities derived from a degree-n generator.

    Evaluates the nested bracket {...{{generator, a_1}, a_2}, ..., a_n}.
    The generator must be homogeneous of counting degree equal to the number
    of arguments, and every argument must have counting degree 0; mismatches
    raise ArityError.  Each nesting step consumes one degree, so the result
    is again of degree 0.
    """
    args = list(args)
    if not args:
        raise ArityError("derived bracket needs at least one argument")
    parts = [(k, c) for k, c in degree_split(generator, kind)
             if not c.is_zero()]
    if len(parts) != 1:
        found = [k for k, _ in parts]
        raise ArityError(
            f"generator is not degree-homogeneous (degrees {found})")
    gen_degree = parts[0][0]
    if gen_degree != len(args):
        raise ArityError(
            f"generator of degree {gen_degree} defines a {gen_degree}-ary "
            f"bracket, got {len(args)} arguments")
    for pos, a in enumerate(args):
        w = a.weight(kind)
        if w not in (0, None):
            raise ArityError(
                f"argument {pos} has counting degree {w}, expected 0")
    out = generator
    for a in args:
        out = symplectic.bracket(out, a, structure)
    return out
