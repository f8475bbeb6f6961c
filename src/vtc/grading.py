"""Degree gradings, exponential jet-space flows, and derived multibrackets.

This module names the two auxiliary gradings carried by the jet algebra
(the number of source factors and the number of antifield factors), and
provides the pullback by the formal diffeomorphism e^X that a
degree-raising evolutionary field X generates (``pullback(X, a)``), a
bounded search that homogenizes an inhomogeneous presymplectic form by such
a flow, and the nested-bracket construction that turns a degree-n generator
into an n-ary bracket on degree-0 densities.  The search returns a
``Homogenizer``: the field X, the form's leading part and its degree, and
the pullback, which it has checked equals the leading part modulo d.  The
homogenizer and the brackets work in the momentum degree, the number of
source factors; a form's homogeneous parts are ``LocalForm.grade_split``.

Each stage of the homogenizer search solves one linear system: its columns
are candidate fields X_i = m_i * d/d(phi_i), its rows the form monomials of
their Lie images L_{X_i}(leading) and of the residual.  A row's block label
(``variational.block_key``) counts its factors per field component and
parameter.  It is additive, and the labels an image can reach are known
before it is computed: contract trades one phi_i contact for a total
derivative of m_i, and neither total derivatives nor delta change the
counts, so every row of L_{X_i}(leading) is labelled rho + label(m_i), rho
the label of a row of L or delta L with one phi_i contact taken out.

The search runs this backwards, as Goktas and Hereman build conserved
densities from the scaling weights that can occur (J. Symbolic Comput. 24,
1997): for each label t the residual reaches, it fills the labels t - rho
with the ansatz pool's jet variables and parameters, and takes in every
label the new candidates reach, until nothing new appears.  Only the
candidates that can be linked to the residual are built.  They make whole
connected components of the system over the full basis; the rest is
homogeneous, so its coefficients in the reduced row-echelon solution are 0
and it cannot make the system inconsistent.  That solution pins free
columns to 0, so it depends on the column order: candidates are ordered by
direction, then by m in combination order (number of factors, then the
factors), and of two candidates with dependent images the later one gets 0.
The retry modulo d, taken only when the first solve is inconsistent, adds
the d-images of the rows' preimages to the same rows
(``variational.solve_mod_d``).  d keeps the label, so these rows stay whole
components of the saturated system over every candidate, and the retry's
coordinate-degree bound is read off them alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from . import forms, kernel, linsolve, symplectic, variational
from .forms import EvoField, LocalForm
from .kernel import Gen, GradedScalar, Spectrum, record

KIND_MOMENTUM = "momentum"
KIND_POLYVECTOR = "polyvector"

# The order bound of the pullback's exponential series and of the
# homogenizer's stages.
TRUNCATION_ORDER = 16


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
# Exponential flows
# ---------------------------------------------------------------------------


def pullback(X: EvoField, a: LocalForm) -> LocalForm:
    """Apply the pullback e^{L_X} of the flow of X to a form, term by term.

    The series terminates on each input within ``TRUNCATION_ORDER`` steps
    whenever X strictly raises a bounded grading (the only case produced
    here); e^{-X}, ``forms.scale_field(X, -1)``, pulls back the inverse.
    Raises TruncationError, reporting the order bound, if the Lie series
    has not terminated after ``TRUNCATION_ORDER`` steps.
    """
    total = a
    term = a
    for k in range(1, TRUNCATION_ORDER + 1):
        term = forms.lie(X, term).scale(Fraction(1, k))
        if term.is_zero():
            return total
        total = total + term
    raise TruncationError(
        f"pullback series did not terminate within order {TRUNCATION_ORDER}")


# ---------------------------------------------------------------------------
# Homogenizer search
# ---------------------------------------------------------------------------

Label = tuple  # a block label, as ``variational.block_key`` builds it
Candidate = tuple[Gen, kernel.Monomial]  # m * d/d(direction)


def _basis_field(spectrum: Spectrum, direction: Gen,
                 mono: kernel.Monomial) -> EvoField:
    return EvoField(spectrum, {direction: GradedScalar({mono: 1})},
                    parity=kernel.EVEN, ghost=0)


def _label_add(a: Label, b: Label) -> Label:
    counts = dict(a)
    for part, n in b:
        counts[part] = counts.get(part, 0) + n
    return tuple(sorted(counts.items()))


def _label_sub(a: Label, b: Label) -> Optional[Label]:
    """a - b, or None when b does not fit in a."""
    counts = dict(a)
    for part, n in b:
        left = counts.get(part, 0) - n
        if left < 0:
            return None
        if left:
            counts[part] = left
        else:
            del counts[part]
    return tuple(counts.items())


def _reduced_labels(leading: LocalForm) -> dict[Gen, set[Label]]:
    """The labels of the rows of L and delta L with one contact taken out,
    by the contact's underived generator.

    lie(X, L) = contract(X, delta L) +- delta(contract(X, L)), and contract
    trades one contact with base phi for a total derivative of m, which
    keeps m's label, as delta does.  So every image row of m * d/d(phi) is
    labelled rho + label(m) for some rho in the set of phi.
    """
    reduced: dict[Gen, set[Label]] = {}
    for form in (leading, forms.delta(leading)):
        for (dxs, contacts, mono), _ in variational.form_mono_items(form):
            for idx, g in enumerate(contacts):
                rest = (dxs, contacts[:idx] + contacts[idx + 1:], mono)
                reduced.setdefault(kernel.jet_base(g), set()).add(
                    variational.block_key(rest))
    return reduced


class _Pool:
    """The ansatz pool of one stage as a source of candidates.

    A candidate m * d/d(phi) has m a product of 1 to ``poly_degree``
    factors: jet variables of order <= ``jet_order`` of the spectrum's field
    components (no odd one repeated) and parameters.  m has the parity and
    ghost number of phi, and its momentum degree exceeds phi's own by
    ``raise_by``.  All of these depend on label(m) alone, so the pool is
    filled label by label and never enumerated for the first solve.

    A candidate's id is its order key: (direction, number of factors,
    factors expanded by exponent), which sorts each direction's candidates
    in combination order.
    """

    def __init__(self, spectrum: Spectrum, raise_by: int, jet_order: int,
                 poly_degree: int):
        self.raise_by = raise_by
        self.poly_degree = poly_degree
        # the pool's generators by label part: a parameter, or the underived
        # generator of a field component
        self.variants: dict[Gen, list[Gen]] = {
            kernel.param_gen(p): [kernel.param_gen(p)]
            for p in spectrum.parameters}
        for f in spectrum.fields:
            for comp in f.components():
                self.variants[kernel.jet_gen(spectrum, f.name, comp, ())] = [
                    kernel.jet_gen(spectrum, f.name, comp, mi)
                    for r in range(jet_order + 1)
                    for mi in itertools.combinations_with_replacement(
                        range(spectrum.dim), r)]
        self.directions = [g for g in self.variants if kernel.is_jet(g)]

    def fill(self, direction: Gen, label: Label) -> list[tuple]:
        """The ids of the candidates in ``direction`` with m of ``label``."""
        if (direction not in self.directions
                or any(part not in self.variants for part, _ in label)):
            return []
        degrees = _degrees(label)
        if not 1 <= degrees[0] <= self.poly_degree or not self._fits(
                direction, degrees):
            return []
        choices = [(itertools.combinations if kernel.gen_parity(part)
                    else itertools.combinations_with_replacement)(
                        self.variants[part], n) for part, n in label]
        ids = []
        for combo in itertools.product(*choices):
            factors = tuple(sorted(itertools.chain.from_iterable(combo)))
            ids.append((direction, len(factors), factors))
        return ids

    def candidate(self, key: tuple) -> Candidate:
        direction, _, factors = key
        return direction, tuple(
            (g, len(list(run))) for g, run in itertools.groupby(factors))

    def _fits(self, direction: Gen, degrees: tuple) -> bool:
        _, par, gh, src = degrees
        own = 1 if kernel.gen_role(direction) == kernel.ROLE_SOURCE else 0
        return (par == kernel.gen_parity(direction)
                and gh == kernel.gen_ghost(direction)
                and src == self.raise_by + own)


def _degrees(label: Label) -> tuple[int, int, int, int]:
    """(size, parity, ghost, momentum) degrees of the monomials of a label,
    which reads as a monomial in underived generators."""
    return (sum(n for _, n in label), kernel.mono_parity(label),
            kernel.mono_ghost(label),
            kernel.mono_degree(label, kernel.ROLE_SOURCE))


def _candidates_in_reach(leading: LocalForm, residual: LocalForm,
                         source) -> list:
    """Ids of the candidates whose images can be linked to the residual,
    in order.

    Starting from the residual's labels t, ask the source for the candidates
    m * d/d(phi) with label(m) = t - rho, rho a reduced label of phi
    (``_reduced_labels``).  Each one found brings in all its labels
    rho' + label(m), until nothing new appears.
    """
    reduced = _reduced_labels(leading)
    reach = {variational.block_key(key)
             for key, _ in variational.form_mono_items(residual)}
    todo = list(reach)
    asked: set[tuple[Gen, Label]] = set()
    kept = []
    while todo:
        target = todo.pop()
        for direction, rhos in reduced.items():
            for rho in rhos:
                label = _label_sub(target, rho)
                if label is None or (direction, label) in asked:
                    continue
                asked.add((direction, label))
                found = source.fill(direction, label)
                if not found:
                    continue
                kept.extend(found)
                for other in rhos:
                    t = _label_add(other, label)
                    if t not in reach:
                        reach.add(t)
                        todo.append(t)
    return sorted(kept)


def _stage_solve(spectrum: Spectrum, leading: LocalForm, residual: LocalForm,
                 source: _Pool) -> Optional[dict]:
    """Coefficients c with sum_i c_i L_{X_i}(leading) + residual = 0 mod d.

    The candidates come from ``source`` by id, and the ids sort in column
    order.  Only the candidates in reach of the residual
    (``_candidates_in_reach``) pay for a Lie image.  Their rows, with the
    residual's, are whole connected components of the system over all
    candidates: every other candidate's image lies in labels outside the
    closure.  What is left out is a homogeneous system, on which the
    reduced row-echelon solution of ``solve_linear`` (free columns 0) is 0,
    and a homogeneous system is always consistent.  So the solution and the
    verdict of the first solve are those of the full system in the same
    column order.  The retry modulo d (``variational.solve_mod_d``) closes
    the same rows under preimages of d, within their own coordinate degree
    plus one.  d keeps the label, so the saturated rows of every other
    candidate are again a homogeneous system apart from these, and the
    retry's solution and verdict are those of the full system at that bound.
    """
    rows: dict[tuple, dict] = {}
    kept = _candidates_in_reach(leading, residual, source)
    for i in kept:
        direction, mono = source.candidate(i)
        image = forms.lie(_basis_field(spectrum, direction, mono), leading)
        for key, c in variational.form_mono_items(image):
            rows.setdefault(key, {})[("c", i)] = c
    target = {key: -c for key, c in variational.form_mono_items(residual)}
    for key in target:
        rows.setdefault(key, {})
    sol = linsolve.solve_linear(
        [(rows[key], target.get(key, 0)) for key in rows])
    if sol is None:
        sol = variational.solve_mod_d(spectrum.dim, rows, target,
                                      variational.max_x_degree(rows) + 1)
    if sol is None:
        return None
    return {i: v for (tag, i), v in sol.items() if tag == "c" and v}


@record(frozen=True)
class Homogenizer:
    """A verified homogenization: the flow e^X pulls the input form back to
    ``pulled_back``, which equals ``leading``, the input's lowest momentum
    part (of momentum degree ``degree``), modulo d."""

    X: EvoField
    leading: LocalForm
    degree: int
    pulled_back: LocalForm


def find_homogenizer(omega1: LocalForm, spectrum: Spectrum, *,
                     jet_order: int = 2,
                     poly_degree: int = 3) -> Homogenizer:
    """Search for a flow whose pullback reduces a form to its leading degree.

    The form is split by the momentum degree; the flow's generator is
    built degree by degree as a linear combination of candidate evolutionary
    fields (components polynomial in jet variables up to ``jet_order``
    derivatives and ``poly_degree`` factors, parameters included), with the
    coefficients determined by a linear solve modulo exact horizontal
    differentials.  Each stage builds only the candidates whose images can
    be linked to its residual, label by label, and orders them by direction
    and combination order (see the module notes), so the answer is the one
    over every candidate in that order.  The first stage reads the form
    itself, and each later one its pullback by the flow so far.  The search
    ends at the first stage that sets no candidate, as a further stage would
    repeat it, and after at most ``TRUNCATION_ORDER`` stages.  The result is
    returned only once its pullback is checked to equal the leading part
    modulo d; the zero form gives the zero field at degree 0.  Failure to
    find a generator within the bounds raises NoHomogenizerError, which does
    not assert that none exists.
    """
    parts = omega1.grade_split(KIND_MOMENTUM)
    X = EvoField(spectrum, {}, parity=kernel.EVEN, ghost=0)
    if not parts:
        return Homogenizer(X, omega1, 0, omega1)
    k0, leading = next(iter(parts.items()))
    current = omega1
    for _stage in range(TRUNCATION_ORDER):
        tail = [(k, comp) for k, comp in parts.items() if k > k0]
        sol = None
        if tail:
            gap, residual = tail[0]
            pool = _Pool(spectrum, gap - k0, jet_order, poly_degree)
            sol = _stage_solve(spectrum, leading, residual, pool)
        if not sol:
            # the flow is final: no tail is left (the flow raises the degree,
            # so current is then leading itself), or the stage sets no
            # candidate and a further stage would repeat it
            if variational.equiv_mod_d(current, leading):
                return Homogenizer(X, leading, k0, current)
            raise NoHomogenizerError(
                f"no generator of degree {gap - k0} within jet order "
                f"{jet_order} and polynomial degree {poly_degree} removes "
                f"the degree-{gap} component")
        comps: dict[Gen, GradedScalar] = {}
        for key, c in sol.items():
            direction, mono = pool.candidate(key)
            kernel.add_into(comps, direction, GradedScalar({mono: c}))
        X = forms.add_fields(
            X, EvoField(spectrum, comps, parity=kernel.EVEN, ghost=0))
        current = pullback(X, omega1)
        parts = current.grade_split(KIND_MOMENTUM)
    raise NoHomogenizerError(
        f"homogenization did not stabilize within {TRUNCATION_ORDER} stages")


# ---------------------------------------------------------------------------
# Derived multibrackets
# ---------------------------------------------------------------------------


def check_arity(generator: LocalForm, arity: int,
                args: Sequence[LocalForm]) -> None:
    """Raise ArityError unless ``generator`` is homogeneous of momentum
    degree ``arity``, at least 1, and every nonzero one of ``args`` is
    homogeneous of momentum degree 0."""
    if not arity:
        raise ArityError("derived bracket needs at least one argument")
    degrees = list(generator.grade_split(KIND_MOMENTUM))
    if len(degrees) != 1:
        raise ArityError(
            f"generator is not degree-homogeneous (degrees {degrees})")
    gen_degree = degrees[0]
    if gen_degree != arity:
        raise ArityError(
            f"generator of degree {gen_degree} defines a {gen_degree}-ary "
            f"bracket, got {arity} arguments")
    for pos, a in enumerate(args):
        found = list(a.grade_split(KIND_MOMENTUM))
        if found not in ([], [0]):
            raise ArityError(
                f"argument {pos} has momentum degrees {found}, expected [0]")


def derived_bracket(generator: LocalForm, args: Sequence[LocalForm],
                    structure: symplectic.PresympStructure) -> LocalForm:
    """n-ary bracket of degree-0 densities derived from a degree-n generator.

    Evaluates the nested bracket {...{{generator, a_1}, a_2}, ..., a_n}.
    The generator must be homogeneous of momentum degree equal to the number
    of arguments, and every nonzero argument homogeneous of momentum degree
    0; mismatches raise ArityError (``check_arity``).  Each nesting step
    consumes one degree, so the result is again of degree 0.
    """
    args = list(args)
    check_arity(generator, len(args), args)
    out = generator
    for a in args:
        out = symplectic.bracket(out, a, structure)
    return out
