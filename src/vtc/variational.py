"""Exactness machinery for the horizontal complex.

Euler-Lagrange derivatives, the unique source-form part of a (1,n)-form,
horizontal homotopy inversion of d, primitives of total divergences, and
mod-d equivalence testing.  Everything is exact: decompositions recompose to
the input on the nose, and equivalence verdicts are symbolic identities.

Inversion of d (``_solve_d``) uses undetermined coefficients over a finite
candidate basis grown by preimage saturation: starting from the monomials of
the right-hand side, collect every form monomial whose horizontal
differential can reach them (lowering one derivative index and one dx, or
trading a dx for a base-coordinate power), close up under the new rows this
creates, and solve the resulting sparse rational system.  Each candidate is
imaged once per saturation, straight from its key by ``forms.d_monomial``,
the one horizontal differential that ``forms.d`` also runs on.  If some
sigma with d(sigma) = rho exists supported anywhere, restricting to the
saturated candidate set keeps the system solvable, so failure of the
bounded solve is an honest obstruction report rather than a search
artifact.  That engine is ``solve_mod_d``: ``_solve_d`` calls it with no
other columns, the homogenizer with its candidates' Lie images as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import forms, kernel, linsolve, printing
from .forms import LocalForm, MonoKey
from .kernel import Gen, GradedScalar


class DegreeError(kernel.EngineError):
    """Input form has the wrong (or inhomogeneous) bidegree."""


class NotDivergenceError(kernel.EngineError):
    """A (0,n)-form with nonvanishing Euler-Lagrange derivatives."""

    def __init__(self, residual: dict[Gen, GradedScalar]):
        self.residual = residual
        names = ", ".join(sorted(printing.gen_text(g) for g in residual))
        super().__init__(f"not a total divergence: nonzero variation along {names}")


class ObstructionError(kernel.EngineError):
    """A candidate divergence with a field-independent part."""


class NoPrimitiveError(kernel.EngineError):
    """Bounded inversion of d found no primitive."""


# ---------------------------------------------------------------------------
# Euler-Lagrange derivatives and source forms
# ---------------------------------------------------------------------------


def _top_scalar(lam: LocalForm) -> GradedScalar:
    """Coefficient of the volume form of a (0,n)-form."""
    n = lam.dim
    vol_key = (tuple(range(n)), ())
    for key in lam.terms:
        if key != vol_key:
            raise DegreeError(f"expected a (0,{n})-form")
    return lam.terms.get(vol_key, kernel.ZERO)


def el_derivative(lam: LocalForm) -> dict[Gen, GradedScalar]:
    """Euler-Lagrange derivatives of a horizontal top form.

    Returns a map from underived field generators to the variation
    (-total)_I applied to the right jet-partials; fields with vanishing
    variation are omitted.
    """
    L = _top_scalar(lam)
    acc: dict[Gen, GradedScalar] = {}
    for g, part in sorted(L.partials().items()):
        if not kernel.is_jet(g):
            continue
        mi = kernel.jet_mi(g)
        term = part.total_derivative_mi(mi)
        if len(mi) % 2:
            term = -term
        kernel.add_into(acc, kernel.jet_base(g), term)
    return acc


def _contact_vol_sign(dim: int, g: Gen) -> int:
    """Sign relating d(phi) ^ vol to the canonical vol ^ d(phi) layout:
    d(phi), odd exactly when phi is even, moves past dim odd dx's."""
    return -1 if (kernel.gen_parity(g) == kernel.EVEN and dim % 2) else 1


def source_form(dim: int, components: dict[Gen, GradedScalar]) -> LocalForm:
    """Assemble sum of E_a ^ d(phi^a) ^ vol from coefficient scalars."""
    vol = tuple(range(dim))
    terms: dict[forms.Key, GradedScalar] = {}
    for g in sorted(components):
        E = components[g]
        if not E:
            continue
        if kernel.jet_mi(g):
            raise ValueError("source components must be keyed by underived variables")
        terms[(vol, (g,))] = E * _contact_vol_sign(dim, g)
    return LocalForm(dim, terms)


@dataclass
class SourceDecomposition:
    """Split of a (1,n)-form into its source part plus a total divergence."""

    source: LocalForm
    boundary: LocalForm
    components: dict[Gen, GradedScalar]

    def __iter__(self) -> Iterator[LocalForm]:
        return iter((self.source, self.boundary))


def source_decompose(alpha: LocalForm) -> SourceDecomposition:
    """Write a (1,n)-form as (source form) + d(boundary).

    Integration by parts is applied to the contact factor with the longest
    multi-index until only underived contacts remain; that residue is the
    unique source part.
    """
    n = alpha.dim
    vol_key = tuple(range(n))
    for (dxs, contacts) in alpha.terms:
        if dxs != vol_key or len(contacts) != 1:
            raise DegreeError(f"expected a (1,{n})-form")
    rem = alpha
    boundary = LocalForm.zero(n)
    while True:
        target: Optional[tuple] = None
        best = 0
        for (dxs, contacts) in rem.terms:
            g = contacts[0]
            k = len(kernel.jet_mi(g))
            if k > best or (k == best and k > 0 and (target is None or contacts > target[1])):
                best, target = k, (dxs, contacts)
        if best == 0:
            break
        g = target[1][0]
        j = kernel.jet_mi(g)[-1]
        # s ^ d^{n-1}x_j ^ d(phi_{I-j}), up to a sign the check below fixes
        s = rem.terms[target]
        cand = LocalForm(n, {(tuple(i for i in vol_key if i != j),
                              (_lower_contact(g, j),)): s})
        dc = forms.d(cand)
        high = dc.terms.get(target, kernel.ZERO)
        if high == s:
            sign = 1
        elif high == -s:
            sign = -1
        else:
            raise AssertionError("integration-by-parts step lost its leading term")
        rem = rem - sign * dc
        boundary = boundary + sign * cand
    components: dict[Gen, GradedScalar] = {}
    for (dxs, contacts), s in rem.terms.items():
        g = contacts[0]
        kernel.add_into(components, g, s * _contact_vol_sign(n, g))
    return SourceDecomposition(source_form(n, components), boundary, components)


# ---------------------------------------------------------------------------
# Inversion of the horizontal differential
# ---------------------------------------------------------------------------

def form_mono_items(form: LocalForm) -> Iterator[tuple[MonoKey, kernel.Coefficient]]:
    for (dxs, contacts), s in form.terms.items():
        for mono, c in s.terms.items():
            yield (dxs, contacts, mono), c


def _mono_x_degree(mono: kernel.Monomial) -> int:
    return sum(e for g, e in mono if g[0] == 1)


def _lower_contact(g: Gen, j: int) -> Gen:
    return kernel.jet_with_mi(g, kernel.mi_remove(kernel.jet_mi(g), j))


def _preimages(key: MonoKey, x_cap: int) -> Iterator[MonoKey]:
    """Candidate monomials whose horizontal differential can hit ``key``."""
    dxs, contacts, mono = key
    below_cap = _mono_x_degree(mono) < x_cap
    for pos, j in enumerate(dxs):
        rest = dxs[:pos] + dxs[pos + 1:]
        # lower a contact factor
        for idx, g in enumerate(contacts):
            if j in kernel.jet_mi(g):
                low = _lower_contact(g, j)
                newc = tuple(sorted(contacts[:idx] + (low,) + contacts[idx + 1:]))
                if kernel.gen_parity(low) == kernel.EVEN and _has_repeat_odd_contact(newc):
                    continue
                yield (rest, newc, mono)
        # lower a scalar jet factor
        for idx, (g, e) in enumerate(mono):
            if kernel.is_jet(g) and j in kernel.jet_mi(g):
                low = _lower_contact(g, j)
                head = mono[:idx] + ((g, e - 1),) if e > 1 else mono[:idx]
                sign, newm = kernel.mono_mul(head + mono[idx + 1:], ((low, 1),))
                if newm is not None:
                    yield (rest, contacts, newm)
        # trade the dx for a base-coordinate power
        if below_cap:
            _, newm = kernel.mono_mul(mono, ((kernel.coord_gen(j), 1),))
            yield (rest, contacts, newm)


def _has_repeat_odd_contact(contacts: tuple[Gen, ...]) -> bool:
    # contacts of even fields are odd generators: no repeats allowed
    for i in range(1, len(contacts)):
        if contacts[i] == contacts[i - 1] and kernel.gen_parity(contacts[i]) == kernel.EVEN:
            return True
    return False


def block_key(key: MonoKey) -> tuple:
    """Block label of a form monomial: how many of its factors (contacts and
    scalar jet factors together) belong to each field component, with the
    powers of parameters and auxiliaries.

    Base coordinates, dx factors and derivative indices do not count, so
    total derivatives, d and delta keep the label, and the label of a
    product is the sum of its factors' labels.  The label depends only on
    the multiset of factors: ``mono`` may be any concatenation of monomials,
    canonical or not.  Every monomial of d(m) has the label of m, so the
    system inverting d splits into independent blocks, one per label."""
    dxs, contacts, mono = key
    counts: dict = {}
    for g in contacts:
        k = kernel.jet_base(g)
        counts[k] = counts.get(k, 0) + 1
    for g, e in mono:
        if kernel.is_jet(g):
            k = kernel.jet_base(g)
            counts[k] = counts.get(k, 0) + e
        elif g[0] in (0, 3):
            counts[g] = counts.get(g, 0) + e
    return tuple(sorted(counts.items()))


def max_x_degree(keys: Iterable[MonoKey]) -> int:
    """Largest base-coordinate degree among the monomials of some form keys."""
    return max((_mono_x_degree(mono) for (_, _, mono) in keys), default=0)


def saturate_d(dim: int, rows: Iterable[MonoKey], x_cap: int,
               ) -> dict[MonoKey, dict[MonoKey, int]]:
    """Close ``rows`` under preimages of d: ``{candidate: d(candidate)}``.

    Every candidate is a preimage (within coordinate degree ``x_cap``) of a
    row already present, and every monomial of its nonzero d-image
    (``forms.d_monomial``) becomes a row in turn.  Candidates past the
    jet-order cap are skipped.  The result is the least fixpoint, so it does
    not depend on the order of the rows.
    """
    candidates: dict[MonoKey, dict[MonoKey, int]] = {}
    rejected: set[MonoKey] = set()
    seen_rows: set[MonoKey] = set(rows)
    queue = list(seen_rows)
    while queue:
        next_rows: list[MonoKey] = []
        for row in queue:
            for cand in _preimages(row, x_cap):
                if cand in candidates or cand in rejected:
                    continue
                try:
                    image = forms.d_monomial(dim, cand)
                except kernel.JetOrderCapExceeded:
                    image = None
                if not image:
                    rejected.add(cand)
                    continue
                candidates[cand] = image
                for r in image:
                    if r not in seen_rows:
                        seen_rows.add(r)
                        next_rows.append(r)
        queue = next_rows
    return candidates


def solve_mod_d(dim: int, rows: dict[MonoKey, dict],
                target: dict[MonoKey, kernel.Coefficient], x_cap: int,
                ) -> Optional[dict]:
    """Solve sum_j c_j column_j + d(sigma) = target over a saturated basis.

    ``rows`` maps form monomials to their coefficients in the caller's
    columns (it may be empty), ``target`` maps monomials to the right-hand
    side.  The row set is closed under ``saturate_d``, and each preimage
    ``cand`` becomes a column ``("b", cand)`` holding d(cand).  Returns the
    reduced row-echelon solution over every column, or None when the system
    is inconsistent.  ``rows`` is not changed.

    ``x_cap`` bounds the base-coordinate degree of the preimages.  The
    caller reads it off the rows it passes, never off rows outside them:
    ``max_x_degree`` of those rows, which suffices for translation-covariant
    input, or one more than that.  So a block of the system gets the same
    answer whether or not other blocks are solved with it.
    """
    system = {row: dict(coeffs) for row, coeffs in rows.items()}
    for row in target:
        system.setdefault(row, {})
    for cand, image in saturate_d(dim, system, x_cap).items():
        column = ("b", cand)
        for row, c in image.items():
            system.setdefault(row, {})[column] = c
    return linsolve.solve_linear(
        [(system[row], target.get(row, 0)) for row in sorted(system)])


def _solve_d(rho: LocalForm) -> LocalForm:
    """Solve d(sigma) = rho over a saturated candidate basis.

    The system splits into independent blocks labelled by the jet content
    d preserves; each block is first attempted without raising the
    base-coordinate degree, which suffices for translation-covariant inputs,
    and retried with one extra coordinate power before giving up.  Raises
    NoPrimitiveError when inconsistent (rho not exact within the bounds).
    """
    if rho.is_zero():
        return LocalForm.zero(rho.dim)
    dim = rho.dim
    blocks: dict[tuple, dict[MonoKey, kernel.Coefficient]] = {}
    for key, c in form_mono_items(rho):
        blocks.setdefault(block_key(key), {})[key] = c
    terms: dict[forms.Key, dict[kernel.Monomial, kernel.Coefficient]] = {}
    for label in sorted(blocks):
        rhs = blocks[label]
        x_base = max_x_degree(rhs)
        solution = solve_mod_d(dim, {}, rhs, x_base)
        if solution is None:
            solution = solve_mod_d(dim, {}, rhs, x_base + 1)
        if solution is None:
            raise NoPrimitiveError(
                "no primitive found within jet-order cap "
                f"{kernel.JET_ORDER_CAP.get()} and coordinate degree {x_base + 1}")
        # the candidates of distinct blocks are distinct
        for (_, (dxs, contacts, mono)), c in sorted(solution.items()):
            if c:
                terms.setdefault((dxs, contacts), {})[mono] = c
    return LocalForm(dim, {key: GradedScalar(t) for key, t in terms.items()})


def horizontal_homotopy(rho: LocalForm) -> LocalForm:
    """Homotopy inverse of d in positive vertical degree.

    For vertical degree q >= 1 this satisfies d h + h d = identity below the
    top horizontal degree; at top degree it returns a primitive of an exact
    input and reports the obstruction otherwise.

    Below the top degree h(rho) is the primitive of rho - h(d rho), so the
    form keeps h in its ``memo`` (``kernel.keep``) and so does the d rho it
    keeps: the contract check's h(d rho) solves nothing again.  Forms are
    values, so never mutate the ``terms`` of one that has kept its d or h.
    """
    return kernel.keep(rho.memo, "h", lambda: _homotopy(rho))


def _homotopy(rho: LocalForm) -> LocalForm:
    if rho.is_zero():
        return LocalForm.zero(rho.dim)
    bd = rho.bidegree()
    if bd is None:
        raise DegreeError("homotopy needs a bidegree-homogeneous form")
    q, p = bd
    if q < 1:
        raise DegreeError("horizontal homotopy is defined for vertical degree >= 1")
    if p < 1:
        raise DegreeError("no horizontal degree left to invert")
    if p == rho.dim:
        return _solve_d(rho)
    return _solve_d(rho - horizontal_homotopy(forms.d(rho)))


def divergence_primitive(f: LocalForm) -> LocalForm:
    """Invert d on a horizontal top form that is a total divergence."""
    if f.is_zero():
        return LocalForm.zero(f.dim)
    top = _top_scalar(f)
    residual = el_derivative(f)
    if residual:
        raise NotDivergenceError(residual)
    field_free = GradedScalar(
        {m: c for m, c in top.terms.items()
         if not any(kernel.is_jet(g) for g, _ in m)})
    if field_free:
        raise ObstructionError(
            "field-independent density has no local primitive of compact support")
    return _solve_d(f)


# ---------------------------------------------------------------------------
# Equivalence modulo total divergences
# ---------------------------------------------------------------------------


def equiv_mod_d(a: LocalForm, b: LocalForm) -> bool:
    """Whether a - b is a horizontal differential.

    Tested per bidegree block: below top horizontal degree a block is
    exact iff it is d-closed (row exactness; in horizontal degree 0 only
    zero is); a top form is exact over R^n iff all its Euler-Lagrange
    derivatives vanish; a (1,n) block iff its source part vanishes; higher
    vertical degree at the top via the bounded solver.
    """
    if a.dim != b.dim:
        raise DegreeError("forms live over different base dimensions")
    bda, bdb = a.bidegree(), b.bidegree()
    if a and b and bda is not None and bdb is not None and bda != bdb:
        raise DegreeError(f"cannot compare bidegrees {bda} and {bdb}")
    rho = a - b
    if rho.is_zero():
        return True
    n = rho.dim
    for (q, p), block in rho.bidegree_split().items():
        if p == 0:
            return False
        if p < n:
            if not forms.d(block).is_zero():
                return False
        elif q == 0:
            if el_derivative(block):
                return False
        elif q == 1:
            if source_decompose(block).components:
                return False
        else:
            try:
                _solve_d(block)
            except NoPrimitiveError:
                return False
    return True
