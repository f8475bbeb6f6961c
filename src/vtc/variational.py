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
The saturation numbers each row as it first meets it and gives each
image as (row number, coefficient) pairs.  ``solve_mod_d`` sorts the
candidates once; their ranks in that order, then the caller's columns,
number the columns of the system.  Each image is written straight into
its numbered rows of ranked coefficients, which go in number order to
``linsolve.eliminate``, the elimination core: no image row is keyed
again, no keyed system is built and no row is sorted.  The solution comes back in
column order, the order ``_solve_d`` writes the primitive in.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
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


def _by_parts(coeffs: dict[Gen, dict]) -> tuple[dict, list]:
    """Integrate jet-indexed term dicts by parts, which the pass owns.

    Longest multi-index first (the greatest generator first among equals),
    the terms t of phi_I move to phi_{I-j} as -D_j(t), j the last index of
    I.  Returns the nonzero remainder, on underived generators, and the
    steps (phi_I, t) in order."""
    steps = []
    top = max((len(kernel.jet_mi(g)) for g in coeffs), default=0)
    for order in range(top, 0, -1):
        for g in sorted([g for g in coeffs if len(kernel.jet_mi(g)) == order],
                        reverse=True):
            t = coeffs.pop(g)
            if not t:
                continue
            j = kernel.jet_mi(g)[-1]
            low = coeffs.setdefault(kernel.jet_lower(g, j), {})
            for m, c in t.items():
                for mono, k in kernel.mono_total_derivative(m, j):
                    kernel.add_into(low, mono, -c if k == 1 else c if k == -1 else -c * k)
            steps.append((g, t))
    return {g: t for g, t in coeffs.items() if t}, steps


def el_derivative(lam: LocalForm) -> dict[Gen, GradedScalar]:
    """Euler-Lagrange derivatives of a horizontal top form: underived field
    generators to (-total)_I of the right jet-partials (``_by_parts``),
    fields with vanishing variation omitted."""
    rem, _ = _by_parts({g: s.terms for g, s in _top_scalar(lam).partials().items()
                        if kernel.is_jet(g)})
    return {g: GradedScalar._wrap(t) for g, t in rem.items()}


def _contact_vol_sign(dim: int, g: Gen) -> int:
    """Sign relating d(phi) ^ vol to the canonical vol ^ d(phi) layout:
    d(phi), odd exactly when phi is even, moves past dim odd dx's."""
    return -1 if (kernel.gen_parity(g) == kernel.EVEN and dim % 2) else 1


@dataclass
class SourceDecomposition:
    """Split of a (1,n)-form into its source part plus a total divergence."""

    source: LocalForm
    boundary: LocalForm
    components: dict[Gen, GradedScalar]


def source_decompose(alpha: LocalForm) -> SourceDecomposition:
    """Write a (1,n)-form as (source form) + d(boundary).

    Integrating the contact coefficients by parts (``_by_parts``) leaves the
    unique source part, sum of E_a ^ d(phi^a) ^ vol over the components.  A
    step moving t off d(phi_I) adds e*t ^ d^{n-1}x_j ^ d(phi_{I-j}) to the
    boundary, e = -1 exactly when n - j + parity(phi) is odd.
    """
    n = alpha.dim
    vol_key = tuple(range(n))
    coeffs = {}
    for (dxs, contacts), s in alpha.terms.items():
        if dxs != vol_key or len(contacts) != 1:
            raise DegreeError(f"expected a (1,{n})-form")
        coeffs[contacts[0]] = dict(s.terms)
    rem, steps = _by_parts(coeffs)
    boundary = {}
    for g, t in steps:
        j = kernel.jet_mi(g)[-1]
        s = GradedScalar._wrap(t)
        boundary[(vol_key[:j] + vol_key[j + 1:], (kernel.jet_lower(g, j),))] = \
            -s if (n - j + kernel.gen_parity(g)) % 2 else s
    source = {(vol_key, (g,)): GradedScalar._wrap(t) for g, t in rem.items()}
    components = {g: s * _contact_vol_sign(n, g) for (_, (g,)), s in source.items()}
    return SourceDecomposition(LocalForm._wrap(n, source),
                               LocalForm._wrap(n, boundary), components)


# ---------------------------------------------------------------------------
# Inversion of the horizontal differential
# ---------------------------------------------------------------------------

def form_mono_items(form: LocalForm) -> Iterator[tuple[MonoKey, kernel.Coefficient]]:
    for (dxs, contacts), s in form.terms.items():
        for mono, c in s.terms.items():
            yield (dxs, contacts, mono), c


def _mono_x_degree(mono: kernel.Monomial) -> int:
    return sum(e for g, e in mono if g[0] == 1)


def _preimages(key: MonoKey, x_cap: int) -> Iterator[MonoKey]:
    """Candidate monomials whose horizontal differential can hit ``key``.

    A lowered factor goes to its sorted place by bisection.  ``key`` is
    canonical, so a lowered contact repeats an even-field contact (and the
    candidate is zero) only when it equals its neighbour there."""
    dxs, contacts, mono = key
    below_cap = _mono_x_degree(mono) < x_cap
    for pos, j in enumerate(dxs):
        rest = dxs[:pos] + dxs[pos + 1:]
        # lower a contact factor
        for idx, g in enumerate(contacts):
            if j in kernel.jet_mi(g):
                low = kernel.jet_lower(g, j)
                others = contacts[:idx] + contacts[idx + 1:]
                k = bisect_left(others, low)
                if (k < len(others) and others[k] == low
                        and kernel.gen_parity(low) == kernel.EVEN):
                    continue
                yield (rest, others[:k] + (low,) + others[k:], mono)
        # lower a scalar jet factor
        for idx, (g, e) in enumerate(mono):
            if kernel.is_jet(g) and j in kernel.jet_mi(g):
                head = mono[:idx] + ((g, e - 1),) if e > 1 else mono[:idx]
                newm = _mono_times(head + mono[idx + 1:], kernel.jet_lower(g, j))
                if newm is not None:
                    yield (rest, contacts, newm)
        # trade the dx for a base-coordinate power
        if below_cap:
            yield (rest, contacts, _mono_times(mono, kernel.coord_gen(j)))


def _mono_times(m: kernel.Monomial, g: Gen) -> Optional[kernel.Monomial]:
    """The canonical monomial m times one more factor g, which goes to its
    place by bisection; None when g is odd and already a factor."""
    k = bisect_left(m, (g,))
    if k < len(m) and m[k][0] == g:
        if kernel.gen_parity(g):
            return None
        return m[:k] + ((g, m[k][1] + 1),) + m[k + 1:]
    return m[:k] + ((g, 1),) + m[k:]


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
               ) -> tuple[dict[MonoKey, int], dict[MonoKey, list[tuple[int, int]]]]:
    """Close ``rows`` under preimages of d: (row numbers, candidate images).

    Every candidate is a preimage (within coordinate degree ``x_cap``) of a
    row already present, and every monomial of its nonzero d-image
    (``forms.d_monomial``) becomes a row in turn.  Candidates past the
    jet-order cap are skipped.  Each row gets a number in the order first
    met, the given ``rows`` first in their own order, so the numbering
    does not depend on the hash seed.  Returns {row: number} and each
    candidate's nonzero image as [(row number, coefficient), ...].  Each
    candidate met is imaged once and ``known`` keeps its image (empty for
    a zero one or one past the cap), so every preimage yielded costs one
    probe.  The row and candidate sets are the least fixpoint, so they do
    not depend on the order of the rows; only the numbers do.
    """
    known: dict[MonoKey, list[tuple[int, int]]] = {}
    # the rows by number; the loop goes on over the rows appended to it
    met = list(dict.fromkeys(rows))
    numbers = {row: i for i, row in enumerate(met)}
    for row in met:
        for cand in _preimages(row, x_cap):
            if cand in known:
                continue
            try:
                image = forms.d_monomial(dim, cand)
            except kernel.JetOrderCapExceeded:
                image = {}
            pairs = known[cand] = []
            for r, c in image.items():
                i = numbers.setdefault(r, len(met))
                if i == len(met):
                    met.append(r)
                pairs.append((i, c))
    return numbers, {cand: image for cand, image in known.items() if image}


def solve_mod_d(dim: int, rows: dict[MonoKey, dict],
                target: dict[MonoKey, kernel.Coefficient], x_cap: int,
                ) -> Optional[dict]:
    """Solve sum_j c_j column_j + d(sigma) = target over a saturated basis.

    ``rows`` maps form monomials to their coefficients in the caller's
    columns (it may be empty), ``target`` maps monomials to the right-hand
    side.  The row set is closed under ``saturate_d``, and each preimage
    ``cand`` becomes a column ``("b", cand)`` holding d(cand).  The caller's
    column keys sort after all of these, as the homogenizer's ``("c", i)``
    do.  Returns the reduced row-echelon solution over every column, in
    key order, or None when the system is inconsistent.  ``rows`` is not
    changed.

    The system is built on the saturation's row numbers: ``rows`` and
    ``target`` are numbered first, so the caller's rows are the first
    ones, and each image goes into its rows by number, keying none of
    them again.

    ``x_cap`` bounds the base-coordinate degree of the preimages.  The
    caller reads it off the rows it passes, never off rows outside them:
    ``max_x_degree`` of those rows, which suffices for translation-covariant
    input, or one more than that.  So a block of the system gets the same
    answer whether or not other blocks are solved with it.
    """
    numbers, images = saturate_d(dim, [*rows, *target], x_cap)
    images = sorted(images.items(), key=itemgetter(0))
    keys = [("b", cand) for cand, _ in images]
    callers = sorted({c for coeffs in rows.values() for c, v in coeffs.items() if v})
    rank = {c: i for i, c in enumerate(callers, len(keys))}
    # each row's {column rank: coefficient} and right-hand side, by number
    system = [{rank[c]: v for c, v in coeffs.items() if v} for coeffs in rows.values()]
    system += [{} for _ in range(len(rows), len(numbers))]
    rhs = [0] * len(numbers)
    for row, c in target.items():
        rhs[numbers[row]] = c
    for col, (_, image) in enumerate(images):
        for i, c in image:
            system[i][col] = c
    return linsolve.eliminate(keys + callers, zip(system, rhs))


def _solve_d(rho: LocalForm) -> LocalForm:
    """Solve d(sigma) = rho over a saturated candidate basis.

    The system splits into independent blocks labelled by the jet content
    d preserves; each block is first attempted without raising the
    base-coordinate degree, which suffices for translation-covariant inputs,
    and retried with one extra coordinate power before giving up.  Raises
    NoPrimitiveError when inconsistent (rho not exact within the bounds).
    """
    if rho.is_zero():
        return LocalForm(rho.dim)
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
        for (_, (dxs, contacts, mono)), c in solution.items():
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
    """h(rho): at top degree the primitive of rho, below it the primitive
    of rho - h(d rho).  h(d rho) reads d(d rho) = 0 off the d-image, which
    keeps its zero d unless the jet-order cap could be met (``forms.d``),
    so d rho is not differentiated again."""
    if rho.is_zero():
        return LocalForm(rho.dim)
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
        return LocalForm(f.dim)
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
