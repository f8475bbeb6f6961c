"""Local differential forms on jet space and the Cartan calculus on them.

A local form is a sum of terms

    (scalar) ^ dx^{i1} ^ ... ^ dx^{ip} ^ d(phi^{a1}_{I1}) ^ ... ^ d(phi^{aq}_{Iq})

with exact graded-polynomial coefficients, horizontal generators dx^i and
contact generators d(phi^a_I), the vertical differentials of jet variables.
Everything carries a single total parity: a scalar contributes its Grassmann
parity, each dx^i contributes 1, and each contact d(phi^a_I) contributes
parity(phi^a) + 1.  Products reorder with the Koszul sign of that parity, so
the dx^i anticommute among themselves, contacts of even fields anticommute,
and contacts of odd fields are symmetric (d(C)^d(C) survives).

The horizontal differential d and the vertical differential delta are odd
right derivations:

    D(u ^ v) = u ^ D(v) + (-1)^{parity(v)} D(u) ^ v

with d(f) = sum_j (total_j f) ^ dx^j, d(d(phi^a_I)) = d(phi^a_{Ij}) ^ dx^j,
delta(f) = sum (right-partial of f) ^ d(phi^a_I), and delta(dx) =
delta(d(phi)) = 0.  They satisfy d d = 0, delta delta = 0 and
d delta + delta d = 0.

Contraction with an evolutionary field X is a right derivation of parity
parity(X) + 1 that kills scalars and dx and sends d(phi^a_I) to the
prolonged component X^a_I.  The vertical Lie derivative is

    lie(X, w) = contract(X, delta(w)) + (-1)^{parity(X)} delta(contract(X, w)).

wedge, d, delta and contract add each image term straight into its
canonical key (dx directions ascending, contacts sorted) with
``kernel.add_into``, and sign it once.
For a term s ^ w, let P(w) be its number of dx plus the parities of its
contacts, C(w) the parity of its contacts alone, and cp(g) the parity of the
contact d(g).  Then:

* wedge of s ^ w and t ^ v: s * t, where the odd part of t changes sign when
  P(w) is odd; then each dx^i of v goes to its sorted place, times
  (-1)^{#(dx^j in the key so far with j > i) + C(w)}; then each contact d(g)
  of v goes after the contacts <= d(g), times (-1)^{cp(g) * c} with c the
  parity of the contacts above it; zero when a dx repeats or an odd contact
  repeats.
* d, coefficient part: (-1)^{P(w)} total_j(s) with dx^j inserted into w,
  times (-1)^{#(dx^i in w with i < j)}; zero when dx^j is already there.
* d, contact part: s with one contact d(phi_I) replaced by d(phi_{Ij}) and
  dx^j inserted, times (-1)^{C(w) + #(dx^i in w with i > j)}, times
  (-1)^{cp(phi) * c}, where c is the parity of the contacts d(phi_{Ij})
  passes on its way to its sorted place; zero when dx^j is already there,
  or d(phi_{Ij}) is odd and already there.
* delta: (-1)^{P(w)} times the right partial of s along g, with d(g)
  inserted into w, times
  (-1)^{cp(g) * (#dx + parity of the contacts before d(g))}; zero when d(g)
  is odd and already there.
* contract, contact d(phi^a_I) at slot k: s * X^a_I with that contact
  removed, where the odd part of X^a_I changes sign when the dx and the
  contacts before slot k have odd parity, times (-1)^{(parity(X) + 1) * c}
  with c the parity of the contacts after slot k.

Signs are applied by negation, never by multiplying coefficients.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import kernel, printing
from .kernel import Gen, GradedScalar, Spectrum

# A form term key: (ascending tuple of dx directions, sorted tuple of contact
# generators).  Contact generators of odd fields (even contacts) may repeat.
Key = tuple[tuple[int, ...], tuple[Gen, ...]]
# One form monomial: a term key and one monomial of its coefficient.
MonoKey = tuple[tuple[int, ...], tuple[Gen, ...], kernel.Monomial]

_EMPTY: Key = ((), ())


def _contact_parity(g: Gen) -> int:
    return (kernel.gen_parity(g) + 1) % 2


def _key_grade(key: Key, grading: str) -> int:
    """What a term key's dx and contact generators add to a grading, before
    parity is taken mod 2: a dx is odd, a contact d(g) has the parity of
    d(g) and the ghost number and role of g."""
    dxs, contacts = key
    if grading == "parity":
        return len(dxs) + sum(_contact_parity(g) for g in contacts)
    return kernel.mono_grade(tuple((g, 1) for g in contacts), grading)


def _odd_part_negated(s: GradedScalar) -> GradedScalar:
    """s with its parity-odd part negated: what s turns into when an odd
    factor moves past it."""
    p = s.grade_of("parity")
    if p is not None:
        return -s if p else s
    parts = s.grade_split("parity")
    return parts[0] - parts[1]


class LocalForm:
    """A local differential form over an n-dimensional base.

    Forms are values: never mutate ``terms``.  A form keeps its own hash,
    d, delta, horizontal homotopy and split by each grading once computed,
    in its ``memo`` dict under the operation and the jet-order cap
    (``kernel.keep``), and drops them with itself; a d-image is made
    keeping its zero d (``d``).
    """

    __slots__ = ("dim", "terms", "memo")

    def __init__(self, dim: int, terms: Optional[Mapping[Key, GradedScalar]] = None):
        self.dim = dim
        data: dict[Key, GradedScalar] = {}
        if terms:
            for k, s in terms.items():
                if s:
                    data[k] = s
        self.terms = data
        self.memo = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def _wrap(cls, dim: int, terms: dict[Key, GradedScalar]) -> "LocalForm":
        """A form on ``terms`` as given: no scalar in it zero."""
        res = cls.__new__(cls)
        res.dim = dim
        res.terms = terms
        res.memo = {}
        return res

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalForm):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return kernel.keep(self.memo, "hash", lambda: hash(
            (self.dim, frozenset(self.terms.items()))))

    def __repr__(self) -> str:
        return printing.form_text(self)

    def __add__(self, other: "LocalForm") -> "LocalForm":
        _same_dim(self, other)
        out = dict(self.terms)
        for k, s in other.terms.items():
            kernel.add_into(out, k, s)
        return LocalForm._wrap(self.dim, out)

    def __neg__(self) -> "LocalForm":
        return LocalForm._wrap(self.dim, {k: -s for k, s in self.terms.items()})

    def __sub__(self, other: "LocalForm") -> "LocalForm":
        return self + (-other)

    def scale(self, c: Union[int, Fraction, GradedScalar]) -> "LocalForm":
        """Left multiplication by a constant or an even x-free scalar."""
        if isinstance(c, GradedScalar):
            return wedge(scalar_form(self.dim, c), self)
        out = {k: s * c for k, s in self.terms.items()}
        return LocalForm(self.dim, out)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    # -- degrees ----------------------------------------------------------

    def hdeg(self) -> Optional[int]:
        degs = {len(k[0]) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def vdeg(self) -> Optional[int]:
        degs = {len(k[1]) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_density(self) -> bool:
        """Zero, or a top horizontal form: bidegree (0, dim)."""
        return self.is_zero() or self.bidegree() == (0, self.dim)

    def bidegree(self) -> Optional[tuple[int, int]]:
        """(vertical, horizontal) degree when homogeneous."""
        h, v = self.hdeg(), self.vdeg()
        if h is None or v is None:
            return None
        return (v, h)

    def grade_split(self, grading: str) -> dict[int, "LocalForm"]:
        """Decompose into homogeneous pieces of a grading of
        ``GradedScalar.grade_of``, counting each term's dx and contact
        factors (``_key_grade``) as well as its coefficient.  The form keeps
        the split (``kernel.keep``): never mutate the dict."""
        return kernel.keep(self.memo, ("grade_split", grading),
                           lambda: self._grade_split(grading))

    def _grade_split(self, grading: str) -> dict[int, "LocalForm"]:
        out: dict[int, dict[Key, GradedScalar]] = {}
        for key, s in self.terms.items():
            kg = _key_grade(key, grading)
            for w, part in s.grade_split(grading).items():
                w += kg
                out.setdefault(w % 2 if grading == "parity" else w, {})[key] = part
        return {w: LocalForm(self.dim, t) for w, t in sorted(out.items())}

    def grade_of(self, grading: str) -> Optional[int]:
        """Common grade of all terms, or None when inhomogeneous / zero: the
        key of ``grade_split``'s one piece, read term by term until a second
        grade appears."""
        grade = None
        for key, s in self.terms.items():
            w = s.grade_of(grading)
            if w is None:
                return None
            w += _key_grade(key, grading)
            if grading == "parity":
                w %= 2
            if grade is not None and w != grade:
                return None
            grade = w
        return grade

    def parity(self) -> Optional[int]:
        return self.grade_of("parity")

    def bidegree_split(self) -> dict[tuple[int, int], "LocalForm"]:
        """Split into (vertical, horizontal) homogeneous pieces."""
        out: dict[tuple[int, int], dict[Key, GradedScalar]] = {}
        for k, s in self.terms.items():
            out.setdefault((len(k[1]), len(k[0])), {})[k] = s
        return {bd: LocalForm(self.dim, t) for bd, t in sorted(out.items())}

    # -- inspection -------------------------------------------------------

    def max_jet_order(self) -> int:
        """The highest jet order among the contacts and the coefficients'
        jet factors; ``d`` asks it of every image, so it reads each
        generator's key in place (see kernel's "Generators")."""
        m = 0
        for (_, contacts), s in self.terms.items():
            for g in contacts:
                if len(g[1].mi) > m:
                    m = len(g[1].mi)
            for mono in s.terms:
                for g, _ in mono:
                    if g[0] == 2 and len(g[1].mi) > m:
                        m = len(g[1].mi)
        return m


def _same_dim(a: LocalForm, b: LocalForm) -> None:
    if a.dim != b.dim:
        raise ValueError("wedge of forms over different base dimensions")


def _wedge_key(a: Key, cpar: int, b: Key) -> Optional[tuple[Key, int]]:
    """The canonical key of the factors of a followed by those of b, inserted
    one at a time, and the parity of the reordering; None when a dx or an
    odd contact repeats.  ``cpar`` is the parity of a's contacts."""
    (dxs, contacts), (dxb, cb) = a, b
    odd = 0
    # dx^i moves left past a's contacts and the dx's above it
    for i in dxb:
        k = bisect_left(dxs, i)
        if k < len(dxs) and dxs[k] == i:
            return None
        odd += len(dxs) - k + cpar
        dxs = dxs[:k] + (i,) + dxs[k:]
    # d(g) moves left past the contacts above it
    for g in cb:
        k = bisect_right(contacts, g)
        if _contact_parity(g):
            if k and contacts[k - 1] == g:
                return None
            odd += sum(_contact_parity(h) for h in contacts[k:])
        contacts = contacts[:k] + (g,) + contacts[k:]
    return (dxs, contacts), odd % 2


def wedge(a: LocalForm, b: LocalForm) -> LocalForm:
    _same_dim(a, b)
    a_terms = [(ka, sum(_contact_parity(g) for g in ka[1]) % 2, sa)
               for ka, sa in a.terms.items()]
    a_odd = any((len(ka[0]) + cpar) % 2 for ka, cpar, _ in a_terms)
    out: dict[Key, GradedScalar] = {}
    for kb, sb in b.terms.items():
        flipped = _odd_part_negated(sb) if a_odd else sb
        for ka, cpar, sa in a_terms:
            # b's scalar moves left past a's dx's and contacts
            s = sa * (flipped if (len(ka[0]) + cpar) % 2 else sb)
            placed = _wedge_key(ka, cpar, kb) if s else None
            if placed is not None:
                key, odd = placed
                kernel.add_into(out, key, -s if odd else s)
    return LocalForm._wrap(a.dim, out)


def wedge_all(forms: Sequence[LocalForm]) -> LocalForm:
    if not forms:
        raise ValueError("empty wedge")
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


# -- basic builders ---------------------------------------------------------


def scalar_form(dim: int, s: Union[GradedScalar, int, Fraction]) -> LocalForm:
    if not isinstance(s, GradedScalar):
        s = GradedScalar.constant(s)
    return LocalForm(dim, {_EMPTY: s})


def dx(dim: int, i: int) -> LocalForm:
    if not 0 <= i < dim:
        raise ValueError(f"dx index {i} out of range for dimension {dim}")
    return LocalForm(dim, {((i,), ()): kernel.ONE})


def contact(dim: int, g: Gen) -> LocalForm:
    if not kernel.is_jet(g):
        raise ValueError("contact forms exist only for jet variables")
    return LocalForm(dim, {((), (g,)): kernel.ONE})


def volume(dim: int) -> LocalForm:
    return LocalForm(dim, {(tuple(range(dim)), ()): kernel.ONE})


def dressed(spectrum: Spectrum, name: str, comp: Sequence[int] = (),
            mi: Sequence[int] = ()) -> LocalForm:
    """A field component as a local form, wedged on the right with the
    field's dressing ``FieldSpec.form_factor`` when it declares one."""
    sf = scalar_form(spectrum.dim, kernel.jet(spectrum, name, comp, mi))
    fac = spectrum.field(name).form_factor
    return sf if fac is None else wedge(sf, fac)


# -- differentials ----------------------------------------------------------


def d_monomial(dim: int, key: MonoKey) -> dict[MonoKey, int]:
    """Horizontal differential of the form monomial ``key`` with coefficient
    1, as {form monomial: integer coefficient}."""
    dxs, contacts, mono = key
    out: dict[MonoKey, int] = {}
    n = len(dxs)
    if n == dim:
        return out
    pars = [_contact_parity(g) for g in contacts]
    cpar = sum(pars)
    # the directions j whose dx^j is not in w yet, with the number of
    # dx^i in w with i < j and the dx of the image
    free = []
    for j in range(dim):
        pos = bisect_left(dxs, j)
        if pos == n or dxs[pos] != j:
            free.append((j, pos, dxs[:pos] + (j,) + dxs[pos:]))
    # (-1)^{P(w)} total_j(s) ^ dx^j ^ w: dx^j moves right past the dx^i
    # with i < j; the image monomials are distinct
    for j, pos, jdxs in free:
        odd = (n + cpar + pos) % 2
        for m, k in kernel.mono_total_derivative(mono, j):
            out[(jdxs, contacts, m)] = -k if odd else k
    # d(phi_I) -> d(phi_{Ij}) ^ dx^j, signed by the parity of the contacts
    # after it; dx^j moves left past the earlier contacts, d(phi_{Ij}) and
    # the dx^i with i > j (together C(w) + #(i > j)), then d(phi_{Ij})
    # moves to its sorted place k among the others, past the contacts of
    # the others between k and idx.  A repeated even contact gives the same
    # image once per copy.
    for idx, g in enumerate(contacts):
        p = pars[idx]
        others = contacts[:idx] + contacts[idx + 1:]
        for j, pos, jdxs in free:
            g2 = kernel.jet_shift(g, j)
            k = bisect_left(others, g2)
            sign = cpar + n - pos
            if p:
                if k < len(others) and others[k] == g2:
                    continue
                sign += sum(pars[k:idx]) if k <= idx else sum(pars[idx + 1:k + 1])
            kernel.add_into(out, (jdxs, others[:k] + (g2,) + others[k:], mono),
                            -1 if sign % 2 else 1)
    return out


def d(form: LocalForm) -> LocalForm:
    """Horizontal differential (odd right derivation), monomial by monomial
    (``d_monomial``).  The form keeps it (``kernel.keep``), so asking
    again returns the same object.  The image keeps its own d, the zero
    form (d^2 = 0), when computing that d could not meet the jet-order
    cap: every jet of the image shifts under the cap in force
    (``kernel.shifts_under_cap``).  Otherwise d of the image is computed,
    and raises, as for any form."""
    return kernel.keep(form.memo, "d", lambda: _d(form))


def _d(form: LocalForm) -> LocalForm:
    dim = form.dim
    out: dict[Key, dict[kernel.Monomial, kernel.Coefficient]] = {}
    for (dxs, contacts), s in form.terms.items():
        if len(dxs) == dim:
            continue
        for mono, c in s.terms.items():
            image = d_monomial(dim, (dxs, contacts, mono))
            for (jdxs, jcontacts, m), k in image.items():
                kernel.add_into(out.setdefault((jdxs, jcontacts), {}), m,
                                c if k == 1 else -c if k == -1 else c * k)
    # a key whose monomials all cancelled is dropped
    image = LocalForm._wrap(dim, {key: GradedScalar._wrap(t)
                                  for key, t in out.items() if t})
    if kernel.shifts_under_cap(image.max_jet_order()):
        kernel.keep(image.memo, "d", lambda: LocalForm(dim))
    return image


def delta(form: LocalForm) -> LocalForm:
    """Vertical differential (odd right derivation).  The form keeps it
    (``kernel.keep``), as it keeps ``d``."""
    return kernel.keep(form.memo, "delta", lambda: _delta(form))


def _delta(form: LocalForm) -> LocalForm:
    out: dict[Key, GradedScalar] = {}
    dim = form.dim
    for (dxs, contacts), s in form.terms.items():
        base_par = len(dxs) + sum(_contact_parity(h) for h in contacts)
        for g, df in s.partials().items():
            p = _contact_parity(g)
            if kernel.is_jet(g) and not (p and g in contacts):
                # d(g) moves right past the dx^i and the contacts below it
                k = bisect_right(contacts, g)
                sign = base_par
                if p:
                    sign += len(dxs) + sum(_contact_parity(h) for h in contacts[:k])
                kernel.add_into(out, (dxs, contacts[:k] + (g,) + contacts[k:]),
                                -df if sign % 2 else df)
    return LocalForm._wrap(dim, out)


# -- evolutionary vector fields ---------------------------------------------


class EvoField:
    """Evolutionary vertical vector field: components on underived fields,
    prolonged to all jet variables by total derivatives.

    ``components`` maps underived jet generators to their component scalars;
    missing entries are zero.  Parity and ghost number are inferred from the
    nonzero components and checked for consistency.  Two fields are equal
    when their spectrum, parity, ghost number and nonzero components are;
    the prolonged components computed so far do not count.
    """

    def __init__(self, spectrum: Spectrum,
                 components: Mapping[Gen, GradedScalar],
                 parity: Optional[int] = None,
                 ghost: Optional[int] = None):
        self.spectrum = spectrum
        comps: dict[Gen, GradedScalar] = {}
        for g, v in components.items():
            if not kernel.is_jet(g):
                raise ValueError("EvoField components must be keyed by jet variables")
            if kernel.jet_mi(g):
                raise ValueError("EvoField components must be keyed by underived variables")
            if v:
                comps[g] = v
        inferred_p = set()
        inferred_g = set()
        for g, v in comps.items():
            vp = v.grade_of("parity")
            if vp is not None:
                inferred_p.add((vp + kernel.gen_parity(g)) % 2)
            vg = v.grade_of("ghost")
            if vg is not None:
                inferred_g.add(vg - kernel.gen_ghost(g))
        if parity is None:
            if len(inferred_p) > 1:
                raise ValueError("EvoField components have inconsistent parity")
            parity = inferred_p.pop() if inferred_p else kernel.EVEN
        elif inferred_p - {parity}:
            raise ValueError("EvoField component parity does not match declared parity")
        if ghost is None:
            ghost = inferred_g.pop() if len(inferred_g) == 1 else None
        self.parity = parity
        self.ghost = ghost
        self._components = comps
        self.memo: dict = {}

    def component(self, g: Gen) -> GradedScalar:
        """Prolonged component X^a_I = total_I(X^a).

        A prolonged component is kept in the field's ``memo`` under its
        generator and the jet-order cap (``kernel.keep``): one found under
        one cap may need jets past a lower one, where a fresh field raises."""
        val = self._components.get(g)
        if val is not None:
            return val
        return kernel.keep(self.memo, g, lambda: self._prolong(g))

    def _prolong(self, g: Gen) -> GradedScalar:
        mi = kernel.jet_mi(g)
        if not mi or kernel.jet_base(g) not in self._components:
            return kernel.ZERO
        parent = kernel.jet_with_mi(g, mi[:-1])
        return self.component(parent).total_derivative(mi[-1])

    def base_components(self) -> dict[Gen, GradedScalar]:
        return dict(self._components)

    def apply(self, s: GradedScalar) -> GradedScalar:
        """Action on a scalar: sum of (right-partial) * component."""
        total = kernel.ZERO
        for g, part in s.partials().items():
            if kernel.is_jet(g):
                total = total + part * self.component(g)
        return total

    def is_zero(self) -> bool:
        return all(not v for v in self._components.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvoField):
            return NotImplemented
        return (self.spectrum == other.spectrum and self.parity == other.parity
                and self.ghost == other.ghost
                and self._components == other._components)

    def __hash__(self) -> int:
        return hash((self.spectrum, self.parity, self.ghost,
                     frozenset(self._components.items())))

    def __repr__(self) -> str:
        bits = [f"{g}: {v}" for g, v in
                printing.component_texts(self._components).items()]
        return "EvoField[" + "; ".join(bits) + "]" if bits else "EvoField[0]"


def scale_field(X: EvoField, c: Union[int, Fraction]) -> EvoField:
    comps = {g: v * c for g, v in X.base_components().items()}
    return EvoField(X.spectrum, comps, parity=X.parity, ghost=X.ghost)


def add_fields(X: EvoField, Y: EvoField) -> EvoField:
    if X.parity != Y.parity:
        raise ValueError("cannot add evolutionary fields of different parity")
    comps = X.base_components()
    for g, v in Y.base_components().items():
        kernel.add_into(comps, g, v)
    return EvoField(X.spectrum, comps, parity=X.parity)


def contract(X: EvoField, form: LocalForm) -> LocalForm:
    """Interior product with an evolutionary field: a right derivation of
    parity parity(X) + 1 sending d(phi^a_I) to X^a_I."""
    out: dict[Key, dict[kernel.Monomial, kernel.Coefficient]] = {}
    dpar = (X.parity + 1) % 2
    for (dxs, contacts), s in form.terms.items():
        crossed = len(dxs)
        for idx, g in enumerate(contacts):
            comp = X.component(g)
            if comp:
                # the component moves left past the dx^i and contacts[:idx]
                if crossed % 2:
                    comp = _odd_part_negated(comp)
                negate = bool(dpar and sum(_contact_parity(h)
                                           for h in contacts[idx + 1:]) % 2)
                kernel.mul_into(
                    out.setdefault((dxs, contacts[:idx] + contacts[idx + 1:]), {}),
                    s.terms, comp.terms, negate)
            crossed += _contact_parity(g)
    # a key whose monomials all cancelled is dropped
    return LocalForm._wrap(form.dim, {key: GradedScalar._wrap(t)
                                      for key, t in out.items() if t})


def lie(X: EvoField, form: LocalForm) -> LocalForm:
    """Vertical Lie derivative along an evolutionary field."""
    first = contract(X, delta(form))
    second = delta(contract(X, form))
    if X.parity:
        return first - second
    return first + second


def commutator(X: EvoField, Y: EvoField) -> EvoField:
    """Graded commutator of evolutionary fields, itself evolutionary."""
    sign = -1 if (X.parity and Y.parity) else 1
    comps: dict[Gen, GradedScalar] = {}
    keys = set(X.base_components()) | set(Y.base_components())
    for g in keys:
        comps[g] = X.apply(Y.component(g)) - sign * Y.apply(X.component(g))
    return EvoField(X.spectrum, comps, parity=(X.parity + Y.parity) % 2)


def interior_coordinate(form: LocalForm, j: int) -> LocalForm:
    """Left interior product with the coordinate vector along direction j.

    Defined on horizontal-only forms; used to build the dual bases
    d^{n-1}x^i and their iterates from the volume form.
    """
    out: dict[Key, GradedScalar] = {}
    for (dxs, contacts), s in form.terms.items():
        if contacts:
            raise ValueError("interior_coordinate expects a horizontal form")
        if j not in dxs:
            continue
        pos = dxs.index(j)
        t = _odd_part_negated(s)
        kernel.add_into(out, (dxs[:pos] + dxs[pos + 1:], ()), -t if pos % 2 else t)
    return LocalForm._wrap(form.dim, out)
