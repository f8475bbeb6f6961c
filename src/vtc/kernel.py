"""Exact graded polynomial algebra over jet-space coordinates.

The scalar layer of the engine: polynomial expressions in base coordinates
x^i, formal parameters, and jet variables phi^a_I (a field component
together with a symmetric multi-index of total-derivative directions).
Coefficients are exact rationals in one form (``exact``): an ``int``
exactly when the value is integral, a ``Fraction`` only when its
denominator is greater than 1, and never zero.  Every sparse sum, of
coefficients or of scalars, is built by ``add_into``, which keeps that
contract in one place; ``mul_into``, the one multiply-accumulate, adds a
product of scalars into a sparse sum through it.  Grassmann-odd
generators anticommute and square to zero.  Everything downstream (forms,
variational calculus, brackets) is built on top of this module.  A jet
variable's key is one interned int per jet (``Jet``), so every sparse sum
hashes and compares an int, not a nested tuple; the ``Spectrum`` owns the
table that interns them.  Its one bound is the jet-order cap,
``JET_ORDER_CAP``: a context variable that every jet shift reads, so no
operation takes the cap as an argument.  Every result an object keeps
lives on its owner's ``memo`` dict, kept by ``keep`` under the operation
and the cap; a jet's neighbour list is made with it and filled on demand.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Mapping,
                    Optional, Sequence, Union)

if TYPE_CHECKING:
    from .forms import LocalForm

EVEN = 0
ODD = 1

# Roles a declared field can play in a model.
ROLE_FIELD = "field"
ROLE_ANTIFIELD = "antifield"
ROLE_SOURCE = "source"

_ROLES = (ROLE_FIELD, ROLE_ANTIFIELD, ROLE_SOURCE)

# The role whose variables each counting grading counts.
GRADING_ROLES = {"momentum": ROLE_SOURCE, "polyvector": ROLE_ANTIFIELD}


class EngineError(Exception):
    """Root of the engine's typed failures.  A report records one under the
    stage that raised it; ``vtc`` exits 1 and prints ``vtc: <Type>: <message>``.
    Parse and usage errors (exit 2) are not engine errors, and neither is a
    rejected declaration (``DeclarationError``)."""


class JetOrderCapExceeded(EngineError):
    """Raised when an operation would need jet variables beyond the cap."""


class DeclarationError(ValueError):
    """A declaration that ``FieldSpec``, ``Spectrum`` or ``model.Model``
    rejects.  ``declaration`` names its kind (``"dim"``, ``"metric"``,
    ``"field"``, ``"algebra"``, ``"master"``, ``"density"``, ``"phase
    density"``, ``"foliation"`` or ``"model"``) and ``name`` the field,
    density or model it concerns, if any: the parser reports the error at
    that declaration's line, and ``vtc`` exits 2."""

    def __init__(self, message: str, declaration: str,
                 name: Optional[str] = None):
        super().__init__(message)
        self.declaration = declaration
        self.name = name


# The jet-order cap: the maximal multi-index length ``jet_shift`` may
# produce.  ``vtc`` sets it once per command from VTC_JET_ORDER_CAP; a
# library caller sets and resets it, or sets it in a copied context.
JET_ORDER_CAP: ContextVar[int] = ContextVar("JET_ORDER_CAP", default=8)

_MISSING = object()


def keep(memo: dict, key, compute: Callable[[], object]):
    """``compute()``, kept in ``memo`` under ``key`` and the jet-order cap in
    force.  The cap is part of the key because a result found under one cap
    may need jets past a lower one, where a fresh computation raises; a
    computation that raises keeps nothing."""
    k = (key, JET_ORDER_CAP.get())
    out = memo.get(k, _MISSING)
    if out is _MISSING:
        out = memo[k] = compute()
    return out


# ---------------------------------------------------------------------------
# Multi-indices
# ---------------------------------------------------------------------------


def multi_index(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted) multi-index from an iterable of directions."""
    return tuple(sorted(parts))


def mi_remove(mi: Sequence[int], j: int) -> tuple[int, ...]:
    """Multi-index with one occurrence of direction j removed; a j that is
    not in ``mi`` is a ``DeclarationError``."""
    if j not in mi:
        raise DeclarationError(
            f"direction {j} not in the multi-index {tuple(mi)}", "dim")
    parts = list(mi)
    parts.remove(j)
    return tuple(parts)


# ---------------------------------------------------------------------------
# Field declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Declaration of one field: name, statistics and tensor layout.

    ``shape`` gives the index ranges of the component labels; a scalar field
    has shape ().  ``slot_kinds`` marks each shape slot as a base index
    (contracted with the base metric) or an internal index (contracted with
    the spectrum's invariant form); unmarked slots default to base.
    ``form_factor`` is None or the constant horizontal ``LocalForm`` over
    the spectrum's base that the field is implicitly wedged with (for
    base-form-valued fields, see ``forms.dressed``); the kernel only checks
    its dimension.
    """

    name: str
    parity: int
    ghost: int
    role: str = ROLE_FIELD
    shape: tuple[int, ...] = ()
    conjugate: Optional[str] = None
    slot_kinds: Optional[tuple[str, ...]] = None
    form_factor: Optional[LocalForm] = None

    def __post_init__(self) -> None:
        if self.parity not in (EVEN, ODD):
            raise DeclarationError(f"parity must be 0 or 1, got {self.parity}",
                                   "field", self.name)
        if self.role not in _ROLES:
            raise DeclarationError(f"unknown role {self.role!r}", "field",
                                   self.name)
        if self.slot_kinds is not None:
            if len(self.slot_kinds) != len(self.shape):
                raise DeclarationError("slot_kinds must mark every shape slot",
                                       "field", self.name)
            for k in self.slot_kinds:
                if k not in ("base", "internal"):
                    raise DeclarationError(f"unknown slot kind {k!r}",
                                           "field", self.name)

    def components(self) -> Iterator[tuple[int, ...]]:
        """All component label tuples of this field."""
        return itertools.product(*(range(n) for n in self.shape))


class Spectrum:
    """Ordered collection of field declarations over an n-dimensional base."""

    def __init__(self, dim: int, fields: Sequence[FieldSpec],
                 metric: Optional[Sequence[Fraction]] = None,
                 parameters: Sequence[str] = (),
                 algebra_form: Optional[Sequence[Fraction]] = None):
        if dim < 1:
            raise DeclarationError("base dimension must be positive", "dim")
        if dim > MAX_DIM:
            raise DeclarationError(
                f"base dimension {dim} exceeds {MAX_DIM}, the most a jet "
                "generator's key holds", "dim")
        self.dim = dim
        self.fields = tuple(fields)
        self.by_name: dict[str, FieldSpec] = {}
        for f in self.fields:
            if f.name in self.by_name:
                raise DeclarationError(f"duplicate field {f.name}", "field",
                                       f.name)
            self.by_name[f.name] = f
        if metric is None:
            metric = [1] * dim
        self.metric = tuple(exact(Fraction(m)) for m in metric)
        if len(self.metric) != dim:
            raise DeclarationError(
                "metric must have one diagonal entry per dimension", "metric")
        self.parameters = tuple(parameters)
        self.algebra_form = (None if algebra_form is None
                             else tuple(exact(Fraction(a)) for a in algebra_form))
        for f in self.fields:
            if f.conjugate is not None and f.conjugate not in self.by_name:
                raise DeclarationError(
                    f"field {f.name} declares unknown conjugate {f.conjugate}",
                    "field", f.name)
            if (f.form_factor is not None
                    and getattr(f.form_factor, "dim", None) != dim):
                raise DeclarationError(
                    f"dressing of {f.name} is not a form over dimension {dim}",
                    "field", f.name)
            for kind, n in zip(f.slot_kinds or (), f.shape):
                if kind == "internal" and len(self.algebra_form or ()) != n:
                    raise DeclarationError(
                        f"field {f.name} has an internal slot of range {n}, "
                        f"so the algebra form needs {n} entries", "algebra",
                        f.name)
            if (len(f.shape) > MAX_COMPONENT_LABELS
                    or any(n > MAX_COMPONENT_RANGE for n in f.shape)):
                raise DeclarationError(
                    f"field {f.name} has shape {f.shape}, but a jet "
                    f"generator's key holds at most {MAX_COMPONENT_LABELS} "
                    f"component labels, each of range at most "
                    f"{MAX_COMPONENT_RANGE}", "field", f.name)
        # the table that interns the spectrum's jet generators, per field
        self.jet_fields = {f.name: JetField.of(pos, f, dim)
                           for pos, f in enumerate(self.fields)}

    def _key(self):
        return (self.dim, self.fields, self.metric, self.parameters,
                self.algebra_form)

    def __eq__(self, other) -> bool:
        return isinstance(other, Spectrum) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def field(self, name: str) -> FieldSpec:
        try:
            return self.by_name[name]
        except KeyError:
            raise KeyError(f"unknown field {name!r}") from None

    def conjugate_pairs(self) -> list[tuple[FieldSpec, FieldSpec]]:
        """(conjugate, field) pairs in declaration order of the conjugates."""
        pairs = []
        for f in self.fields:
            if f.conjugate is not None:
                pairs.append((f, self.by_name[f.conjugate]))
        return pairs


# ---------------------------------------------------------------------------
# Generators
#
# A generator is a plain tuple whose leading rank makes the canonical
# monomial order: parameters, base coordinates, jet variables, auxiliaries.
#   (0, name)                     parameter (even)
#   (1, i)                        base coordinate x^i (even)
#   (2, J, F)                     jet variable
#   (3, name, parity, ghost)      auxiliary constant
# A jet variable's J is a ``Jet``: an int whose value packs (field
# declaration position, component, multi-index), so that int order is the
# order of those tuples, and a jet is hashed and compared as one int.  Its
# F is its field's ``JetField``: the str repr((name, parity, ghost, role)),
# whose hash Python caches, so that two jet variables are equal exactly
# when (position, name, component, multi-index, parity, ghost, role) are.
# Jets are interned per field in the ``Spectrum``'s ``jet_fields``, and
# scalars print and grade from the attributes of J and F, with no spectrum
# at hand.
#
# The packing has fixed widths: a component label of range at most
# MAX_COMPONENT_RANGE in each of at most MAX_COMPONENT_LABELS slots, and a
# multi-index of at most MAX_JET_ORDER directions, each below MAX_DIM.
# ``Spectrum`` rejects a declaration past the first two or the last, and a
# jet of higher order raises a typed error that names its bound.
# ---------------------------------------------------------------------------

Gen = tuple

MAX_COMPONENT_LABELS = 4
MAX_COMPONENT_RANGE = 255  # a label l is packed as l + 1 in 8 bits
MAX_JET_ORDER = 16
MAX_DIM = 31  # a direction j is packed as j + 1 in 5 bits


class JetField(str):
    """The field part of a jet generator's key (see "Generators"), with the
    field's ``name``, ``parity``, ``ghost``, ``role``, declaration ``pos``
    and base ``dim``, and ``jets``: the table interning the field's jet
    generators by (component, multi-index)."""

    @classmethod
    def of(cls, pos: int, f: FieldSpec, dim: int) -> "JetField":
        # made by str's constructor, so a pickled one loads as it is
        F = cls(repr((f.name, f.parity, f.ghost, f.role)))
        F.name, F.parity, F.ghost, F.role = f.name, f.parity, f.ghost, f.role
        F.pos, F.dim, F.jets = pos, dim, {}
        return F


class Jet(int):
    """The int of a jet generator's key (see "Generators"), with its
    ``comp``, its ``mi`` and the list ``near``, made with the jet: once
    asked for, the jets one derivative up (``jet_shift``) and down
    (``jet_lower``) in direction j are kept in it, at j and at dim + j."""


def _intern(F: JetField, comp: tuple[int, ...], mi: tuple[int, ...]) -> Gen:
    """The jet generator of field ``F`` at ``comp`` and ``mi``, made and
    entered in ``F``'s table; ``comp`` is in the field's range."""
    if len(mi) > MAX_JET_ORDER:
        raise DeclarationError(
            f"multi-index {mi} of field {F.name} has more than "
            f"{MAX_JET_ORDER} directions, the most a jet generator's key "
            "holds", "field", F.name)
    for j in mi:
        if not 0 <= j < F.dim:
            raise DeclarationError(
                f"direction {j} out of range for dimension {F.dim}", "dim")
    code = F.pos
    for c in comp:
        code = code << 8 | c + 1
    code <<= 8 * (MAX_COMPONENT_LABELS - len(comp))
    for j in mi:
        code = code << 5 | j + 1
    J = Jet(code << 5 * (MAX_JET_ORDER - len(mi)))
    J.comp, J.mi, J.near = comp, mi, [None] * (2 * F.dim)
    g = F.jets[(comp, mi)] = (2, J, F)
    return g


def param_gen(name: str) -> Gen:
    return (0, name)


def coord_gen(i: int) -> Gen:
    return (1, i)


def jet_gen(spectrum: Spectrum, name: str, comp: Sequence[int] = (),
            mi: Iterable[int] = ()) -> Gen:
    return field_jet(spectrum, spectrum.field(name), comp, mi)


def field_jet(spectrum: Spectrum, f: FieldSpec, comp: Sequence[int],
              mi: Iterable[int]) -> Gen:
    """The jet variable of ``spectrum``'s field ``f`` at component ``comp``
    and multi-index ``mi``."""
    comp = tuple(comp)
    dims = f.shape
    if len(comp) != len(dims) or any(not 0 <= c < d for c, d in zip(comp, dims)):
        raise DeclarationError(
            f"component {comp} out of range for field {f.name} with shape "
            f"{dims}", "field", f.name)
    mi = multi_index(mi)
    F = spectrum.jet_fields[f.name]
    return F.jets.get((comp, mi)) or _intern(F, comp, mi)


def aux_gen(name: str, parity: int = EVEN, ghost: int = 0) -> Gen:
    return (3, name, parity, ghost)


def gen_parity(g: Gen) -> int:
    if g[0] == 2:
        return g[2].parity
    if g[0] == 3:
        return g[2]
    return EVEN


def gen_ghost(g: Gen) -> int:
    if g[0] == 2:
        return g[2].ghost
    if g[0] == 3:
        return g[3]
    return 0


def gen_role(g: Gen) -> Optional[str]:
    return g[2].role if g[0] == 2 else None


def is_jet(g: Gen) -> bool:
    return g[0] == 2


def jet_name(g: Gen) -> str:
    return g[2].name


def jet_comp(g: Gen) -> tuple[int, ...]:
    return g[1].comp


def jet_mi(g: Gen) -> tuple[int, ...]:
    return g[1].mi


def jet_with_mi(g: Gen, mi: tuple[int, ...]) -> Gen:
    """The jet generator of the same field component with the canonical
    multi-index ``mi``."""
    F, comp = g[2], g[1].comp
    return F.jets.get((comp, mi)) or _intern(F, comp, mi)


def jet_base(g: Gen) -> Gen:
    """The underived generator of the same field component."""
    return jet_with_mi(g, ())


def shifts_under_cap(order: int) -> bool:
    """Whether ``jet_shift`` gives a jet of this order one more derivative
    under the cap in force, rather than raising ``JetOrderCapExceeded``:
    the order is below both the cap and ``MAX_JET_ORDER``."""
    return order < min(JET_ORDER_CAP.get(), MAX_JET_ORDER)


def jet_shift(g: Gen, j: int) -> Gen:
    """The jet generator with one more derivative in direction j, within the
    jet-order cap in force (``JET_ORDER_CAP``).  For a direction in range
    it raises exactly when ``shifts_under_cap`` of the jet's order is
    false."""
    J = g[1]
    n = len(J.mi)
    cap = JET_ORDER_CAP.get()
    if n >= cap:
        raise JetOrderCapExceeded(
            f"jet order {n + 1} exceeds cap {cap} (raise kernel.JET_ORDER_CAP, "
            "or VTC_JET_ORDER_CAP for vtc)")
    near = J.near
    # a direction out of range meets its error in _intern
    out = near[j] if 0 <= j < g[2].dim else None
    if out is None:
        if n >= MAX_JET_ORDER:
            raise JetOrderCapExceeded(
                f"jet order {n + 1} exceeds {MAX_JET_ORDER}, the most a jet "
                "generator's key holds")
        mi = J.mi
        k = bisect_right(mi, j)
        out = near[j] = jet_with_mi(g, mi[:k] + (j,) + mi[k:])
    return out


def jet_lower(g: Gen, j: int) -> Gen:
    """The jet generator with one derivative in direction j fewer; a j that
    is not in the multi-index is a ``DeclarationError``."""
    J, F, dim = g[1], g[2], g[2].dim
    near = J.near
    out = near[dim + j] if 0 <= j < dim else None
    if out is None:
        if j not in J.mi:
            raise DeclarationError(
                f"direction {j} not in the multi-index {J.mi} of field "
                f"{F.name} at component {J.comp}", "dim")
        out = near[dim + j] = jet_with_mi(g, mi_remove(J.mi, j))
    return out


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple[tuple[Gen, int], ...] sorted by generator

ONE_MONO: Monomial = ()


def mono_parity(m: Monomial) -> int:
    odd = 0
    for g, e in m:
        rank = g[0]
        if rank == 2:
            odd += g[2].parity * e
        elif rank == 3:
            odd += g[2] * e
    return odd % 2


def mono_ghost(m: Monomial) -> int:
    return sum(gen_ghost(g) * e for g, e in m)


def mono_degree(m: Monomial, role: str) -> int:
    """Number of jet factors whose field has the given role."""
    return sum(e for g, e in m if gen_role(g) == role)


def mono_mul(m1: Monomial, m2: Monomial) -> tuple[int, Optional[Monomial]]:
    """Product of canonical monomials; returns (koszul_sign, monomial).

    The sign accounts for sorting the concatenation into canonical order;
    ``None`` is returned when an odd generator repeats (the product is 0).
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    # Suffix odd-degree table for m1.
    n1 = len(m1)
    odd_suffix = [0] * (n1 + 1)
    for idx in range(n1 - 1, -1, -1):
        g, e = m1[idx]
        odd_suffix[idx] = odd_suffix[idx + 1] + (gen_parity(g) & (e & 1))
    out: list[tuple[Gen, int]] = []
    sign = 1
    i = j = 0
    while i < n1 and j < len(m2):
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 < g2:
            out.append((g1, e1))
            i += 1
        elif g1 > g2:
            if gen_parity(g2) and (e2 & 1) and (odd_suffix[i] & 1):
                sign = -sign
            out.append((g2, e2))
            j += 1
        else:
            if gen_parity(g1):
                return 1, None  # odd generator squared
            out.append((g1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


def mono_total_derivative(m: Monomial, j: int) -> list[tuple[Monomial, int]]:
    """Total derivative in base direction j of the monomial m, as
    (monomial, coefficient) pairs with distinct monomials.

    An even derivation: x^j goes to 1, every jet variable phi^a_I goes to
    phi^a_{Ij} (``jet_shift``), parameters and auxiliaries go to 0.  The
    shifted generator moves to its sorted place past generators of its own
    field component only, so an odd one is signed by how many it passes.
    """
    out = []
    for idx, (g, e) in enumerate(m):
        rank = g[0]
        if rank == 1:
            if g[1] == j:
                head = m[:idx] + ((g, e - 1),) if e > 1 else m[:idx]
                out.append((head + m[idx + 1:], e))
        elif rank == 2:
            repl = jet_shift(g, j)
            if e > 1:
                rest = m[:idx] + ((g, e - 1),) + m[idx + 1:]
            else:
                rest = m[:idx] + m[idx + 1:]
            k = bisect_left(rest, (repl,))
            odd = g[2].parity
            if k < len(rest) and rest[k][0] == repl:
                if odd:
                    continue  # odd generator squared
                out.append((rest[:k] + ((repl, rest[k][1] + 1),) + rest[k + 1:], e))
            else:
                sign = -1 if odd and (k - idx) % 2 else 1
                out.append((rest[:k] + ((repl, 1),) + rest[k:], sign * e))
    return out


# ---------------------------------------------------------------------------
# Graded scalars
# ---------------------------------------------------------------------------

Coefficient = Union[int, Fraction]


def exact(q: Coefficient) -> Coefficient:
    """q in the one form of a coefficient: ``int`` when integral, else the
    ``Fraction`` as it is.  Hot loops test ``type(q) is Fraction`` first, so
    an ``int`` pays no call."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def add_into(out: dict, key, value) -> None:
    """Add ``value`` into ``out[key]``: the one step of every sparse sum.

    ``value`` is a coefficient or a ``GradedScalar``; the sum is made
    ``exact`` when it is a ``Fraction``, and a zero sum drops the key, so
    ``out`` never holds a zero."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
    if type(value) is Fraction:
        value = exact(value)
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def mul_into(out: dict, a_terms: Mapping[Monomial, Coefficient],
             b_terms: Mapping[Monomial, Coefficient], negate: bool) -> None:
    """Add the product of the scalars on ``a_terms`` and ``b_terms``, negated
    when ``negate``, into the sparse sum ``out``, term by term
    (``add_into``): the one multiply-accumulate."""
    for m1, c1 in a_terms.items():
        for m2, c2 in b_terms.items():
            sign, m = mono_mul(m1, m2)
            if m is not None:
                add_into(out, m, -c1 * c2 if (sign < 0) != negate else c1 * c2)


class GradedScalar:
    """Exact polynomial in graded generators: a map monomial -> rational.

    A coefficient is an ``int`` exactly when its value is integral and a
    ``Fraction`` only when its denominator is greater than 1 (``exact``),
    so integer arithmetic stays in ``int``.  Immutable in use (no mutating
    public API); arithmetic returns fresh instances and drops zero
    coefficients eagerly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Coefficient]] = None):
        data: dict[Monomial, Coefficient] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = exact(Fraction(c))
                if c:
                    data[m] = c
        self.terms = data

    # -- constructors -----------------------------------------------------

    @classmethod
    def _wrap(cls, terms: dict[Monomial, Coefficient]) -> "GradedScalar":
        """A scalar on ``terms`` as given: coefficients ``exact``, none zero."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def constant(cls, c: Coefficient) -> "GradedScalar":
        return cls({ONE_MONO: c})

    @classmethod
    def generator(cls, g: Gen) -> "GradedScalar":
        return cls({((g, 1),): 1})

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GradedScalar):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == GradedScalar.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        from . import printing
        return printing.scalar_text(self)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GradedScalar") -> "GradedScalar":
        out = dict(self.terms)
        for m, c in _coerce(other).terms.items():
            add_into(out, m, c)
        return GradedScalar._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "GradedScalar":
        return GradedScalar._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedScalar") -> "GradedScalar":
        return self + (-_coerce(other))

    def __rsub__(self, other: "GradedScalar") -> "GradedScalar":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["GradedScalar", Coefficient]) -> "GradedScalar":
        if not isinstance(other, GradedScalar):
            # scalars are never mutated, so a sign needs no new coefficients
            if other == 1:
                return self
            if other == -1:
                return -self
            if type(other) is not int and type(other) is not Fraction:
                other = Fraction(other)
            return GradedScalar._wrap(
                {m: exact(c * other) for m, c in self.terms.items()} if other else {})
        out: dict[Monomial, Coefficient] = {}
        mul_into(out, self.terms, other.terms, False)
        return GradedScalar._wrap(out)

    def __rmul__(self, other: Coefficient) -> "GradedScalar":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- grading ----------------------------------------------------------

    def grade_of(self, grading: str) -> Optional[int]:
        """Common grade of all terms, or None when inhomogeneous / zero.

        ``grading`` is one of "parity", "ghost", "momentum", "polyvector".
        """
        grade = None
        for m in self.terms:
            w = (mono_parity(m) if grading == "parity"
                 else mono_grade(m, grading))
            if w != grade:
                if grade is not None:
                    return None
                grade = w
        return grade

    def grade_split(self, grading: str) -> dict[int, "GradedScalar"]:
        """Decompose into homogeneous pieces of the given grading."""
        out: dict[int, dict[Monomial, Coefficient]] = {}
        for m, c in self.terms.items():
            out.setdefault(mono_grade(m, grading), {})[m] = c
        return {k: GradedScalar._wrap(v) for k, v in sorted(out.items())}

    def parity(self) -> Optional[int]:
        return self.grade_of("parity")

    # -- derivatives ------------------------------------------------------

    def partials(self, left: bool = False) -> dict[Gen, "GradedScalar"]:
        """Every nonzero partial derivative, keyed by generator, from one
        pass over the terms: right derivatives, or left ones when ``left``.

        Stripping an odd generator signs each term by the odd factors it
        crosses on its way out: those after it for a right derivative,
        those before it for a left one.
        """
        out: dict[Gen, dict[Monomial, Coefficient]] = {}
        for m, c in self.terms.items():
            odd_after = sum(gen_parity(h) for h, _ in m)
            odd_before = 0
            for idx, (h, e) in enumerate(m):
                if gen_parity(h):  # odd generators have exponent 1
                    odd_after -= 1
                    rest = m[:idx] + m[idx + 1:]
                    cc = -c if (odd_before if left else odd_after) & 1 else c
                    odd_before += 1
                elif e > 1:
                    rest = m[:idx] + ((h, e - 1),) + m[idx + 1:]
                    cc = exact(c * e)
                else:
                    rest = m[:idx] + m[idx + 1:]
                    cc = c
                # (h, rest) determines the term, so nothing accumulates
                out.setdefault(h, {})[rest] = cc
        return {h: GradedScalar._wrap(t) for h, t in out.items()}

    def total_derivative(self, j: int) -> "GradedScalar":
        """Total derivative in base direction j, monomial by monomial
        (``mono_total_derivative``)."""
        out: dict[Monomial, Coefficient] = {}
        for m, c in self.terms.items():
            for mono, k in mono_total_derivative(m, j):
                add_into(out, mono, c if k == 1 else -c if k == -1 else c * k)
        return GradedScalar._wrap(out)

    # -- inspection -------------------------------------------------------

    def max_jet_order(self) -> int:
        orders = [len(jet_mi(g)) for m in self.terms for g, _ in m if is_jet(g)]
        return max(orders, default=0)

    def substitute(self, table: Mapping[Gen, "GradedScalar"]) -> "GradedScalar":
        """Replace generators by scalar expressions (a ring homomorphism).

        Substituted values must have the parity of the generator they
        replace; this is checked for the values this scalar uses, so a
        large table costs nothing for the entries it does not reach.
        """
        used = {g for m in self.terms for g, _ in m}
        for g in used.intersection(table):
            v = table[g]
            p = v.grade_of("parity")
            if v and p != gen_parity(g):
                raise ValueError(
                    f"substitution for parity-{gen_parity(g)} generator has parity {p}")
        total = GradedScalar()
        for m, c in self.terms.items():
            acc = GradedScalar.constant(c)
            for g, e in m:
                val = table.get(g)
                if val is None:
                    val = GradedScalar.generator(g)
                for _ in range(e):
                    acc = acc * val
            total = total + acc
        return total


def _coerce(v: Union[GradedScalar, Coefficient]) -> GradedScalar:
    if isinstance(v, GradedScalar):
        return v
    return GradedScalar.constant(v)


def mono_grade(m: Monomial, grading: str) -> int:
    """Grade of one monomial under a grading of ``GradedScalar.grade_of``."""
    if grading == "parity":
        return mono_parity(m)
    if grading == "ghost":
        return mono_ghost(m)
    return mono_degree(m, grading_role(grading))


def grading_role(grading: str) -> str:
    """The role whose variables a counting grading counts."""
    role = GRADING_ROLES.get(grading)
    if role is None:
        raise ValueError(f"unknown grading {grading!r}")
    return role


ZERO = GradedScalar()
ONE = GradedScalar.constant(1)


def x(i: int) -> GradedScalar:
    return GradedScalar.generator(coord_gen(i))


def parameter(name: str) -> GradedScalar:
    return GradedScalar.generator(param_gen(name))


def jet(spectrum: Spectrum, name: str, comp: Sequence[int] = (),
        mi: Iterable[int] = ()) -> GradedScalar:
    return GradedScalar.generator(jet_gen(spectrum, name, comp, mi))
