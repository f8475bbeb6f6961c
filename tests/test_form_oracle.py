"""An independent oracle for d, delta and contract, and property tests of the
complex identities and of the wedge product.

The oracle applies each derivation D of parity e literally by the
right-derivation rule of the ``forms`` docstring: a term is the wedge of its
single factors s ^ dx^{i1} ^ ... ^ d(phi_1) ^ ..., and

    D(f_1 ^ ... ^ f_n) = sum_k (-1)^{e * parity(f_{k+1} ^ ... ^ f_n)}
                         f_1 ^ ... ^ D(f_k) ^ ... ^ f_n,

with D(f_k) given on single factors; the partials delta takes of a scalar
come from ``test_scalars.ref_partial``, one scan per generator, not from
``GradedScalar.partials``, and d takes a scalar's total derivatives from
those partials by the chain rule, not from
``GradedScalar.total_derivative``; it shifts jet variables and checks the
jet-order cap itself (``oracle_shift``), not with ``kernel.jet_shift``.
Every product is taken with ``forms.wedge``, which inserts the factors of
its right operand one at a time, so the signs come from that generic
factor-by-factor canonicalisation, not from the sign rules the engine's
derivations use.
Wedge itself is checked against the chain of its one-factor steps, and for
associativity and graded commutativity.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vtc import builtin_models
from vtc import forms as F
from vtc import kernel as K
from vtc import parser, printing, report

from test_scalars import ref_partial


SP = K.Spectrum(4, [
    K.FieldSpec("A", K.EVEN, 0, shape=(4,)),
    K.FieldSpec("C", K.ODD, 1),
    K.FieldSpec("As", K.ODD, -1, role=K.ROLE_ANTIFIELD, shape=(4,)),
    K.FieldSpec("Cs", K.EVEN, -2, role=K.ROLE_ANTIFIELD),
], parameters=("k",))

DIM = 4


def J(name, comp=(), mi=()):
    return K.jet(SP, name, comp, mi)


def G(name, comp=(), mi=()):
    return K.jet_gen(SP, name, comp, mi)


def sf(s):
    return F.scalar_form(DIM, s)


# -- the oracle ----------------------------------------------------------------


def single_factors(key, s, dim=DIM):
    """The term (key, s) as its list of (form, parity) single factors; the
    scalar's parity is never needed, since nothing stands to its left."""
    dxs, contacts = key
    fs = [(F.scalar_form(dim, s), None)]
    fs += [(F.dx(dim, i), 1) for i in dxs]
    fs += [(F.contact(dim, g), (K.gen_parity(g) + 1) % 2) for g in contacts]
    return fs


def by_right_derivation(form, parity, on_scalar, on_dx, on_contact):
    out = F.LocalForm(form.dim)
    for key, s in form.terms.items():
        dxs, contacts = key
        images = [on_scalar(s)] + [on_dx(i) for i in dxs] + [on_contact(g) for g in contacts]
        fs = single_factors(key, s, form.dim)
        for k, image in enumerate(images):
            if image.is_zero():
                continue
            rest = sum(p for _, p in fs[k + 1:])
            term = F.wedge_all([f for f, _ in fs[:k]] + [image] + [f for f, _ in fs[k + 1:]])
            out = out - term if (parity and rest % 2) else out + term
    return out


def zero_form(_):
    return F.LocalForm(DIM)


def oracle_shift(g, j):
    """phi^a_{Ij}: j joins the sorted multi-index, within the jet-order cap."""
    if len(K.jet_mi(g)) >= K.JET_ORDER_CAP.get():
        raise K.JetOrderCapExceeded(f"cap {K.JET_ORDER_CAP.get()}")
    return K.jet_with_mi(g, tuple(sorted(K.jet_mi(g) + (j,))))


def oracle_total_derivative(s, j):
    """total_j(s) by the chain rule of an even derivation: the sum over the
    generators g of s of the right partial along g times total_j(g), which
    is 1 for x^j and the shifted jet variable for a jet variable."""
    out = K.ZERO
    for g in sorted({g for m in s.terms for g, _ in m}):
        if g == K.coord_gen(j):
            out = out + ref_partial(s, g)
        elif K.is_jet(g):
            shifted = K.GradedScalar.generator(oracle_shift(g, j))
            out = out + ref_partial(s, g) * shifted
    return out


def oracle_d(form):
    dim = form.dim

    def on_scalar(s):
        return sum((F.wedge(F.scalar_form(dim, oracle_total_derivative(s, j)),
                            F.dx(dim, j))
                    for j in range(dim)), F.LocalForm(dim))

    def on_contact(g):
        return sum((F.wedge(F.contact(dim, oracle_shift(g, j)),
                            F.dx(dim, j))
                    for j in range(dim)), F.LocalForm(dim))

    return by_right_derivation(form, 1, on_scalar, zero_form, on_contact)


def oracle_delta(form):
    def on_scalar(s):
        jets = sorted({g for m in s.terms for g, _ in m if K.is_jet(g)})
        return sum((F.wedge(sf(ref_partial(s, g)), F.contact(DIM, g)) for g in jets),
                   F.LocalForm(DIM))

    return by_right_derivation(form, 1, on_scalar, zero_form, zero_form)


def oracle_contract(X, form):
    def on_contact(g):
        return sf(X.component(g))

    return by_right_derivation(form, (X.parity + 1) % 2, zero_form, zero_form, on_contact)


# -- seeded random forms -------------------------------------------------------


POOL = [K.parameter("k"), K.x(0), K.x(2), J("A", (0,)), J("A", (1,), (0,)),
        J("A", (2,), (1, 3)), J("C"), J("C", (), (0,)), J("C", (), (2,)),
        J("As", (0,)), J("As", (2,), (1,)), J("Cs"), J("Cs", (), (3,))]
# d(A) and d(As) are odd contacts, d(C) and d(Cs) even ones
CPOOL = [G("A", (0,)), G("A", (1,), (0,)), G("A", (0,), (0,)), G("C"),
         G("C", (), (1,)), G("As", (0,)), G("As", (3,), (2,)), G("Cs"), G("Cs", (), (0,))]


def random_scalar(rnd, nterms=3, nfac=3):
    """Sums of random monomials: the parity is often mixed."""
    t = K.ZERO
    for _ in range(rnd.randint(1, nterms)):
        term = K.GradedScalar.constant(
            Fraction(rnd.randint(-3, 3) or 1, rnd.randint(1, 3)))
        for _ in range(rnd.randint(0, nfac)):
            term = term * rnd.choice(POOL)
        t = t + term
    return t


def random_term(rnd):
    w = sf(random_scalar(rnd))
    for _ in range(rnd.randint(0, 3)):
        w = F.wedge(w, F.dx(DIM, rnd.randrange(DIM)))
    for _ in range(rnd.randint(0, 3)):
        w = F.wedge(w, F.contact(DIM, rnd.choice(CPOOL)))
    return w


def random_form(rnd):
    w = F.LocalForm(DIM)
    for _ in range(rnd.randint(1, 3)):
        w = w + random_term(rnd)
    return w


def repeated_even_contacts(rnd):
    """Terms with d(C)^d(C): C is odd, so its contacts are even and a
    repeated one survives."""
    out = []
    for g in (G("C"), G("C", (), (1,))):
        dg = F.contact(DIM, g)
        w = F.wedge_all([sf(random_scalar(rnd)), F.dx(DIM, rnd.randrange(DIM)), dg, dg])
        out.append(w)
        out.append(F.wedge(w, F.contact(DIM, rnd.choice(CPOOL))))
        out.append(F.wedge(F.contact(DIM, rnd.choice(CPOOL)), w))
    return out


def fields():
    """Odd and even evolutionary fields; the last has a component of mixed
    parity."""
    brs = F.EvoField(SP, {G("A", (m,)): J("C", (), (m,)) for m in range(DIM)},
                     parity=K.ODD)
    translation = F.EvoField(SP, {G("A", (m,)): J("A", (m,), (1,)) for m in range(DIM)},
                             parity=K.EVEN)
    antifield = F.EvoField(SP, {G("As", (m,)): J("A", (m,), (0,)) * J("C")
                                for m in range(DIM)} | {G("Cs"): J("A", (1,), (2,))},
                           parity=K.EVEN)
    mixed = F.EvoField(SP, {G("A", (0,)): J("A", (1,)) + J("C") * J("Cs"),
                            G("C"): J("As", (2,), (0,)) + K.x(0) * J("C", (), (1,))},
                       parity=K.EVEN)
    return [brs, translation, antifield, mixed]


def sample_forms(seed, n):
    rnd = random.Random(seed)
    return [random_form(rnd) for _ in range(n)] + repeated_even_contacts(rnd)


def test_sample_covers_the_cases():
    forms = sample_forms(31, 60)
    parities = {w.parity() for w in forms}
    assert {0, 1, None} <= parities
    scalars = [s for w in forms for s in w.terms.values()]
    assert any(s.parity() is None for s in scalars)
    assert any(len(set(c)) < len(c) for w in forms for _, c in w.terms)
    assert {X.parity for X in fields()} == {0, 1}


def test_d_matches_the_right_derivation_oracle():
    for w in sample_forms(31, 60):
        assert F.d(w) == oracle_d(w)


def test_delta_matches_the_right_derivation_oracle():
    for w in sample_forms(32, 60):
        assert F.delta(w) == oracle_delta(w)


def test_contract_matches_the_right_derivation_oracle():
    forms = sample_forms(33, 40)
    for X in fields():
        for w in forms:
            assert F.contract(X, w) == oracle_contract(X, w)


def by_single_factors(u, v):
    """u ^ v as the sum over term pairs of the chain of one-factor wedges."""
    out = F.LocalForm(DIM)
    for ku, su in u.terms.items():
        for kv, sv in v.terms.items():
            fs = single_factors(ku, su) + single_factors(kv, sv)
            out = out + F.wedge_all([f for f, _ in fs])
    return out


def test_wedge_matches_the_chain_of_single_factors():
    forms = sample_forms(34, 30)
    for u, v in zip(forms, forms[1:] + forms[:1]):
        assert F.wedge(u, v) == by_single_factors(u, v)


# -- the printed syntax is the model language ---------------------------------


def test_repr_of_a_form_parses_back_to_it():
    for w in sample_forms(36, 60):
        assert parser.parse_expression(repr(w), SP) == w


def test_str_of_a_scalar_parses_back_to_it():
    rnd = random.Random(37)
    for _ in range(60):
        s = random_scalar(rnd)
        assert parser.parse_expression(str(s), SP) == sf(s)


def test_repr_of_a_field_names_its_components_in_the_model_language():
    X = F.EvoField(SP, {G("C"): J("A", (0,)) * J("Cs"),
                        G("A", (1,)): K.x(0) * J("C", (), (1,)) - J("As", (2,), (1, 3))},
                   parity=K.ODD)
    assert repr(X) == "EvoField[A[1]: x[0]*C,[1] - As[2],[1 3]; C: A[0]*Cs]"
    assert repr(F.EvoField(SP, {}, parity=K.EVEN)) == "EvoField[0]"


# -- d of one form monomial ---------------------------------------------------


_MAXWELL = builtin_models.builtin("maxwell")
# Maxwell's spacetime (dimension 4) and leaf (dimension 3) spectra
MAXWELL_SPECTRA = (_MAXWELL.spectrum, _MAXWELL.foliation.spatial)


@st.composite
def form_monomials(draw):
    """(dim, form monomial) over a Maxwell spectrum: jet factors, powers of
    coordinates and of a parameter, odd and even contacts, sometimes an even
    contact twice, and up to every dx."""
    sp = draw(st.sampled_from(MAXWELL_SPECTRA))
    dim = sp.dim

    def jet_gen(fields):
        f = draw(st.sampled_from(fields))
        comp = tuple(draw(st.integers(0, n - 1)) for n in f.shape)
        mi = draw(st.lists(st.integers(0, dim - 1), max_size=2))
        return K.jet_gen(sp, f.name, comp, mi)

    s = K.ONE
    for _ in range(draw(st.integers(0, 3))):
        s = s * K.GradedScalar.generator(jet_gen(sp.fields))
    for i in draw(st.lists(st.integers(0, dim - 1), max_size=3)):
        s = s * K.x(i)
    for _ in range(draw(st.integers(0, 2))):
        s = s * K.parameter("k")
    contacts = [jet_gen(sp.fields) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        # d(g) of an odd field g is even, so it may repeat
        g = jet_gen([f for f in sp.fields if f.parity == K.ODD])
        contacts += [g, g]
    contacts = tuple(sorted(contacts))
    assume(s and all(K.gen_parity(g) or contacts.count(g) == 1 for g in contacts))
    dxs = tuple(sorted(set(draw(st.lists(st.integers(0, dim - 1), max_size=dim)))))
    (mono,) = s.terms
    return dim, (dxs, contacts, mono)


def monomial_form(dim, key):
    dxs, contacts, mono = key
    return F.LocalForm(dim, {(dxs, contacts): K.GradedScalar({mono: 1})})


def form_monomial_items(form):
    return {(dxs, contacts, m): c
            for (dxs, contacts), s in form.terms.items() for m, c in s.terms.items()}


@settings(max_examples=200, deadline=None)
@given(form_monomials())
# d(A[0]) ^ d(A[0],[1]): d(A[0],[j]) passes d(A[0],[1]) for j > 1, and
# repeats it for j = 1
@example((4, ((), (K.jet_gen(MAXWELL_SPECTRA[0], "A", (0,)),
                   K.jet_gen(MAXWELL_SPECTRA[0], "A", (0,), (1,))), ())))
def test_d_of_a_form_monomial_matches_the_right_derivation_oracle(case):
    dim, key = case
    assert F.d_monomial(dim, key) == \
        form_monomial_items(oracle_d(monomial_form(dim, key)))


@settings(max_examples=200, deadline=None)
@given(form_monomials())
def test_d_of_a_form_monomial_exceeds_the_jet_order_cap_where_the_oracle_does(case):
    dim, key = case
    token = K.JET_ORDER_CAP.set(1)
    try:
        try:
            expected = form_monomial_items(oracle_d(monomial_form(dim, key)))
        except K.JetOrderCapExceeded:
            expected = None
        if len(key[0]) == dim:
            # every dx is there, so d takes no derivative; the oracle, which
            # differentiates first and wedges after, may still reach the cap
            assert F.d_monomial(dim, key) == {}
        elif expected is None:
            with pytest.raises(K.JetOrderCapExceeded):
                F.d_monomial(dim, key)
        else:
            assert F.d_monomial(dim, key) == expected
    finally:
        K.JET_ORDER_CAP.reset(token)


# -- property tests of the complex identities ---------------------------------


@st.composite
def local_forms(draw):
    w = F.LocalForm(DIM)
    for _ in range(draw(st.integers(1, 3))):
        sign = -1 if draw(st.booleans()) else 1
        s = K.GradedScalar.constant(Fraction(sign * draw(st.integers(1, 4)),
                                             draw(st.integers(1, 3))))
        for f in draw(st.lists(st.sampled_from(POOL), max_size=3)):
            s = s * f
        term = sf(s)
        for i in draw(st.lists(st.integers(0, DIM - 1), max_size=3)):
            term = F.wedge(term, F.dx(DIM, i))
        for g in draw(st.lists(st.sampled_from(CPOOL), max_size=3)):
            term = F.wedge(term, F.contact(DIM, g))
        w = w + term
    return w


@settings(max_examples=60, deadline=None)
@given(local_forms())
def test_d_squares_to_zero(w):
    assert F.d(F.d(w)).is_zero()


@settings(max_examples=60, deadline=None)
@given(local_forms())
def test_delta_squares_to_zero(w):
    assert F.delta(F.delta(w)).is_zero()


@settings(max_examples=60, deadline=None)
@given(local_forms())
def test_d_and_delta_anticommute(w):
    assert (F.d(F.delta(w)) + F.delta(F.d(w))).is_zero()


# -- property tests of the wedge product --------------------------------------


def parity_parts(w):
    """w split by total parity, scalars of mixed parity split too."""
    parts = {0: {}, 1: {}}
    for key, s in w.terms.items():
        dxs, contacts = key
        base = len(dxs) + sum((K.gen_parity(g) + 1) % 2 for g in contacts)
        for p, part in s.grade_split("parity").items():
            parts[(p + base) % 2][key] = part
    return {p: F.LocalForm(DIM, t) for p, t in parts.items()}


@settings(max_examples=40, deadline=None)
@given(local_forms(), local_forms(), local_forms())
def test_wedge_is_associative(u, v, w):
    assert F.wedge(F.wedge(u, v), w) == F.wedge(u, F.wedge(v, w))


def graded_swap(u, v):
    """v ^ u, each pair of parity parts signed by the Koszul rule."""
    out = F.LocalForm(DIM)
    for p, up in parity_parts(u).items():
        for q, vq in parity_parts(v).items():
            t = F.wedge(vq, up)
            out = out - t if p * q else out + t
    return out


@settings(max_examples=40, deadline=None)
@given(local_forms(), local_forms())
def test_wedge_is_graded_commutative(u, v):
    assert F.wedge(u, v) == graded_swap(u, v)


def test_wedge_is_graded_commutative_on_samples():
    forms = sample_forms(35, 30)
    for u, v in zip(forms, forms[2:] + forms[:2]):
        assert F.wedge(u, v) == graded_swap(u, v)


# -- the one printing walk against a two-walk reference -----------------------
#
# The reference renders a form's text in one walk and its report term list
# in another, spelling every generator twice; the engine reads both off one
# ``printing.form_walk``.


def ref_scalar_text(s):
    out = ""
    for m, c in sorted(s.terms.items()):
        a = abs(c)
        spelled = "*".join(printing.gen_text(g) for g, p in m for _ in range(p))
        body = str(a) if not m else spelled if a == 1 else f"{a}*{spelled}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = "-" + body if c < 0 else body
    return out or "0"


def ref_form_text(a):
    if a.is_zero():
        return "0"
    parts = []
    for (dxs, contacts), coeff in sorted(a.terms.items()):
        text = ref_scalar_text(coeff)
        if len(coeff.terms) != 1 or text.startswith("-"):
            text = f"({text})"
        factors = [f"dx[{j}]" for j in dxs]
        factors += [f"del({printing.gen_text(g)})" for g in contacts]
        if text != "1" or not factors:
            factors.insert(0, text)
        parts.append(" ^ ".join(factors))
    return " + ".join(parts)


def ref_form_json(a):
    terms = []
    for (dxs, contacts), s in sorted(a.terms.items()):
        scal = [{"monomial": [printing.gen_text(g) for g, p in mono
                              for _ in range(p)],
                 "coefficient": str(c)}
                for mono, c in sorted(s.terms.items())]
        terms.append({"dx": list(dxs),
                      "contacts": [printing.gen_text(g) for g in contacts],
                      "scalar": scal})
    return {"text": ref_form_text(a), "terms": terms}


def ref_components_json(components):
    return {printing.gen_text(g): ref_scalar_text(v)
            for g, v in sorted(components.items())}


def ref_field_repr(X):
    bits = [f"{printing.gen_text(g)}: {ref_scalar_text(v)}"
            for g, v in sorted(X.base_components().items())]
    return "EvoField[" + "; ".join(bits) + "]" if bits else "EvoField[0]"


@st.composite
def scalars(draw, pool=POOL):
    """Sums of signed, fractional monomials with powers; sometimes zero."""
    s = K.ZERO
    for _ in range(draw(st.integers(0, 3))):
        sign = -1 if draw(st.booleans()) else 1
        term = K.GradedScalar.constant(Fraction(sign * draw(st.integers(1, 4)),
                                                draw(st.integers(1, 3))))
        for f in draw(st.lists(st.sampled_from(pool), max_size=3)):
            term = term * f
        s = s + term
    return s


UNDERIVED = [G("A", (0,)), G("A", (3,)), G("C"), G("As", (1,)), G("Cs")]


@st.composite
def even_fields(draw):
    """Fields whose component on u is q * u for an x- and k-polynomial q,
    so every component map is consistent in parity and ghost number."""
    qs = draw(st.dictionaries(st.sampled_from(UNDERIVED),
                              scalars([K.parameter("k"), K.x(0), K.x(2)])))
    return F.EvoField(SP, {g: q * K.GradedScalar.generator(g)
                           for g, q in qs.items()},
                      parity=K.EVEN)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.just(F.LocalForm(DIM)), local_forms()))
def test_one_walk_renders_a_form_as_the_two_walks_did(a):
    got = report.form_json(a)
    assert got == ref_form_json(a)
    assert got["text"] == printing.form_text(a) == ref_form_text(a)
    assert parser.parse_expression(printing.form_text(a), SP) == a


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(CPOOL), scalars()), even_fields())
def test_component_texts_render_as_the_two_walks_did(components, X):
    got = printing.component_texts(components)
    assert list(got.items()) == list(ref_components_json(components).items())
    assert repr(X) == ref_field_repr(X)
