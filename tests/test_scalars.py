"""Kernel-level tests: graded polynomial arithmetic, partials, total
derivatives, grading bookkeeping.

The frozen expected values in this file were worked out by hand on paper
(sign tracking for each swap) before the kernel was written.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtc import builtin_models, parser
from vtc import forms as F
from vtc import kernel as K

from test_linsolve import _load_calculus, is_exact


def bv_spectrum():
    """Four fields with the grading pattern of a gauge system with ghosts."""
    return K.Spectrum(4, [
        K.FieldSpec("A", K.EVEN, 0, shape=(4,)),
        K.FieldSpec("C", K.ODD, 1),
        K.FieldSpec("As", K.ODD, -1, role=K.ROLE_ANTIFIELD, shape=(4,)),
        K.FieldSpec("Cs", K.EVEN, -2, role=K.ROLE_ANTIFIELD),
    ], parameters=("k",))


SP = bv_spectrum()


def J(name, comp=(), mi=()):
    return K.jet(SP, name, comp, mi)


def G(name, comp=(), mi=()):
    return K.jet_gen(SP, name, comp, mi)


# -- construction and canonical order ---------------------------------------


def test_monomials_canonicalize():
    a = J("A", (1,)) * J("C") * K.x(0)
    b = K.x(0) * J("C") * J("A", (1,))
    assert a == b
    assert str(a) == "x[0]*A[1]*C"


def test_multi_index_sorted():
    assert J("A", (0,), (2, 0, 1)) == J("A", (0,), (1, 2, 0))
    assert K.multi_index([3, 1, 1]) == (1, 1, 3)


def test_odd_squares_vanish():
    assert (J("C") * J("C")).is_zero()
    assert (J("As", (2,)) * J("As", (2,))).is_zero()
    # an odd scalar squares to zero: the cross terms anticancel
    s = J("C") + J("As", (0,))
    assert (s * s).is_zero()


# -- frozen product signs ---------------------------------------------------


def test_product_sign_frozen_odd_pair():
    # C As0 . C_1 As1  ->  order C C_1 As0 As1 needs one odd swap (As0 past C_1)
    lhs = (J("C") * J("As", (0,))) * (J("C", (), (1,)) * J("As", (1,)))
    rhs = J("C") * J("C", (), (1,)) * J("As", (0,)) * J("As", (1,))
    assert lhs == -1 * rhs


def test_product_sign_frozen_anticommute():
    p = J("C") * J("As", (0,))
    q = J("As", (0,)) * J("C")
    assert p == -1 * q


def test_graded_commutativity_even_odd():
    a = J("A", (3,))
    c = J("C")
    assert a * c == c * a


def test_scalar_coefficients_exact():
    s = Fraction(1, 3) * J("A", (0,)) + Fraction(1, 6) * J("A", (0,))
    assert s == Fraction(1, 2) * J("A", (0,))
    assert (s - s).is_zero()


def test_coefficients_stay_integers_until_a_division():
    # a coefficient is an int exactly when its value is integral
    x = J("A", (0,))
    assert type(K.GradedScalar.constant(3).terms[()]) is int
    assert all(type(c) is int for c in (2 * x * x - x * 3).terms.values())
    half = x * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half.terms.values())
    assert x * Fraction(1, 2) * 2 == x
    assert all(type(c) is int for c in (x * Fraction(1, 2) * 2).terms.values())
    assert all(type(c) is int for c in (half + half).terms.values())
    # floats and bools are still taken as exact rationals
    assert x * 0.5 == Fraction(1, 2) * x
    for c, q, kind in ((0.5, Fraction(1, 2), Fraction), (True, 1, int),
                       (Fraction(4, 2), 2, int)):
        s = K.GradedScalar({(): c})
        assert s == q and type(s.terms[()]) is kind


# -- the int-or-proper-Fraction contract against a Fraction-only oracle ------
#
# Scalars are drawn from the generator pools of the calculus queries, with
# coefficients in {+-1, +-2, +-1/2, +-3/2}, given as ints or Fractions.  The
# oracle holds every coefficient as a Fraction and uses the kernel only for
# monomial products and the total derivative of one monomial.

COEFFS = [Fraction(s * n, d) for s in (1, -1) for n, d in ((1, 1), (2, 1), (1, 2), (3, 2))]


def _oracle_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
        if not out[m]:
            del out[m]
    return out


def _oracle_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, m = K.mono_mul(m1, m2)
            if m is not None:
                out = _oracle_add(out, {m: sign * c1 * c2})
    return out


def _oracle_total_derivative(a, j):
    out = {}
    for m, c in a.items():
        for mono, k in K.mono_total_derivative(m, j):
            out = _oracle_add(out, {mono: k * c})
    return out


def _oracle_partials(a, left):
    out = {}
    for m, c in a.items():
        for idx, (h, e) in enumerate(m):
            if K.gen_parity(h):
                crossed = m[:idx] if left else m[idx + 1:]
                odd = sum(K.gen_parity(k) for k, _ in crossed)
                rest, cc = m[:idx] + m[idx + 1:], -c if odd % 2 else c
            else:
                rest = m[:idx] + (((h, e - 1),) if e > 1 else ()) + m[idx + 1:]
                cc = c * e
            out[h] = _oracle_add(out.get(h, {}), {rest: cc})
    return {h: t for h, t in out.items() if t}


@pytest.fixture(scope="module")
def calculus_pools():
    """(dim, [generator scalar]) for each space of the calculus queries."""
    m = parser.parse_model(builtin_models.model_text("maxwell"))
    spectra = {"spacetime": m.spectrum, "leaf": m.foliation.spatial}
    pools = []
    for space, spec in sorted(_load_calculus().SPACES.items()):
        gens = [parser.parse_expression(t, spectra[space]).terms[((), ())]
                for t in spec["scalars"]]
        pools.append((spec["dim"], gens))
    return pools


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arithmetic_keeps_the_coefficient_contract(calculus_pools, data):
    dim, gens = data.draw(st.sampled_from(calculus_pools))
    coeff = st.sampled_from(COEFFS).flatmap(
        lambda q: st.sampled_from([q, q.numerator] if q.denominator == 1 else [q]))

    def leaf():
        c = data.draw(coeff)
        s, o = K.scalar(c), {(): Fraction(c)}
        for g in data.draw(st.lists(st.sampled_from(gens), max_size=2)):
            s, o = s * g, _oracle_mul(o, {m: Fraction(v) for m, v in g.terms.items()})
        return s, o

    values = [leaf() for _ in range(data.draw(st.integers(2, 4)))]
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(["+", "-", "*", "scale", "d", "partials"]))
        (a, oa), (b, ob) = data.draw(st.sampled_from(values)), data.draw(st.sampled_from(values))
        if op == "+":
            got = [(a + b, _oracle_add(oa, ob))]
        elif op == "-":
            got = [(a - b, _oracle_add(oa, {m: -c for m, c in ob.items()}))]
        elif op == "*":
            got = [(a * b, _oracle_mul(oa, ob))]
        elif op == "scale":
            c = data.draw(coeff)
            got = [(a * c, {m: v * c for m, v in oa.items()}),
                   (c * a, {m: c * v for m, v in oa.items()})]
        elif op == "d":
            j = data.draw(st.integers(0, dim - 1))
            got = [(a.total_derivative(j), _oracle_total_derivative(oa, j))]
        else:
            left = data.draw(st.booleans())
            ps, ops = a.partials(left), _oracle_partials(oa, left)
            assert set(ps) == set(ops)
            got = [(ps[h], ops[h]) for h in sorted(ps)]
        for s, o in got:
            assert s.terms == o
            assert all(is_exact(c) for c in s.terms.values()), s.terms
        values += got


# -- frozen partial derivatives ---------------------------------------------


def ref_partial(s, g, left=False):
    """Reference partial derivative along the one generator g, by its own
    scan of the terms: g is stripped where it stands, an odd g signed by
    the odd factors it crosses (those after it for a right derivative,
    those before it for a left one)."""
    out = K.ZERO
    for m, c in s.terms.items():
        for idx, (h, e) in enumerate(m):
            if h != g:
                continue
            if K.gen_parity(g):
                crossed = m[:idx] if left else m[idx + 1:]
                odd = sum(K.gen_parity(k) & (x & 1) for k, x in crossed)
                rest, cc = m[:idx] + m[idx + 1:], -c if odd % 2 else c
            elif e > 1:
                rest, cc = m[:idx] + ((h, e - 1),) + m[idx + 1:], c * e
            else:
                rest, cc = m[:idx] + m[idx + 1:], c
            out = out + K.GradedScalar({rest: cc})
    return out


def partial(s, g, left=False):
    """The engine's partial along g, checked against the reference."""
    got = s.partials(left).get(g, K.ZERO)
    assert got == ref_partial(s, g, left)
    return got


def test_partials_even_generator():
    f = J("A", (1,)) * J("A", (1,)) * K.x(0)
    g = G("A", (1,))
    assert partial(f, g) == 2 * K.x(0) * J("A", (1,))
    assert partial(f, g, left=True) == 2 * K.x(0) * J("A", (1,))


def test_partials_odd_frozen():
    f = J("C") * J("As", (0,)) * J("As", (1,))
    # right strip of As0: C As0 As1 = -C As1 As0
    assert partial(f, G("As", (0,))) == -1 * (J("C") * J("As", (1,)))
    # left strip of As0: C As0 As1 = -As0 C As1
    assert partial(f, G("As", (0,)), left=True) == -1 * (J("C") * J("As", (1,)))
    # right strip of C crosses two odd factors
    assert partial(f, G("C")) == J("As", (0,)) * J("As", (1,))
    assert partial(f, G("C"), left=True) == J("As", (0,)) * J("As", (1,))


def test_left_right_partial_relation():
    # for odd g and homogeneous f:  d_l f = (-1)^(par(f)+1) d_r f
    f0 = J("C") * J("As", (2,))           # even
    f1 = J("A", (0,)) * J("C")            # odd
    g = G("C")
    assert partial(f0, g, left=True) == -1 * partial(f0, g)
    assert partial(f1, g, left=True) == partial(f1, g)


def test_second_odd_partial_vanishes():
    f = J("C") * J("As", (0,)) * J("Cs")
    g = G("C")
    assert partial(partial(f, g), g).is_zero()


# -- frozen total derivatives -----------------------------------------------


def test_total_derivative_frozen():
    u = K.x(0) * J("A", (1,))
    assert u.total_derivative(0) == J("A", (1,)) + K.x(0) * J("A", (1,), (0,))
    assert u.total_derivative(1) == K.x(0) * J("A", (1,), (1,))
    v = J("C") * J("As", (0,))
    assert v.total_derivative(2) == (
        J("C", (), (2,)) * J("As", (0,)) + J("C") * J("As", (0,), (2,)))


def test_total_derivative_on_constants():
    assert K.parameter("k").total_derivative(0).is_zero()
    assert K.scalar(5).total_derivative(1).is_zero()
    assert K.aux("q", K.ODD).total_derivative(0).is_zero()


def test_total_derivative_power():
    f = J("A", (2,)) * J("A", (2,))
    assert f.total_derivative(3) == 2 * J("A", (2,)) * J("A", (2,), (3,))


def test_jet_order_cap():
    f = J("A", (0,), (0, 1))
    token = K.JET_ORDER_CAP.set(2)
    try:
        with pytest.raises(K.JetOrderCapExceeded) as info:
            f.total_derivative(1)
    finally:
        K.JET_ORDER_CAP.reset(token)
    # the message names both ways to raise the cap
    assert str(info.value) == ("jet order 3 exceeds cap 2 (raise kernel.JET_ORDER_CAP, "
                               "or VTC_JET_ORDER_CAP for vtc)")
    f.total_derivative(1)  # fine under the default cap


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (3, 1, 2), (2, 0)])
def test_components_run_over_the_shape_in_row_major_order(shape):
    def row_major(dims):
        if not dims:
            return [()]
        return [(v,) + rest for v in range(dims[0]) for rest in row_major(dims[1:])]
    spec = K.FieldSpec("A", K.EVEN, 0, shape=shape)
    assert list(spec.components()) == row_major(shape)


def test_max_jet_order_counts_derivatives_not_component_labels():
    # A[1]_002 has one component label and three derivatives, C_00 none and two
    a, c = J("A", (1,), (0, 0, 2)), J("C", (), (0, 0))
    assert a.max_jet_order() == 3
    assert c.max_jet_order() == 2
    assert (a * c + J("A", (3,))).max_jet_order() == 3
    assert F.scalar_form(4, a).max_jet_order() == 3
    assert F.scalar_form(4, c).max_jet_order() == 2
    assert F.contact(4, G("C", (), (0, 0))).max_jet_order() == 2


# -- grading ----------------------------------------------------------------


def test_grades():
    f = J("C") * J("As", (0,)) * J("As", (1,))
    assert f.grade_of("parity") == 1
    assert f.grade_of("ghost") == -1
    assert f.grade_of("polyvector") == 2
    assert f.grade_of("momentum") == 0
    mixed = J("C") + J("A", (0,))
    assert mixed.grade_of("parity") is None
    split = mixed.grade_split("parity")
    assert split[0] == J("A", (0,)) and split[1] == J("C")


def test_source_role_counts_in_momentum_degree():
    sp = K.Spectrum(2, [
        K.FieldSpec("phi", K.EVEN, 0),
        K.FieldSpec("phib", K.EVEN, 0, role=K.ROLE_SOURCE),
    ])
    f = K.jet(sp, "phib") * K.jet(sp, "phib", (), (1,)) * K.jet(sp, "phi")
    assert f.grade_of("momentum") == 2
    assert f.grade_of("polyvector") == 0


# -- substitution -----------------------------------------------------------


def test_substitute_is_homomorphism():
    f = J("A", (0,), (1,)) * J("C") + K.x(1) * J("C")
    table = {G("A", (0,), (1,)): J("A", (2,)) + K.x(0) * J("A", (3,))}
    g = f.substitute(table)
    expected = (J("A", (2,)) + K.x(0) * J("A", (3,))) * J("C") + K.x(1) * J("C")
    assert g == expected


def test_substitute_parity_checked():
    with pytest.raises(ValueError):
        J("C").substitute({G("C"): J("A", (0,))})


def test_substitute_checks_only_the_values_it_uses():
    table = {G("C"): J("A", (0,)), G("A", (1,)): K.x(0)}
    assert J("A", (1,)).substitute(table) == K.x(0)


# -- randomized structure checks --------------------------------------------


POOL = [
    K.parameter("k"), K.x(0), K.x(2),
    J("A", (0,)), J("A", (1,), (0,)), J("A", (3,), (1, 2)),
    J("C"), J("C", (), (0,)),
    J("As", (0,)), J("As", (2,), (1,)), J("Cs"),
]


def random_scalar(rnd, nterms=3, nfac=3, pool=POOL):
    total = K.ZERO
    for _ in range(rnd.randint(1, nterms)):
        term = K.scalar(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)))
        for _ in range(rnd.randint(0, nfac)):
            term = term * rnd.choice(pool)
        total = total + term
    return total


def random_homogeneous(rnd, nfac=3):
    term = K.scalar(rnd.choice([1, -1, 2]))
    for _ in range(rnd.randint(0, nfac)):
        term = term * rnd.choice(POOL)
    return term


def test_associativity_random():
    rnd = random.Random(20260823)
    for _ in range(200):
        a, b, c = (random_scalar(rnd) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_graded_commutativity_random():
    rnd = random.Random(7)
    for _ in range(200):
        a = random_homogeneous(rnd)
        b = random_homogeneous(rnd)
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if (a.grade_of("parity") and b.grade_of("parity")) else 1
        assert a * b == sign * (b * a)


def test_total_derivative_leibniz_random():
    rnd = random.Random(99)
    for _ in range(200):
        a = random_scalar(rnd)
        b = random_scalar(rnd)
        j = rnd.randrange(4)
        assert (a * b).total_derivative(j) == (
            a.total_derivative(j) * b + a * b.total_derivative(j))


def test_total_derivatives_commute_random():
    rnd = random.Random(3)
    for _ in range(100):
        a = random_scalar(rnd)
        i, j = rnd.randrange(4), rnd.randrange(4)
        assert a.total_derivative(i).total_derivative(j) == \
            a.total_derivative(j).total_derivative(i)


def test_right_partial_leibniz_random():
    # d_r(uv)/dg = u d_r(v)/dg + (-1)^par(v) d_r(u)/dg v   for odd g
    rnd = random.Random(41)
    g = G("C")
    for _ in range(200):
        u = random_homogeneous(rnd)
        v = random_homogeneous(rnd)
        if v.is_zero():
            continue
        sign = -1 if v.grade_of("parity") else 1
        lhs = partial(u * v, g)
        rhs = u * partial(v, g) + sign * (partial(u, g) * v)
        assert lhs == rhs


def test_partials_match_the_reference_random():
    # every generator kind: parameter, coordinates, even and odd jets, even
    # and odd auxiliaries; all the partials come from one pass
    pool = POOL + [K.aux("a"), K.aux("b", K.ODD, 1)]
    gens = sorted({g for f in pool for m in f.terms for g, _ in m})
    rnd = random.Random(14)
    for _ in range(300):
        s = random_scalar(rnd, nterms=4, nfac=4, pool=pool)
        for left in (False, True):
            got = s.partials(left)
            assert all(got.values())
            for g in gens:
                assert got.get(g, K.ZERO) == ref_partial(s, g, left)


CONTACTS = [G("A", (0,)), G("A", (2,), (1,)), G("C"), G("As", (1,)), G("Cs")]


def random_form(rnd):
    total = F.LocalForm.zero(4)
    for _ in range(rnd.randint(1, 3)):
        piece = F.scalar_form(4, random_scalar(rnd))
        for i in rnd.sample(range(4), rnd.randint(0, 2)):
            piece = F.wedge(piece, F.dx(4, i))
        for _ in range(rnd.randint(0, 2)):
            piece = F.wedge(piece, F.contact(4, rnd.choice(CONTACTS)))
        total = total + piece
    return total


def test_grade_split_reassembles_random():
    rnd = random.Random(5)
    for _ in range(100):
        a = random_scalar(rnd, nterms=5)
        for grading in ("parity", "ghost", "polyvector"):
            parts = a.grade_split(grading)
            total = K.ZERO
            for p in parts.values():
                total = total + p
            assert total == a
    for _ in range(100):
        w = random_form(rnd)
        for grading in ("parity", "ghost", "momentum", "polyvector"):
            parts = w.grade_split(grading)
            assert sum(parts.values(), F.LocalForm.zero(4)) == w
            assert all(p.grade_of(grading) == k for k, p in parts.items())
