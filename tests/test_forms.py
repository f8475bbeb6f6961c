"""Form-level tests: wedge signs, the two differentials, contraction and
Lie derivatives along evolutionary fields.

Frozen values were computed by hand; the randomized suites check the graded
algebra and complex identities on a few hundred generated forms.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from vtc import forms as F
from vtc import kernel as K


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


def dx(i):
    return F.dx(DIM, i)


def ct(g):
    return F.contact(DIM, g)


# -- wedge signs ------------------------------------------------------------


def test_dx_anticommute():
    assert (F.wedge(dx(0), dx(1)) + F.wedge(dx(1), dx(0))).is_zero()
    assert F.wedge(dx(2), dx(2)).is_zero()


def test_contact_symmetry_follows_field_parity():
    dC = ct(G("C"))
    assert not F.wedge(dC, dC).is_zero()          # C odd: d(C) is even
    dA0, dA1 = ct(G("A", (0,))), ct(G("A", (1,)))
    assert F.wedge(dA0, dA0).is_zero()            # A even: d(A) is odd
    assert F.wedge(dA0, dA1) == -F.wedge(dA1, dA0)


def test_odd_scalar_anticommutes_with_dx():
    Cf = sf(J("C"))
    assert F.wedge(dx(0), Cf) == -F.wedge(Cf, dx(0))
    Af = sf(J("A", (0,)))
    assert F.wedge(dx(0), Af) == F.wedge(Af, dx(0))


def test_odd_scalar_commutes_with_even_contact():
    # d(C) is even, so C ^ d(C) = d(C) ^ C
    Cf = sf(J("C"))
    dC = ct(G("C"))
    assert F.wedge(Cf, dC) == F.wedge(dC, Cf)
    # d(A) is odd, so C ^ d(A) = -d(A) ^ C
    dA = ct(G("A", (1,)))
    assert F.wedge(Cf, dA) == -F.wedge(dA, Cf)


def test_canonical_layout():
    w = F.wedge_all([ct(G("A", (0,))), dx(1), sf(J("C")), dx(0)])
    assert list(w.terms) == [((0, 1), (G("A", (0,)),))]
    # moving C left past dx1, d(A0): two odd crossings; dx0 left past
    # dx1 and d(A0): two odd crossings; net +, then dx0 before dx1 swap done
    # in the layout itself.  Frozen by hand:
    assert w == -F.wedge_all([sf(J("C")), dx(0), dx(1), ct(G("A", (0,)))])


def test_forms_over_different_base_dimensions_do_not_combine():
    # dx[2] does not exist over a 2-dimensional base
    a, b = F.dx(2, 0), F.dx(3, 2)
    for op in (F.wedge, lambda u, v: u + v, lambda u, v: u - v):
        for u, v in ((a, b), (b, a)):
            with pytest.raises(ValueError,
                               match="^wedge of forms over different base dimensions$"):
                op(u, v)


# -- differentials ----------------------------------------------------------


def test_d_on_scalar():
    f = sf(K.x(0) * J("A", (1,)))
    expect = F.LocalForm(DIM)
    for j in range(DIM):
        expect = expect + F.wedge(sf((K.x(0) * J("A", (1,))).total_derivative(j)), dx(j))
    assert F.d(f) == expect


def test_d_on_contact_frozen():
    dd = F.d(ct(G("A", (0,))))
    expect = F.LocalForm(DIM)
    for j in range(DIM):
        expect = expect + F.wedge(ct(G("A", (0,), (j,))), dx(j))
    assert dd == expect


def test_delta_on_scalar_frozen():
    f = sf(J("C") * J("As", (0,)))
    # right partial by C crosses As0 once
    expect = F.wedge(sf(-1 * J("As", (0,))), ct(G("C"))) \
        + F.wedge(sf(J("C")), ct(G("As", (0,))))
    assert F.delta(f) == expect


def test_delta_kills_contacts_and_dx():
    assert F.delta(ct(G("C"))).is_zero()
    assert F.delta(dx(2)).is_zero()
    assert F.d(dx(2)).is_zero()


def test_volume_is_top():
    vol = F.volume(DIM)
    assert F.d(vol).is_zero()
    assert F.wedge(dx(0), vol).is_zero()


def test_d_of_a_top_form_takes_no_derivative():
    # every dx^j is already present, so d is zero without differentiating:
    # the jet-order cap, which total_j(A[0]_1) would exceed, is not reached
    w = F.wedge_all([sf(J("A", (0,), (1,))), F.volume(DIM), ct(G("C", (), (2,)))])
    assert not w.is_zero()
    token = K.JET_ORDER_CAP.set(1)
    try:
        with pytest.raises(K.JetOrderCapExceeded):
            J("A", (0,), (1,)).total_derivative(0)
        assert F.d(w).is_zero()
    finally:
        K.JET_ORDER_CAP.reset(token)


# -- randomized complex identities ------------------------------------------


POOL = [K.parameter("k"), K.x(0), K.x(2), J("A", (0,)), J("A", (1,), (0,)),
        J("C"), J("C", (), (0,)), J("As", (0,)), J("As", (2,), (1,)), J("Cs")]
CPOOL = [G("A", (0,)), G("A", (1,), (0,)), G("C"), G("As", (0,)), G("Cs")]


def random_scalar(rnd, nterms=2, nfac=2):
    t = K.ZERO
    for _ in range(rnd.randint(1, nterms)):
        term = K.GradedScalar.constant(
            Fraction(rnd.randint(-3, 3) or 1, rnd.randint(1, 2)))
        for _ in range(rnd.randint(0, nfac)):
            term = term * rnd.choice(POOL)
        t = t + term
    return t


def random_form(rnd):
    w = sf(random_scalar(rnd))
    for _ in range(rnd.randint(0, 2)):
        w = F.wedge(w, dx(rnd.randrange(DIM)))
    for _ in range(rnd.randint(0, 2)):
        w = F.wedge(w, ct(rnd.choice(CPOOL)))
    return w


def test_wedge_associative_random():
    rnd = random.Random(11)
    for _ in range(80):
        a, b, c = (random_form(rnd) for _ in range(3))
        assert F.wedge(F.wedge(a, b), c) == F.wedge(a, F.wedge(b, c))


def test_wedge_graded_commutative_random():
    rnd = random.Random(12)
    for _ in range(80):
        a, b = random_form(rnd), random_form(rnd)
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            continue
        sign = -1 if pa and pb else 1
        assert F.wedge(a, b) == sign * F.wedge(b, a)


def test_complex_identities_random():
    rnd = random.Random(13)
    for _ in range(100):
        w = random_form(rnd)
        # d of a copy of d(w), which has kept no zero d
        assert F.d(F.LocalForm(w.dim, dict(F.d(w).terms))).is_zero()
        assert F.delta(F.delta(w)).is_zero()
        assert (F.d(F.delta(w)) + F.delta(F.d(w))).is_zero()


def test_d_right_leibniz_random():
    rnd = random.Random(14)
    for _ in range(60):
        a, b = random_form(rnd), random_form(rnd)
        pb = b.parity()
        if pb is None:
            continue
        sign = -1 if pb else 1
        assert F.d(F.wedge(a, b)) == F.wedge(a, F.d(b)) + sign * F.wedge(F.d(a), b)
        assert F.delta(F.wedge(a, b)) == \
            F.wedge(a, F.delta(b)) + sign * F.wedge(F.delta(a), b)


def reference_d(form):
    """d term by term, the reference for ``forms.d``: whole coefficients
    differentiated by ``GradedScalar.total_derivative``, each contact
    shifted once per term, and every image added as a scalar."""
    out = {}
    dim = form.dim
    for (dxs, contacts), s in form.terms.items():
        cpar = sum(F._contact_parity(g) for g in contacts)
        free = [(j, bisect_left(dxs, j)) for j in range(dim) if j not in dxs]
        for j, pos in free:
            ds = s.total_derivative(j)
            if ds:
                sign = len(dxs) + cpar + pos
                K.add_into(out, (dxs[:pos] + (j,) + dxs[pos:], contacts),
                           -ds if sign % 2 else ds)
        for idx, g in enumerate(contacts):
            p = F._contact_parity(g)
            others = contacts[:idx] + contacts[idx + 1:]
            for j, pos in free:
                g2 = K.jet_shift(g, j)
                if p and g2 in others:
                    continue
                k = bisect_right(others, g2)
                sign = cpar + len(dxs) - pos
                if p:
                    sign += sum(F._contact_parity(h)
                                for h in others[min(k, idx):max(k, idx)])
                key = (dxs[:pos] + (j,) + dxs[pos:], others[:k] + (g2,) + others[k:])
                K.add_into(out, key, -s if sign % 2 else s)
    return F.LocalForm(dim, out)


def test_d_matches_the_term_level_reference_random():
    rnd = random.Random(15)
    for _ in range(150):
        w = F.LocalForm(DIM)
        for _ in range(rnd.randint(1, 3)):
            w = w + random_form(rnd)
        assert F.d(w) == reference_d(w)


# -- evolutionary fields ----------------------------------------------------


def brs_field():
    """Gauge-transformation-shaped odd field: A_m -> C_m."""
    return F.EvoField(SP, {G("A", (m,)): J("C", (), (m,)) for m in range(DIM)},
                      parity=K.ODD)


def translation_field():
    return F.EvoField(SP, {G("A", (m,)): J("A", (m,), (1,)) for m in range(DIM)},
                      parity=K.EVEN)


def test_prolongation():
    Q = brs_field()
    assert Q.component(G("A", (1,), (0, 3))) == J("C", (), (0, 1, 3))
    assert Q.component(G("C"))  .is_zero()
    assert Q.component(G("Cs", (), (2,))).is_zero()


def test_contract_basics():
    Q = brs_field()
    assert F.contract(Q, ct(G("A", (2,)))) == sf(J("C", (), (2,)))
    assert F.contract(Q, dx(0)).is_zero()
    assert F.contract(Q, sf(J("C"))).is_zero()


def test_contract_right_derivation_rule():
    # i_X(u ^ v) = u ^ i_X(v) + (-1)^{par(v)(par(X)+1)} i_X(u) ^ v
    rnd = random.Random(15)
    for X in (brs_field(), translation_field()):
        dpar = (X.parity + 1) % 2
        for _ in range(40):
            a, b = random_form(rnd), random_form(rnd)
            pb = b.parity()
            if pb is None:
                continue
            sign = -1 if (dpar and pb) else 1
            assert F.contract(X, F.wedge(a, b)) == \
                F.wedge(a, F.contract(X, b)) + sign * F.wedge(F.contract(X, a), b)


def test_evolutionary_property_random():
    # contraction with an evolutionary field anticommutes with d in the
    # graded sense: i_X d + (-1)^{par X} d i_X = 0
    rnd = random.Random(16)
    for X in (brs_field(), translation_field()):
        sign = -1 if X.parity else 1
        for _ in range(50):
            w = random_form(rnd)
            assert (F.contract(X, F.d(w)) + sign * F.d(F.contract(X, w))).is_zero()


def test_contractions_graded_commute():
    rnd = random.Random(17)
    Q, X = brs_field(), translation_field()
    sign = -1 if ((Q.parity + 1) % 2) and ((X.parity + 1) % 2) else 1
    for _ in range(50):
        w = random_form(rnd)
        assert F.contract(Q, F.contract(X, w)) == sign * F.contract(X, F.contract(Q, w))


def test_lie_matches_apply_on_scalars():
    rnd = random.Random(18)
    for X in (brs_field(), translation_field()):
        for _ in range(40):
            s = random_scalar(rnd)
            assert F.lie(X, sf(s)) == sf(X.apply(s))


def test_lie_graded_commutes_with_differentials():
    # L_X d = (-1)^{par X} d L_X; for odd X this is the anticommutation
    # that makes (d, delta, L_Q) a tricomplex
    rnd = random.Random(19)
    for X in (brs_field(), translation_field()):
        sign = -1 if X.parity else 1
        for _ in range(40):
            w = random_form(rnd)
            assert F.lie(X, F.d(w)) == sign * F.d(F.lie(X, w))
            assert F.lie(X, F.delta(w)) == sign * F.delta(F.lie(X, w))


def test_commutator_represents_lie_bracket():
    rnd = random.Random(20)
    Q, X = brs_field(), translation_field()
    Z = F.commutator(Q, X)
    sign = -1 if Q.parity and X.parity else 1
    for _ in range(30):
        w = random_form(rnd)
        lhs = F.lie(Q, F.lie(X, w)) - sign * F.lie(X, F.lie(Q, w))
        assert lhs == F.lie(Z, w)


def test_nilpotent_field_squares_to_zero_action():
    # the gauge-shaped Q has [Q, Q] = 0 since its components do not involve A
    Q = brs_field()
    Z = F.commutator(Q, Q)
    assert Z.is_zero()


def test_fields_are_equal_by_value():
    Q = brs_field()
    half = F.scale_field(Q, Fraction(1, 2))
    rebuilt = F.add_fields(half, F.scale_field(half, 1))
    padded = F.EvoField(SP, {**Q.base_components(), G("C"): K.ZERO},
                        parity=K.ODD)
    padded.component(G("A", (1,), (0, 3)))  # the prolongation memo does not count
    for other in (rebuilt, padded):
        assert other is not Q
        assert other == Q and hash(other) == hash(Q)
    assert len({Q, rebuilt, padded}) == 1


def test_fields_that_differ_are_unequal():
    Q = brs_field()
    other_spectrum = K.Spectrum(DIM, SP.fields, parameters=())
    assert Q != translation_field()
    assert Q != F.scale_field(Q, 2)
    assert Q != F.EvoField(other_spectrum, Q.base_components(), parity=K.ODD)
    assert F.EvoField(SP, {}, parity=K.ODD) != F.EvoField(SP, {}, parity=K.EVEN)
    assert F.EvoField(SP, {}, ghost=0) != F.EvoField(SP, {})
    assert Q != Q.base_components()


def test_a_kept_component_is_not_returned_under_a_lower_jet_order_cap():
    # the prolonged component total_0(A[0],[0 0]) has jets of order 3: kept
    # under the default cap and asked for again under a cap of 2, it raises
    # as a fresh field does, and it is still kept for the default cap
    def field():
        return F.EvoField(SP, {G("A", (1,)): J("A", (0,), (0, 0))})

    X = field()
    g = G("A", (1,), (0,))
    kept = X.component(g)
    assert kept == J("A", (0,), (0, 0, 0))
    token = K.JET_ORDER_CAP.set(2)
    try:
        for f in (field(), X):
            with pytest.raises(K.JetOrderCapExceeded) as info:
                f.component(g)
            assert str(info.value).startswith("jet order 3 exceeds cap 2 ")
        # the base component needs no prolongation and is there under any cap
        assert X.component(G("A", (1,))) == J("A", (0,), (0, 0))
    finally:
        K.JET_ORDER_CAP.reset(token)
    assert X.component(g) is kept


# -- coordinate interior products -------------------------------------------


def test_interior_coordinate_frozen():
    vol = F.volume(DIM)
    assert F.interior_coordinate(vol, 0) == F.wedge_all([dx(1), dx(2), dx(3)])
    assert F.interior_coordinate(vol, 1) == -F.wedge_all([dx(0), dx(2), dx(3)])
    assert F.interior_coordinate(vol, 2) == F.wedge_all([dx(0), dx(1), dx(3)])
    # i_1(dx1^dx2^dx3): dx1 sits in front, no crossings
    w = F.interior_coordinate(F.interior_coordinate(vol, 0), 1)
    assert w == F.wedge(dx(2), dx(3))


def test_interior_coordinate_rejects_contacts():
    with pytest.raises(ValueError):
        F.interior_coordinate(ct(G("C")), 0)


# -- degrees ----------------------------------------------------------------


def test_bidegree_and_parity():
    w = F.wedge_all([sf(J("C")), dx(0), ct(G("A", (1,)))])
    assert w.bidegree() == (1, 1)
    assert w.parity() == (1 + 1 + 1) % 2
    assert w.grade_of("ghost") == 1
    mixed = w + dx(0)
    assert mixed.bidegree() is None


def test_weights_count_contacts():
    w = F.wedge(sf(J("As", (0,))), ct(G("As", (1,))))
    assert w.grade_of("polyvector") == 2
    assert w.grade_of("momentum") == 0
    parts = w.grade_split("polyvector")
    assert list(parts) == [2] and parts[2] == w
