"""Tests for Euler-Lagrange derivatives, source decomposition, horizontal
homotopy, divergence inversion and mod-d equivalence."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vtc
from vtc import builtin_models
from vtc import forms as F
from vtc import kernel as K
from vtc import linsolve
from vtc import parser
from vtc import report
from vtc import variational as V

from test_form_oracle import MAXWELL_SPECTRA, form_monomials
from test_grading import keyed_saturation, retry_solves
from test_linsolve import _load_calculus


SP = K.Spectrum(4, [
    K.FieldSpec("A", K.EVEN, 0, shape=(4,)),
    K.FieldSpec("C", K.ODD, 1),
    K.FieldSpec("As", K.ODD, -1, role=K.ROLE_ANTIFIELD, shape=(4,)),
    K.FieldSpec("Cs", K.EVEN, -2, role=K.ROLE_ANTIFIELD),
])
DIM = 4
VOL = F.volume(DIM)


def J(name, comp=(), mi=()):
    return K.jet(SP, name, comp, mi)


def G(name, comp=(), mi=()):
    return K.jet_gen(SP, name, comp, mi)


def sf(s):
    return F.scalar_form(DIM, s)


# -- linear solver ----------------------------------------------------------


def test_linsolve_basic():
    eqs = [({"x": Fraction(2), "y": Fraction(1)}, Fraction(5)),
           ({"x": Fraction(1), "y": Fraction(-1)}, Fraction(1))]
    sol = linsolve.solve_linear(eqs)
    assert sol == {"x": Fraction(2), "y": Fraction(1)}


def test_linsolve_inconsistent():
    eqs = [({"x": Fraction(1)}, Fraction(1)),
           ({"x": Fraction(1)}, Fraction(2))]
    assert linsolve.solve_linear(eqs) is None


def test_linsolve_underdetermined_deterministic():
    eqs = [({"x": Fraction(1), "y": Fraction(1)}, Fraction(3))]
    sol = linsolve.solve_linear(eqs)
    # free variable pinned to zero, pivot on the smallest column key
    assert sol == {"x": Fraction(3), "y": Fraction(0)}


def test_linsolve_random_consistency():
    rnd = random.Random(31)
    for _ in range(50):
        ncols = rnd.randint(1, 6)
        cols = list(range(ncols))
        truth = {c: Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)) for c in cols}
        eqs = []
        for _ in range(rnd.randint(1, 8)):
            coeffs = {c: Fraction(rnd.randint(-2, 2)) for c in cols if rnd.random() < 0.7}
            rhs = sum((v * truth[c] for c, v in coeffs.items()), Fraction(0))
            eqs.append((coeffs, rhs))
        sol = linsolve.solve_linear(eqs)
        assert sol is not None
        for coeffs, rhs in eqs:
            assert sum((v * sol.get(c, Fraction(0)) for c, v in coeffs.items()),
                       Fraction(0)) == rhs


# -- Euler-Lagrange derivatives ---------------------------------------------


def test_el_derivative_kinetic_term():
    sp1 = K.Spectrum(1, [K.FieldSpec("phi", K.EVEN, 0)])
    ph = lambda mi=(): K.jet(sp1, "phi", (), mi)
    lam = F.wedge(F.scalar_form(1, Fraction(1, 2) * ph((0,)) * ph((0,))), F.dx(1, 0))
    assert V.el_derivative(lam) == {K.jet_gen(sp1, "phi"): -1 * ph((0, 0))}


def test_el_derivative_kills_divergences():
    rnd = random.Random(32)
    for _ in range(40):
        s = random_scalar(rnd)
        sig = F.wedge(sf(s), F.interior_coordinate(VOL, rnd.randrange(DIM)))
        assert V.el_derivative(F.d(sig)) == {}


def test_el_derivative_linear():
    a = F.wedge(sf(J("A", (0,)) * J("A", (0,), (1, 1))), VOL)
    b = F.wedge(sf(J("C") * J("As", (0,), (2,))), VOL)
    ea, eb = V.el_derivative(a), V.el_derivative(b)
    eab = V.el_derivative(a + b)
    keys = set(ea) | set(eb)
    for g in keys:
        assert eab.get(g, K.ZERO) == ea.get(g, K.ZERO) + eb.get(g, K.ZERO)


def test_el_derivative_rejects_wrong_degree():
    with pytest.raises(V.DegreeError):
        V.el_derivative(F.dx(DIM, 0))


def test_el_derivative_matches_sympy_on_maxwell():
    # an independent Euler operator: sympy's euler_equations on the A-only
    # (even, first-order) part of maxwell's S, written with sympy functions
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations
    from vtc import builtin_models

    S = builtin_models.builtin("maxwell").master_density()
    vol_key = (tuple(range(DIM)), ())
    xs = sympy.symbols("x0:4")
    A = [sympy.Function(f"A{a}")(*xs) for a in range(DIM)]

    def to_sympy(s):
        out = 0
        for m, c in s.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for g, e in m:
                assert K.jet_name(g) == "A"
                f = A[K.jet_comp(g)[0]]
                for j in K.jet_mi(g):
                    f = sympy.diff(f, xs[j])
                term *= f ** e
            out += term
        return out

    L = K.GradedScalar({m: c for m, c in S.terms[vol_key].terms.items()
                        if all(K.jet_name(g) == "A" for g, _ in m)})
    assert L.max_jet_order() == 1 and L.grade_of("parity") == K.EVEN
    expected = euler_equations(to_sympy(L), A, xs)
    got = V.el_derivative(F.wedge(sf(L), VOL))
    assert set(got) == {G("A", (a,)) for a in range(DIM)}
    for a, eq in enumerate(expected):
        assert eq.rhs == 0
        assert sympy.expand(to_sympy(got[G("A", (a,))]) - eq.lhs) == 0


# -- source decomposition ---------------------------------------------------


POOL = [K.x(0), J("A", (0,)), J("A", (1,), (0,)), J("C"), J("C", (), (0,)),
        J("As", (0,)), J("Cs")]
CPOOL = [G("A", (0,)), G("A", (1,), (0,)), G("A", (2,), (0, 1)), G("C"),
         G("C", (), (3,)), G("As", (0,), (2,))]


def random_scalar(rnd, nterms=2, nfac=2, field=True):
    t = K.ZERO
    for _ in range(rnd.randint(1, nterms)):
        term = K.GradedScalar.constant(
            Fraction(rnd.randint(-3, 3) or 1, rnd.randint(1, 2)))
        for _ in range(rnd.randint(1 if field else 0, nfac)):
            term = term * rnd.choice(POOL[1:] if field else POOL)
        t = t + term
    return t


def test_source_decompose_roundtrip_random():
    rnd = random.Random(33)
    for _ in range(60):
        alpha = F.LocalForm(DIM)
        for _ in range(rnd.randint(1, 3)):
            alpha = alpha + F.wedge_all(
                [sf(random_scalar(rnd, field=False)), VOL,
                 F.contact(DIM, rnd.choice(CPOOL))])
        dec = V.source_decompose(alpha)
        assert dec.source + F.d(dec.boundary) == alpha
        for (dxs, contacts) in dec.source.terms:
            assert not K.jet_mi(contacts[0])


def test_source_form_is_fixed_point():
    alpha = F.wedge_all([sf(J("C") * J("As", (1,))), F.contact(DIM, G("A", (2,))), VOL])
    dec = V.source_decompose(alpha)
    assert dec.source == alpha
    assert dec.boundary.is_zero()


def test_source_components_match_el_for_lagrangians():
    # the source part of delta(lambda) carries exactly the EL derivatives
    rnd = random.Random(34)
    for _ in range(25):
        lam = F.wedge(sf(random_scalar(rnd, nterms=3)), VOL)
        dec = V.source_decompose(F.delta(lam))
        assert dec.components == V.el_derivative(lam)


def test_source_decompose_rejects_wrong_degree():
    with pytest.raises(V.DegreeError):
        V.source_decompose(F.wedge(F.contact(DIM, G("C")), F.dx(DIM, 0)))


def test_contact_vol_sign_matches_the_wedge():
    for dim in range(1, 5):
        sp = K.Spectrum(dim, [K.FieldSpec("A", K.EVEN, 0), K.FieldSpec("C", K.ODD, 1)])
        for name in ("A", "C"):
            g = K.jet_gen(sp, name, (), (0,))
            probe = F.wedge(F.contact(dim, g), F.volume(dim))
            ((key, s),) = probe.terms.items()
            assert key == (tuple(range(dim)), (g,))
            assert s == K.GradedScalar.constant(V._contact_vol_sign(dim, g))


# -- integration by parts against the two direct algorithms -------------------


# one spectrum per base dimension: even and odd fields and antifields
SPECTRA = [K.Spectrum(n, [
    K.FieldSpec("A", K.EVEN, 0, shape=(2,)),
    K.FieldSpec("C", K.ODD, 1),
    K.FieldSpec("As", K.ODD, -1, role=K.ROLE_ANTIFIELD, shape=(2,)),
    K.FieldSpec("Cs", K.EVEN, -2, role=K.ROLE_ANTIFIELD),
]) for n in range(1, 5)]


@st.composite
def jet_gens(draw, sp):
    """A jet variable of order 0 to 3 over ``sp``."""
    f = draw(st.sampled_from(sp.fields))
    comp = tuple(draw(st.integers(0, d - 1)) for d in f.shape)
    return K.jet_gen(sp, f.name, comp,
                     draw(st.lists(st.integers(0, sp.dim - 1), max_size=3)))


@st.composite
def jet_scalars(draw, sp):
    """A sum of one to three terms: a rational times up to three factors,
    each a coordinate, the parameter k or a jet variable."""

    def factor():
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return K.x(draw(st.integers(0, sp.dim - 1)))
        if kind == 1:
            return K.parameter("k")
        return K.GradedScalar.generator(draw(jet_gens(sp)))

    s = K.ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = K.GradedScalar.constant(Fraction(draw(st.integers(-3, 3)) or 1,
                                                draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(0, 3))):
            term = term * factor()
        s = s + term
    return s


@st.composite
def densities(draw):
    sp = draw(st.sampled_from(SPECTRA))
    return F.wedge(F.scalar_form(sp.dim, draw(jet_scalars(sp))), F.volume(sp.dim))


@st.composite
def source_candidates(draw):
    """A (1,n)-form: one to three terms s ^ vol ^ d(phi_I), |I| <= 3."""
    sp = draw(st.sampled_from(SPECTRA))
    n = sp.dim
    alpha = F.LocalForm(n)
    for _ in range(draw(st.integers(1, 3))):
        alpha = alpha + F.wedge_all([F.scalar_form(n, draw(jet_scalars(sp))),
                                     F.volume(n), F.contact(n, draw(jet_gens(sp)))])
    return alpha


def ref_el_derivative(lam):
    """Sum over I of (-D)_I applied to the right partial along phi_I."""
    n = lam.dim
    out = {}
    for g, part in lam.terms.get((tuple(range(n)), ()), K.ZERO).partials().items():
        if not K.is_jet(g):
            continue
        for j in K.jet_mi(g):
            part = -part.total_derivative(j)
        base = K.jet_base(g)
        out[base] = out.get(base, K.ZERO) + part
    return {g: v for g, v in out.items() if v}


def ref_source_decompose(alpha):
    """Integration by parts on forms: the term with the longest contact,
    s ^ vol ^ d(phi_I), is the leading term of d(s ^ d^{n-1}x_j ^
    d(phi_{I-j})) up to a sign, read off that d."""
    n = alpha.dim
    vol = tuple(range(n))
    rem, boundary = alpha, F.LocalForm(n)
    while True:
        derived = [key for key in rem.terms if K.jet_mi(key[1][0])]
        if not derived:
            break
        target = max(derived, key=lambda key: (len(K.jet_mi(key[1][0])), key[1]))
        (g,) = target[1]
        j = K.jet_mi(g)[-1]
        low = K.jet_with_mi(g, K.mi_remove(K.jet_mi(g), j))
        s = rem.terms[target]
        cand = F.LocalForm(n, {(tuple(i for i in vol if i != j), (low,)): s})
        dc = F.d(cand)
        sign = 1 if dc.terms[target] == s else -1
        assert dc.terms[target] == sign * s
        rem = rem - sign * dc
        boundary = boundary + sign * cand
    components = {}
    for (_, (g,)), s in rem.terms.items():
        ((_, layout),) = F.wedge(F.contact(n, g), F.volume(n)).terms.items()
        components[g] = s * layout
    return rem, boundary, components


@settings(max_examples=200, deadline=None)
@given(densities())
def test_el_derivative_is_the_sum_of_the_integrated_partials(lam):
    assert V.el_derivative(lam) == ref_el_derivative(lam)


@settings(max_examples=200, deadline=None)
@given(source_candidates())
def test_source_decompose_is_the_form_level_integration_by_parts(alpha):
    # the boundary representative feeds descent, so it is pinned too
    dec = V.source_decompose(alpha)
    assert (dec.source, dec.boundary, dec.components) == ref_source_decompose(alpha)


@settings(max_examples=100, deadline=None)
@given(densities())
def test_source_decompose_of_delta_is_the_form_level_integration_by_parts(lam):
    alpha = F.delta(lam)
    dec = V.source_decompose(alpha)
    assert (dec.source, dec.boundary, dec.components) == ref_source_decompose(alpha)


def _under_cap(cap, op, *args):
    token = K.JET_ORDER_CAP.set(cap)
    try:
        return op(*args)
    finally:
        K.JET_ORDER_CAP.reset(token)


def _decomposed(alpha):
    dec = V.source_decompose(alpha)
    return dec.source, dec.boundary, dec.components


@settings(max_examples=100, deadline=None)
@given(st.one_of(densities().map(lambda lam: (V.el_derivative, lam)),
                 source_candidates().map(lambda alpha: (_decomposed, alpha))),
       st.integers(1, 3))
def test_a_lower_jet_order_cap_raises_or_gives_the_default_cap_result(case, cap):
    op, form = case
    expected = op(form)
    try:
        got = _under_cap(cap, op, form)
    except K.JetOrderCapExceeded:
        return
    assert got == expected


def test_el_derivative_merges_partials_before_it_differentiates_them():
    # C,[2] and the divergence expand to partials along C,[2], C,[2 2] and
    # C,[2 2 2]; merged, they cancel before any fourth derivative is taken
    sp = builtin_models.builtin("maxwell").spectrum
    lam = parser.parse_expression("C,[2] ^ vol + d(Cs,[0]*C,[2 2] ^ ib(2, vol))", sp)
    assert V.el_derivative(lam) == {}
    assert _under_cap(3, V.el_derivative, lam) == {}


def test_source_decompose_takes_no_derivative_of_a_contact_it_holds():
    sp = builtin_models.builtin("maxwell").spectrum
    alpha = parser.parse_expression(
        "2 ^ vol ^ del(As[3],[0]) + d(C ^ ib(1, vol) ^ del(A[1],[1 1]))", sp)
    assert _under_cap(2, _decomposed, alpha) == _decomposed(alpha)



# -- horizontal homotopy ----------------------------------------------------


def random_contact_form(rnd, ncontacts=1, ndx=None):
    w = sf(random_scalar(rnd, field=False))
    if ndx is None:
        ndx = rnd.randint(0, 2)
    for _ in range(ndx):
        w = F.wedge(w, F.dx(DIM, rnd.randrange(DIM)))
    for _ in range(ncontacts):
        w = F.wedge(w, F.contact(DIM, rnd.choice(CPOOL)))
    return w


def test_homotopy_inverts_d_random():
    rnd = random.Random(35)
    done = 0
    while done < 40:
        sigma = random_contact_form(rnd, ncontacts=rnd.randint(1, 2))
        rho = F.d(sigma)
        if rho.is_zero() or rho.bidegree() is None:
            continue
        h = V.horizontal_homotopy(rho)
        assert F.d(h) == rho
        done += 1


def test_homotopy_contract_below_top():
    rnd = random.Random(36)
    done = 0
    while done < 40:
        w = random_contact_form(rnd, ncontacts=rnd.randint(1, 2))
        bd = w.bidegree()
        if w.is_zero() or bd is None or bd[1] in (0, DIM):
            continue
        assert F.d(V.horizontal_homotopy(w)) + V.horizontal_homotopy(F.d(w)) == w
        done += 1


def _contract_form():
    # a (1,2)-form with first-order jets, neither exact nor h(d) of itself:
    # both h(w) and h(d w) are nonzero
    sigma = F.wedge_all([sf(J("A", (2,)) * J("C")), F.dx(DIM, 3), F.contact(DIM, G("A", (1,)))])
    return F.d(sigma) + F.wedge_all([sf(J("A", (1,), (0,)) * J("C")), F.dx(DIM, 2),
                                     F.dx(DIM, 3), F.contact(DIM, G("A", (0,)))])


def test_the_contract_check_solves_d_w_once(monkeypatch):
    w = _contract_form()
    h = V.horizontal_homotopy(w)
    calls = []
    solve = V.solve_mod_d

    def recording_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(V, "solve_mod_d", recording_solve)
    dw = F.d(w)
    assert F.d(w) is dw and V.horizontal_homotopy(w) is h
    assert F.d(h) + V.horizontal_homotopy(dw) == w
    assert calls == []
    # an equal form that has kept nothing solves again
    V.horizontal_homotopy(F.LocalForm(DIM, dict(dw.terms)))
    assert calls


def test_kept_d_and_h_raise_under_a_lower_jet_order_cap_as_fresh_forms_do():
    w = _contract_form()
    dw = F.d(w)
    kept = {"h(w)": V.horizontal_homotopy(w), "h(dw)": V.horizontal_homotopy(dw),
            "d(w)": dw, "d(dw)": F.d(dw)}

    def outcomes(w, dw):
        ops = {"h(w)": lambda: V.horizontal_homotopy(w),
               "h(dw)": lambda: V.horizontal_homotopy(dw),
               "d(w)": lambda: F.d(w), "d(dw)": lambda: F.d(dw)}
        out = {}
        for name, op in ops.items():
            try:
                out[name] = op()
            except K.EngineError as exc:
                out[name] = (type(exc), str(exc))
        return out

    token = K.JET_ORDER_CAP.set(1)
    try:
        got = outcomes(w, dw)
        fresh = outcomes(F.LocalForm(DIM, dict(w.terms)), F.LocalForm(DIM, dict(dw.terms)))
    finally:
        K.JET_ORDER_CAP.reset(token)
    assert got == fresh
    assert all(isinstance(v, tuple) for v in got.values())
    assert got["d(w)"][0] is K.JetOrderCapExceeded
    # under the default cap again, the kept results come back
    again = outcomes(w, dw)
    assert all(again[name] is v for name, v in kept.items())


def _counting_d(monkeypatch):
    """The forms whose d is computed (``forms._d``) from now on."""
    computed = []
    d = F._d

    def counting(form):
        computed.append(form)
        return d(form)

    monkeypatch.setattr(F, "_d", counting)
    return computed


def test_the_homotopy_below_top_computes_d_once(monkeypatch):
    # h(w) = primitive of w - h(d w), and d w is below the top degree: its
    # own d is the zero it kept, so d is computed of w alone
    w = _contract_form()
    assert w.bidegree() == (1, 2) and F.d(F.LocalForm(DIM, dict(w.terms)))
    computed = _counting_d(monkeypatch)
    assert V.horizontal_homotopy(w)
    assert computed == [w]


def test_a_kept_zero_d_is_the_d_of_a_fresh_copy(monkeypatch):
    # on the d-images of the seed-0 calculus homotopy inputs, every one of
    # them within the cap, d of the image is read, not computed, and is
    # what a copy that kept nothing computes
    calculus = _load_calculus()
    calc = calculus.Calculus(vtc)
    images = []
    for q in calculus.make_queries(0, 200):
        if q.kind == "homotopy":
            w = parser.parse_expression(q.texts[0], calc.spectra[q.space])
            images.append(F.d(w))
    assert len(images) > 100
    assert all(K.shifts_under_cap(dw.max_jet_order()) for dw in images)
    computed = _counting_d(monkeypatch)
    kept = [F.d(dw) for dw in images]
    assert computed == []
    for dw, zero in zip(images, kept):
        assert zero.is_zero()
        assert zero == F._d(F.LocalForm(dw.dim, dict(dw.terms)))
    assert len(computed) == len(images)


@pytest.mark.parametrize("cap, order", [(2, 1), (40, K.MAX_JET_ORDER - 1)])
def test_a_d_image_at_the_cap_computes_its_d_and_raises(cap, order, monkeypatch):
    # d(w) holds a jet at the cap (or at the key's own bound, under a cap
    # above it), so it keeps no zero: d(d(w)) raises as on a fresh copy
    w = F.wedge(sf(J("A", (1,), (0,) * order)), F.dx(DIM, 2))
    token = K.JET_ORDER_CAP.set(cap)
    try:
        dw = F.d(w)
        assert dw.max_jet_order() == order + 1
        assert not K.shifts_under_cap(dw.max_jet_order())
        with pytest.raises(K.JetOrderCapExceeded) as kept:
            F.d(dw)
        with pytest.raises(K.JetOrderCapExceeded) as fresh:
            F.d(F.LocalForm(DIM, dict(dw.terms)))
    finally:
        K.JET_ORDER_CAP.reset(token)
    assert str(kept.value) == str(fresh.value)
    assert str(kept.value).startswith(f"jet order {order + 2} exceeds ")
    # under the default cap the same image computes its d, the zero form
    computed = _counting_d(monkeypatch)
    if order + 1 < K.JET_ORDER_CAP.get():
        assert F.d(dw).is_zero() and computed == [dw]


def test_homotopy_rejects_vertical_degree_zero():
    with pytest.raises(V.DegreeError):
        V.horizontal_homotopy(F.wedge(sf(J("C")), F.dx(DIM, 0)))


def test_homotopy_top_degree_obstruction():
    # a source form at top degree has no primitive
    src = F.wedge_all([sf(J("C")), F.contact(DIM, G("A", (0,))), VOL])
    with pytest.raises(V.NoPrimitiveError):
        V.horizontal_homotopy(src)


def test_no_primitive_names_the_jet_order_cap_in_force():
    # A,[0 0] dx is d(A,[0]): within the default cap it has a primitive;
    # under a cap of 1 the primitive's d-image is out of reach, and the
    # error names that cap, not the input's own jet order of 2
    sp = K.Spectrum(1, [K.FieldSpec("A", K.EVEN, 0)])
    f = parser.parse_expression("A,[0 0] ^ dx[0]", sp)
    assert V.divergence_primitive(f) == F.scalar_form(1, K.jet(sp, "A", (), (0,)))
    token = K.JET_ORDER_CAP.set(1)
    try:
        with pytest.raises(V.NoPrimitiveError) as info:
            V.divergence_primitive(f)
    finally:
        K.JET_ORDER_CAP.reset(token)
    assert str(info.value) == ("no primitive found within jet-order cap 1 "
                               "and coordinate degree 1")


@pytest.fixture(scope="module")
def calculus_solves():
    """The seed-0 and seed-1 calculus passes of ``perfbench/run.py
    --workload calculus``, recording every ``solve_mod_d`` call:
    {seed: [(dim, rows, target, x_cap), ...]}."""
    calculus = _load_calculus()
    calc = calculus.Calculus(vtc)
    solve = V.solve_mod_d
    calls = {}
    for seed in (0, 1):
        recorded = calls[seed] = []

        def recording_solve(dim, rows, target, x_cap):
            recorded.append((dim, rows, dict(target), x_cap))
            return solve(dim, rows, target, x_cap)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(V, "solve_mod_d", recording_solve)
            assert all(ok for ok, _ in (calc.run(q)
                                        for q in calculus.make_queries(seed, 200)))
    return calls


@pytest.fixture(scope="module")
def distinct_calculus_solves(calculus_solves):
    """The distinct ``solve_mod_d`` systems of both calculus passes."""
    distinct = {}
    for seed in sorted(calculus_solves):
        for dim, rows, target, x_cap in calculus_solves[seed]:
            key = (dim, frozenset((row, frozenset(c.items())) for row, c in rows.items()),
                   frozenset(target.items()), x_cap)
            distinct.setdefault(key, (dim, rows, target, x_cap))
    assert len(distinct) > 300
    return list(distinct.values())


def test_a_calculus_pass_solves_each_homotopy_system_once(calculus_solves):
    # h(w) keeps the solve of d w on the d w object the contract check
    # reuses: 387 calls at seed 0 when each system was solved twice
    assert len(calculus_solves[0]) <= 229


@pytest.fixture(scope="module")
def homogenizer_retry_solves():
    """The ``solve_mod_d`` calls of the homogenizer's retries in
    test_grading, the systems with caller columns."""
    return retry_solves()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_saturation_does_not_depend_on_the_order_of_the_rows(
        distinct_calculus_solves, homogenizer_retry_solves, data):
    dim, rows, target, x_cap = data.draw(st.one_of(
        st.sampled_from(distinct_calculus_solves),
        st.sampled_from(homogenizer_retry_solves)))
    keys = list(rows) + [key for key in target if key not in rows]
    shuffled = data.draw(st.permutations(keys))
    assert keyed_saturation(dim, shuffled, x_cap) == keyed_saturation(dim, keys, x_cap)
    # the given rows are numbered first, in their order, then every other
    # row once, as it is met
    numbers, _ = V.saturate_d(dim, shuffled, x_cap)
    assert list(numbers.values()) == list(range(len(numbers)))
    assert list(numbers)[:len(shuffled)] == shuffled
    rows_shuffled = {key: rows[key] for key in data.draw(st.permutations(list(rows)))}
    target_shuffled = {key: target[key]
                       for key in data.draw(st.permutations(list(target)))}
    assert V.solve_mod_d(dim, rows_shuffled, target_shuffled, x_cap) == \
        V.solve_mod_d(dim, rows, target, x_cap)


def saturation_numbering():
    """The row numbers and images of the saturations of d(w) for the
    contract form w and of the homogenizer's retries, each over its rows in
    sorted order, as text."""
    dw = F.d(_contract_form())
    systems = [(DIM, sorted(key for key, _ in V.form_mono_items(dw)), 1)]
    systems += [(dim, sorted({*rows, *target}), x_cap)
                for dim, rows, target, x_cap in retry_solves()]
    return repr([V.saturate_d(*system) for system in systems])


def test_saturation_numbers_rows_alike_under_another_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="5", PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(__file__).parent), str(pathlib.Path(vtc.__file__).parents[1])]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import test_variational; print(test_variational.saturation_numbering())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == saturation_numbering() + "\n"


def keyed_solve_mod_d(dim, rows, target, x_cap):
    """``solve_mod_d`` as it was before it fed the elimination core, kept
    as an oracle: the saturation copied into a keyed system with a column
    ``("b", cand)`` per candidate, solved by ``solve_linear`` over its rows
    in sorted order."""
    system = {row: dict(coeffs) for row, coeffs in rows.items()}
    for row in target:
        system.setdefault(row, {})
    for cand, image in keyed_saturation(dim, system, x_cap).items():
        for row, c in image.items():
            system.setdefault(row, {})[("b", cand)] = c
    return linsolve.solve_linear(
        [(system[row], target.get(row, 0)) for row in sorted(system)])


@pytest.fixture(scope="module")
def report_solves():
    """The ``solve_mod_d`` calls of both built-in report pipelines."""
    recorded = []
    solve = V.solve_mod_d

    def recording_solve(dim, rows, target, x_cap):
        recorded.append((dim, {key: dict(c) for key, c in rows.items()},
                         dict(target), x_cap))
        return solve(dim, rows, target, x_cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "solve_mod_d", recording_solve)
        for name in builtin_models.BUILTINS:
            report.run_pipeline(builtin_models.builtin(name))
    return recorded


def test_solve_mod_d_is_the_keyed_solve(distinct_calculus_solves, report_solves,
                                        homogenizer_retry_solves):
    # the same values, of the same types, in the same key order, on every
    # calculus system, both reports' systems and the homogenizer's retries
    assert report_solves
    for dim, rows, target, x_cap in [*distinct_calculus_solves, *report_solves,
                                     *homogenizer_retry_solves]:
        got = V.solve_mod_d(dim, rows, target, x_cap)
        expected = keyed_solve_mod_d(dim, rows, target, x_cap)
        assert got == expected
        if got is not None:
            assert list(got) == list(expected)
            assert [type(v) for v in got.values()] == \
                [type(v) for v in expected.values()]


def assert_canonical(key):
    """A form monomial as the form engine writes one: dx directions
    increasing, contacts sorted with no even-field contact twice, and a
    monomial of distinct generators in order, an odd one at power 1, with
    every multi-index sorted."""
    dxs, contacts, mono = key
    assert list(dxs) == sorted(set(dxs)), key
    assert list(contacts) == sorted(contacts), key
    assert all(K.gen_parity(g) or contacts.count(g) == 1 for g in contacts), key
    gens = [g for g, _ in mono]
    assert gens == sorted(set(gens)), key
    assert all(e >= 1 and (e == 1 or not K.gen_parity(g)) for g, e in mono), key
    for g in list(contacts) + gens:
        if K.is_jet(g):
            assert K.jet_mi(g) == tuple(sorted(K.jet_mi(g))), key


_A0 = K.jet_gen(MAXWELL_SPECTRA[0], "A", (0,))
_A0_1 = K.jet_gen(MAXWELL_SPECTRA[0], "A", (0,), (1,))
_C = K.jet_gen(MAXWELL_SPECTRA[0], "C")
_C_1 = K.jet_gen(MAXWELL_SPECTRA[0], "C", (), (1,))


@settings(max_examples=300, deadline=None)
@given(form_monomials(), st.integers(0, 2))
# d(A[0]) ^ d(A[0],[1]): one image would repeat the odd contact d(A[0],[1])
@example((4, ((), (_A0, _A0_1), ())), 0)
def test_every_row_of_a_d_image_has_its_candidate_among_its_preimages(case, extra):
    # saturation reaches its fixpoint only if each monomial d(c) holds
    # leads back to c, for any coordinate-degree cap that admits c
    dim, cand = case
    x_cap = V.max_x_degree([cand]) + extra
    for row in F.d_monomial(dim, cand):
        assert_canonical(row)
        assert cand in set(V._preimages(row, x_cap)), row


@settings(max_examples=300, deadline=None)
@given(form_monomials(), st.integers(0, 3))
# C * C,[1] ^ dx[1]: lowering C,[1] squares the odd C
@example((4, ((1,), (), ((_C, 1), (_C_1, 1)))), 0)
# d(A[0]) ^ d(A[0],[1]) ^ dx[1]: lowering A[0],[1] repeats the odd d(A[0])
@example((4, ((1,), (_A0, _A0_1), ())), 0)
def test_preimages_are_canonical_form_monomials(case, x_cap):
    _, row = case
    for cand in V._preimages(row, x_cap):
        assert_canonical(cand)
        assert V.max_x_degree([cand]) <= max(x_cap, V.max_x_degree([row]))


# -- divergence primitive ---------------------------------------------------


def test_divergence_primitive_roundtrip_random():
    rnd = random.Random(37)
    done = 0
    while done < 40:
        sig = F.wedge(sf(random_scalar(rnd)), F.interior_coordinate(VOL, rnd.randrange(DIM)))
        f = F.d(sig)
        if f.is_zero():
            continue
        prim = V.divergence_primitive(f)
        assert F.d(prim) == f
        # difference from the generating primitive is d-closed
        assert F.d(prim - sig).is_zero()
        done += 1


def test_divergence_primitive_errors():
    bad = F.wedge(sf(J("A", (0,)) * J("A", (0,))), VOL)
    with pytest.raises(V.NotDivergenceError) as exc:
        V.divergence_primitive(bad)
    assert exc.value.residual
    with pytest.raises(V.ObstructionError):
        V.divergence_primitive(F.wedge(sf(K.GradedScalar.constant(3)), VOL))
    assert V.divergence_primitive(F.LocalForm(DIM)).is_zero()


# -- mod-d equivalence ------------------------------------------------------


def test_equiv_mod_d_divergences():
    rnd = random.Random(38)
    for _ in range(20):
        sig = F.wedge(sf(random_scalar(rnd)), F.interior_coordinate(VOL, rnd.randrange(DIM)))
        assert V.equiv_mod_d(F.d(sig), F.LocalForm(DIM))


def test_equiv_mod_d_source_obstruction():
    src = F.wedge_all([sf(J("C")), F.contact(DIM, G("A", (0,))), VOL])
    assert not V.equiv_mod_d(src, F.LocalForm(DIM))
    assert V.equiv_mod_d(src, src)


def test_equiv_mod_d_below_top_uses_closure():
    # (1,2)-form: equivalent to zero iff d-closed
    w = F.wedge_all([sf(J("A", (0,))), F.dx(DIM, 0), F.dx(DIM, 1),
                     F.contact(DIM, G("C"))])
    assert not V.equiv_mod_d(w, F.LocalForm(DIM))
    sig = F.wedge(sf(J("C") * J("As", (2,))), F.dx(DIM, 1))
    assert V.equiv_mod_d(F.d(sig), F.LocalForm(DIM))


def test_equiv_mod_d_horizontal_degree_zero_is_exact_only_at_zero():
    assert not V.equiv_mod_d(F.scalar_form(DIM, 1), F.LocalForm(DIM))


def test_equiv_mod_d_degree_mismatch():
    with pytest.raises(V.DegreeError):
        V.equiv_mod_d(F.dx(DIM, 0), VOL)


def test_equiv_mod_d_horizontal_top_el_test():
    # A*A_1 is the derivative of A^2/2: equivalent to zero; A*A is not
    f = F.wedge(sf(J("A", (0,)) * J("A", (0,), (1,))), VOL)
    assert V.equiv_mod_d(f, F.LocalForm(DIM))
    g = F.wedge(sf(J("A", (0,)) * J("A", (0,))), VOL)
    assert not V.equiv_mod_d(g, F.LocalForm(DIM))
    assert V.equiv_mod_d(f + g, g)
