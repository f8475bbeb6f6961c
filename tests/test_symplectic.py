"""Presymplectic structures, Hamiltonian fields, brackets and descent.

The electrodynamics fixtures freeze the full gauge-fixing pipeline: the
master action's Hamiltonian field is the BRST differential with its
textbook component transformations, the bracket satisfies the master
equation, and two descent steps land on the expected lower-degree
structures with all exactness properties holding on the nose.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as Fr

import pytest

import vtc
from vtc import (builtin_models, forms, kernel, model, parser, report,
                 symplectic, variational)
from vtc.forms import LocalForm
from vtc.kernel import (EVEN, ODD, ROLE_ANTIFIELD, ROLE_FIELD, FieldSpec,
                        Spectrum)

from lawcheck import (intrinsic_parity, random_hamiltonian_form,
                      small_bv_spectrum, small_cotangent_spectrum,
                      structures_under_test)
from test_linsolve import _load_calculus

ETA = [Fr(1), Fr(-1), Fr(-1), Fr(-1)]


@pytest.fixture(scope="module")
def maxwell():
    spec = Spectrum(4, [
        FieldSpec("A", EVEN, 0, ROLE_FIELD, (4,)),
        FieldSpec("C", ODD, 1, ROLE_FIELD, ()),
        FieldSpec("As", ODD, -1, ROLE_ANTIFIELD, (4,), conjugate="A"),
        FieldSpec("Cs", EVEN, -2, ROLE_ANTIFIELD, (), conjugate="C"),
    ], metric=ETA)

    def A(mu, *dd):
        return kernel.jet(spec, "A", (mu,), dd)

    def As(mu, *dd):
        return kernel.jet(spec, "As", (mu,), dd)

    def C(*dd):
        return kernel.jet(spec, "C", (), dd)

    def F(mu, nu, *dd):
        return A(nu, mu, *dd) - A(mu, nu, *dd)

    L = kernel.ZERO
    for mu in range(4):
        for nu in range(4):
            L = L - Fr(1, 4) * ETA[mu] * ETA[nu] * F(mu, nu) * F(mu, nu)
    for mu in range(4):
        L = L - ETA[mu] * C() * As(mu, mu)
    S = forms.wedge(forms.scalar_form(4, L), forms.volume(4))
    st = symplectic.canonical_structure(spec, symplectic.KIND_ODD_BV)
    Q = symplectic.hamiltonian_field(S, st)
    sys0 = symplectic.GaugeSystem(Q, st, S)
    return dict(spec=spec, A=A, As=As, C=C, F=F, S=S, st=st, Q=Q, sys0=sys0)


def d3x(nu):
    """Codimension-one slot with its index raised by the metric."""
    return forms.interior_coordinate(forms.volume(4), nu).scale(ETA[nu])


def ct(spec, name, comp, *dd):
    return forms.contact(4, kernel.jet_gen(spec, name, comp, dd))


# ---------------------------------------------------------------------------
# Canonical structures
# ---------------------------------------------------------------------------


def test_canonical_structure_is_delta_exact():
    st = symplectic.canonical_structure(small_bv_spectrum(), symplectic.KIND_ODD_BV)
    assert st.theta is not None
    assert forms.delta(st.theta) == st.omega
    assert forms.delta(st.omega).is_zero()
    assert st.omega.bidegree() == (2, 1)


def test_canonical_structure_term_count(maxwell):
    # one term per paired component: four A components plus the ghost pair
    assert len(maxwell["st"].omega.terms) == 5
    assert maxwell["st"].omega.grade_of("ghost") == -1
    assert maxwell["st"].omega.parity() == ODD


def test_canonical_structure_rejects_unpaired_field():
    spec = Spectrum(1, [FieldSpec("u", EVEN, 0, ROLE_FIELD, ())])
    with pytest.raises(symplectic.SpectrumError):
        symplectic.canonical_structure(spec, symplectic.KIND_ODD_BV)


def test_canonical_structure_rejects_wrong_gradings():
    spec = Spectrum(1, [
        FieldSpec("u", EVEN, 0, ROLE_FIELD, ()),
        FieldSpec("us", ODD, 0, ROLE_ANTIFIELD, (), conjugate="u"),
    ])
    with pytest.raises(symplectic.SpectrumError):
        symplectic.canonical_structure(spec, symplectic.KIND_ODD_BV)
    with pytest.raises(symplectic.SpectrumError):
        symplectic.canonical_structure(small_bv_spectrum(),
                                       symplectic.KIND_EVEN_COTANGENT)


def test_canonical_structure_rejects_unknown_kind():
    with pytest.raises(symplectic.SpectrumError,
                       match="^unknown structure kind 'odd-BVX'$"):
        symplectic.canonical_structure(small_bv_spectrum(), "odd-BVX")


def test_canonical_structure_rejects_mixed_dressing():
    spec = Spectrum(2, [
        FieldSpec("u", EVEN, 0, ROLE_FIELD, (),
                  form_factor=forms.dx(2, 0) + forms.wedge(forms.dx(2, 0),
                                                           forms.dx(2, 1))),
        FieldSpec("us", ODD, -1, ROLE_ANTIFIELD, (), conjugate="u"),
    ])
    with pytest.raises(symplectic.SpectrumError,
                       match="^dressing of u mixes horizontal degrees$"):
        symplectic.canonical_structure(spec, symplectic.KIND_ODD_BV)


# A two-dimensional model in the shape of chiral whose dressings carry
# coefficients other than 1.
DRESSED = """model dressed
dim 2
metric 1 1
field phi { parity 0, ghost 0, role field, factor 2*dx[0] + 2*dx[1] }
field eta { parity 1, ghost -1, role field, factor 3*dx[0] ^ dx[1] }
field phib { parity 0, ghost 0, role source, conjugate phi, factor 1/2*dx[0] - 1/2*dx[1] }
field etab { parity 1, ghost 1, role source, conjugate eta }
structure even-cotangent
density O = etab ^ d(phi ^ (2*dx[0] + 2*dx[1]))
master O
"""


def test_non_unit_dressings_print_and_parse_back():
    m = parser.parse_model(DRESSED)
    text = model.print_model(m)
    again = parser.parse_model(text)
    assert again == m
    assert model.print_model(again) == text


def test_canonical_structure_wedges_non_unit_dressings():
    sp = parser.parse_model(DRESSED).spectrum
    x, y = forms.dx(2, 0), forms.dx(2, 1)

    def field(name, dressing=None):
        f = forms.scalar_form(2, kernel.jet(sp, name))
        return f if dressing is None else forms.wedge(f, dressing)

    phi = field("phi", 2 * x + 2 * y)
    phib = field("phib", Fr(1, 2) * x - Fr(1, 2) * y)
    eta = field("eta", 3 * forms.wedge(x, y))
    etab = field("etab")
    D = forms.delta
    st = symplectic.canonical_structure(sp, symplectic.KIND_EVEN_COTANGENT)
    assert st.omega == (forms.wedge(D(phib), D(phi))
                        + forms.wedge(D(etab), D(eta)))
    assert st.theta == forms.wedge(phib, D(phi)) + forms.wedge(etab, D(eta))
    # 1/2 * 2 * (dx[0] - dx[1]) ^ (dx[0] + dx[1]) = 2 vol, and 3 vol
    vol = forms.volume(2)
    assert st.omega == (
        2 * forms.wedge_all([D(field("phi")), D(field("phib")), vol])
        + 3 * forms.wedge_all([D(field("eta")), D(etab), vol]))


@pytest.mark.parametrize("dressing", [
    ((1, (0,)), (1, (1,))), forms.dx(3, 0) + forms.dx(3, 1),
], ids=["tuple", "other-dimension"])
def test_spectrum_rejects_a_dressing_that_is_not_a_form_over_its_base(
        dressing):
    with pytest.raises(kernel.DeclarationError,
                       match="^dressing of u is not a form over dimension 2$"
                       ) as info:
        Spectrum(2, [FieldSpec("u", EVEN, 0, ROLE_FIELD,
                               form_factor=dressing)])
    assert (info.value.declaration, info.value.name) == ("field", "u")


def test_presymp_structure_rejects_bad_theta():
    st = symplectic.canonical_structure(small_bv_spectrum(), symplectic.KIND_ODD_BV)
    with pytest.raises(ValueError):
        symplectic.PresympStructure(st.omega, -st.theta)


# ---------------------------------------------------------------------------
# The BRST differential of electrodynamics
# ---------------------------------------------------------------------------


def test_master_action_field_is_brst_differential(maxwell):
    spec, Q = maxwell["spec"], maxwell["Q"]
    C, F, As = maxwell["C"], maxwell["F"], maxwell["As"]
    expected = {}
    for mu in range(4):
        expected[kernel.jet_gen(spec, "A", (mu,))] = C(mu)
    for mu in range(4):
        s = kernel.ZERO
        for nu in range(4):
            s = s + ETA[nu] * F(nu, mu, nu)
        expected[kernel.jet_gen(spec, "As", (mu,))] = s
    s = kernel.ZERO
    for mu in range(4):
        s = s + ETA[mu] * As(mu, mu)
    expected[kernel.jet_gen(spec, "Cs", ())] = s
    assert Q.base_components() == expected
    assert Q.parity == ODD
    assert Q.ghost == 1


def test_brst_differential_squares_to_zero(maxwell):
    Q = maxwell["Q"]
    assert forms.commutator(Q, Q).is_zero()


def test_gauge_system_validates(maxwell):
    # Q is homological, omega is Q-invariant modulo d, and H is a
    # Hamiltonian of Q: i_Q omega = delta(H) modulo d
    sys0 = maxwell["sys0"]
    Q, omega = sys0.Q, sys0.structure.omega
    assert forms.commutator(Q, Q).is_zero()
    hot = forms.lie(Q, omega)
    assert not hot.is_zero()  # invariant modulo d only, not on the nose
    assert variational.equiv_mod_d(hot, LocalForm(hot.dim))
    assert variational.equiv_mod_d(forms.contract(Q, omega), forms.delta(sys0.H))


def test_master_equation_holds(maxwell):
    mc = symplectic.check_master(maxwell["S"], maxwell["st"])
    assert mc.ok and mc.sigma is not None


def test_current_matches_frozen_form(maxwell):
    spec, C, F = maxwell["spec"], maxwell["C"], maxwell["F"]
    sigma = symplectic.check_master(maxwell["S"], maxwell["st"]).sigma
    J = LocalForm(4)
    for nu in range(4):
        s = kernel.ZERO
        for mu in range(4):
            s = s + ETA[mu] * F(mu, nu, mu)
        J = J + forms.wedge(forms.scalar_form(4, -C() * s), d3x(nu))
    assert variational.equiv_mod_d(sigma, J)


def test_check_master_reports_violations():
    spec = small_bv_spectrum()
    st = symplectic.canonical_structure(spec, symplectic.KIND_ODD_BV)
    u = kernel.jet(spec, "u")
    c = kernel.jet(spec, "c")
    cx = kernel.jet(spec, "c", (), (0,))
    us = kernel.jet(spec, "us")
    cs = kernel.jet(spec, "cs")
    O = forms.wedge(forms.scalar_form(1, us * u * c + cs * c * cx),
                    forms.volume(1))
    mc = symplectic.check_master(O, st)
    assert not mc.ok
    assert mc.sigma is None
    assert mc.residual


def test_odd_self_bracket_is_always_closed():
    # an odd charge's self-bracket vanishes modulo d by graded symmetry
    spec = small_bv_spectrum()
    st = symplectic.canonical_structure(spec, symplectic.KIND_ODD_BV)
    u = kernel.jet(spec, "u")
    us = kernel.jet(spec, "us")
    O = forms.wedge(forms.scalar_form(1, u * u * us), forms.volume(1))
    mc = symplectic.check_master(O, st)
    assert mc.ok


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain(maxwell):
    sys1 = symplectic.descend(maxwell["sys0"])
    sys2 = symplectic.descend(sys1)
    return sys1, sys2


def test_descended_potential_matches_frozen_form(maxwell, chain):
    spec, C, F = maxwell["spec"], maxwell["C"], maxwell["F"]
    sys1, _ = chain
    theta = LocalForm(4)
    for mu in range(4):
        blk = LocalForm(4)
        for nu in range(4):
            blk = blk + forms.wedge(forms.scalar_form(4, F(mu, nu)),
                                    ct(spec, "A", (nu,))).scale(ETA[nu])
        blk = blk + forms.wedge(forms.scalar_form(4, C()), ct(spec, "As", (mu,)))
        theta = theta + forms.wedge(blk, d3x(mu))
    assert sys1.structure.theta == -theta


def test_first_descent_exactness(maxwell, chain):
    sys1, _ = chain
    om1 = sys1.structure.omega
    assert forms.d(om1) == forms.lie(maxwell["Q"], maxwell["st"].omega)
    assert forms.delta(om1).is_zero()
    assert om1.bidegree() == (2, 3)
    assert om1.grade_of("ghost") == maxwell["st"].omega.grade_of("ghost") + 1


def test_first_descent_expansion(maxwell, chain):
    spec = maxwell["spec"]
    sys1, _ = chain

    def ctF(mu, nu):
        return ct(spec, "A", (nu,), mu) - ct(spec, "A", (mu,), nu)

    om1 = LocalForm(4)
    for nu in range(4):
        blk = LocalForm(4)
        for mu in range(4):
            blk = blk + forms.wedge(ctF(nu, mu), ct(spec, "A", (mu,))).scale(ETA[mu])
        blk = blk - forms.wedge(ct(spec, "C", ()), ct(spec, "As", (nu,)))
        om1 = om1 + forms.wedge(blk, d3x(nu))
    assert sys1.structure.omega == -om1


def test_descended_hamiltonian_is_the_current(maxwell, chain):
    sys1, _ = chain
    assert sys1.H is not None
    sigma = symplectic.check_master(maxwell["S"], maxwell["st"]).sigma
    assert sys1.H == sigma
    lhs = forms.contract(maxwell["Q"], sys1.structure.omega)
    assert variational.equiv_mod_d(lhs, forms.delta(sys1.H))


def test_homotopy_route_agrees_with_potential_route(maxwell, chain):
    sys1, _ = chain
    target = forms.lie(maxwell["Q"], maxwell["st"].omega)
    om1_h = variational.horizontal_homotopy(target)
    assert variational.equiv_mod_d(om1_h, sys1.structure.omega)
    fallback = symplectic.descend(
        symplectic.GaugeSystem(maxwell["Q"], maxwell["st"], None))
    assert fallback.H is None
    assert variational.equiv_mod_d(fallback.structure.omega, sys1.structure.omega)


def test_second_descent_exactness(maxwell, chain):
    sys1, sys2 = chain
    om2 = sys2.structure.omega
    assert forms.d(om2) == forms.lie(maxwell["Q"], sys1.structure.omega)
    assert forms.delta(om2).is_zero()
    assert om2.bidegree() == (2, 2)
    assert om2.grade_of("ghost") == sys1.structure.omega.grade_of("ghost") + 1


def test_second_descent_matches_frozen_form(maxwell, chain):
    spec = maxwell["spec"]
    _, sys2 = chain

    def ctF(mu, nu):
        return ct(spec, "A", (nu,), mu) - ct(spec, "A", (mu,), nu)

    om2 = LocalForm(4)
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            slot = forms.interior_coordinate(
                forms.interior_coordinate(forms.volume(4), nu), mu)
            slot = slot.scale(ETA[mu] * ETA[nu])
            om2 = om2 + forms.wedge_all(
                [ct(spec, "C", ()), ctF(mu, nu), slot]).scale(Fr(1, 2))
    assert sys2.structure.omega == om2


def test_descent_chain_terminates(maxwell, chain):
    _, sys2 = chain
    assert forms.lie(maxwell["Q"], sys2.structure.omega).is_zero()


def test_descent_chain_helper(maxwell, chain):
    steps = symplectic.descent_chain(maxwell["sys0"], 2)
    assert len(steps) == 3
    assert steps[1].structure.omega == chain[0].structure.omega
    assert steps[2].structure.omega == chain[1].structure.omega


def test_descent_chain_stops_at_a_zero_structure():
    st = symplectic.canonical_structure(small_bv_spectrum(), symplectic.KIND_ODD_BV)
    sys0 = symplectic.GaugeSystem(forms.EvoField(st.spectrum, {}), st)
    steps = symplectic.descent_chain(sys0, 3)
    assert len(steps) == 2
    assert steps[1].structure.omega.is_zero()


def test_gauge_system_keeps_its_master_check_and_descendant(maxwell):
    sys0 = maxwell["sys0"]
    assert sys0.descendant is sys0.descendant
    assert sys0.master is sys0.master
    assert symplectic.descent_chain(sys0, 1)[1] is sys0.descendant
    assert sys0.descendant.H == sys0.master.sigma


@pytest.mark.parametrize("name, cap, order", [("master", 1, 2),
                                               ("descendant", 2, 3)])
def test_a_kept_master_check_or_descendant_is_not_returned_under_a_lower_jet_order_cap(
        name, cap, order):
    # kept under the default cap and asked for again under a lower one, the
    # maxwell master check (jets of order 2) and descendant (order 3) raise
    # as a fresh system does, and stay kept for the default cap
    m = parser.parse_model(builtin_models.model_text("maxwell"))

    def system():
        st = m.structure()
        S = m.master_density()
        return symplectic.GaugeSystem(symplectic.hamiltonian_field(S, st), st, S)

    sys0, fresh = system(), system()
    kept = getattr(sys0, name)
    token = kernel.JET_ORDER_CAP.set(cap)
    try:
        for gs in (fresh, sys0):
            with pytest.raises(kernel.JetOrderCapExceeded) as info:
                getattr(gs, name)
            assert str(info.value).startswith(
                f"jet order {order} exceeds cap {cap} ")
    finally:
        kernel.JET_ORDER_CAP.reset(token)
    assert getattr(sys0, name) is kept


def test_a_system_without_a_hamiltonian_has_no_master_check(maxwell):
    # a typed engine error that existing ValueError handlers still catch,
    # raised by the master check and by the current that reads it
    sys0 = symplectic.GaugeSystem(maxwell["Q"], maxwell["st"])
    for read in (lambda: sys0.master, lambda: symplectic.brst_current(sys0)):
        with pytest.raises(kernel.EngineError) as info:
            read()
        assert type(info.value) is symplectic.StructureError
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "system carries no Hamiltonian"


def test_brst_current_cross_checks(maxwell):
    J = symplectic.brst_current(maxwell["sys0"])
    sigma = symplectic.check_master(maxwell["S"], maxwell["st"]).sigma
    assert J == sigma


def test_zero_generates_no_evolution(maxwell):
    assert symplectic.verify_evolution_generator(
        maxwell["S"], LocalForm(4), maxwell["st"])


# ---------------------------------------------------------------------------
# Hamiltonian field edge cases
# ---------------------------------------------------------------------------


def test_hamiltonian_field_of_zero_is_zero(maxwell):
    X = symplectic.hamiltonian_field(LocalForm(4), maxwell["st"])
    assert X.is_zero()


def test_hamiltonian_field_is_the_same_on_every_call(maxwell):
    # a second call returns the kept field; a fresh structure, with empty
    # memos, solves to the same field
    first = symplectic.hamiltonian_field(maxwell["S"], maxwell["st"])
    second = symplectic.hamiltonian_field(maxwell["S"], maxwell["st"])
    fresh = symplectic.hamiltonian_field(
        maxwell["S"], symplectic.canonical_structure(
            maxwell["spec"], symplectic.KIND_ODD_BV))
    assert first.base_components() == second.base_components() \
        == fresh.base_components() == maxwell["Q"].base_components()
    assert (first.parity, first.ghost) == (fresh.parity, fresh.ghost)
    assert repr(first) == repr(second) == repr(fresh)


def kept_ops(st) -> list:
    """The ops a structure's memo keeps results under, each with its cap."""
    return [(key[0], cap) for key, cap in st.memo]


def test_presymp_structure_is_frozen_and_memos_are_not_fields(maxwell):
    st = maxwell["st"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.omega = LocalForm(4)
    assert [f.name for f in dataclasses.fields(st)] == [
        "omega", "theta", "spectrum"]
    symplectic.hamiltonian_field(maxwell["S"], st)
    cap = kernel.JET_ORDER_CAP.get()
    assert {"field", "pairing"} <= {op for op, c in kept_ops(st) if c == cap}
    # the memo stays out of equality, hashing and repr
    twin = symplectic.PresympStructure(st.omega, st.theta, st.spectrum)
    assert twin == st and hash(twin) == hash(st) and repr(twin) == repr(st)


def test_new_structure_starts_with_empty_memos(maxwell):
    st = symplectic.canonical_structure(maxwell["spec"], symplectic.KIND_ODD_BV)
    assert st.memo == {}
    symplectic.bracket(maxwell["S"], maxwell["S"], st)
    # one solve for both sides of the self-bracket, one parity of rows
    cap = kernel.JET_ORDER_CAP.get()
    assert set(st.memo) == {(("field", maxwell["S"]), cap),
                            (("pairing", maxwell["Q"].parity), cap)}


def test_equal_forms_share_one_hamiltonian_field(maxwell):
    st = symplectic.canonical_structure(maxwell["spec"], symplectic.KIND_ODD_BV)
    S = maxwell["S"]
    twin = LocalForm(S.dim, dict(S.terms))
    assert twin is not S and twin == S
    assert symplectic.hamiltonian_field(twin, st) is \
        symplectic.hamiltonian_field(S, st)
    assert [op for op, _ in kept_ops(st)].count("field") == 1


def test_a_kept_hamiltonian_field_is_not_returned_under_a_lower_jet_order_cap():
    # the field of this density has jets of order 3: solved under the
    # default cap and asked for again under a cap of 2, it raises as a
    # fresh structure does, and it is still kept for the default cap
    m = parser.parse_model(builtin_models.model_text("maxwell"))
    O = parser.parse_expression("(A[1],[0 0]*A[2],[1]) ^ vol", m.spectrum)
    st = m.structure()
    X = symplectic.hamiltonian_field(O, st)
    assert max(v.max_jet_order() for v in X.base_components().values()) == 3
    token = kernel.JET_ORDER_CAP.set(2)
    try:
        for structure in (m.structure(), st):
            with pytest.raises(kernel.JetOrderCapExceeded) as info:
                symplectic.hamiltonian_field(O, structure)
            assert str(info.value).startswith("jet order 3 exceeds cap 2 ")
    finally:
        kernel.JET_ORDER_CAP.reset(token)
    assert symplectic.hamiltonian_field(O, st) is X


def test_failed_hamiltonian_field_is_not_kept():
    spec = small_bv_spectrum()
    vol = forms.volume(1)
    omega = forms.wedge_all([
        forms.contact(1, kernel.jet_gen(spec, "us")),
        forms.contact(1, kernel.jet_gen(spec, "u")), vol])
    st = symplectic.PresympStructure(omega, spectrum=spec)
    O = forms.wedge(forms.scalar_form(
        1, kernel.jet(spec, "c") * kernel.jet(spec, "cs")), vol)
    for _ in range(2):
        with pytest.raises(symplectic.NoHamiltonianFieldError):
            symplectic.hamiltonian_field(O, st)
    assert "field" not in [op for op, _ in kept_ops(st)]


def test_source_components_are_signed_euler_lagrange_derivatives():
    # _solve_field reads the source components of delta(O) as (-1)^n times
    # the Euler-Lagrange derivatives of O on an n-dimensional base; checked
    # on every built-in density and every seed-0 calculus bracket argument
    densities = []
    for name in builtin_models.BUILTINS:
        m = builtin_models.builtin(name)
        densities += [*m.densities.values(), *m.phase_densities.values()]
    spacetime = builtin_models.builtin("maxwell").spectrum
    brackets = [q for q in _load_calculus().make_queries(0, 200)
                if q.kind == "bracket"]
    assert brackets
    densities += [parser.parse_expression(text, spacetime)
                  for q in brackets for text in q.texts]
    assert {O.dim for O in densities} == {2, 3, 4}
    for O in densities:
        assert variational.source_decompose(forms.delta(O)).components == {
            g: (-1) ** O.dim * v
            for g, v in variational.el_derivative(O).items()}


def test_structure_errors_are_typed(maxwell):
    st = maxwell["st"]
    not_closed = forms.wedge(
        forms.scalar_form(4, kernel.jet(maxwell["spec"], "C")),
        forms.delta(st.theta))
    assert not forms.delta(not_closed).is_zero()
    with pytest.raises(symplectic.StructureError,
                       match="must be delta-closed"):
        symplectic.PresympStructure(not_closed)
    with pytest.raises(symplectic.StructureError, match="no spectrum"):
        symplectic.hamiltonian_field(
            maxwell["S"], symplectic.PresympStructure(st.omega))
    with pytest.raises(symplectic.StructureError, match="different bases"):
        symplectic.hamiltonian_field(forms.volume(3), st)


def test_hamiltonian_field_reports_degenerate_direction():
    spec = small_bv_spectrum()
    vol = forms.volume(1)
    omega = forms.wedge_all([
        forms.contact(1, kernel.jet_gen(spec, "us")),
        forms.contact(1, kernel.jet_gen(spec, "u")), vol])
    st = symplectic.PresympStructure(omega, spectrum=spec)
    c = kernel.jet(spec, "c")
    cs = kernel.jet(spec, "cs")
    O = forms.wedge(forms.scalar_form(1, c * cs), vol)
    with pytest.raises(symplectic.NoHamiltonianFieldError) as err:
        symplectic.hamiltonian_field(O, st)
    assert "cs" in str(err.value) or "c" in str(err.value)


def test_hamiltonian_field_rejects_differentiated_structure():
    spec = small_bv_spectrum()
    vol = forms.volume(1)
    omega = forms.wedge_all([
        forms.contact(1, kernel.jet_gen(spec, "us", (), (0,))),
        forms.contact(1, kernel.jet_gen(spec, "u")), vol])
    st = symplectic.PresympStructure(omega, spectrum=spec)
    u = kernel.jet(spec, "u")
    us = kernel.jet(spec, "us")
    with pytest.raises(symplectic.NoHamiltonianFieldError):
        symplectic.hamiltonian_field(
            forms.wedge(forms.scalar_form(1, u * us), vol), st)


PQRST = Spectrum(1, [FieldSpec(n, EVEN, 0, ROLE_FIELD, ()) for n in "pqrst"])


def _pqrst_solve(omega: str, O: str):
    st = symplectic.PresympStructure(
        parser.parse_expression(omega, PQRST), spectrum=PQRST)
    return symplectic.hamiltonian_field(parser.parse_expression(O, PQRST), st)


def test_hamiltonian_field_pins_all_but_one_unknown_of_a_row():
    # row p pairs q and r and no row has a single unknown: r is pinned to 0
    X = _pqrst_solve("del(p) ^ (del(q) + del(r)) ^ dx[0]", "p ^ dx[0]")
    assert repr(X) == "EvoField[q: 1]"


@pytest.mark.parametrize("omega, O, message", [
    ("x[0] * del(p) ^ del(q) ^ dx[0]", "p ^ dx[0]",
     "no invertible pairing row along p"),
    ("del(p) ^ del(q) ^ dx[0] + del(r) ^ del(s) ^ del(t)", "p ^ dx[0]",
     "contraction is not a source form along r"),
    ("del(p) ^ (del(q) + del(r) + del(s)) ^ dx[0]", "q ^ dx[0]",
     "not in the structure's image along r"),
], ids=["non-constant-row", "not-a-source-form", "not-in-the-image"])
def test_hamiltonian_field_names_the_direction_it_cannot_solve(omega, O,
                                                               message):
    with pytest.raises(symplectic.NoHamiltonianFieldError, match=message):
        _pqrst_solve(omega, O)


def test_the_image_check_names_the_least_failing_row_in_any_row_order(
        monkeypatch):
    # rows r and s both fail; reversing the rows' order must not change
    # which one the error names
    pairing = symplectic._pairing

    def reversed_rows(structure, xpar):
        directions, rows = pairing(structure, xpar)
        return directions, dict(reversed(rows.items()))

    monkeypatch.setattr(symplectic, "_pairing", reversed_rows)
    with pytest.raises(symplectic.NoHamiltonianFieldError,
                       match="not in the structure's image along r"):
        _pqrst_solve("del(p) ^ (del(q) + del(r) + del(s)) ^ dx[0]",
                     "q ^ dx[0]")


def _rows_one_direction_at_a_time(structure, xpar):
    """Reference pairing rows: contract omega once per direction h with a
    field whose only component, along h, is one auxiliary generator."""
    om = structure.omega
    directions = sorted({h for _, contacts in om.terms for h in contacts})
    for h in directions:
        if kernel.jet_mi(h):
            raise symplectic.NoHamiltonianFieldError(
                h, "structure has differentiated contact directions")
    rows = {}
    for h in directions:
        aux = kernel.aux_gen(".probe", (xpar + kernel.gen_parity(h)) % 2)
        X = forms.EvoField(structure.spectrum,
                           {h: kernel.GradedScalar.generator(aux)})
        for (dxs, contacts), s in forms.contract(X, om).terms.items():
            if (dxs != tuple(range(om.dim)) or len(contacts) != 1
                    or kernel.jet_mi(contacts[0])):
                raise symplectic.NoHamiltonianFieldError(
                    h, "contraction is not a source form")
            g = contacts[0]
            rows.setdefault(g, {})[h] = (
                s.partials(left=True)[aux]
                * variational._contact_vol_sign(om.dim, g))
    return directions, rows


def _outcome(rows_of, structure, xpar):
    try:
        return rows_of(structure, xpar)
    except symplectic.NoHamiltonianFieldError as e:
        return str(e)


def test_one_probe_contraction_gives_the_per_direction_rows(monkeypatch):
    built = []
    post_init = symplectic.PresympStructure.__post_init__

    def recording(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(symplectic.PresympStructure, "__post_init__",
                        recording)
    for name in ("maxwell", "chiral"):
        report.run_pipeline(builtin_models.builtin(name))
    built.append(_load_calculus().Calculus(vtc).structure)
    assert len(built) >= 5
    pairable = 0
    for st in built:
        for xpar in (EVEN, ODD):
            want = _outcome(_rows_one_direction_at_a_time, st, xpar)
            assert _outcome(symplectic._pairing_rows, st, xpar) == want
            pairable += not isinstance(want, str)
    assert pairable >= 6


# ---------------------------------------------------------------------------
# Bracket identities
# ---------------------------------------------------------------------------


def test_bracket_graded_symmetry():
    rng = random.Random(501)
    zero = LocalForm(1)
    for st, spec in structures_under_test():
        sigma = intrinsic_parity(st)
        checked = 0
        while checked < 12:
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            A = random_hamiltonian_form(rng, spec, pa)
            B = random_hamiltonian_form(rng, spec, pb)
            ab = symplectic.bracket(A, B, st)
            ba = symplectic.bracket(B, A, st)
            if variational.equiv_mod_d(ab, zero):
                continue
            sign = -1 if ((pa + sigma) * (pb + sigma)) % 2 == 0 else 1
            assert variational.equiv_mod_d(ab, ba.scale(sign)), (pa, pb, sigma)
            checked += 1


def test_bracket_jacobi():
    rng = random.Random(502)
    zero = LocalForm(1)
    for st, spec in structures_under_test():
        sigma = intrinsic_parity(st)
        for _ in range(8):
            ps = [rng.randint(0, 1) for _ in range(3)]
            fs = [random_hamiltonian_form(rng, spec, p) for p in ps]
            total = zero
            order = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
            for i, j, k in order:
                term = symplectic.bracket(fs[i], symplectic.bracket(fs[j], fs[k], st), st)
                if ((ps[i] + sigma) * (ps[k] + sigma)) % 2:
                    term = -term
                total = total + term
            assert variational.equiv_mod_d(total, zero), ps


def test_bracket_field_is_commutator():
    rng = random.Random(503)
    for st, spec in structures_under_test():
        for _ in range(8):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            A = random_hamiltonian_form(rng, spec, pa)
            B = random_hamiltonian_form(rng, spec, pb)
            XA = symplectic.hamiltonian_field(A, st)
            XB = symplectic.hamiltonian_field(B, st)
            XAB = symplectic.hamiltonian_field(symplectic.bracket(A, B, st), st)
            assert XAB.base_components() == forms.commutator(XA, XB).base_components()


# ---------------------------------------------------------------------------
# Evolution generators
# ---------------------------------------------------------------------------


def test_verify_evolution_generator_trivial_invariance():
    st = symplectic.canonical_structure(small_cotangent_spectrum(),
                                        symplectic.KIND_EVEN_COTANGENT)
    spec = st.spectrum
    u = kernel.jet(spec, "u")
    ub = kernel.jet(spec, "ub")
    S = forms.wedge(forms.scalar_form(1, u * ub), forms.volume(1))
    assert symplectic.verify_evolution_generator(S, S, st)


def test_verify_evolution_generator_grading_error():
    st = symplectic.canonical_structure(small_bv_spectrum(),
                                        symplectic.KIND_ODD_BV)
    spec = st.spectrum
    us = kernel.jet(spec, "us")
    bad = forms.wedge(forms.scalar_form(1, us), forms.volume(1))
    dummy = forms.wedge(forms.scalar_form(1, kernel.jet(spec, "u")), forms.volume(1))
    with pytest.raises(symplectic.GradingError):
        symplectic.verify_evolution_generator(dummy, bad, st)
