"""Reduction to a leaf of a time slicing and the phase-space calculus.

Maxwell electrodynamics carries the full chain: the descended structure
reduces to the radiative Darboux form, the conserved current reduces to
the Gauss-constraint density, and the energy density generates Ampere's
law while commuting with the constraint.
"""

from fractions import Fraction as Fr

import pytest

from vtc import (builtin_models, foliation, forms, kernel, parser, symplectic,
                 variational)
from vtc.forms import LocalForm
from vtc.kernel import EVEN, FieldSpec, ODD, ROLE_FIELD, Spectrum


@pytest.fixture(scope="module")
def maxwell():
    m = builtin_models.builtin("maxwell")
    st = m.structure()
    S = m.master_density()
    Q = symplectic.hamiltonian_field(S, st)
    sys0 = symplectic.GaugeSystem(Q, st, S)
    sigma = symplectic.check_master(S, st).sigma
    sys1 = symplectic.descend(sys0)
    F = m.foliation
    w1red = foliation.reduce(sys1.structure.omega, F)
    st_red = symplectic.PresympStructure(w1red, spectrum=F.spatial)
    return dict(m=m, st=st, S=S, sys1=sys1, sigma=sigma, F=F,
                spl=F.spatial, w1red=w1red, st_red=st_red,
                H=m.phase_densities["H"])


@pytest.fixture(scope="module")
def gauss(maxwell):
    spl = maxwell["spl"]
    rho = kernel.ZERO
    for i in range(3):
        rho = rho - kernel.jet(spl, "E", (i,), (i,))
    rho = -kernel.jet(spl, "C") * rho
    return forms.wedge(forms.scalar_form(3, rho), forms.volume(3))


def ct3(spl, name, comp=(), mi=()):
    return forms.contact(3, kernel.jet_gen(spl, name, comp, mi))


# -- context validation -----------------------------------------------------


def plane():
    return Spectrum(2, [FieldSpec("u", EVEN, 0, ROLE_FIELD, ())])


def line():
    return Spectrum(1, [FieldSpec("u", EVEN, 0, ROLE_FIELD, ())])


def test_time_direction_must_exist():
    with pytest.raises(foliation.FoliationError, match="time direction"):
        foliation.FoliationContext(plane(), line(), (5,), {"u": "u"})


def test_time_direction_must_not_repeat():
    sp = Spectrum(3, [FieldSpec("u", EVEN, 0, ROLE_FIELD, ())])
    with pytest.raises(foliation.FoliationError, match="time direction"):
        foliation.FoliationContext(sp, line(), (0, 0), {"u": "u"})


def test_at_least_one_time_direction():
    with pytest.raises(foliation.FoliationError, match="at least one"):
        foliation.FoliationContext(plane(), plane(), (), {"u": "u"})


def test_spatial_dimension_must_drop():
    with pytest.raises(foliation.FoliationError, match="dimension"):
        foliation.FoliationContext(plane(), plane(), (0,), {"u": "u"})


def test_phase_twin_must_keep_grading():
    sp = plane()
    spl = Spectrum(1, [FieldSpec("u", ODD, 1, ROLE_FIELD, ())])
    with pytest.raises(foliation.FoliationError, match="grading"):
        foliation.FoliationContext(sp, spl, (0,), {"u": "u"})


@pytest.mark.parametrize("field_map", [{"D": "u"}, {"u": "w"}])
def test_map_must_name_declared_fields(field_map):
    with pytest.raises(foliation.FoliationError, match="unknown field"):
        foliation.FoliationContext(plane(), line(), (0,), field_map)


def test_rule_keys_must_be_jets():
    with pytest.raises(foliation.FoliationError, match="jet variables"):
        foliation.FoliationContext(plane(), line(), (0,), {"u": "u"},
                                   {kernel.coord_gen(0): kernel.ZERO})


def test_rule_keys_must_be_time_derivatives():
    sp, spl = plane(), line()
    img = kernel.jet(spl, "u")
    for mi in ((), (1,), (0, 1)):
        bad = {kernel.jet_gen(sp, "u", (), mi): img}
        with pytest.raises(foliation.FoliationError, match="time-derivative"):
            foliation.FoliationContext(sp, spl, (0,), {"u": "u"}, bad)


def test_rule_image_parity_is_checked():
    sp = plane()
    spl = Spectrum(1, [FieldSpec("u", EVEN, 0, ROLE_FIELD, ()),
                       FieldSpec("c", ODD, 0, ROLE_FIELD, ())])
    bad = {kernel.jet_gen(sp, "u", (), (0,)): kernel.jet(spl, "c")}
    with pytest.raises(foliation.FoliationError, match="parity"):
        foliation.FoliationContext(sp, spl, (0,), {"u": "u"}, bad)


# -- the reduction map ------------------------------------------------------


def test_unmapped_variables_are_reported():
    m = builtin_models.builtin("chiral")
    sp = m.spectrum
    a = forms.wedge(forms.scalar_form(2, kernel.jet(sp, "eta", (0,))),
                    forms.dx(2, 1))
    with pytest.raises(foliation.IncompletePhaseMapError) as err:
        foliation.reduce(a, m.foliation)
    assert any(s.startswith("eta") for s in err.value.offenders)


def test_uncovered_time_derivative_is_reported(maxwell):
    sp = maxwell["m"].spectrum
    # second time derivatives have no declared image, unlike the first ones
    a = forms.scalar_form(4, kernel.jet(sp, "A", (1,), (0, 0)))
    with pytest.raises(foliation.IncompletePhaseMapError) as err:
        foliation.reduce(a, maxwell["F"])
    assert any(s.startswith("A") for s in err.value.offenders)

    b = forms.scalar_form(4, kernel.jet(sp, "Cs", (), (0,)))
    with pytest.raises(foliation.IncompletePhaseMapError) as err:
        foliation.reduce(b, maxwell["F"])
    assert any(s.startswith("Cs") for s in err.value.offenders)


def test_reduce_lists_every_offender_of_a_monomial(maxwell):
    sp = maxwell["m"].spectrum
    s = (kernel.GradedScalar.generator(kernel.coord_gen(0))
         * kernel.jet(sp, "A", (1,), (0, 0)))
    a = forms.wedge(forms.scalar_form(4, s), forms.dx(4, 1))
    with pytest.raises(foliation.IncompletePhaseMapError) as err:
        foliation.reduce(a, maxwell["F"])
    assert err.value.offenders == ["A[1],[0 0]", "x[0]"]


def test_terms_with_time_differentials_drop(maxwell):
    sp = maxwell["m"].spectrum
    a = forms.wedge_all([
        forms.scalar_form(4, kernel.jet(sp, "C", (), (0, 0, 0))),
        forms.dx(4, 0), forms.dx(4, 1), forms.dx(4, 2), forms.dx(4, 3)])
    assert foliation.reduce(a, maxwell["F"]) == LocalForm(3)


def test_reduce_is_an_algebra_morphism(maxwell):
    sp = maxwell["m"].spectrum
    F = maxwell["F"]
    a = forms.wedge(forms.scalar_form(4, kernel.jet(sp, "A", (1,), (0,))),
                    forms.dx(4, 2))
    b = forms.wedge(forms.contact(4, kernel.jet_gen(sp, "C")),
                    forms.dx(4, 3))
    assert foliation.reduce(forms.wedge(a, b), F) == \
        forms.wedge(foliation.reduce(a, F), foliation.reduce(b, F))


def test_reduce_commutes_with_differentials(maxwell):
    sp = maxwell["m"].spectrum
    F = maxwell["F"]
    a = forms.wedge(forms.scalar_form(
        4, kernel.jet(sp, "A", (2,), (0,)) * kernel.jet(sp, "C")),
        forms.dx(4, 1))
    assert foliation.reduce(forms.delta(a), F) == \
        forms.delta(foliation.reduce(a, F))
    assert foliation.reduce(forms.d(a), F) == forms.d(foliation.reduce(a, F))


def test_purely_spatial_forms_rename_only(maxwell):
    sp = maxwell["m"].spectrum
    spl = maxwell["spl"]
    a = forms.wedge(forms.scalar_form(4, kernel.jet(sp, "A", (3,), (1, 2))),
                    forms.dx(4, 3))
    got = foliation.reduce(a, maxwell["F"])
    want = forms.wedge(forms.scalar_form(
        3, kernel.jet(spl, "A", (3,), (0, 1))), forms.dx(3, 2))
    assert got == want


def test_spatial_coordinates_rename_to_leaf_coordinates(maxwell):
    m = maxwell["m"]
    a = parser.parse_expression("x[2]*A[1] ^ dx[1] ^ dx[2] ^ dx[3]", m.spectrum)
    assert foliation.reduce(a, maxwell["F"]) == parser.parse_expression(
        "x[1]*A[1] ^ dx[0] ^ dx[1] ^ dx[2]", maxwell["spl"])


def test_velocity_rule_solves_for_the_field_strength(maxwell):
    sp = maxwell["m"].spectrum
    spl = maxwell["spl"]
    a = forms.scalar_form(4, kernel.jet(sp, "A", (2,), (0,)))
    got = foliation.reduce(a, maxwell["F"])
    want = forms.scalar_form(3, kernel.jet(spl, "A", (0,), (1,)) -
                             kernel.jet(spl, "E", (1,)))
    assert got == want


# -- Maxwell on the leaves --------------------------------------------------


def test_reduced_structure_is_darboux(maxwell):
    spl = maxwell["spl"]
    vol3 = forms.volume(3)
    cand = LocalForm(3)
    for i in range(3):
        cand = cand + forms.wedge(
            forms.wedge(ct3(spl, "E", (i,)), ct3(spl, "A", (i + 1,))), vol3)
    cand = cand - forms.wedge(
        forms.wedge(ct3(spl, "As", (0,)), ct3(spl, "C")), vol3)
    assert maxwell["w1red"] == -cand


def test_current_reduces_to_gauss_constraint(maxwell, gauss):
    Jred = foliation.charge_density(maxwell["sigma"], maxwell["F"],
                                    maxwell["st_red"])
    assert Jred.bidegree() == (0, 3)
    assert Jred.grade_of("ghost") == 1
    assert variational.equiv_mod_d(Jred, gauss)


def test_charge_density_rejects_non_charges(maxwell):
    sp = maxwell["m"].spectrum
    s = (kernel.jet(sp, "C") + kernel.jet(sp, "As", (0,))) * \
        kernel.jet(sp, "A", (1,))
    bad = forms.wedge_all([forms.scalar_form(4, s),
                           forms.dx(4, 1), forms.dx(4, 2), forms.dx(4, 3)])
    with pytest.raises(foliation.FoliationError, match="master"):
        foliation.charge_density(bad, maxwell["F"], maxwell["st_red"])


def test_energy_generates_ampere_evolution(maxwell):
    spl = maxwell["spl"]
    XH = symplectic.hamiltonian_field(maxwell["H"], maxwell["st_red"])
    comps = {g: v for g, v in XH.base_components().items() if not v.is_zero()}
    want = {}
    for i in range(3):
        want[kernel.jet_gen(spl, "A", (i + 1,))] = -kernel.jet(spl, "E", (i,))
        curl = kernel.ZERO
        for j in range(3):
            fij = kernel.jet(spl, "A", (j + 1,), (i,)) - \
                kernel.jet(spl, "A", (i + 1,), (j,))
            curl = curl + fij.total_derivative(j)
        want[kernel.jet_gen(spl, "E", (i,))] = curl
    assert comps == want


def test_energy_commutes_with_the_constraint(maxwell, gauss):
    z = LocalForm(3)
    st_red = maxwell["st_red"]
    assert variational.equiv_mod_d(
        symplectic.bracket(maxwell["H"], gauss, st_red), z)
    assert variational.equiv_mod_d(
        symplectic.bracket(maxwell["H"], maxwell["H"], st_red), z)


def test_constraint_generates_the_evolution(maxwell, gauss):
    assert symplectic.verify_evolution_generator(
        gauss, maxwell["H"], maxwell["st_red"])


# -- chiral bosons on the leaves --------------------------------------------


def test_chiral_structure_reduces_to_printed_form():
    m = builtin_models.builtin("chiral")
    st = m.structure()
    O = m.master_density()
    sys0 = symplectic.GaugeSystem(symplectic.hamiltonian_field(O, st), st, O)
    om1 = symplectic.descend(sys0).structure.omega
    w1red = foliation.reduce(om1, m.foliation)

    spl = m.foliation.spatial
    K = kernel.parameter("k")

    def sf1(s):
        return forms.scalar_form(1, s)

    cand = LocalForm(1)
    for i in range(3):
        pair = forms.delta(sf1(kernel.jet(spl, "phi", (i,)))) - \
            forms.delta(sf1(kernel.jet(spl, "phib", (i,)))).scale(K)
        cand = cand + forms.wedge(
            forms.delta(sf1(kernel.jet(spl, "etab", (i,)))),
            forms.wedge(pair, forms.dx(1, 0)))
    assert w1red == -cand
