"""End-to-end checks of the engine against reference computations.

Electrodynamics and the su(2) chiral bosons run through the whole
pipeline and are compared with independently prepared closed-form
answers: the BRST transformations, the descended structures, the
conserved currents and their phase-space reductions, the homogenized
charge, and the affine current algebra with its central term.  The
structural laws behind those runs (complex identities, the homotopy
contract, bracket symmetry and Jacobi, divergence round trips, flow
invertibility) are exercised on randomized inputs at volume.

Every comparison is an exact symbolic identity or an equivalence modulo
total horizontal derivatives.  No numeric tolerance appears anywhere.
"""

import random
from fractions import Fraction as Fr

import pytest

from vtc import (builtin_models, foliation, forms, grading, kernel, model,
                 symplectic, variational)
from vtc.forms import LocalForm
from vtc.kernel import EVEN, FieldSpec, ODD, ROLE_ANTIFIELD, ROLE_FIELD, Spectrum

ETA = [Fr(1), Fr(-1), Fr(-1), Fr(-1)]


# ---------------------------------------------------------------------------
# Fixtures: the two built-in models with their full pipelines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mx():
    m = builtin_models.builtin("maxwell")
    sp = m.spectrum
    st = m.structure()
    S = m.master_density()
    Q = symplectic.hamiltonian_field(S, st)
    sys0 = symplectic.GaugeSystem(Q, st, S)
    sys1 = symplectic.descend(sys0)
    sys2 = symplectic.descend(sys1)
    sigma = symplectic.check_master(S, st).sigma
    F = m.foliation
    w1red = foliation.reduce(sys1.structure.omega, F)
    st_red = symplectic.PresympStructure(w1red, spectrum=F.spatial)
    Jred = foliation.charge_density(sigma, F, st_red)
    return dict(m=m, sp=sp, st=st, S=S, Q=Q, sys0=sys0, sys1=sys1,
                sys2=sys2, sigma=sigma, F=F, spl=F.spatial, st_red=st_red,
                Jred=Jred, H=m.phase_densities["H"])


@pytest.fixture(scope="module")
def cb():
    m = builtin_models.builtin("chiral")
    sp = m.spectrum
    st = m.structure()
    O = m.master_density()
    Q = symplectic.hamiltonian_field(O, st)
    sys1 = symplectic.descend(symplectic.GaugeSystem(Q, st, O))
    mc = symplectic.check_master(O, st)
    F = m.foliation
    spl = F.spatial
    w1red = foliation.reduce(sys1.structure.omega, F)
    st_red = symplectic.PresympStructure(w1red, spectrum=spl)
    h = grading.find_homogenizer(w1red, spl)
    Sred = foliation.charge_density(mc.sigma, F, st_red)
    hSred = grading.pullback(h, Sred)
    st_new = symplectic.PresympStructure(h.certificate.pulled_back,
                                         spectrum=spl)
    return dict(m=m, sp=sp, st=st, O=O, Q=Q, sys1=sys1, mc=mc, F=F,
                spl=spl, w1red=w1red, h=h, hSred=hSred, st_new=st_new)


# -- spacetime helpers for electrodynamics ----------------------------------


def mxA(sp, mu, *dd):
    return kernel.jet(sp, "A", (mu,), dd)


def mxF(sp, mu, nu, *dd):
    return mxA(sp, nu, mu, *dd) - mxA(sp, mu, nu, *dd)


def d3x(nu):
    """Codimension-one slot with its index raised by the metric."""
    return forms.interior_coordinate(forms.volume(4), nu).scale(ETA[nu])


def ct4(sp, name, comp, *dd):
    return forms.contact(4, kernel.jet_gen(sp, name, comp, dd))


def ctF(sp, mu, nu):
    return ct4(sp, "A", (nu,), mu) - ct4(sp, "A", (mu,), nu)


# -- internal-index helpers for the chiral bosons ---------------------------

EPS = model.structure_constants(model.SU2)


def sf2(s):
    return forms.scalar_form(2, s)


def chiral_current_blocks(sp):
    """The quadratic and cubic blocks of the interacting charge's current."""
    K = kernel.parameter("k")

    def etab(i):
        return sf2(kernel.jet(sp, "etab", (i,)))

    def etab2(j, kk):
        return sf2(kernel.jet(sp, "etab", (j,)) * kernel.jet(sp, "etab", (kk,)))

    quad = LocalForm.zero(2)
    for (i, j, kk), e in sorted(EPS.items()):
        quad = quad + forms.wedge(forms.dressed(sp, "phi", (i,)),
                                  etab2(j, kk)).scale(e)
    for i in range(3):
        quad = quad + forms.wedge(etab(i), forms.d(etab(i))).scale(K)
    cub = LocalForm.zero(2)
    for (i, j, kk), e in sorted(EPS.items()):
        cub = cub + forms.wedge(forms.dressed(sp, "phib", (i,)),
                                etab2(j, kk)).scale(e * K)
    return quad, cub


# ---------------------------------------------------------------------------
# Electrodynamics: the BRST differential
# ---------------------------------------------------------------------------


def test_master_action_generates_brst_transformations(mx):
    sp, Q = mx["sp"], mx["Q"]
    expected = {}
    for mu in range(4):
        expected[kernel.jet_gen(sp, "A", (mu,))] = kernel.jet(sp, "C", (), (mu,))
    for mu in range(4):
        s = kernel.ZERO
        for nu in range(4):
            s = s + ETA[nu] * mxF(sp, nu, mu, nu)
        expected[kernel.jet_gen(sp, "As", (mu,))] = s
    s = kernel.ZERO
    for mu in range(4):
        s = s + ETA[mu] * kernel.jet(sp, "As", (mu,), (mu,))
    expected[kernel.jet_gen(sp, "Cs", ())] = s
    assert Q.base_components() == expected
    assert Q.parity == ODD and Q.ghost == 1


def test_brst_differential_is_homological(mx):
    assert forms.commutator(mx["Q"], mx["Q"]).is_zero()


# ---------------------------------------------------------------------------
# Electrodynamics: descent of the canonical structure
# ---------------------------------------------------------------------------


def test_descent_reaches_the_radiative_structure(mx):
    sp = mx["sp"]
    om1 = LocalForm.zero(4)
    for nu in range(4):
        blk = LocalForm.zero(4)
        for mu in range(4):
            blk = blk + forms.wedge(ctF(sp, nu, mu),
                                    ct4(sp, "A", (mu,))).scale(ETA[mu])
        blk = blk - forms.wedge(ct4(sp, "C", ()), ct4(sp, "As", (nu,)))
        om1 = om1 + forms.wedge(blk, d3x(nu))
    got = mx["sys1"].structure.omega
    assert variational.equiv_mod_d(got, -om1)
    assert got == -om1


def test_second_descent_is_ghost_times_field_strength(mx):
    sp = mx["sp"]
    om2 = LocalForm.zero(4)
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            slot = forms.interior_coordinate(
                forms.interior_coordinate(forms.volume(4), nu), mu)
            slot = slot.scale(ETA[mu] * ETA[nu])
            om2 = om2 + forms.wedge_all(
                [ct4(sp, "C", ()), ctF(sp, mu, nu), slot]).scale(Fr(1, 2))
    got = mx["sys2"].structure.omega
    assert got == om2
    # the chain stops here: the next descent target vanishes identically
    assert forms.lie(mx["Q"], got).is_zero()


# ---------------------------------------------------------------------------
# Electrodynamics: conserved current and the Gauss constraint
# ---------------------------------------------------------------------------


def test_brst_current_is_ghost_times_field_equations(mx):
    sp = mx["sp"]
    C = kernel.jet(sp, "C")
    J = LocalForm.zero(4)
    for nu in range(4):
        acc = kernel.ZERO
        for mu in range(4):
            acc = acc + ETA[mu] * mxF(sp, mu, nu, mu)
        J = J + forms.wedge(forms.scalar_form(4, -C * acc), d3x(nu))
    assert variational.equiv_mod_d(mx["sigma"], J)
    assert symplectic.brst_current(mx["sys0"]) == mx["sigma"]


def test_current_reduces_to_the_gauss_density(mx):
    spl = mx["spl"]
    div = kernel.ZERO
    for i in range(3):
        div = div + kernel.jet(spl, "E", (i,), (i,))
    gauss = forms.wedge(forms.scalar_form(3, kernel.jet(spl, "C") * div),
                        forms.volume(3))
    assert mx["Jred"].bidegree() == (0, 3)
    assert variational.equiv_mod_d(mx["Jred"], gauss)


def test_energy_commutes_with_the_reduced_charge(mx):
    got = symplectic.bracket(mx["H"], mx["Jred"], mx["st_red"])
    assert variational.equiv_mod_d(got, LocalForm.zero(3))


# ---------------------------------------------------------------------------
# Chiral bosons: master equation and its current
# ---------------------------------------------------------------------------


def test_chiral_master_equation_holds_with_symbolic_level(cb):
    mc = cb["mc"]
    assert mc.ok
    quad, cub = chiral_current_blocks(cb["sp"])
    half = (quad + cub).scale(Fr(1, 2))
    assert mc.sigma == half
    assert variational.equiv_mod_d(mc.sigma, half)


# ---------------------------------------------------------------------------
# Chiral bosons: homogenization of the reduced structure
# ---------------------------------------------------------------------------


def test_homogenizer_scales_fields_by_level_times_duals(cb):
    spl, h = cb["spl"], cb["h"]
    K = kernel.parameter("k")
    comps = {g: v for g, v in h.X.base_components().items() if not v.is_zero()}
    assert comps == {kernel.jet_gen(spl, "phi", (i,)):
                     K * kernel.jet(spl, "phib", (i,)) for i in range(3)}
    cert = h.certificate
    assert cert.degree == 1
    assert cert.pulled_back == cert.leading
    assert grading.pullback(h, cb["w1red"]) == cert.leading


def test_homogenized_charge_is_the_reduced_quadratic_block(cb):
    quad, _ = chiral_current_blocks(cb["sp"])
    assert cb["hSred"] == foliation.reduce(quad, cb["F"]).scale(Fr(1, 2))


# ---------------------------------------------------------------------------
# Chiral bosons: affine current algebra with central term
# ---------------------------------------------------------------------------


def poly(rnd, x):
    out = kernel.scalar(Fr(rnd.randint(-2, 2)))
    for j in range(1, rnd.randint(1, 3) + 1):
        c = Fr(rnd.randint(-2, 2))
        if c:
            t = kernel.scalar(c)
            for _ in range(j):
                t = t * x
            out = out + t
    return out


def su2_bracket(a, b):
    out = []
    for kk in range(3):
        acc = kernel.ZERO
        for (i, j, k2), e in EPS.items():
            if i == kk:
                acc = acc + a[j] * b[k2] * kernel.scalar(e)
        out.append(acc)
    return out


def test_smeared_fields_close_on_the_affine_algebra(cb):
    spl = cb["spl"]
    K = kernel.parameter("k")
    dsig = forms.dx(1, 0)
    x = kernel.x(0)

    def smear(eps):
        out = LocalForm.zero(1)
        for i in range(3):
            out = out + forms.wedge(
                forms.scalar_form(1, eps[i] * kernel.jet(spl, "phi", (i,))),
                dsig)
        return out

    def pairing(a, b):
        # <a, db> against the unit metric, as a density on the leaf
        out = LocalForm.zero(1)
        for i in range(3):
            out = out + forms.wedge(
                forms.scalar_form(1, a[i] * b[i].total_derivative(0)), dsig)
        return out.scale(K)

    rnd = random.Random(601)
    checked = 0
    while checked < 3:
        e1 = [poly(rnd, x) for _ in range(3)]
        e2 = [poly(rnd, x) for _ in range(3)]
        if smear(e1).is_zero() or smear(e2).is_zero():
            continue
        got = grading.derived_bracket(cb["hSred"], [smear(e1), smear(e2)],
                                      cb["st_new"])
        main = smear(su2_bracket(e1, e2))
        # central extension pinned term by term, then the integrated law
        assert got - main == -pairing(e2, e1)
        assert variational.equiv_mod_d(got, main + pairing(e1, e2))
        checked += 1


# ---------------------------------------------------------------------------
# Randomized law checks: the differential complex
# ---------------------------------------------------------------------------


def random_scalar(rnd, pool, nterms=2, nfac=2, field=False):
    # with field set, every term carries at least one jet factor, so the
    # result is never a pure function of the base coordinates
    t = kernel.ZERO
    for _ in range(rnd.randint(1, nterms)):
        term = kernel.scalar(Fr(rnd.randint(-3, 3) or 1, rnd.randint(1, 2)))
        for _ in range(rnd.randint(1 if field else 0, nfac)):
            term = term * rnd.choice(pool[2:] if field else pool)
        t = t + term
    return t


def spacetime_pools(sp):
    pool = [kernel.x(0), kernel.x(2),
            kernel.jet(sp, "A", (0,)), kernel.jet(sp, "A", (1,), (0,)),
            kernel.jet(sp, "C"), kernel.jet(sp, "C", (), (0,)),
            kernel.jet(sp, "As", (0,)), kernel.jet(sp, "Cs")]
    cpool = [kernel.jet_gen(sp, "A", (0,)), kernel.jet_gen(sp, "A", (1,), (0,)),
             kernel.jet_gen(sp, "C"), kernel.jet_gen(sp, "C", (), (3,)),
             kernel.jet_gen(sp, "As", (0,)), kernel.jet_gen(sp, "Cs")]
    return pool, cpool


def random_form(rnd, sp, pool, cpool, ncontacts=None, ndx=None):
    w = forms.scalar_form(4, random_scalar(rnd, pool))
    if ndx is None:
        ndx = rnd.randint(0, 2)
    for _ in range(ndx):
        w = forms.wedge(w, forms.dx(4, rnd.randrange(4)))
    if ncontacts is None:
        ncontacts = rnd.randint(0, 2)
    for _ in range(ncontacts):
        w = forms.wedge(w, forms.contact(4, rnd.choice(cpool)))
    return w


def test_complex_identities_at_volume(mx):
    sp = mx["sp"]
    pool, cpool = spacetime_pools(sp)
    rnd = random.Random(602)
    for _ in range(200):
        w = random_form(rnd, sp, pool, cpool)
        assert forms.d(forms.d(w)).is_zero()
        assert forms.delta(forms.delta(w)).is_zero()
        assert (forms.d(forms.delta(w)) + forms.delta(forms.d(w))).is_zero()


def test_homotopy_contract_at_volume(mx):
    sp = mx["sp"]
    pool, cpool = spacetime_pools(sp)
    rnd = random.Random(603)
    done = 0
    while done < 100:
        w = random_form(rnd, sp, pool, cpool,
                        ncontacts=rnd.randint(1, 2), ndx=rnd.randint(1, 3))
        bd = w.bidegree()
        if w.is_zero() or bd is None or bd[1] in (0, 4):
            continue
        assert forms.d(variational.horizontal_homotopy(w)) + \
            variational.horizontal_homotopy(forms.d(w)) == w
        done += 1


# ---------------------------------------------------------------------------
# Randomized law checks: bracket symmetry and Jacobi
# ---------------------------------------------------------------------------


def small_bv_spectrum():
    return Spectrum(1, [
        FieldSpec("u", EVEN, 0, ROLE_FIELD, ()),
        FieldSpec("c", ODD, 1, ROLE_FIELD, ()),
        FieldSpec("us", ODD, -1, ROLE_ANTIFIELD, (), conjugate="u"),
        FieldSpec("cs", EVEN, -2, ROLE_ANTIFIELD, (), conjugate="c"),
    ])


def small_cotangent_spectrum():
    return Spectrum(1, [
        FieldSpec("u", EVEN, 0, ROLE_FIELD, ()),
        FieldSpec("c", ODD, 1, ROLE_FIELD, ()),
        FieldSpec("ub", EVEN, 0, kernel.ROLE_SOURCE, (), conjugate="u"),
        FieldSpec("cb", ODD, -1, kernel.ROLE_SOURCE, (), conjugate="c"),
    ])


def structures_under_test():
    yield (symplectic.canonical_structure(small_bv_spectrum(),
                                          symplectic.KIND_ODD_BV),
           small_bv_spectrum())
    yield (symplectic.canonical_structure(small_cotangent_spectrum(),
                                          symplectic.KIND_EVEN_COTANGENT),
           small_cotangent_spectrum())


def random_hamiltonian_form(rnd, spec, parity, max_terms=2):
    gens = []
    for f in spec.fields:
        for mi in [(), (0,)]:
            gens.append(kernel.jet_gen(spec, f.name, (), mi))
    for _ in range(400):
        out = kernel.ZERO
        for _ in range(max_terms):
            m = kernel.ONE
            for g in rnd.sample(gens, rnd.randint(1, 3)):
                m = m * kernel.GradedScalar.generator(g)
            if m.parity() == parity:
                out = out + m * Fr(rnd.choice([1, -1, 2]))
        if out and out.parity() == parity:
            return forms.wedge(forms.scalar_form(1, out), forms.volume(1))
    raise RuntimeError("could not build a form of the requested parity")


def intrinsic_parity(st):
    return (st.omega.parity() + st.omega.hdeg()) % 2


def test_bracket_symmetry_at_volume():
    rnd = random.Random(604)
    zero = LocalForm.zero(1)
    for st, spec in structures_under_test():
        sigma = intrinsic_parity(st)
        checked = 0
        while checked < 25:
            pa, pb = rnd.randint(0, 1), rnd.randint(0, 1)
            A = random_hamiltonian_form(rnd, spec, pa)
            B = random_hamiltonian_form(rnd, spec, pb)
            ab = symplectic.bracket(A, B, st)
            if variational.equiv_mod_d(ab, zero):
                continue
            ba = symplectic.bracket(B, A, st)
            sign = -1 if ((pa + sigma) * (pb + sigma)) % 2 == 0 else 1
            assert variational.equiv_mod_d(ab, ba.scale(sign)), (pa, pb)
            checked += 1


def test_bracket_jacobi_at_volume():
    rnd = random.Random(605)
    zero = LocalForm.zero(1)
    for st, spec in structures_under_test():
        sigma = intrinsic_parity(st)
        for _ in range(25):
            ps = [rnd.randint(0, 1) for _ in range(3)]
            fs = [random_hamiltonian_form(rnd, spec, p) for p in ps]
            total = zero
            for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
                term = symplectic.bracket(
                    fs[i], symplectic.bracket(fs[j], fs[k], st), st)
                if ((ps[i] + sigma) * (ps[k] + sigma)) % 2:
                    term = -term
                total = total + term
            assert variational.equiv_mod_d(total, zero), ps


# ---------------------------------------------------------------------------
# Descended Hamiltonians solve the anomaly equation on both models
# ---------------------------------------------------------------------------


def test_descended_hamiltonian_differential_maxwell(mx):
    br = symplectic.bracket(mx["S"], mx["S"], mx["st"])
    assert forms.d(mx["sys1"].H) == br.scale(Fr(-1, 2))


def test_descended_hamiltonian_differential_chiral(cb):
    br = symplectic.bracket(cb["O"], cb["O"], cb["st"])
    assert forms.d(cb["sys1"].H) == br.scale(Fr(-1, 2))


# ---------------------------------------------------------------------------
# Homotopy multibracket identities on the chiral model
# ---------------------------------------------------------------------------


def test_multibracket_identities_to_third_order(cb):
    st, sp = cb["st"], cb["sp"]
    parts = cb["O"].grade_split(grading.KIND_MOMENTUM)
    Om1, Om2 = parts[1], parts[2]
    zero = LocalForm.zero(2)
    vol = forms.volume(2)

    def dens(s):
        return forms.wedge(sf2(s), vol)

    def ph(i, mi=()):
        return kernel.jet(sp, "phi", (i,), mi)

    def et(i, mi=()):
        return kernel.jet(sp, "eta", (i,), mi)

    def uno(f):
        return symplectic.bracket(Om1, f, st)

    def duo(f, g):
        return symplectic.bracket(symplectic.bracket(Om2, f, st), g, st)

    a_e = dens(ph(0) * ph(1))
    b_e = dens(ph(2) * ph(2) + ph(0, (1,)) * ph(1))
    c_e = dens(et(0) * et(1))
    a_o = dens(et(0) * ph(1))
    b_o = dens(et(2) * ph(0, (1,)))
    c_o = dens(et(1) * ph(2) * ph(2))

    for f in (a_e, a_o, c_e):
        assert variational.equiv_mod_d(uno(uno(f)), zero)

    for f, g in [(a_e, b_e), (a_e, b_o), (a_o, b_o)]:
        s = -1 if (f.parity() and g.parity()) else 1
        r = uno(duo(f, g)) + duo(uno(f), g) + duo(uno(g), f).scale(s)
        assert variational.equiv_mod_d(r, zero)

    for f, g, hh in [(a_e, b_e, dens(ph(2) * ph(0))),
                     (a_e, a_o, b_o),
                     (a_o, b_o, c_o)]:
        pa, pb, pc = f.parity(), g.parity(), hh.parity()
        t1 = duo(duo(f, g), hh)
        t2 = duo(duo(f, hh), g).scale(-1 if (pb and pc) else 1)
        t3 = duo(duo(g, hh), f).scale(-1 if (pa and (pb + pc)) % 2 else 1)
        assert variational.equiv_mod_d(t1 + t2 + t3, zero)


# ---------------------------------------------------------------------------
# Round trips: source decomposition, divergence inversion, flow pullback
# ---------------------------------------------------------------------------


def test_source_decomposition_roundtrip_at_volume(mx):
    sp = mx["sp"]
    pool, cpool = spacetime_pools(sp)
    rnd = random.Random(606)
    vol = forms.volume(4)
    for _ in range(100):
        alpha = LocalForm.zero(4)
        for _ in range(rnd.randint(1, 3)):
            alpha = alpha + forms.wedge_all(
                [forms.scalar_form(4, random_scalar(rnd, pool)), vol,
                 forms.contact(4, rnd.choice(cpool))])
        dec = variational.source_decompose(alpha)
        assert dec.source + forms.d(dec.boundary) == alpha
        for _, contacts in dec.source.terms:
            assert not kernel.jet_mi(contacts[0])


def test_divergence_primitive_roundtrip_at_volume(mx):
    sp = mx["sp"]
    pool, _ = spacetime_pools(sp)
    rnd = random.Random(607)
    vol = forms.volume(4)
    done = 0
    while done < 100:
        sig = forms.wedge(
            forms.scalar_form(4, random_scalar(rnd, pool, field=True)),
            forms.interior_coordinate(vol, rnd.randrange(4)))
        f = forms.d(sig)
        if f.is_zero():
            continue
        prim = variational.divergence_primitive(f)
        assert forms.d(prim) == f
        done += 1


def test_flow_pullback_inverts(cb):
    h = cb["h"]
    hin = h.inverse()
    spl = cb["spl"]
    probes = [cb["w1red"], cb["hSred"],
              forms.scalar_form(1, kernel.jet(spl, "phi", (0,)) *
                                kernel.jet(spl, "phib", (2,), (0,))),
              forms.wedge(forms.contact(1, kernel.jet_gen(spl, "etab", (1,))),
                          forms.dx(1, 0))]
    for a in probes:
        assert grading.pullback(hin, grading.pullback(h, a)) == a
        assert grading.pullback(h, grading.pullback(hin, a)) == a
