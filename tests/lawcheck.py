"""The law-check block shared by the bracket tests of test_acceptance and
test_symplectic: two small 1-D structures, one odd (field/antifield) and
one even (field/source), and random Hamiltonian densities of a chosen
parity on them."""

from fractions import Fraction as Fr

from vtc import forms, kernel, symplectic
from vtc.kernel import (EVEN, ODD, ROLE_ANTIFIELD, ROLE_FIELD, ROLE_SOURCE,
                        FieldSpec, Spectrum)


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
        FieldSpec("ub", EVEN, 0, ROLE_SOURCE, (), conjugate="u"),
        FieldSpec("cb", ODD, -1, ROLE_SOURCE, (), conjugate="c"),
    ])


def structures_under_test():
    yield (symplectic.canonical_structure(small_bv_spectrum(),
                                          symplectic.KIND_ODD_BV),
           small_bv_spectrum())
    yield (symplectic.canonical_structure(small_cotangent_spectrum(),
                                          symplectic.KIND_EVEN_COTANGENT),
           small_cotangent_spectrum())


def random_hamiltonian_form(rng, spec, parity, max_terms=2):
    gens = []
    for f in spec.fields:
        for mi in [(), (0,)]:
            gens.append(kernel.jet_gen(spec, f.name, (), mi))
    for _ in range(400):
        out = kernel.ZERO
        for _ in range(max_terms):
            m = kernel.ONE
            for g in rng.sample(gens, rng.randint(1, 3)):
                m = m * kernel.GradedScalar.generator(g)
            if m.parity() == parity:
                out = out + m * Fr(rng.choice([1, -1, 2]))
        if out and out.parity() == parity:
            return forms.wedge(forms.scalar_form(1, out), forms.volume(1))
    raise RuntimeError("could not build a random form of the requested parity")


def intrinsic_parity(st):
    return (st.omega.parity() + st.omega.hdeg()) % 2
