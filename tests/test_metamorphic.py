"""Metamorphic relations over model text: two texts that describe related
models give answers related in a known way.

* Declaring a parameter that nothing uses leaves both report renderings
  byte-identical.
* Scaling the master density by a nonzero rational c scales the BRST field
  Q by c and the master equation's current sigma by c^2, exactly.
* In su(2) Yang-Mills (``modelgen.yang_mills``), negating every magnetic
  1/2*(F_ij)^2 term of the Hamiltonian, a gauge-invariant change, leaves
  the report bytes at the corpus pin.  Adding the term 1/2*(A^0_1)^2, which
  is not gauge invariant, makes the Hamiltonian neither commute with the
  charge nor have an evolution the charge generates; its bracket with
  itself still vanishes.
"""

import re
from fractions import Fraction as Fr

import pytest

from vtc import builtin_models, forms, parser, report, symplectic

import modelgen
from test_corpus import PINS, pins


def scaled_master(text, c):
    """text with its master density multiplied by the literal c."""
    name = re.search(r"^master (\w+)$", text, re.M).group(1)
    return re.sub(rf"^density {name} = (.*)$",
                  lambda m: f"density {name} = {c}*({m.group(1)})", text,
                  count=1, flags=re.M)


def master(text):
    """Q and sigma of the model text, against a fresh structure."""
    m = parser.parse_model(text)
    S = m.master_density()
    st = m.structure()
    Q = symplectic.hamiltonian_field(S, st)
    mc = symplectic.GaugeSystem(Q, st, S).master
    assert mc.ok
    return Q, mc.sigma


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
def test_an_unused_parameter_leaves_the_report_bytes_unchanged(name):
    text = builtin_models.model_text(name)
    padded = re.sub(r"^(metric .*)$", r"\1\nparameter unused_q", text,
                    count=1, flags=re.M)
    m = parser.parse_model(padded)
    assert "unused_q" in m.spectrum.parameters
    want = report.run_pipeline(parser.parse_model(text))
    got = report.run_pipeline(m)
    for fmt in ("json", "text"):
        assert report.emit(got, fmt) == report.emit(want, fmt)


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
@pytest.mark.parametrize("c", ["2", "-3/5", "7"])
def test_scaling_the_master_density_scales_q_and_sigma(name, c):
    text = builtin_models.model_text(name)
    Q, sigma = master(text)
    assert not Q.is_zero() and not sigma.is_zero()
    Qc, sigma_c = master(scaled_master(text, c))
    assert Qc == forms.scale_field(Q, Fr(c))
    assert sigma_c == sigma.scale(Fr(c) ** 2)


HAMILTONIAN = re.compile(r"^  density H = \((.*)\) \^ vol$", re.M)


def with_hamiltonian(text, edit):
    """text with its foliation's density H passed through ``edit``."""
    return HAMILTONIAN.sub(
        lambda m: f"  density H = ({edit(m.group(1))}) ^ vol", text, count=1)


@pytest.mark.parametrize("n", [3, 4])
def test_negating_the_magnetic_energy_keeps_the_yang_mills_pin(n):
    # after the electric 1/2*(E.E), H is the sum of the 1/2*(F^a_ij)^2, one
    # per colour a and spatial pair i < j
    flipped = with_hamiltonian(modelgen.yang_mills(n),
                               lambda h: h.replace(" + 1/2*(A[", " - 1/2*(A["))
    H = HAMILTONIAN.search(flipped).group(1)
    assert H.count(" - 1/2*(A[") == 3 * (n - 1) * (n - 2) // 2
    assert " + 1/2*(A[" not in H
    assert pins(flipped) == PINS["reports"][f"ym-{n}"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_non_invariant_hamiltonian_term_breaks_the_charge_verdicts(n):
    text = with_hamiltonian(modelgen.yang_mills(n),
                            lambda h: h + " + 1/2*A[1 0]*A[1 0]")
    assert "A[1 0]*A[1 0]) ^ vol" in text
    rep = report.run_pipeline(parser.parse_model(text))
    assert rep["stages"]["brackets"]["verdicts"]["H"] == {
        "commutes_with_charge": False,
        "evolution_generated_by_charge": False,
        "involutive": True}
