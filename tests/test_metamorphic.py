"""Metamorphic relations over model text: two texts that describe related
models give answers related in a known way.

* Declaring a parameter that nothing uses leaves both report renderings
  byte-identical.
* Scaling the master density by a nonzero rational c scales the BRST field
  Q by c and the master equation's current sigma by c^2, exactly.
"""

import re
from fractions import Fraction as Fr

import pytest

from vtc import builtin_models, forms, parser, report, symplectic


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
