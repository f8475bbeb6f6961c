"""Every coefficient is in its one form: an ``int`` exactly when its value is
integral, a ``Fraction`` only when its denominator is greater than 1
(``kernel.exact``), and never zero.

The walk starts from the objects of a report run, or from the result forms
of the seed-0 calculus queries, and follows containers and vtc objects,
kept results in every ``memo`` included.  It checks every coefficient of
every scalar it meets, and every other ``Fraction`` it meets: a metric
entry, a solution value, a kept form's coefficient.  And no scalar it
meets holds a zero coefficient, nor any form a zero scalar term, though
``_wrap`` builds both without filtering.
"""

from fractions import Fraction

import pytest

import vtc
from vtc import builtin_models, forms, grading, kernel, model, report

from test_linsolve import _load_calculus, is_exact

_LEAVES = (int, str, bool, type(None))


def reachable(*roots):
    """Every object reachable from roots, each once."""
    seen, stack = set(), list(roots)
    while stack:
        o = stack.pop()
        if isinstance(o, _LEAVES) or id(o) in seen:
            continue
        seen.add(id(o))
        yield o
        if isinstance(o, kernel.GradedScalar):
            stack.extend(o.terms)
        elif isinstance(o, dict):
            stack.extend(o)
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif type(o).__module__.startswith("vtc."):
            stack.extend(vars(o).values() if hasattr(o, "__dict__") else ())
            stack.extend(getattr(o, name) for cls in type(o).__mro__
                         for name in getattr(cls, "__slots__", ())
                         if hasattr(o, name))


def coefficients(*roots):
    """Every scalar coefficient and every ``Fraction`` reachable from roots."""
    out = []
    for o in reachable(*roots):
        if isinstance(o, Fraction):
            out.append(o)
        elif isinstance(o, kernel.GradedScalar):
            out.extend(o.terms.values())
    return out


def zero_terms(*roots):
    """Every scalar with a zero coefficient and every form with a zero scalar
    term reachable from roots."""
    return [o for o in reachable(*roots)
            if isinstance(o, (kernel.GradedScalar, forms.LocalForm))
            and not all(o.terms.values())]


def test_exact_gives_the_one_form():
    for q in (Fraction(4, 2), Fraction(-3), Fraction(0)):
        assert type(kernel.exact(q)) is int and kernel.exact(q) == q
    for q in (Fraction(1, 2), Fraction(-3, 2), 5, -1):
        assert kernel.exact(q) is q


def test_the_walk_finds_a_broken_coefficient():
    s = kernel.GradedScalar._wrap({(): Fraction(2)})
    assert not all(map(is_exact, coefficients({"k": [s]})))
    two = kernel.GradedScalar.constant(Fraction(2))
    assert all(map(is_exact, coefficients({"k": [two]})))


def test_the_walk_finds_a_zero_term():
    s = kernel.GradedScalar._wrap({(): 0})
    w = forms.LocalForm._wrap(2, {((0,), ()): kernel.ONE, ((1,), ()): kernel.ZERO})
    assert {id(o) for o in zero_terms({"k": [s, w]})} == {id(s), id(w)}
    assert zero_terms({"k": [kernel.GradedScalar.constant(0),
                              forms.LocalForm(2, w.terms)]}) == []


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
def test_every_coefficient_of_a_report_run_is_exact(name):
    run = report._Run(builtin_models.builtin(name), steps=2)
    stages = report.default_stages(run)
    assert all(report._STAGE_FUNCS[stage](run)[1] for stage in stages)
    # what the run computed: S, Q and the master check on the gauge system,
    # each chain structure, the current, the reduced structure, the charge
    # and, where the report homogenizes, the homogenizer and its charge
    objects = dict(vars(run))
    assert {"system", "chain", "current"} <= set(objects)
    if run.m.foliation is not None:
        assert {"reduced_structure", "charge"} <= set(objects)
    if "homogenize" in stages:
        objects["homogenized_charge"] = grading.pullback(run.homogenizer.X,
                                                         run.charge)
    found = coefficients(objects)
    assert all(map(is_exact, found)), sorted({c for c in found if not is_exact(c)})
    assert zero_terms(objects) == []
    # the walk reaches the report's terms
    assert sum(type(c) is int for c in found) > 100


def test_every_result_form_of_a_calculus_pass_is_exact():
    calculus = _load_calculus()
    calc = calculus.Calculus(vtc)
    results = []
    form_text = model.form_text

    def recording(form):
        results.append(form)
        return form_text(form)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "form_text", recording)
        assert all(ok for ok, _ in map(calc.run, calculus.make_queries(0, 200)))
    found = coefficients(results, calc.structure)
    assert all(map(is_exact, found)), sorted({c for c in found if not is_exact(c)})
    assert zero_terms(results, calc.structure) == []
    assert any(type(c) is Fraction for c in found)
