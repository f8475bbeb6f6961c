"""Kept results: every one is kept by ``kernel.keep`` on its owner's memo.

A result kept under one jet-order cap and read under another equals a
fresh computation under the second cap, value for value and error for
error, at every place that keeps a result.  And the decision of how a
result is keyed lives in ``kernel`` alone, as does the rule that makes a
coefficient exact.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vtc
from vtc import builtin_models, forms, kernel, model, parser, symplectic, variational

from test_linsolve import _load_calculus

SRC = pathlib.Path(vtc.__file__).parent


class Pool:
    """Inputs drawn from the seed-0 calculus queries.  Forms are kept as
    text and fields by their base components, so that each owner is built
    fresh, with an empty memo."""

    def __init__(self):
        calculus = _load_calculus()
        self.model = parser.parse_model(builtin_models.model_text("maxwell"))
        self.spectra = {"spacetime": self.model.spectrum,
                        "leaf": self.model.foliation.spatial}
        self.structure = self.model.structure()
        queries = calculus.make_queries(0, 200)
        # forms d, delta and h are asked of: homotopy and divergence inputs
        self.forms = sorted({(q.space, q.texts[0]) for q in queries
                             if q.kind != "bracket"})
        # densities over the spacetime structure: bracket arguments and
        # the master density
        S = model.form_text(self.model.master_density())
        self.densities = sorted({t for q in queries if q.kind == "bracket"
                                 for t in q.texts} | {S})
        # their nonzero Hamiltonian fields, whose components are prolonged
        fields = (symplectic.hamiltonian_field(self.parse(t), self.structure)
                  for t in self.densities)
        self.fields = [X for X in fields if not X.is_zero()]

    def parse(self, text, space="spacetime"):
        return parser.parse_expression(text, self.spectra[space])


@pytest.fixture(scope="module")
def pool():
    return Pool()


def _form_site(op):
    def site(pool, data):
        space, text = data.draw(st.sampled_from(pool.forms))
        return (lambda: pool.parse(text, space)), op
    return site


def _component_site(pool, data):
    X = data.draw(st.sampled_from(pool.fields))
    base = data.draw(st.sampled_from(sorted(X.base_components())))
    mi = kernel.multi_index(data.draw(
        st.lists(st.integers(0, X.spectrum.dim - 1), min_size=1, max_size=5)))
    g = kernel.jet_with_mi(base, mi)

    def fresh():
        return forms.EvoField(X.spectrum, X.base_components(), X.parity, X.ghost)
    return fresh, lambda Y: Y.component(g)


def _field_site(pool, data):
    O = pool.parse(data.draw(st.sampled_from(pool.densities)))
    return pool.model.structure, lambda s: symplectic.hamiltonian_field(O, s)


def _system_site(name):
    def site(pool, data):
        text = data.draw(st.sampled_from(pool.densities))

        def fresh():
            s, H = pool.model.structure(), pool.parse(text)
            return symplectic.GaugeSystem(symplectic.hamiltonian_field(H, s), s, H)
        return fresh, lambda gs: getattr(gs, name)
    return site


SITES = {
    "LocalForm.__hash__": _form_site(forms.LocalForm.__hash__),
    "LocalForm.grade_split": _form_site(lambda a: a.grade_split("momentum")),
    "forms.d": _form_site(forms.d),
    "forms.delta": _form_site(forms.delta),
    "horizontal_homotopy": _form_site(variational.horizontal_homotopy),
    "EvoField.component": _component_site,
    "hamiltonian_field": _field_site,
    "GaugeSystem.master": _system_site("master"),
    "GaugeSystem.descendant": _system_site("descendant"),
}


def under(cap, compute):
    """compute() under the jet-order cap: (its value, None), or (None, the
    type and the message of what it raised)."""
    token = kernel.JET_ORDER_CAP.set(cap)
    try:
        return compute(), None
    except Exception as exc:
        return None, (type(exc), str(exc))
    finally:
        kernel.JET_ORDER_CAP.reset(token)


@pytest.mark.parametrize("site", sorted(SITES))
@settings(max_examples=20, deadline=None)
@given(a=st.integers(1, 8), data=st.data())
def test_a_result_kept_under_one_cap_reads_under_another_as_a_fresh_one(
        pool, site, a, data):
    # owners are built under the default cap; only the kept op runs under
    # a, then under every cap b
    fresh, op = SITES[site](pool, data)
    owner = fresh()
    first = under(a, lambda: op(owner))
    for b in range(1, 9):
        kept = under(b, lambda: op(owner))
        other = fresh()
        assert kept == under(b, lambda: op(other)), b
        if b == a and first[1] is None:
            assert kept[0] is first[0]


def _name(node):
    """The name a ``Name`` or ``Attribute`` node ends in."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _callers(tree, calls) -> list:
    """The name of the innermost function around each call node for which
    ``calls(node)`` holds, None for a call outside every function."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and calls(node):
            found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)
    visit(tree, None)
    return found


def _reads_the_cap(call) -> bool:
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "get"
            and _name(call.func.value) == "JET_ORDER_CAP")


def _calls_exact(call) -> bool:
    return _name(call.func) == "exact"


def test_only_kernel_keys_results_by_the_cap():
    # the cap is read where a jet shift checks it, where keep keys a result,
    # and in the message of a failed primitive search; no function, method
    # or attribute keeps results another way
    deleted = {"_kept", "_keep", "kept", "pairing_rows", "hamiltonian_fields"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers |= {(path.stem, fn) for fn in _callers(tree, _reads_the_cap)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in deleted, (path.name, node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assert node.attr not in deleted, (path.name, node.attr)
    assert readers == {("kernel", "jet_shift"), ("kernel", "keep"),
                       ("variational", "_solve_d")}


def test_only_kernel_makes_coefficients_exact():
    # a coefficient is made exact where kernel makes it (a scalar or a
    # spectrum from caller input, a product by a coefficient, a partial),
    # where add_into adds it into a sparse sum, and in the back
    # substitution of linsolve's elimination core; every other sum goes
    # through add_into
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers |= {(path.stem, fn) for fn in _callers(tree, _calls_exact)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "_add_term", path.name
    assert callers == {("kernel", "__init__"), ("kernel", "__mul__"),
                       ("kernel", "partials"), ("kernel", "add_into"),
                       ("linsolve", "eliminate")}
