"""The record contract of the engine's eight record classes.

``kernel.record`` builds each class from its annotated fields: the
constructor's positional order and defaults (a ``Fresh`` default made anew
per instance), ``__post_init__`` validation, equality by value, a hash by
value exactly for the frozen ones, refusal to change a frozen field, a
``repr`` of the fields, and pickling.
"""

import pickle

import pytest

from vtc import (builtin_models, foliation, forms, grading, kernel, model,
                 symplectic, variational)
from vtc.kernel import FieldSpec


@pytest.fixture(scope="module")
def maxwell():
    m = builtin_models.builtin("maxwell")
    st = m.structure()
    S = m.master_density()
    Q = symplectic.hamiltonian_field(S, st)
    return {"m": m, "st": st, "S": S, "Q": Q,
            "check": symplectic.check_master(S, st),
            "split": variational.source_decompose(forms.delta(S))}


# class, its fields in order, its frozen-ness, the values of every field
# (over maxwell), and the defaults of the fields after the required ones;
# a dict default is a Fresh(dict) field
RECORDS = {
    "FieldSpec": (
        FieldSpec,
        ("name", "parity", "ghost", "role", "shape", "conjugate",
         "slot_kinds", "form_factor"), True,
        lambda w: ["A", 0, 0, kernel.ROLE_FIELD, (4,), "As", ("base",),
                   forms.volume(4)],
        (kernel.ROLE_FIELD, (), None, None, None)),
    "FoliationContext": (
        foliation.FoliationContext,
        ("spacetime", "spatial", "time_directions", "field_map",
         "jet_rules"), True,
        lambda w: [getattr(w["m"].foliation, n) for n in
                   ("spacetime", "spatial", "time_directions", "field_map",
                    "jet_rules")],
        ({}, {})),
    "Model": (
        model.Model,
        ("name", "spectrum", "structure_kind", "densities", "master",
         "foliation", "phase_densities", "algebra_constants"), False,
        lambda w: [getattr(w["m"], n) for n in
                   ("name", "spectrum", "structure_kind", "densities",
                    "master", "foliation", "phase_densities",
                    "algebra_constants")],
        (None, {}, None)),
    "PresympStructure": (
        symplectic.PresympStructure,
        ("omega", "theta", "spectrum"), True,
        lambda w: [w["st"].omega, w["st"].theta, w["st"].spectrum],
        (None, None)),
    "GaugeSystem": (
        symplectic.GaugeSystem,
        ("Q", "structure", "H"), True,
        lambda w: [w["Q"], w["st"], w["S"]],
        (None,)),
    "MasterCheck": (
        symplectic.MasterCheck,
        ("ok", "sigma", "residual"), False,
        lambda w: [w["check"].ok, w["check"].sigma, {}],
        (None,)),
    "SourceDecomposition": (
        variational.SourceDecomposition,
        ("source", "boundary", "components"), False,
        lambda w: [w["split"].source, w["split"].boundary,
                   w["split"].components],
        ()),
    "Homogenizer": (
        grading.Homogenizer,
        ("X", "leading", "degree", "pulled_back"), True,
        lambda w: [w["Q"], w["S"], 0, w["S"]],
        ()),
}

FRESH = {"FoliationContext": ("field_map", "jet_rules"),
         "Model": ("phase_densities",)}


@pytest.fixture(params=sorted(RECORDS))
def rec(request, maxwell):
    cls, names, frozen, values, defaults = RECORDS[request.param]
    return {"name": request.param, "cls": cls, "names": names,
            "frozen": frozen, "values": values(maxwell),
            "defaults": defaults}


def test_the_eight_records_are_the_engine_s_record_classes():
    for name, (cls, names, *_rest) in RECORDS.items():
        assert cls.__name__ == name
        assert tuple(cls.__annotations__) == names


def test_fields_are_taken_in_order_by_position_or_keyword(rec):
    cls, names, values = rec["cls"], rec["names"], rec["values"]
    full = cls(*values)
    assert all(getattr(full, n) is v for n, v in zip(names, values))
    assert cls(**dict(zip(names, values))) == full
    required = len(names) - len(rec["defaults"])
    short = cls(*values[:required])
    assert [getattr(short, n) for n in names[required:]] == list(
        rec["defaults"])


def test_a_fresh_default_is_a_new_dict_per_instance(rec):
    cls, names, values = rec["cls"], rec["names"], rec["values"]
    required = len(names) - len(rec["defaults"])
    a, b = cls(*values[:required]), cls(*values[:required])
    for n in FRESH.get(rec["name"], ()):
        assert getattr(a, n) == {} and getattr(a, n) is not getattr(b, n)
        assert n not in vars(cls)


def test_arguments_the_fields_do_not_take_are_type_errors(rec):
    cls, names, values = rec["cls"], rec["names"], rec["values"]
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected or repeated argument "
                                        "'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match=f"unexpected or repeated argument "
                                        f"'{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=f"missing argument '{names[0]}'"):
        cls()


def test_equality_is_by_value_and_the_hash_only_for_frozen_records(rec):
    cls, values = rec["cls"], rec["values"]
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != object() and a.__eq__(object()) is NotImplemented
    if rec["name"] == "FoliationContext":
        # frozen, but its maps are dicts, so the hash by value raises
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    elif rec["frozen"]:
        assert hash(a) == hash(b)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_a_frozen_record_refuses_assignment_and_deletion(rec):
    cls, names, values = rec["cls"], rec["names"], rec["values"]
    a = cls(*values)
    if not rec["frozen"]:
        setattr(a, names[0], values[0])
        return
    for n in names:
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{n}'$"):
            setattr(a, n, None)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{n}'$"):
            delattr(a, n)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*values)


def test_a_record_pickles_to_an_equal_value(rec):
    a = rec["cls"](*rec["values"])
    assert pickle.loads(pickle.dumps(a)) == a


def test_the_repr_lists_the_fields_in_order(rec):
    a = rec["cls"](*rec["values"])
    text = repr(a)
    assert text.startswith(rec["cls"].__qualname__ + "(")
    at = [text.index(f"{n}=") for n in rec["names"]]
    assert at == sorted(at)


def test_a_repr_shows_every_field_with_its_repr():
    assert repr(FieldSpec("u", 0, 0)) == (
        "FieldSpec(name='u', parity=0, ghost=0, role='field', shape=(), "
        "conjugate=None, slot_kinds=None, form_factor=None)")


def test_memos_stay_out_of_equality_hash_and_repr(maxwell):
    sys = symplectic.GaugeSystem(maxwell["Q"], maxwell["st"], maxwell["S"])
    twin = symplectic.GaugeSystem(maxwell["Q"], maxwell["st"], maxwell["S"])
    assert sys.master.ok
    assert "memo" in vars(sys) and "memo" not in vars(twin)
    assert sys == twin and hash(sys) == hash(twin) and repr(sys) == repr(twin)
    assert list(vars(twin)) == ["Q", "structure", "H"]


# one error per record class with a __post_init__, built directly rather
# than through the parser; the first two no other test raises
@pytest.mark.parametrize("build, error, message", [
    (lambda m: foliation.FoliationContext(m.spectrum, m.foliation.spatial,
                                          (0, 1)),
     foliation.FoliationError,
     "spatial dimension must drop by the number of time directions"),
    (lambda m: symplectic.PresympStructure(m.structure().omega,
                                           m.structure().omega),
     symplectic.StructureError,
     r"theta is not a potential: delta\(theta\) != omega"),
    (lambda m: FieldSpec("u", 2, 0), kernel.DeclarationError,
     "parity must be 0 or 1, got 2"),
    (lambda m: model.Model("m", m.spectrum, m.structure_kind, m.densities,
                           "T"),
     kernel.DeclarationError, "master density 'T' is not declared"),
], ids=["foliation-dimension", "structure-bad-potential", "field-parity",
        "model-master"])
def test_post_init_errors_are_unchanged(build, error, message):
    m = builtin_models.builtin("maxwell")
    with pytest.raises(error, match=f"^{message}$") as info:
        build(m)
    assert type(info.value) is error
