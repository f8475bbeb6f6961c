"""Model files, the expression grammar, the pipeline report, and the CLI.

The built-in models double as golden data: their canonical renderings are
pinned by digest and parse back to equal models, and the Maxwell report's
first descendant matches the radiative structure written out longhand.
"""

import decimal
import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vtc
from vtc import (builtin_models, cli, forms, grading, kernel, model, parser,
                 printing, report, symplectic)
from vtc.forms import LocalForm


@pytest.fixture(scope="module", params=("maxwell", "chiral"))
def built(request):
    return request.param, builtin_models.builtin(request.param)


@pytest.fixture(scope="module")
def maxwell_report():
    return report.run_pipeline(builtin_models.builtin("maxwell"))


@pytest.fixture(scope="module")
def chiral_report():
    return report.run_pipeline(builtin_models.builtin("chiral"))


# -- parsing ----------------------------------------------------------------


def test_print_parse_round_trip(built):
    _, m = built
    text = model.print_model(m)
    again = parser.parse_model(text)
    assert again == m
    assert model.print_model(again) == text


# sha256 of the canonical rendering of each built-in: the shipped files are
# handwritten, so this pins the models they define, term by term.
_MODEL_SHA256 = {
    "maxwell":
        "8295bfb4fe75ba0adec4cd203122d9726d9aa12a253c74a8bb1693d52b6944e5",
    "chiral":
        "3e5a6f564f3de9674989a94944ac79464fa01a57ab0025a0b47f5d8fa9bede04",
}


def test_builtin_models_match_pinned_renderings(built):
    name, m = built
    text = model.print_model(m)
    assert hashlib.sha256(text.encode()).hexdigest() == _MODEL_SHA256[name]


def test_builtin_text_is_read_with_universal_newlines(tmp_path, monkeypatch):
    # as a model file is: a CRLF copy of a built-in gives the same text
    text = builtin_models.model_text("maxwell")
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "maxwell.vtc").write_bytes(
        text.replace("\n", "\r\n").encode("utf-8"))
    crlf = tmp_path / "crlf.vtc"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    monkeypatch.setattr(builtin_models, "__file__",
                        str(tmp_path / "builtin_models.py"))
    assert builtin_models.model_text("maxwell") == text
    assert cli._load_model(str(crlf)) == builtin_models.builtin("maxwell")


def test_the_command_module_and_a_builtin_load_no_slow_module():
    # dataclasses imports inspect, ast, dis and tokenize, and
    # importlib.resources imports pathlib: vtc needs none of them
    guard = pathlib.Path(__file__).with_name("import_guard.py")
    src = pathlib.Path(vtc.__file__).parents[1]
    done = subprocess.run([sys.executable, "-I", "-S", str(guard), str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("vtc.cli and a built-in model from ")


def test_expressions_round_trip(built):
    _, m = built
    sp = m.spectrum
    for a in list(m.densities.values()) + [m.structure().omega]:
        assert parser.parse_expression(model.form_text(a), sp) == a
    spl = m.foliation.spatial
    for a in m.phase_densities.values():
        assert parser.parse_expression(model.form_text(a), spl) == a


def test_expression_grammar_atoms():
    sp = builtin_models.builtin("chiral").spectrum
    a = parser.parse_expression("3/4 * k * phi[0],[1 1] ^ dx[0]", sp)
    want = forms.wedge(forms.scalar_form(2, Fr(3, 4) * kernel.parameter("k") *
                                         kernel.jet(sp, "phi", (0,), (1, 1))),
                       forms.dx(2, 0))
    assert a == want
    b = parser.parse_expression("ib(1, vol) - del(eta[2]) ^ x[0]", sp)
    wantb = forms.interior_coordinate(forms.volume(2), 1) - forms.wedge(
        forms.delta(forms.scalar_form(2, kernel.jet(sp, "eta", (2,)))),
        forms.scalar_form(2, kernel.GradedScalar.generator(
            kernel.coord_gen(0))))
    assert b == wantb
    c = parser.parse_expression("d(phi[1] ^ dx[1]) + (2 - k)*vol", sp)
    wantc = forms.d(forms.wedge(
        forms.scalar_form(2, kernel.jet(sp, "phi", (1,))), forms.dx(2, 1)))
    wantc = wantc + forms.volume(2).scale(2 - kernel.parameter("k"))
    assert c == wantc


def test_empty_file_is_a_syntax_error():
    with pytest.raises(parser.ParseError):
        parser.parse_model("")


def test_parse_errors_carry_positions():
    text = "model m\ndim 2\nstructure odd-BV\ndensity S = oops ^ vol\nmaster S\n"
    with pytest.raises(parser.ParseError) as err:
        parser.parse_model(text)
    assert err.value.line == 4
    assert "oops" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("x[\u0663] ^ vol", "line 1, column 3: unexpected character '\u0663'"),
    ("\u0661/\u0662*vol", "line 1, column 1: unexpected character '\u0661'"),
], ids=["digit-in-a-component", "digits-of-a-fraction"])
def test_only_ascii_digits_are_numbers(text, message):
    sp = builtin_models.builtin("maxwell").spectrum
    with pytest.raises(parser.ParseError) as err:
        parser.parse_expression(text, sp)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("x[0] ^\u00a0vol", "line 1, column 7: unexpected character '\\xa0'"),
    ("x[0] ^\u3000vol", "line 1, column 7: unexpected character '\\u3000'"),
], ids=["no-break-space", "ideographic-space"])
def test_only_ascii_whitespace_is_blank(text, message):
    sp = builtin_models.builtin("maxwell").spectrum
    with pytest.raises(parser.ParseError) as err:
        parser.parse_expression(text, sp)
    assert str(err.value) == message


def test_every_ascii_blank_separates_tokens():
    sp = builtin_models.builtin("maxwell").spectrum
    for blank in (" ", "\t", "\r", "\f", "\v", " \t\r"):
        assert parser.parse_expression(f"x[0] ^{blank}vol", sp) == \
            parser.parse_expression("x[0] ^ vol", sp)


def test_unknown_names_and_attributes_are_rejected():
    sp = builtin_models.builtin("chiral").spectrum
    with pytest.raises(parser.ParseError, match="unknown name"):
        parser.parse_expression("zeta[0]", sp)
    with pytest.raises(parser.ParseError, match="component"):
        parser.parse_expression("phi", sp)
    with pytest.raises(parser.ParseError, match="unknown attribute"):
        parser.parse_model("model m\ndim 1\n"
                           "field u { parity 0, ghost 0, role field, "
                           "colour 3 }\nstructure odd-BV\nmaster S\n")


def test_model_level_validation_is_surfaced():
    text = ("model m\ndim 2\nfield u { parity 0, ghost 0, role field }\n"
            "structure even-cotangent\ndensity S = u ^ vol\nmaster T\n")
    with pytest.raises(parser.ParseError, match="master"):
        parser.parse_model(text)


# -- pipeline reports -------------------------------------------------------


def test_builtins_pass_the_full_pipeline(maxwell_report, chiral_report):
    for rep in (maxwell_report, chiral_report):
        assert rep["ok"] is True
        for name, section in rep["stages"].items():
            assert "error" not in section, (name, section)
    assert set(maxwell_report["stages"]) == {
        "master", "descend", "current", "reduce", "brackets"}
    assert set(chiral_report["stages"]) == {
        "master", "descend", "current", "reduce", "brackets", "homogenize"}


def test_reports_are_byte_deterministic(built):
    name, m = built
    r1 = report.run_pipeline(m)
    r2 = report.run_pipeline(builtin_models.builtin(name))
    assert report.emit(r1, "json") == report.emit(r2, "json")
    assert report.emit(r1, "text") == report.emit(r2, "text")


# SHA-256 of the emitted reports of the built-in models; any change to a
# mathematical answer or to the report layout shows up here.
PINNED_REPORT_SHA256 = {
    ("maxwell", "json"):
        "0cd55c814b3f8e431c8f9ce92b928d7d8e3aeb1a3c80951fd63ca9e78ad1c9fa",
    ("maxwell", "text"):
        "10a1b1a30c89208767bbf06b77303a461b40cd6ef11e8a756114b6f9d4c7984a",
    ("chiral", "json"):
        "82c9e1da9c511849da769a631aae8c15341699c0b428c76e48e3064e4fc2feab",
    ("chiral", "text"):
        "ce1269a713c53f5cb0fd60513032884532a04ec5c8b85d905fa08018ff56cae5",
}


def test_reports_match_pinned_digests(maxwell_report, chiral_report):
    reports = {"maxwell": maxwell_report, "chiral": chiral_report}
    for (name, fmt), digest in PINNED_REPORT_SHA256.items():
        emitted = report.emit(reports[name], fmt)
        assert hashlib.sha256(emitted).hexdigest() == digest, (name, fmt)


# JSON values of the types a report holds.  Strings mix arbitrary code
# points with quotes, backslashes, control characters, non-ASCII and lone
# surrogates; ints run past 64 bits; bools sit among 0 and 1.
_JSON_TEXT = st.text(st.one_of(
    st.characters(), st.characters(categories=["Cs"]),
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9",
                     "\u2028", "\U0001f600"])))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1, True, False]),
    st.integers(), st.integers(-2**200, 2**200), _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=500, deadline=None)
@given(_JSON_VALUES)
@example({"b": [True, 1, False, 0, None], "a": {}, "\ud800\u00e9": []})
@example([[[[{"z": -2**70, "y": 2**64}]]]])
def test_emit_json_is_the_stdlib_bytes(value):
    assert report.emit(value, "json") == \
        (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


def _decimal_text(n):
    # the decimal module converts an int exactly, with no digit limit
    return str(decimal.Decimal(n))


# ints of 1 to 20000 digits, far past the 4300 that str writes by default
_BIG_INTS = st.integers(1, 20000).flatmap(
    lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))


@settings(max_examples=50, deadline=None)
@given(_BIG_INTS, st.booleans(), _BIG_INTS)
@example(10 ** 4300, True, 3)
@example(10 ** 5000 + 1, False, 10 ** 1000)
def test_numbers_print_in_full_at_any_size(n, negative, d):
    n = -n if negative else n
    assert printing.int_text(n) == _decimal_text(n)
    q = Fr(n, d)
    want = _decimal_text(q.numerator)
    if q.denominator != 1:
        want += "/" + _decimal_text(q.denominator)
    assert printing.number_text(q) == want
    assert printing.number_text(n) == _decimal_text(n)


@pytest.mark.parametrize("value, kind", [
    (0.5, "float"), (Fr(1, 2), "Fraction"), ((1, 2), "tuple"),
    ({1: "one"}, "int"), ({"stages": {2: []}}, "int"), ({1: 0, "a": 0}, "int"),
], ids=["float", "fraction", "tuple", "int-key", "nested-int-key",
        "mixed-keys"])
def test_emit_json_rejects_other_types(value, kind):
    # json.dumps would write a float or a tuple, and coerce an int key
    with pytest.raises(TypeError, match=kind):
        report.emit({"value": value}, "json")


def test_emit_rejects_an_unknown_format(chiral_report):
    with pytest.raises(ValueError, match="unknown format 'xml'") as info:
        report.emit(chiral_report, "xml")
    assert type(info.value) is kernel.DeclarationError
    assert (info.value.declaration, info.value.name) == ("format", "xml")


@pytest.mark.parametrize("name, solves", [("maxwell", 3), ("chiral", 9)])
def test_report_solves_each_hamiltonian_field_once(monkeypatch, name, solves):
    # one solve per distinct (form, structure): repeats read the structure's
    # memo, including the master check's bracket of the master density
    solved = []
    solve = symplectic._solve_field

    def counting(O, st):
        solved.append((O, st))
        return solve(O, st)

    monkeypatch.setattr(symplectic, "_solve_field", counting)
    report.run_pipeline(builtin_models.builtin(name))
    assert len(solved) == len(set(solved)) == solves


def test_maxwell_first_descendant_is_the_radiative_structure(maxwell_report):
    m = builtin_models.builtin("maxwell")
    sp = m.spectrum
    eta = sp.metric
    vol = forms.volume(4)

    def ct(name, comp, *dd):
        return forms.contact(4, kernel.jet_gen(sp, name, comp, dd))

    def ctF(mu, nu):
        return ct("A", (nu,), mu) - ct("A", (mu,), nu)

    om1 = LocalForm(4)
    for nu in range(4):
        blk = LocalForm(4)
        for mu in range(4):
            blk = blk + forms.wedge(ctF(nu, mu), ct("A", (mu,))).scale(eta[mu])
        blk = blk - forms.wedge(ct("C", ()), ct("As", (nu,)))
        om1 = om1 + forms.wedge(
            blk, forms.interior_coordinate(vol, nu).scale(eta[nu]))
    om1 = -om1

    got = maxwell_report["stages"]["descend"]["descendants"][1]
    assert got == report.form_json(om1)


def test_maxwell_bracket_verdicts(maxwell_report):
    v = maxwell_report["stages"]["brackets"]["verdicts"]["H"]
    assert v == {"commutes_with_charge": True, "involutive": True,
                 "evolution_generated_by_charge": True}


def test_chiral_homogenizer_section(chiral_report):
    sec = chiral_report["stages"]["homogenize"]
    assert sec["vector"] == {f"phi[{i}]": f"k*phib[{i}]" for i in range(3)}
    assert sec["degree"] == 1
    assert sec["certificate_exact"] is True
    assert sec["algebra_closes"] is True


def test_chiral_with_a_scaled_algebra_form_does_not_close():
    # the algebra form weights the internal components of the canonical
    # pairing; doubled, the derived bracket of the homogenized charge no
    # longer returns the su2 structure constants
    text = _chiral_with("form 1 1 1", "form 2 2 2")
    rep = report.run_pipeline(parser.parse_model(text))
    assert rep["stages"]["homogenize"]["algebra_closes"] is False
    assert rep["ok"] is False


def test_empty_stage_selection_gives_empty_report(built):
    _, m = built
    rep = report.run_pipeline(m, stages=())
    assert rep["stages"] == {}
    assert rep["ok"] is True
    parsed = json.loads(report.emit(rep, "json").decode())
    assert parsed["stages"] == {}


def test_unknown_stage_is_rejected(built):
    _, m = built
    with pytest.raises(ValueError, match="unknown stages") as info:
        report.run_pipeline(m, stages=("master", "polish"))
    assert type(info.value) is kernel.DeclarationError
    assert (info.value.declaration, info.value.name) == ("stage", None)


def test_report_checks_master_and_descends_twice(monkeypatch):
    calls = {"check_master": 0, "descend": 0}

    def counted(name):
        original = getattr(symplectic, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(symplectic, name, wrapper)

    counted("check_master")
    counted("descend")
    report.run_pipeline(builtin_models.builtin("maxwell"))
    assert calls == {"check_master": 1, "descend": 2}


def test_a_chiral_report_splits_its_reduced_structure_by_momentum_once(
        monkeypatch):
    split = []
    original = forms.LocalForm._grade_split

    def counted(self, kind):
        split.append((self, kind))
        return original(self, kind)
    monkeypatch.setattr(forms.LocalForm, "_grade_split", counted)
    rep = report.run_pipeline(builtin_models.builtin("chiral"))
    reduced = rep["stages"]["reduce"]["structure"]
    assert [kind for a, kind in split if report.form_json(a) == reduced] == [
        grading.KIND_MOMENTUM]


def test_a_model_without_a_foliation_reports_the_spacetime_stages(
        tmp_path, capsys):
    text = builtin_models.model_text("maxwell")
    path = tmp_path / "m.vtc"
    path.write_text(text[:text.index("foliation {")])
    assert cli.main(["report", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert sorted(rep["stages"]) == ["current", "descend", "master"]
    assert cli.main(["homogenize", str(path)]) == 1
    assert "error: FoliationError: model declares no foliation\n" in \
        capsys.readouterr().out


def test_reduction_without_descent_steps_is_an_error():
    rep = report.run_pipeline(builtin_models.builtin("maxwell"), steps=0)
    assert rep["stages"]["reduce"] == {
        "error": "DescentError: reduction needs at least one descent step"}
    assert rep["ok"] is False


def test_reduce_alone_matches_the_full_report(maxwell_report):
    rep = report.run_pipeline(builtin_models.builtin("maxwell"), ("reduce",))
    assert rep["stages"] == {"reduce": maxwell_report["stages"]["reduce"]}


def test_json_reports_are_valid_json(chiral_report):
    parsed = json.loads(report.emit(chiral_report, "json").decode())
    assert parsed["model"] == "chiral"
    assert parsed["stages"]["master"]["ok"] is True


# -- command line -----------------------------------------------------------


def test_cli_check_master_passes(capsys):
    assert cli.main(["check-master", "chiral"]) == 0
    out = capsys.readouterr().out
    assert "ok: yes" in out


def test_cli_reads_model_files(tmp_path, capsys):
    path = tmp_path / "m.vtc"
    path.write_text(builtin_models.model_text("chiral"))
    assert cli.main(["current", str(path)]) == 0
    assert "[current]" in capsys.readouterr().out


def test_cli_bracket_evaluates_expressions(capsys):
    rc = cli.main(["bracket", "maxwell", "--foliated",
                   "--a", "C ^ vol", "--b", "As[0] ^ vol"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "(-1) ^ dx[0] ^ dx[1] ^ dx[2]"


@pytest.mark.parametrize("option, expression, message", [
    ("--a", "dx[0] + vol",
     "'dx[0] + vol' is not a density (vertical degree 0, horizontal degree 4)"),
    ("--a", "A[0]",
     "'A[0]' is not a density (vertical degree 0, horizontal degree 4)"),
    ("--b", "del(A[0]) ^ vol", "'del(A[0]) ^ vol' is not a density "
     "(vertical degree 0, horizontal degree 4)"),
    ("--b", "A[0] ^ vol + C ^ vol",
     "'A[0] ^ vol + C ^ vol' has no definite parity"),
], ids=["mixed-degree", "no-dx", "contact", "mixed-parity"])
def test_cli_bracket_takes_densities_of_one_parity(capsys, option, expression,
                                                  message):
    args = {"--a": "C ^ vol", "--b": "C ^ vol", option: expression}
    argv = ["bracket", "maxwell", "--a", args["--a"], "--b", args["--b"]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"vtc: {option}: {message}\n"
    assert captured.out == ""


def test_cli_foliated_bracket_needs_a_foliation(tmp_path, capsys):
    text = builtin_models.model_text("maxwell")
    path = tmp_path / "flat.vtc"
    path.write_text(text[:text.index("foliation {")])
    rc = cli.main(["bracket", str(path), "--foliated",
                   "--a", "C ^ vol", "--b", "C ^ vol"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "vtc: model declares no foliation\n"
    assert captured.out == ""


def test_unknown_builtin_model_raises_model_error():
    with pytest.raises(kernel.DeclarationError,
                       match="unknown built-in model 'nope'"):
        builtin_models.builtin("nope")


@pytest.mark.parametrize("changes, message, declaration, name", [
    (lambda m: {"densities": {**m.densities, "V": forms.volume(3)}},
     "density 'V' lives over the wrong base", "density", "V"),
    (lambda m: {"foliation": builtin_models.builtin("chiral").foliation},
     "foliation slices a different spectrum", "foliation", None),
    (lambda m: {"phase_densities": {"H": forms.volume(4)}},
     "phase density 'H' lives over the wrong base", "phase density", "H"),
    (lambda m: {"foliation": None},
     "phase densities need a foliation", "phase density", "H"),
], ids=["density-over-another-dimension", "foliation-of-another-spectrum",
        "phase-density-over-the-wrong-base", "phase-density-without-slicing"])
def test_model_rejects_declarations_no_model_text_reaches(
        changes, message, declaration, name):
    # the parser reads densities over the model's own spectrum and phase
    # densities only inside a foliation block, so these need the library
    m = builtin_models.builtin("maxwell")
    with pytest.raises(kernel.DeclarationError, match=f"^{message}$") as info:
        model.Model(**{**{n: getattr(m, n)
                           for n in model.Model.__annotations__},
                        **changes(m)})
    assert (info.value.declaration, info.value.name) == (declaration, name)


@pytest.mark.parametrize("build, declaration, name", [
    (lambda: kernel.FieldSpec("u", 2, 0), "field", "u"),
    (lambda: kernel.Spectrum(0, []), "dim", None),
    (lambda: kernel.Spectrum(2, [], metric=[1]), "metric", None),
    (lambda: kernel.Spectrum(1, [kernel.FieldSpec("u", 0, 0)] * 2),
     "field", "u"),
    (lambda: kernel.Spectrum(1, [kernel.FieldSpec(
        "u", 0, 0, shape=(2,), slot_kinds=("internal",))]), "algebra", "u"),
    (lambda: builtin_models.model_text("nope"), "model", "nope"),
], ids=["field-parity", "dimension", "metric-length", "duplicate-field",
        "algebra-form-length", "unknown-built-in"])
def test_declaration_errors_name_the_declaration(build, declaration, name):
    with pytest.raises(kernel.DeclarationError) as info:
        build()
    assert (info.value.declaration, info.value.name) == (declaration, name)


def test_cli_usage_errors_exit_2(capsys):
    assert cli.main(["descend", "no-such-model"]) == 2
    assert cli.main(["bracket", "chiral", "--a", "oops", "--b", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["descend", "maxwell", "--steps", "-1"],
    ["report", "chiral", "--steps", "-3"],
], ids=["descend", "report"])
def test_cli_negative_steps_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"vtc: --steps must be 0 or more, got {argv[-1]}\n"
    assert captured.out == ""


@pytest.mark.parametrize("cap, message", [
    ("abc", "VTC_JET_ORDER_CAP must be an integer, got 'abc'"),
    ("0", "VTC_JET_ORDER_CAP must be positive"),
])
def test_cli_invalid_jet_order_cap_exits_2(monkeypatch, capsys, cap, message):
    monkeypatch.setenv("VTC_JET_ORDER_CAP", cap)
    assert cli.main(["check-master", "maxwell"]) == 2
    assert capsys.readouterr().err == f"vtc: {message}\n"


def test_cli_sets_the_jet_order_cap_for_its_command_only(monkeypatch, capsys):
    # chiral's master check needs jet order 2; the caller's cap stays 8
    monkeypatch.setenv("VTC_JET_ORDER_CAP", "1")
    assert cli.main(["report", "chiral"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["stages"]["master"]["error"].startswith("JetOrderCapExceeded: ")
    assert kernel.JET_ORDER_CAP.get() == 8


def test_cli_component_out_of_range_in_expression_exits_2(capsys):
    rc = cli.main(["bracket", "maxwell", "--a", "A[9] ^ vol", "--b", "C ^ vol"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("vtc: line 1, column 1: component (9,) out of range")


def test_cli_derivative_out_of_range_in_expression_exits_2(capsys):
    rc = cli.main(["bracket", "maxwell", "--a", "A[0],[7] ^ vol",
                   "--b", "C ^ vol"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "vtc: line 1, column 1: direction 7 out of range for dimension 4\n"


def test_cli_component_out_of_range_in_model_file_exits_2(tmp_path, capsys):
    text = ("model bad\ndim 2\n"
            "field A { parity 0, ghost 0, role field, shape 2 }\n"
            "structure odd-BV\n"
            "density S = A[5] ^ dx[0] ^ dx[1]\n"
            "master S\n")
    path = tmp_path / "bad.vtc"
    path.write_text(text)
    assert cli.main(["check-master", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vtc: line 5, column 13: component (5,) out of range")


@pytest.mark.parametrize("text, message", [
    ("model big\ndim 32\nfield u { parity 0, ghost 0, role field }\n"
     "structure odd-BV\ndensity S = u ^ vol\nmaster S\n",
     "line 2, column 1: base dimension 32 exceeds 31, the most a jet "
     "generator's key holds"),
    ("model big\ndim 2\nfield u { parity 0, ghost 0, role field, shape 256 }\n"
     "structure odd-BV\ndensity S = u[0] ^ vol\nmaster S\n",
     "line 3, column 1: field u has shape (256,), but a jet generator's key "
     "holds at most 4 component labels, each of range at most 255"),
    ("model big\ndim 2\nfield u { parity 0, ghost 0, role field }\n"
     "structure odd-BV\ndensity S = u,[" + " ".join(["1"] * 17) + "] ^ vol\n"
     "master S\n",
     "line 5, column 13: multi-index (" + ", ".join(["1"] * 17) + ") of field "
     "u has more than 16 directions, the most a jet generator's key holds"),
], ids=["dim", "shape", "multi-index"])
def test_cli_model_past_a_key_bound_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "big.vtc"
    path.write_text(text)
    assert cli.main(["check-master", str(path)]) == 2
    assert capsys.readouterr().err == f"vtc: {message}\n"


def test_cli_jet_order_past_the_key_is_a_stage_error(tmp_path, capsys,
                                                     monkeypatch):
    # the Euler-Lagrange derivative of u_9^2 needs u_18: past the default
    # cap 8 a cap error, and past the key's 16 under cap 40
    path = tmp_path / "deep.vtc"
    u9 = "u,[" + " ".join(["0"] * 9) + "]"
    path.write_text("model deep\ndim 1\n"
                    "field u { parity 0, ghost 0, role field }\n"
                    "field us { parity 1, ghost -1, role antifield, "
                    "conjugate u }\nstructure odd-BV\n"
                    f"density S = {u9}*{u9} ^ vol\nmaster S\n")
    monkeypatch.delenv("VTC_JET_ORDER_CAP", raising=False)
    for cap, message in [(None, "jet order 10 exceeds cap 8"),
                         ("40", "jet order 17 exceeds 16, the most a jet "
                                "generator's key holds")]:
        if cap is not None:
            monkeypatch.setenv("VTC_JET_ORDER_CAP", cap)
        assert cli.main(["check-master", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"error: JetOrderCapExceeded: {message}" in captured.out
        assert captured.err == ""


def _chiral_with(old, new):
    text = builtin_models.model_text("chiral")
    assert old in text
    return text.replace(old, new)


def _maxwell_with(old, new):
    text = builtin_models.model_text("maxwell")
    assert old in text
    return text.replace(old, new, 1)


# chiral at shape 2 with only the linear terms of O: the spectrum takes the
# two-entry algebra form, but su2 has rank 3, and the homogenize stage's
# closure check asked for phi[2]
SU2_ON_TWO_COMPONENTS = re.sub(
    r"^density O = .*$",
    "density O = " + " + ".join(
        f"{c}etab[{i}] ^ d({f}[{i}] ^ (dx[0] {sign} dx[1]))"
        for c, f, sign in (("", "phi", "+"), ("k*", "phib", "-"))
        for i in (0, 1)),
    _chiral_with("form 1 1 1", "form 1 1").replace("shape 3", "shape 2"),
    flags=re.M)

# a dressing read over a zero-dimensional base: over the model's base, and
# over the leaf of a slicing that leaves no spatial direction
DRESSED_OVER_NO_BASE = ("model bad\ndim 0\n"
                        "field u { parity 0, ghost 0, role field, factor 1 }\n"
                        "structure odd-BV\ndensity S = u\nmaster S\n")
DRESSED_OVER_NO_LEAF = ("model bad\ndim 1\nmetric 1\n"
                        "field u { parity 0, ghost 0, role field }\n"
                        "structure odd-BV\ndensity S = u ^ vol\nmaster S\n"
                        "foliation {\n  time 0\n"
                        "  field w { parity 0, ghost 0, role field, factor 1 }\n"
                        "}\n")


@pytest.mark.parametrize("text, expression, message", [
    (_chiral_with("structure even-cotangent", "structure odd-BVX"), None,
     "line 10, column 11: unknown structure kind 'odd-BVX'; expected one of "
     "even-cotangent, odd-BV, odd-phase"),
    (_chiral_with("constants su2, form 1 1 1", "constants su2"), None,
     "line 9, column 1: field phi has an internal slot of range 3, so the "
     "algebra form needs 3 entries"),
    (_chiral_with("algebra { constants su2, form 1 1 1 }\n", ""), None,
     "line 5, column 1: field phi has an internal slot of range 3, so the "
     "algebra form needs 3 entries"),
    (_chiral_with("form 1 1 1", "form 1 1"), None,
     "line 9, column 1: field phi has an internal slot of range 3, so the "
     "algebra form needs 3 entries"),
    (_chiral_with("conjugate eta,", "conjugate zeta,"), None,
     "line 8, column 1: field etab declares unknown conjugate zeta"),
    (_chiral_with("form 1 1 1", "form 1 1/0 1"), None,
     "line 9, column 33: zero denominator in '1/0'"),
    (None, "1/0 ^ vol", "line 1, column 1: zero denominator in '1/0'"),
    (_chiral_with("  map etab -> etab\n", "  map etab -> etab\n  map D -> C\n"),
     None, "line 18, column 7: unknown field 'D'"),
    (_chiral_with("density O = ", "density O = ib(1, del(phi[0])) + "), None,
     "line 11, column 19: ib(j, ...) takes a horizontal form"),
    (None, "ib(1, del(phi[0]))",
     "line 1, column 7: ib(j, ...) takes a horizontal form"),
    (_maxwell_with("parity 1,", "parity 1 7,"), None,
     "line 5, column 20: expected ',', got '7'"),
    (_maxwell_with("role field }", "role field more }"), None,
     "line 5, column 41: expected ',', got 'more'"),
    (_maxwell_with("shape 4 }", "shape 4 x y }"), None,
     "line 4, column 50: expected ',', got 'x'"),
    (_chiral_with("constants su2,", "constants su2 extra,"), None,
     "line 9, column 25: expected ',', got 'extra'"),
    (_chiral_with("factor dx[0] + dx[1] }", "factor dx[0] + dx[1] dx[0] }"),
     None, "line 5, column 90: expected ',', got 'dx'"),
    (_maxwell_with("model maxwell", "model max well"), None,
     "line 1, column 11: expected end of line, got 'well'"),
    (_maxwell_with("odd-BV", "odd- BV"), None,
     "line 8, column 16: expected a name right after '-'"),
    (_maxwell_with("odd-BV", "odd -BV"), None,
     "line 8, column 11: unknown structure kind 'odd'; expected one of "
     "even-cotangent, odd-BV, odd-phase"),
    (_maxwell_with("ghost 0, role field, shape 4",
                   "ghost 0, ghost 0, role field, shape 4"), None,
     "line 4, column 30: duplicate attribute 'ghost'"),
    (_maxwell_with("shape 4 }", "shape }"), None,
     "line 4, column 42: attribute 'shape' has no value"),
    (_maxwell_with("ghost 1, role field }", "ghost 1 }"), None,
     "line 5, column 7: field 'C' is missing 'role'"),
    (_maxwell_with("field C {", "field dx {"), None,
     "line 5, column 7: 'dx' is reserved"),
    (_chiral_with("factor dx[0] - dx[1] }", "factor x[0]*dx[0] }"), None,
     "line 7, column 93: factor must be a constant horizontal form"),
    (_maxwell_with("master S\n", "density S = C ^ vol\nmaster S\n"), None,
     "line 10, column 9: duplicate density 'S'"),
    (_maxwell_with("  map C -> C\n", "  map C -> C\n  map C -> C\n"), None,
     "line 15, column 7: field 'C' mapped twice"),
    (_maxwell_with("  phase C,[0] := Cd\n",
                   "  phase C,[0] := Cd\n  phase C,[0] := Cd\n"), None,
     "line 25, column 9: duplicate phase rule"),
    (_maxwell_with("phase C,[0] := Cd", "phase C,[0] := dx[0]"), None,
     "line 24, column 18: expected a scalar expression"),
    (_maxwell_with("phase C,[0] := Cd", "phase vol := Cd"), None,
     "line 24, column 9: 'vol' is not a field"),
    (_maxwell_with("C*(As[0],[0]", "C*(As[0],[4]"), None,
     "line 9, column 317: direction 4 out of range for dimension 4"),
    (_chiral_with("density O = ", "density O = ib(2, phi[0] ^ dx[0]) + "),
     None, "line 11, column 13: direction 2 out of range for dimension 2"),
    (_maxwell_with("ghost 1,", "ghost,"), None,
     "line 5, column 26: expected an integer, got ','"),
    (_maxwell_with("parity 1,", "parity 1/2,"), None,
     "line 5, column 18: expected an integer, got '1/2'"),
    (_maxwell_with("role field }", "role 5 }"), None,
     "line 5, column 35: expected a name, got '5'"),
    (_maxwell_with("  map C -> C", "  map C C"), None,
     "line 14, column 9: expected '->', got 'C'"),
    (SU2_ON_TWO_COMPONENTS, None,
     "line 9, column 1: algebra constants su2 have rank 3, but the algebra "
     "form has 2 entries"),
    (_maxwell_with("master S\n", "master T\n"), None,
     "line 10, column 1: master density 'T' is not declared"),
    (_maxwell_with("master S\n", "density Z = C\nmaster S\n"), None,
     "line 10, column 1: density 'Z' is not a top horizontal form"),
    (_chiral_with("constants su2", "constants so3"), None,
     "line 9, column 1: unknown structure-constant set 'so3'"),
    (DRESSED_OVER_NO_BASE, None,
     "line 2, column 1: base dimension must be positive"),
    (DRESSED_OVER_NO_LEAF, None,
     "line 8, column 11: base dimension must be positive"),
    (_maxwell_with("dim 4\nmetric 1 -1 -1 -1\n", "dim 0\n"), None,
     "line 2, column 1: base dimension must be positive"),
    (_maxwell_with("field Cs {", "field C {"), None,
     "line 7, column 1: duplicate field C"),
    (_maxwell_with("metric 1 -1 -1 -1", "metric 1 -1 -1"), None,
     "line 3, column 1: metric must have one diagonal entry per dimension"),
    (_maxwell_with("density S = (", "density S = (x[7]*"), None,
     "line 9, column 16: direction 7 out of range for dimension 4"),
    (_maxwell_with("  time 0\n", "  time\n"), None,
     "line 12, column 7: expected time directions"),
    (_maxwell_with("  time 0\n", "  time 7\n"), None,
     "line 11, column 11: bad time direction 7"),
    (_maxwell_with("  time 0\n", "  time 4\n"), None,
     "line 11, column 11: bad time direction 4"),
    (_maxwell_with("  time 0\n", "  time -1\n"), None,
     "line 11, column 11: bad time direction -1"),
    (_maxwell_with("parity 1, ghost 1,", "parity 2, ghost 1,"), None,
     "line 5, column 7: parity must be 0 or 1, got 2"),
    (_maxwell_with("role field }", "role gauge }"), None,
     "line 5, column 7: unknown role 'gauge'"),
    (_maxwell_with("shape 4 }", "shape 4, slots base base }"), None,
     "line 4, column 7: slot_kinds must mark every shape slot"),
    (_maxwell_with("shape 4 }", "shape 4, slots spatial }"), None,
     "line 4, column 7: unknown slot kind 'spatial'"),
    (_maxwell_with("density S = (", "density S = @("), None,
     "line 9, column 13: unexpected character '@'"),
    (None, "k ^ vol\n  $", "line 2, column 3: unexpected character '$'"),
    (None, "etab[2] ^ vol\t\u00e9",
     "line 1, column 15: unexpected character '\u00e9'"),
    (_maxwell_with("density S = (1/2", "density S = (\u0661/2"), None,
     "line 9, column 14: unexpected character '\u0661'"),
    (_maxwell_with("density S = (", "density S =\u00a0("), None,
     "line 9, column 12: unexpected character '\\xa0'"),
], ids=["structure-kind", "no-algebra-form", "no-algebra-line",
        "algebra-form-length", "unknown-conjugate",
        "zero-denominator-in-file", "zero-denominator-in-expression",
        "map-of-undeclared-field", "ib-of-a-contact-in-file",
        "ib-of-a-contact-in-expression", "trailing-parity-token",
        "trailing-role-token", "trailing-shape-tokens",
        "trailing-constants-token", "trailing-factor-term",
        "model-name-of-two-words", "space-after-hyphen",
        "space-before-hyphen", "duplicate-attribute",
        "attribute-without-value", "field-without-role",
        "reserved-field-name", "non-constant-factor", "duplicate-density",
        "field-mapped-twice", "duplicate-phase-rule", "non-scalar-phase-image",
        "phase-of-vol", "jet-direction-out-of-range",
        "ib-direction-out-of-range", "integer-attribute-without-value",
        "fractional-integer-attribute", "number-for-a-name",
        "map-without-arrow", "algebra-constants-rank",
        "master-not-declared", "density-not-a-top-form",
        "unknown-structure-constants", "dressing-over-dimension-0",
        "dressing-over-a-leaf-of-dimension-0", "dimension-0",
        "duplicate-field", "metric-too-short", "coordinate-out-of-range",
        "time-without-directions", "time-direction-7",
        "time-direction-past-the-base", "negative-time-direction",
        "parity-2", "unknown-role",
        "slot-kinds-too-few", "unknown-slot-kind",
        "stray-character-in-file", "stray-character-on-a-second-line",
        "non-ascii-character-after-a-tab", "non-ascii-digit-in-file",
        "no-break-space-in-file"])
def test_cli_bad_model_inputs_exit_2(tmp_path, capsys, text, expression,
                                     message):
    if text is None:
        argv = ["bracket", "chiral", "--a", expression, "--b", "k ^ vol"]
    else:
        path = tmp_path / "bad.vtc"
        path.write_text(text)
        argv = ["check-master", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"vtc: {message}\n"
    assert captured.out == ""


def _cli(tmp_path, text, command="check-master", *options):
    """``python -m vtc.cli`` on a model file holding ``text``, under
    Python's default limit of 4300 digits on int-string conversion."""
    path = tmp_path / "model.vtc"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(vtc.__file__).parents[1]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return subprocess.run([sys.executable, "-m", "vtc.cli", command, str(path),
                           *options], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("data, offset", [
    (b"model m\xff\n", 7),
    # past the first 8 KiB a reader may decode on its own
    (b"model m\n# " + b"a" * 10000 + b"\n\xc3\xa9\xc3(\n", 10013),
], ids=["in-the-name", "past-8-kib"])
def test_cli_rejects_a_model_file_that_is_not_utf8(tmp_path, data, offset):
    path = tmp_path / "model.vtc"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(vtc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "vtc.cli", "report", str(path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stderr == (f"vtc: model file {str(path)!r} is not UTF-8: "
                           f"bad byte at offset {offset}\n")
    assert done.stdout == ""
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("old, new, where", [
    ("density S = (1/2*", "density S = (1/2*" + "7" * 4301 + "*",
     "line 9, column 18"),
    ("parity 1,", "parity 1" + "0" * 4300 + ",", "line 5, column 18"),
], ids=["coefficient", "integer-attribute"])
def test_cli_rejects_a_literal_past_the_digit_limit(tmp_path, old, new, where):
    # Python converts at most 4300 digits by default; a longer literal is a
    # parse error at its token, not a traceback from int() or Fraction()
    done = _cli(tmp_path, _maxwell_with(old, new))
    assert done.returncode == 2
    assert done.stderr == f"vtc: {where}: number has more than 4300 digits\n"
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("opener, closer", [
    ("(", ")"), ("-", ""), ("d(", ")"), ("del(", ")"), ("ib(0, ", ")"),
])
def test_expressions_nest_as_deep_as_the_bound(opener, closer):
    sp = builtin_models.builtin("maxwell").spectrum
    n = parser.MAX_NESTING
    parser.parse_expression(opener * n + "x[0]" + closer * n, sp)
    with pytest.raises(parser.ParseError, match="nested more than") as err:
        parser.parse_expression(opener * (n + 1) + "x[0]" + closer * (n + 1), sp)
    # at the opener of the level past the bound
    assert (err.value.line, err.value.col) == (1, n * len(opener) + 1)
    # levels side by side do not add up
    parser.parse_expression(" + ".join([opener + "x[0]" + closer] * (n + 1)), sp)


@pytest.mark.parametrize("opener, closer, n",
                         [("(", ")", 244), ("-", "", 2000)],
                         ids=["parentheses", "unary-minus"])
def test_cli_rejects_nesting_past_the_bound(tmp_path, opener, closer, n):
    # a recursive descent without the bound runs out of stack at 244
    # parentheses, or at about a thousand unary minus signs, and exits with
    # a traceback
    text = re.sub(r"^density S = (.*)$",
                  lambda m: f"density S = {opener * n}{m.group(1)}{closer * n}",
                  builtin_models.model_text("maxwell"), flags=re.M)
    done = _cli(tmp_path, text)
    assert done.returncode == 2
    assert done.stderr == (f"vtc: line 9, column {13 + parser.MAX_NESTING}: "
                           f"expression nested more than "
                           f"{parser.MAX_NESTING} levels deep\n")
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("command", [("check-master",),
                                     ("report", "--format", "json")])
def test_cli_prints_coefficients_past_the_digit_limit(tmp_path, command):
    # S times 10^2999 parses, and {S, S} has coefficients of about 6000
    # digits, more than Python's int-string conversion writes by default
    scaled = _maxwell_with("density S = (", f"density S = 1{'0' * 2999}*(")
    done = _cli(tmp_path, scaled, *command)
    assert done.returncode == 0
    assert "0" * 5000 in done.stdout
    assert "Traceback" not in done.stdout + done.stderr


def test_base_slot_past_the_metric_is_a_stage_error(tmp_path, capsys):
    # a base slot of range 3 runs past the 2-entry metric.  The spectrum
    # accepts it (maxwell's leaf has A of shape 4 in dimension 3); only the
    # canonical pairing, which contracts it with the metric, rejects it
    text = _chiral_with("slots internal, factor dx[0] + dx[1]",
                        "slots base, factor dx[0] + dx[1]")
    message = "SpectrumError: field phi has a base slot of range 3 in dimension 2"
    rep = report.run_pipeline(parser.parse_model(text), ("master",))
    assert rep["stages"] == {"master": {"error": message}}
    path = tmp_path / "bad.vtc"
    path.write_text(text)
    assert cli.main(["check-master", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.out
    assert captured.err == ""


def test_every_vtc_exception_but_parse_and_usage_errors_is_an_engine_error():
    outside = {parser.ParseError, cli.UsageError, kernel.DeclarationError}
    found = set()
    for info in pkgutil.iter_modules(vtc.__path__):
        mod = importlib.import_module(f"vtc.{info.name}")
        found |= {obj for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == mod.__name__}
    assert outside | {kernel.EngineError} <= found
    for cls in found - outside:
        assert issubclass(cls, kernel.EngineError), cls
    for cls in outside:
        assert not issubclass(cls, kernel.EngineError), cls


def _raise_fresh(*args):
    class FreshError(kernel.EngineError):
        """An engine error no module of vtc knows by name."""

    raise FreshError("it broke")


def test_a_stage_records_any_engine_error(monkeypatch):
    monkeypatch.setitem(report._STAGE_FUNCS, "descend", _raise_fresh)
    rep = report.run_pipeline(builtin_models.builtin("chiral"),
                              ("master", "descend", "current"))
    assert rep["ok"] is False
    assert rep["stages"]["master"]["ok"] is True
    assert rep["stages"]["descend"] == {"error": "FreshError: it broke"}
    assert "current" not in rep["stages"]


def test_cli_exits_1_on_any_engine_error(monkeypatch, capsys):
    monkeypatch.setattr(symplectic, "bracket", _raise_fresh)
    assert cli.main(["bracket", "maxwell", "--a", "C ^ vol",
                     "--b", "C ^ vol"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "vtc: FreshError: it broke\n"
    assert captured.out == ""


def test_cli_math_violations_exit_1(tmp_path, capsys):
    assert cli.main(["homogenize", "maxwell"]) == 1
    text = ("model wrong\ndim 1\n"
            "field u { parity 1, ghost 0, role field }\n"
            "field v { parity 0, ghost -1, role antifield, conjugate u }\n"
            "structure odd-BV\n"
            "density S = (u*u,[0]*v + v*v*u,[0]*u,[0 0]) ^ dx[0]\n"
            "master S\n")
    path = tmp_path / "wrong.vtc"
    path.write_text(text)
    assert cli.main(["check-master", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ok: no" in out


@pytest.mark.parametrize("old, new, message", [
    (", conjugate C }", " }", "field C has no conjugate partner"),
    ("shape 4, conjugate A", "shape 5, conjugate A",
     "conjugate pair As/A has mismatched shapes"),
    ("conjugate C }", "conjugate C, factor dx[0] }",
     "dressings of pair Cs/C fill horizontal degree 1, expected 0 or 4"),
], ids=["partner", "shapes", "dressings"])
def test_cli_field_without_a_partner_exits_1(tmp_path, capsys, old, new,
                                             message):
    path = tmp_path / "m.vtc"
    path.write_text(_maxwell_with(old, new))
    assert cli.main(["check-master", str(path)]) == 1
    assert f"error: SpectrumError: {message}\n" in capsys.readouterr().out


def test_a_phase_rule_to_zero_is_kept():
    m = parser.parse_model(
        _maxwell_with("phase C,[0] := Cd", "phase C,[0] := 0"))
    C0 = kernel.jet_gen(m.spectrum, "C", (), (0,))
    assert m.foliation.jet_rules[C0] == kernel.ZERO


def test_cli_report_writes_files(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["report", "chiral", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    capsys.readouterr()


def test_text_report_keeps_sections_keyed_text_and_terms(tmp_path, capsys):
    # phase densities named text and terms give a verdicts mapping with
    # those keys, which is not a form: its terms value is no list
    src = builtin_models.model_text("maxwell")
    line = next(ln for ln in src.splitlines() if "density H =" in ln)
    path = tmp_path / "twice.vtc"
    path.write_text(src.replace(line, line.replace(" H ", " text ") + "\n"
                                + line.replace(" H ", " terms ")))
    assert cli.main(["report", str(path), "--format", "text"]) == 0
    section = capsys.readouterr().out.split("[brackets]\n")[1]
    verdicts = ["      commutes_with_charge: yes",
                "      evolution_generated_by_charge: yes",
                "      involutive: yes"]
    assert section.splitlines()[:9] == ["  verdicts:", "    terms:", *verdicts,
                                        "    text:", *verdicts]


# -- documentation ----------------------------------------------------------

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks() -> list[str]:
    """The fenced ``python`` blocks of README.md, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("index", range(len(readme_python_blocks())))
def test_readme_python_blocks_run(index, capsys):
    # each block runs on its own; a print line documents its output in
    # the comment after it
    block = readme_python_blocks()[index]
    exec(compile(block, f"README.md block {index}", "exec"), {})
    documented = [line.split("#", 1)[1].strip() for line in block.splitlines()
                  if line.startswith("print(") and "#" in line]
    assert capsys.readouterr().out.splitlines() == documented


def test_every_readme_python_block_is_found():
    blocks = readme_python_blocks()
    assert 0 < len(blocks) == README.read_text().count("```python\n")
