"""Pipeline orchestration and deterministic report emission.

``run_pipeline`` drives a model through the standard stages in order:
master check, descent of the presymplectic structure, conserved current,
reduction to the leaves, phase-space bracket verdicts, and homogenization
of the reduced structure.  Stage selection is honored; the first engine
error (``kernel.EngineError``) aborts the run and is recorded under the
stage that raised it.
Every expression enters the report both as canonical text and as a sorted
term list, so identical inputs yield byte-identical serializations.

A report is built of dicts with str keys, lists, str, int, bool and None.
``emit(report, "json")`` writes the same bytes as ``json.dumps(report,
sort_keys=True, indent=2)`` plus a newline, ASCII only, through a small
recursive writer on the C string encoder of ``json.encoder`` (``json.dumps``
with an indent runs CPython's pure-Python encoder); any other value or key
type raises ``TypeError``.
"""
from __future__ import annotations

from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional, Sequence

from . import (foliation, forms, grading, kernel, model, printing, symplectic,
               variational)
from .forms import LocalForm
from .model import Model


def form_json(a: LocalForm) -> dict:
    """Canonical text plus a machine-readable sorted term list, both from
    the one ``printing.form_walk`` of the form."""
    walk = printing.form_walk(a)
    terms = [{"dx": list(dxs), "contacts": contacts,
              "scalar": [{"monomial": factors,
                          "coefficient": printing.number_text(c)}
                         for factors, c in pairs]}
             for dxs, contacts, pairs in walk]
    return {"text": printing.walk_text(walk), "terms": terms}


class _Run:
    """Shared state between stages, one per report: each prerequisite is
    computed lazily, once, under the one jet-order cap of the run.  The
    master check, the current and the descent chain reuse the master check
    and descendants kept in the one gauge system's ``memo``.
    """

    def __init__(self, m: Model, steps: int):
        self.m = m
        self.steps = steps

    @cached_property
    def structure(self):
        return self.m.structure()

    @cached_property
    def system(self):
        S = self.m.master_density()
        Q = symplectic.hamiltonian_field(S, self.structure)
        return symplectic.GaugeSystem(Q, self.structure, S)

    @cached_property
    def chain(self):
        return symplectic.descent_chain(self.system, self.steps)

    @cached_property
    def current(self):
        return symplectic.brst_current(self.system)

    @property
    def slicing(self):
        F = self.m.foliation
        if F is None:
            raise foliation.FoliationError(
                "model declares no foliation")
        return F

    @cached_property
    def reduced_structure(self):
        chain = self.chain
        if len(chain) < 2:
            raise symplectic.DescentError(
                "reduction needs at least one descent step")
        w1red = foliation.reduce(chain[1].structure.omega, self.slicing)
        return symplectic.PresympStructure(
            w1red, spectrum=self.slicing.spatial)

    @cached_property
    def charge(self):
        return foliation.charge_density(
            self.current, self.slicing, self.reduced_structure)

    @cached_property
    def homogenizer(self):
        return grading.find_homogenizer(
            self.reduced_structure.omega, self.slicing.spatial)


def _stage_master(run: _Run) -> tuple[dict, bool]:
    mc = run.system.master
    out: dict = {"ok": mc.ok, "brst_field": printing.component_texts(
        run.system.Q.base_components())}
    if mc.ok:
        out["sigma"] = form_json(mc.sigma)
    else:
        out["residual"] = printing.component_texts(mc.residual or {})
    return out, mc.ok


def _stage_descend(run: _Run) -> tuple[dict, bool]:
    return {"descendants": [form_json(s.structure.omega)
                            for s in run.chain]}, True


def _stage_current(run: _Run) -> tuple[dict, bool]:
    return {"current": form_json(run.current)}, True


def _stage_reduce(run: _Run) -> tuple[dict, bool]:
    return {"structure": form_json(run.reduced_structure.omega),
            "charge": form_json(run.charge)}, True


def _stage_brackets(run: _Run) -> tuple[dict, bool]:
    st = run.reduced_structure
    z = LocalForm(st.omega.dim)
    verdicts = {}
    ok = True
    for name in sorted(run.m.phase_densities):
        G = run.m.phase_densities[name]
        v = {
            "commutes_with_charge": variational.equiv_mod_d(
                symplectic.bracket(G, run.charge, st), z),
            "involutive": variational.equiv_mod_d(
                symplectic.bracket(G, G, st), z),
            "evolution_generated_by_charge":
                symplectic.verify_evolution_generator(run.charge, G, st),
        }
        verdicts[name] = v
        ok = ok and all(v.values())
    return {"verdicts": verdicts}, ok


def _algebra_closure(run: _Run, hs: LocalForm,
                     st: symplectic.PresympStructure) -> bool:
    """Derived binary bracket of plain field densities closes on the algebra."""
    spl = run.slicing.spatial
    eps = model.structure_constants(run.m.algebra_constants)
    rank = max(i for (i, _, _) in eps) + 1
    pair = next(f for c, f in spl.conjugate_pairs())
    dens = [forms.wedge(forms.dressed(spl, pair.name, (i,)),
                        forms.volume(spl.dim)) for i in range(rank)]
    # grading.derived_bracket(hs, [dens[i], dens[j]], st), with {hs, dens[i]}
    # bracketed once for every j
    grading.check_arity(hs, 2, dens)
    for i in range(rank):
        first = symplectic.bracket(hs, dens[i], st)
        for j in range(rank):
            want = LocalForm(spl.dim)
            for kk in range(rank):
                s = eps.get((i, j, kk))
                if s:
                    want = want + dens[kk].scale(s)
            got = symplectic.bracket(first, dens[j], st)
            if not variational.equiv_mod_d(got, want):
                return False
    return True


def _stage_homogenize(run: _Run) -> tuple[dict, bool]:
    """The homogenizer is verified when found, so the stage fails only on
    the algebra closure."""
    parts = run.reduced_structure.omega.grade_split(grading.KIND_MOMENTUM)
    if len(parts) > 1 and min(parts) < 1:
        raise grading.NoHomogenizerError(
            "the reduced structure has a momentum-degree-0 block, which the "
            "momentum flow leaves fixed; homogenization does not apply")
    h = run.homogenizer
    out: dict = {"vector": printing.component_texts(h.X.base_components()),
                 "degree": h.degree,
                 "certificate_exact": h.pulled_back == h.leading,
                 "structure": form_json(h.pulled_back)}
    hs = grading.pullback(h.X, run.charge)
    out["charge"] = form_json(hs)
    ok = True
    if run.m.algebra_constants is not None:
        st_new = symplectic.PresympStructure(
            h.pulled_back, spectrum=run.slicing.spatial)
        ok = _algebra_closure(run, hs, st_new)
        out["algebra_closes"] = ok
    return out, ok


_STAGE_FUNCS = {
    "master": _stage_master,
    "descend": _stage_descend,
    "current": _stage_current,
    "reduce": _stage_reduce,
    "brackets": _stage_brackets,
    "homogenize": _stage_homogenize,
}

STAGES = tuple(_STAGE_FUNCS)


def default_stages(run: _Run) -> tuple[str, ...]:
    """The stages that apply to a run's model.

    The foliated stages need a declared slicing; homogenization applies
    when the reduced structure is momentum-inhomogeneous with every block
    at positive degree, so the momentum Euler flow can act on it.  The
    reduced structure is the run's own and keeps its momentum split, so
    the stages and the homogenizer reuse both.
    """
    stages = ["master", "descend", "current"]
    if run.m.foliation is None:
        return tuple(stages)
    stages += ["reduce", "brackets"]
    try:
        parts = run.reduced_structure.omega.grade_split(grading.KIND_MOMENTUM)
    except kernel.EngineError:
        return tuple(stages)
    if len(parts) > 1 and min(parts) >= 1:
        stages.append("homogenize")
    return tuple(stages)


def run_pipeline(m: Model, stages: Optional[Sequence[str]] = None,
                 *, steps: int = 2) -> dict:
    """Execute the selected stages and collect a deterministic report."""
    run = _Run(m, steps)
    if stages is None:
        stages = default_stages(run)
    bad = [s for s in stages if s not in STAGES]
    if bad:
        raise kernel.DeclarationError(f"unknown stages {bad}", "stage")
    selected = [s for s in STAGES if s in stages]
    report: dict = {"model": m.name, "dim": m.spectrum.dim,
                    "stages": {}, "ok": True}
    for name in selected:
        try:
            section, ok = _STAGE_FUNCS[name](run)
        except kernel.EngineError as e:
            report["stages"][name] = {"error": f"{type(e).__name__}: {e}"}
            report["ok"] = False
            break
        report["stages"][name] = section
        report["ok"] = report["ok"] and ok
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _text_value(value, indent: str, lines: list) -> None:
    if isinstance(value, Mapping):
        if isinstance(value.get("terms"), list) \
                and isinstance(value.get("text"), str):
            lines.append(f"{indent}{value['text']}")
            return
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (Mapping, list)):
                lines.append(f"{indent}{key}:")
                _text_value(sub, indent + "  ", lines)
            else:
                lines.append(f"{indent}{key}: {_scalar_text(sub)}")
        return
    if isinstance(value, list):
        for i, sub in enumerate(value):
            lines.append(f"{indent}[{i}]")
            _text_value(sub, indent + "  ", lines)
        return
    lines.append(f"{indent}{_scalar_text(value)}")


def _scalar_text(value) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, int):
        return printing.int_text(value)
    return str(value)


def _json_value(value, pad: str, out: list) -> None:
    """Append ``value`` as JSON to ``out``, as ``json.dumps`` writes it
    with ``sort_keys=True, indent=2``; ``pad`` is the indent of the line
    the value starts on.  ``bool`` is a subclass of ``int``, so it is
    tested first."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report JSON keys are str, not "
                                f"{type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_value(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_value(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(printing.int_text(value))
    else:
        raise TypeError(f"cannot write a {type(value).__name__} "
                        f"as report JSON")


def _json_text(value) -> str:
    # a key, its indent and ": " make one chunk, and the chunk list dies
    # before the caller encodes the text: so emit peaks no higher in memory
    # than json.dumps did (tracemalloc, both built-in reports)
    out: list = []
    _json_value(value, "", out)
    out.append("\n")
    return "".join(out)


def emit(report: dict, format: str = "json") -> bytes:
    """Serialize a report; identical reports give identical bytes.  JSON
    is ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline."""
    if format == "json":
        return _json_text(report).encode()
    if format != "text":
        raise kernel.DeclarationError(f"unknown format {format!r}", "format",
                                      format)
    lines = [f"model {report.get('model', '?')} (dim {report.get('dim', '?')})",
             "ok: " + _scalar_text(report.get("ok", False))]
    for name in STAGES:
        section = report.get("stages", {}).get(name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        _text_value(section, "  ", lines)
    return ("\n".join(lines) + "\n").encode()
