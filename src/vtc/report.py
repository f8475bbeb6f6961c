"""Pipeline orchestration and deterministic report emission.

``run_pipeline`` drives a model through the standard stages in order:
master check, descent of the presymplectic structure, conserved current,
reduction to the leaves, phase-space bracket verdicts, and homogenization
of the reduced structure.  Stage selection is honored; the first engine
error (``kernel.EngineError``) aborts the run and is recorded under the
stage that raised it.
Every expression enters the report both as canonical text and as a sorted
term list, so identical inputs yield byte-identical serializations.
"""
from __future__ import annotations

import json
from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import (foliation, forms, grading, kernel, model, printing, symplectic,
               variational)
from .forms import LocalForm
from .model import Model


def form_json(a: LocalForm) -> dict:
    """Canonical text plus a machine-readable sorted term list."""
    terms = []
    for (dxs, contacts), s in sorted(a.terms.items()):
        scal = [{"monomial": printing.mono_factors(mono), "coefficient": str(c)}
                for mono, c in sorted(s.terms.items())]
        terms.append({"dx": list(dxs),
                      "contacts": [printing.gen_text(g) for g in contacts],
                      "scalar": scal})
    return {"text": printing.form_text(a), "terms": terms}


def components_json(components: Mapping[kernel.Gen, kernel.GradedScalar],
                    ) -> dict:
    """Scalars keyed by generator text, in generator order: the components
    of an evolutionary field, or of a master check's residual."""
    return {printing.gen_text(g): printing.scalar_text(v)
            for g, v in sorted(components.items())}


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
    def momentum_split(self):
        return self.reduced_structure.omega.grade_split(grading.KIND_MOMENTUM)

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
    out: dict = {"ok": mc.ok,
                 "brst_field": components_json(run.system.Q.base_components())}
    if mc.ok:
        out["sigma"] = form_json(mc.sigma)
    else:
        out["residual"] = components_json(mc.residual or {})
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
    z = LocalForm.zero(st.omega.dim)
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

    def dens(i):
        return forms.wedge(forms.dressed(spl, pair.name, (i,)),
                           forms.volume(spl.dim))

    for i in range(rank):
        for j in range(rank):
            want = LocalForm.zero(spl.dim)
            for kk in range(rank):
                s = eps.get((i, j, kk))
                if s:
                    want = want + dens(kk).scale(s)
            got = grading.derived_bracket(hs, [dens(i), dens(j)], st)
            if not variational.equiv_mod_d(got, want):
                return False
    return True


def _stage_homogenize(run: _Run) -> tuple[dict, bool]:
    parts = run.momentum_split
    if len(parts) > 1 and min(parts) < 1:
        raise grading.NoHomogenizerError(
            "the reduced structure has a momentum-degree-0 block, which the "
            "momentum flow leaves fixed; homogenization does not apply")
    h = run.homogenizer
    cert = h.certificate
    ok = cert.pulled_back == cert.leading or variational.equiv_mod_d(
        cert.pulled_back, cert.leading)
    out: dict = {"vector": components_json(h.X.base_components()),
                 "degree": cert.degree,
                 "certificate_exact": cert.pulled_back == cert.leading,
                 "structure": form_json(cert.pulled_back)}
    hs = grading.pullback(h, run.charge)
    out["charge"] = form_json(hs)
    if run.m.algebra_constants is not None:
        st_new = symplectic.PresympStructure(
            cert.pulled_back, spectrum=run.slicing.spatial)
        closed = _algebra_closure(run, hs, st_new)
        out["algebra_closes"] = closed
        ok = ok and closed
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
    reduced structure and its momentum split are the run's own, so the
    stages reuse them.
    """
    stages = ["master", "descend", "current"]
    if run.m.foliation is None:
        return tuple(stages)
    stages += ["reduce", "brackets"]
    try:
        parts = run.momentum_split
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
        raise ValueError(f"unknown stages {bad}")
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
        if "text" in value and "terms" in value:
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
    return str(value)


def emit(report: dict, format: str = "json") -> bytes:
    """Serialize a report; identical reports give identical bytes."""
    if format == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"model {report.get('model', '?')} (dim {report.get('dim', '?')})",
             "ok: " + _scalar_text(report.get("ok", False))]
    for name in STAGES:
        section = report.get("stages", {}).get(name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        _text_value(section, "  ", lines)
    return ("\n".join(lines) + "\n").encode()
