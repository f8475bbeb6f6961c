"""Model bundles tying a spectrum, its densities, and a foliation together.

A model is the unit the command-line pipeline operates on: a field content
declaration, a bracket kind selecting the canonical presymplectic structure,
named top-horizontal densities with a distinguished master density, and
optionally a constant time slicing with extra phase fields, substitution
rules, and spatial densities.  The canonical text rendering writes a model
back out in the surface syntax the parser accepts, so models round-trip
through text.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

from . import kernel, symplectic
from .foliation import FoliationContext
from .forms import LocalForm
from .kernel import FieldSpec, Spectrum
from .printing import form_text, gen_text, index_text, scalar_text


class ModelError(kernel.EngineError):
    """A model fails a structural sanity check."""


SU2 = "su2"


def structure_constants(name: str) -> dict[tuple[int, int, int], int]:
    """Totally antisymmetric structure constants of a named algebra."""
    if name != SU2:
        raise ModelError(f"unknown structure-constant set {name!r}")
    return {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def phase_spectrum(spacetime: Spectrum, time_directions: Sequence[int],
                   field_map: Mapping[str, str],
                   extra_fields: Sequence[FieldSpec] = ()) -> Spectrum:
    """Derive the spatial spectrum of a foliation.

    Mapped fields become twins in spacetime declaration order, keeping
    parity, ghost, role, shape, and slot kinds; dressings do not survive
    the slicing and conjugacy survives only when the partner is mapped
    too.  Extra phase fields follow in their declared order, and the
    metric restricts to the spatial directions.
    """
    time = set(time_directions)
    dim = spacetime.dim - len(time)
    fields = []
    for f in spacetime.fields:
        target = field_map.get(f.name)
        if target is None:
            continue
        conj = None
        if f.conjugate is not None:
            conj = field_map.get(f.conjugate)
        fields.append(FieldSpec(target, f.parity, f.ghost, f.role, f.shape,
                                conjugate=conj, slot_kinds=f.slot_kinds))
    fields.extend(extra_fields)
    metric = None
    if spacetime.metric is not None:
        metric = [spacetime.metric[j] for j in range(spacetime.dim)
                  if j not in time]
    return Spectrum(dim, fields, metric=metric,
                    parameters=spacetime.parameters,
                    algebra_form=spacetime.algebra_form)


@dataclass
class Model:
    """A named gauge system: spectrum, bracket kind, densities, slicing."""

    name: str
    spectrum: Spectrum
    structure_kind: str
    densities: dict[str, LocalForm]
    master: str
    foliation: Optional[FoliationContext] = None
    phase_densities: dict[str, LocalForm] = dc_field(default_factory=dict)
    algebra_constants: Optional[str] = None

    def __post_init__(self) -> None:
        if self.master not in self.densities:
            raise ModelError(f"master density {self.master!r} is not declared")
        n = self.spectrum.dim
        for nm, a in self.densities.items():
            if a.dim != n:
                raise ModelError(f"density {nm!r} lives over the wrong base")
            if not a.is_density():
                raise ModelError(f"density {nm!r} is not a top horizontal form")
        if self.foliation is not None:
            if self.foliation.spacetime != self.spectrum:
                raise ModelError("foliation slices a different spectrum")
            m = self.foliation.spatial.dim
            for nm, a in self.phase_densities.items():
                if a.dim != m:
                    raise ModelError(
                        f"phase density {nm!r} lives over the wrong base")
        elif self.phase_densities:
            raise ModelError("phase densities need a foliation")
        if self.algebra_constants is not None:
            structure_constants(self.algebra_constants)

    def structure(self) -> symplectic.PresympStructure:
        return symplectic.canonical_structure(self.spectrum,
                                              self.structure_kind)

    def master_density(self) -> LocalForm:
        return self.densities[self.master]


# ---------------------------------------------------------------------------
# Canonical text rendering.  The output is accepted by the parser and is
# stable: declarations appear in a fixed order and expressions print in the
# canonical term order of ``printing``.
# ---------------------------------------------------------------------------


def _field_attrs(f: FieldSpec) -> str:
    attrs = [f"parity {f.parity}", f"ghost {f.ghost}", f"role {f.role}"]
    if f.shape:
        attrs.append(f"shape {index_text(f.shape)}")
    if f.conjugate is not None:
        attrs.append(f"conjugate {f.conjugate}")
    if f.slot_kinds is not None:
        attrs.append(f"slots {' '.join(f.slot_kinds)}")
    if f.form_factor is not None:
        attrs.append("factor " + form_text(f.form_factor))
    return ", ".join(attrs)


def print_model(m: Model) -> str:
    """Render a model in the surface syntax accepted by the parser."""
    lines = [f"model {m.name}", f"dim {m.spectrum.dim}"]
    if m.spectrum.metric is not None:
        lines.append("metric " + " ".join(str(q) for q in m.spectrum.metric))
    for p in m.spectrum.parameters:
        lines.append(f"parameter {p}")
    for f in m.spectrum.fields:
        lines.append(f"field {f.name} {{ {_field_attrs(f)} }}")
    if m.algebra_constants is not None or m.spectrum.algebra_form is not None:
        attrs = []
        if m.algebra_constants is not None:
            attrs.append(f"constants {m.algebra_constants}")
        if m.spectrum.algebra_form is not None:
            attrs.append("form " +
                         " ".join(str(q) for q in m.spectrum.algebra_form))
        lines.append(f"algebra {{ {', '.join(attrs)} }}")
    lines.append(f"structure {m.structure_kind}")
    for nm, a in m.densities.items():
        lines.append(f"density {nm} = {form_text(a)}")
    lines.append(f"master {m.master}")
    if m.foliation is not None:
        F = m.foliation
        lines.append("foliation {")
        lines.append("  time " + index_text(F.time_directions))
        targets = set()
        for f in m.spectrum.fields:
            if f.name in F.field_map:
                lines.append(f"  map {f.name} -> {F.field_map[f.name]}")
                targets.add(F.field_map[f.name])
        for f in F.spatial.fields:
            if f.name not in targets:
                lines.append(f"  field {f.name} {{ {_field_attrs(f)} }}")
        for g in sorted(F.jet_rules):
            lines.append(f"  phase {gen_text(g)} := "
                         f"{scalar_text(F.jet_rules[g])}")
        for nm, a in m.phase_densities.items():
            lines.append(f"  density {nm} = {form_text(a)}")
        lines.append("}")
    return "\n".join(lines) + "\n"
