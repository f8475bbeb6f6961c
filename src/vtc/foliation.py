"""Reduction of local forms to the leaves of a constant time slicing.

A foliation context fixes a set of time directions, a spatial jet algebra of
phase variables, and a substitution rule for every spacetime jet variable
that survives reduction.  Reduction drops each term containing a time
differential and carries the rest into the spatial algebra, where brackets,
Hamiltonian fields, and charge densities are computed with the same
machinery as upstairs, one horizontal degree down.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

from . import forms, kernel, printing, symplectic, variational
from .forms import LocalForm
from .kernel import Gen, GradedScalar, Spectrum


class FoliationError(kernel.EngineError):
    pass


class IncompletePhaseMapError(FoliationError):
    """Raised when reduction meets jet variables with no declared image."""

    def __init__(self, offenders: Sequence[str]):
        self.offenders = sorted(offenders)
        super().__init__(
            "no phase-space image for: " + ", ".join(self.offenders))


def check_time_directions(dim: int, time: Sequence[int]) -> None:
    """Raise a FoliationError unless ``time`` names at least one direction
    of a ``dim``-dimensional base, and none twice."""
    for i, j in enumerate(time):
        if not 0 <= j < dim or j in time[:i]:
            raise FoliationError(f"bad time direction {j}")
    if not time:
        raise FoliationError("a foliation needs at least one time direction")


@dataclass(frozen=True)
class FoliationContext:
    """Constant-coefficient time slicing together with its phase algebra.

    ``time_directions`` lists the base indices whose differentials generate
    the reduction ideal.  ``field_map`` sends spacetime field names to their
    spatial twins (purely spatial jets are renamed mechanically); fields
    absent from the map may only appear through ``jet_rules``, which give
    the spatial image of individual time-derivative jet variables.  Rules
    for mixed derivatives are derived by applying spatial total derivatives
    to the declared image.
    """

    spacetime: Spectrum
    spatial: Spectrum
    time_directions: tuple[int, ...]
    field_map: Mapping[str, str] = dc_field(default_factory=dict)
    jet_rules: Mapping[Gen, GradedScalar] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        check_time_directions(self.spacetime.dim, self.time_directions)
        if self.spatial.dim != self.spacetime.dim - len(self.time_directions):
            raise FoliationError(
                "spatial dimension must drop by the number of time directions")
        for name, target in self.field_map.items():
            try:
                f = self.spacetime.field(name)
                g = self.spatial.field(target)
            except KeyError as e:
                raise FoliationError(e.args[0]) from None
            if (f.parity, f.ghost, f.shape) != (g.parity, g.ghost, g.shape):
                raise FoliationError(
                    f"phase twin {target!r} of {name!r} changes the grading")
        for g, image in self.jet_rules.items():
            if not kernel.is_jet(g):
                raise FoliationError("jet rules must be keyed by jet variables")
            mi = kernel.jet_mi(g)
            if not mi or any(j not in self.time_directions for j in mi):
                raise FoliationError(
                    "jet rules cover time-derivative variables only; got "
                    + printing.gen_text(g))
            ip = image.grade_of("parity")
            if ip is not None and ip != kernel.gen_parity(g):
                raise FoliationError(
                    f"image of {printing.gen_text(g)} has the wrong parity")

    # -- spatial renumbering ---------------------------------------------

    def spatial_index(self, j: int) -> int:
        order = [i for i in range(self.spacetime.dim)
                 if i not in self.time_directions]
        return order.index(j)

    def _split_mi(self, mi: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        time = tuple(j for j in mi if j in self.time_directions)
        space = tuple(j for j in mi if j not in self.time_directions)
        return time, space


def _gen_image(F: FoliationContext, g: Gen,
               offenders: set[str]) -> Optional[GradedScalar]:
    """Spatial scalar replacing one spacetime generator, or None."""
    if g[0] == 0 or g[0] == 3:  # parameter or auxiliary constant
        return GradedScalar.generator(g)
    if g[0] == 1:  # base coordinate
        j = g[1]
        if j in F.time_directions:
            offenders.add(printing.gen_text(g))
            return None
        return kernel.x(F.spatial_index(j))
    name, comp, mi = kernel.jet_name(g), kernel.jet_comp(g), kernel.jet_mi(g)
    time_mi, space_mi = F._split_mi(mi)
    mapped_space = kernel.multi_index(F.spatial_index(j) for j in space_mi)
    if not time_mi:
        target = F.field_map.get(name)
        if target is None:
            offenders.add(printing.gen_text(g))
            return None
        return kernel.jet(F.spatial, target, comp, mapped_space)
    primitive = kernel.jet_gen(F.spacetime, name, comp, time_mi)
    image = F.jet_rules.get(primitive)
    if image is None:
        offenders.add(printing.gen_text(g))
        return None
    for j in mapped_space:
        image = image.total_derivative(j)
    return image


def reduce(a: LocalForm, F: FoliationContext) -> LocalForm:
    """Project a form to the leaves and rewrite it in phase variables.

    Terms containing a time differential are dropped; in the survivors every
    scalar factor is substituted, every spatial dx renumbered, and every
    contact factor replaced by the vertical differential of its image, so
    the map is an algebra morphism commuting with the differentials.
    Unmapped variables raise IncompletePhaseMapError listing all offenders.
    """
    kept = {key: s for key, s in a.terms.items()
            if not any(j in F.time_directions for j in key[0])}
    gens: set[Gen] = set()
    for (dxs, contacts), s in kept.items():
        gens.update(contacts)
        gens.update(g for mono in s.terms for g, _ in mono)
    offenders: set[str] = set()
    table = {g: _gen_image(F, g, offenders) for g in gens}
    if offenders:
        raise IncompletePhaseMapError(sorted(offenders))
    n = F.spatial.dim
    out = LocalForm(n)
    for (dxs, contacts), s in kept.items():
        factors = [forms.scalar_form(n, s.substitute(table))]
        factors += [forms.dx(n, F.spatial_index(j)) for j in dxs]
        factors += [forms.delta(forms.scalar_form(n, table[g]))
                    for g in contacts]
        out = out + forms.wedge_all(factors)
    return out


# ---------------------------------------------------------------------------
# Leafwise Hamiltonian machinery
# ---------------------------------------------------------------------------


def charge_density(J: LocalForm, F: FoliationContext,
                   structure: symplectic.PresympStructure) -> LocalForm:
    """Reduce a conserved current to its charge density on the leaves.

    The density is required to satisfy the master equation in the reduced
    presymplectic structure; a violation raises FoliationError.
    """
    sigma = reduce(J, F)
    square = symplectic.bracket(sigma, sigma, structure)
    if not variational.equiv_mod_d(square, LocalForm(F.spatial.dim)):
        raise FoliationError(
            "reduced charge density violates the master equation")
    return sigma
