"""Gauge systems (Q, omega): canonical presymplectic structures, Hamiltonian
vector fields, brackets of Hamiltonian forms, master-equation checks,
descent, and the BRST current.

The sign conventions are self-calibrating: reading a Hamiltonian field off a
source decomposition contracts the structure once with a probe field that
carries one reserved auxiliary generator of the right parity per direction,
so every Koszul factor is computed by the form engine itself rather than
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from . import forms, kernel, printing, variational
from .forms import EvoField, LocalForm
from .kernel import Gen, GradedScalar, Spectrum

KIND_EVEN_COTANGENT = "even-cotangent"
KIND_ODD_BV = "odd-BV"
KIND_ODD_PHASE = "odd-phase"


class SpectrumError(kernel.EngineError):
    """Field spectrum does not match the requested canonical structure."""


class NoHamiltonianFieldError(kernel.EngineError):
    """The structure cannot be inverted along some field direction."""

    def __init__(self, direction: Gen, reason: str):
        self.direction = printing.gen_text(direction)
        super().__init__(
            f"no Hamiltonian field: {reason} along {self.direction}")


class GradingError(kernel.EngineError):
    pass


class DescentError(kernel.EngineError):
    pass


class StructureError(kernel.EngineError, ValueError):
    """A presymplectic structure is malformed or cannot serve a form, or a
    gauge system lacks what an operation needs (a Hamiltonian)."""


@dataclass(frozen=True)
class PresympStructure:
    """A delta-closed (2,m)-form, with its potential when known.

    Frozen, so what depends on the structure alone is kept on it once
    computed, in its ``memo`` under the operation and the jet-order cap
    (``kernel.keep``): its pairing rows by field parity and the Hamiltonian
    field of each form.  The memo is not a dataclass field, so it stays out
    of equality, hashing and repr.  It has no bound and lives as long as the
    structure: a caller that keeps one structure keeps every field solved
    against it, and drops them all with it.
    """

    omega: LocalForm
    theta: Optional[LocalForm] = None
    spectrum: Optional[Spectrum] = None

    def __post_init__(self) -> None:
        if not forms.delta(self.omega).is_zero():
            raise StructureError("presymplectic representative must be delta-closed")
        if self.theta is not None and forms.delta(self.theta) != self.omega:
            raise StructureError("theta is not a potential: delta(theta) != omega")

    @cached_property
    def memo(self) -> dict:
        return {}


def _pair_weight(spectrum: Spectrum, f: kernel.FieldSpec,
                 comp: tuple[int, ...]) -> kernel.Coefficient:
    w = 1
    kinds = f.slot_kinds or ("base",) * len(f.shape)
    for kind_slot, n, c in zip(kinds, f.shape, comp):
        if kind_slot == "base":
            if n > spectrum.dim:
                raise SpectrumError(f"field {f.name} has a base slot of range "
                                    f"{n} in dimension {spectrum.dim}")
            w *= spectrum.metric[c]
        else:
            w *= spectrum.algebra_form[c]
    return w


# The structure kinds canonical_structure accepts, with their conjugate
# gradings.
KIND_RULES = {
    KIND_ODD_BV: dict(parity_flip=True, ghost=lambda g: -g - 1),
    KIND_EVEN_COTANGENT: dict(parity_flip=False, ghost=lambda g: -g),
    KIND_ODD_PHASE: dict(parity_flip=True, ghost=lambda g: -g + 1),
}


def _dressing_degree(f: kernel.FieldSpec) -> int:
    """Horizontal degree of a field's declared dressing, 0 when undressed."""
    if f.form_factor is None:
        return 0
    deg = f.form_factor.hdeg()
    if deg is None:
        raise SpectrumError(f"dressing of {f.name} mixes horizontal degrees")
    return deg


def canonical_structure(spectrum: Spectrum, kind: str) -> PresympStructure:
    """Sum over conjugate pairs of d(conj) ^ d(field) ^ volume.

    Tensor slots are contracted with the base metric (or the declared
    invariant form on internal slots), the conjugate gradings are
    validated against the requested kind, and declared dressings are
    wedged in; dressed pairs must already fill the horizontal degree.
    """
    if kind not in KIND_RULES:
        raise SpectrumError(f"unknown structure kind {kind!r}")
    rules = KIND_RULES[kind]
    pairs = spectrum.conjugate_pairs()
    if not pairs:
        raise SpectrumError("spectrum declares no conjugate pairs")
    paired = {f.name for _, f in pairs} | {c.name for c, _ in pairs}
    for f in spectrum.fields:
        if f.name not in paired:
            raise SpectrumError(f"field {f.name} has no conjugate partner")
    dim = spectrum.dim
    vol = forms.volume(dim)
    omega = LocalForm(dim)
    theta = LocalForm(dim)
    for conj, base in pairs:
        if conj.shape != base.shape:
            raise SpectrumError(
                f"conjugate pair {conj.name}/{base.name} has mismatched shapes")
        want_parity = (base.parity + 1) % 2 if rules["parity_flip"] else base.parity
        if conj.parity != want_parity:
            raise SpectrumError(
                f"conjugate {conj.name} has parity {conj.parity}, expected {want_parity}")
        want_ghost = rules["ghost"](base.ghost)
        if conj.ghost != want_ghost:
            raise SpectrumError(
                f"conjugate {conj.name} has ghost {conj.ghost}, expected {want_ghost}")
        k = _dressing_degree(conj) + _dressing_degree(base)
        if k not in (0, dim):
            raise SpectrumError(
                f"dressings of pair {conj.name}/{base.name} fill horizontal "
                f"degree {k}, expected 0 or {dim}")
        for comp in base.components():
            w = _pair_weight(spectrum, base, comp)
            dbar = forms.dressed(spectrum, conj.name, comp)
            dfld = forms.dressed(spectrum, base.name, comp)
            om_pair = forms.wedge(forms.delta(dbar), forms.delta(dfld)).scale(w)
            th_pair = forms.wedge(dbar, forms.delta(dfld)).scale(w)
            if k == 0:
                om_pair = forms.wedge(om_pair, vol)
                th_pair = forms.wedge(th_pair, vol)
            if forms.delta(th_pair) == -om_pair:
                th_pair = -th_pair
            omega = omega + om_pair
            theta = theta + th_pair
    return PresympStructure(omega, theta, spectrum)


# ---------------------------------------------------------------------------
# Hamiltonian fields and the bracket
# ---------------------------------------------------------------------------


def _pairing(structure: PresympStructure, xpar: int,
             ) -> tuple[list[Gen], dict[Gen, dict[Gen, GradedScalar]]]:
    """The structure's underived contact directions h, and its pairing rows
    for a field X of parity xpar: the source component of i_X omega along g
    is the sum over h of (component of X along h) * rows[g][h].  Both are
    read off one contraction of omega and kept in the structure's ``memo``."""
    return kernel.keep(structure.memo, ("pairing", xpar),
                       lambda: _pairing_rows(structure, xpar))


def _pairing_rows(structure: PresympStructure, xpar: int,
                  ) -> tuple[list[Gen], dict[Gen, dict[Gen, GradedScalar]]]:
    """Contract omega with one probe field of parity xpar whose component
    along the i-th direction is the auxiliary generator ``.probe<i>``, which
    the parser cannot create: rows[g][h] is the left partial along h's probe
    of the source term along g."""
    om = structure.omega
    directions = sorted({h for _, contacts in om.terms for h in contacts})
    for h in directions:
        if kernel.jet_mi(h):
            raise NoHamiltonianFieldError(
                h, "structure has differentiated contact directions")
    probes = {kernel.aux_gen(f".probe{i}", (xpar + kernel.gen_parity(h)) % 2): h
              for i, h in enumerate(directions)}
    X = EvoField(structure.spectrum,
                 {h: GradedScalar.generator(p) for p, h in probes.items()},
                 parity=xpar)
    vol_key = tuple(range(om.dim))
    rows: dict[Gen, dict[Gen, GradedScalar]] = {}
    not_source: list[Gen] = []
    for (dxs, contacts), s in forms.contract(X, om).terms.items():
        # linear in the probes: each partial along one is free of them all
        by_h = {probes[p]: c for p, c in s.partials(left=True).items()
                if p in probes}
        if dxs != vol_key or len(contacts) != 1 or kernel.jet_mi(contacts[0]):
            not_source.extend(by_h)
            continue
        sign = variational._contact_vol_sign(om.dim, contacts[0])
        rows[contacts[0]] = {h: c * sign for h, c in sorted(by_h.items())}
    if not_source:
        raise NoHamiltonianFieldError(min(not_source),
                                      "contraction is not a source form")
    return directions, rows


def hamiltonian_field(O: LocalForm, structure: PresympStructure) -> EvoField:
    """Solve i_X omega = delta(O) modulo d for an evolutionary X.

    The field depends on the form, the structure and the jet-order cap
    alone, so each solved field is kept in the structure's ``memo`` and
    equal forms share one field per cap; a failed solve is not kept, and
    raises again.
    """
    return kernel.keep(structure.memo, ("field", O),
                       lambda: _solve_field(O, structure))


def _solve_field(O: LocalForm, structure: PresympStructure) -> EvoField:
    """The source components of delta(O), which on an n-dimensional base are
    (-1)^n times the Euler-Lagrange derivatives of O, are matched row by row
    against the structure's pairing rows; directions the structure cannot
    pair are reported as obstructions, the least first."""
    om = structure.omega
    spectrum = structure.spectrum
    if spectrum is None:
        raise StructureError("structure carries no spectrum")
    if O.dim != om.dim:
        raise StructureError("form and structure live over different bases")
    if O.is_zero():
        return EvoField(spectrum, {}, parity=kernel.EVEN)
    opar = O.parity()
    ompar = om.parity()
    if opar is None or ompar is None:
        raise GradingError("Hamiltonian form and structure must have definite parity")
    xpar = (opar + ompar) % 2
    directions, rows = _pairing(structure, xpar)
    targets = {g: (-1) ** O.dim * v
               for g, v in variational.el_derivative(O).items()}
    for g in sorted(targets):
        if g not in rows:
            raise NoHamiltonianFieldError(g, "structure is degenerate")
    unknowns: dict[Gen, Optional[GradedScalar]] = {h: None for h in directions}
    residue = {g: targets.get(g, kernel.ZERO) for g in rows}
    pending = dict(rows)
    while pending:
        progress = False
        for g in sorted(pending):
            cols = {h: c for h, c in pending[g].items() if unknowns[h] is None}
            if not cols:
                del pending[g]
                progress = True
                continue
            if len(cols) != 1:
                continue
            ((h, c),) = cols.items()
            const = _constant_of(c)
            if const is None:
                continue
            rest = residue[g]
            for h2, c2 in pending[g].items():
                if h2 != h:
                    rest = rest - unknowns[h2] * c2
            unknowns[h] = rest * Fraction(1, const)
            del pending[g]
            progress = True
        if progress:
            continue
        # no single-unknown rows left: pin all but one unknown in some row
        for g in sorted(pending):
            open_cols = sorted(h for h in pending[g] if unknowns[h] is None)
            solvable = [h for h in open_cols if _constant_of(pending[g][h]) is not None]
            if solvable:
                for h in open_cols:
                    if h != solvable[0]:
                        unknowns[h] = kernel.ZERO
                break
        else:
            raise NoHamiltonianFieldError(min(pending), "no invertible pairing row")
    # consistency, the least failing row first: an unknown still open is 0
    for g in sorted(rows):
        total = sum((unknowns[h] * c for h, c in rows[g].items()
                     if unknowns[h] is not None), kernel.ZERO)
        if total != residue[g]:
            raise NoHamiltonianFieldError(
                g, "source component not in the structure's image")
    comps = {h: v for h, v in unknowns.items() if v}
    return EvoField(spectrum, comps, parity=xpar)


def _constant_of(s: GradedScalar) -> Optional[kernel.Coefficient]:
    if set(s.terms) == {kernel.ONE_MONO}:
        return s.terms[kernel.ONE_MONO]
    return None


def bracket(A: LocalForm, B: LocalForm, structure: PresympStructure) -> LocalForm:
    """Bracket of Hamiltonian forms: (-1)^{parity X_A} i_{X_A} i_{X_B} omega."""
    XA = hamiltonian_field(A, structure)
    XB = hamiltonian_field(B, structure)
    out = forms.contract(XA, forms.contract(XB, structure.omega))
    if XA.parity:
        out = -out
    return out


# ---------------------------------------------------------------------------
# Gauge systems, master equation, descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeSystem:
    """A gauge system (Q, omega), with a Hamiltonian H of Q when known.

    ``master`` (check_master of H) and ``descendant`` (descend of the
    system) are computed on first use and kept in the system's ``memo``
    under the jet-order cap (``kernel.keep``); the system is frozen so they
    cannot go stale.  The master check's sigma, with d(sigma) =
    -1/2 {H,H}, is both the BRST current and the descendant's Hamiltonian.
    """

    Q: EvoField
    structure: PresympStructure
    H: Optional[LocalForm] = None

    @cached_property
    def memo(self) -> dict:
        return {}

    @property
    def master(self) -> "MasterCheck":
        if self.H is None:
            raise StructureError("system carries no Hamiltonian")
        return kernel.keep(self.memo, "master",
                           lambda: check_master(self.H, self.structure))

    @property
    def descendant(self) -> "GaugeSystem":
        return kernel.keep(self.memo, "descendant", lambda: descend(self))


@dataclass
class MasterCheck:
    ok: bool
    sigma: Optional[LocalForm]
    residual: Optional[dict[Gen, GradedScalar]] = None


def check_master(O: LocalForm, structure: PresympStructure) -> MasterCheck:
    """Whether {O,O} is a total divergence, and the density it is one of."""
    br = bracket(O, O, structure)
    try:
        sigma = variational.divergence_primitive(br.scale(Fraction(-1, 2)))
    except variational.NotDivergenceError as exc:
        return MasterCheck(False, None, exc.residual)
    return MasterCheck(True, sigma)


def descend(sys: GaugeSystem) -> GaugeSystem:
    """One step of descent: (Q, omega) to (Q, omega_1) with d(omega_1) equal
    to the Q-Lie-derivative of omega.

    When the system carries a Hamiltonian the potential route is used: the
    boundary part of delta(H)'s source decomposition, negated, is a
    presymplectic potential for the descendant.  Otherwise the descendant is
    the horizontal homotopy of lie(Q, omega).  The next Hamiltonian is the
    sigma of ``sys.master`` (the divergence primitive of -1/2 {H,H}), so the
    master check is not repeated.  It is read only when H is a top form:
    below top degree the check cannot succeed, since a Hamiltonian field is
    solved from the Euler-Lagrange derivatives of a top form.
    """
    Q = sys.Q
    om = sys.structure.omega
    target = forms.lie(Q, om)
    omega1: Optional[LocalForm] = None
    theta1: Optional[LocalForm] = None
    top = sys.H is not None and sys.H.hdeg() == om.dim
    if top:
        dec = variational.source_decompose(forms.delta(sys.H))
        cand_theta = -dec.boundary
        cand_omega = forms.delta(cand_theta)
        if forms.d(cand_omega) == target:
            omega1, theta1 = cand_omega, cand_theta
    if omega1 is None:
        omega1 = variational.horizontal_homotopy(target)
        if forms.d(omega1) != target:
            raise DescentError("homotopy produced no primitive of the descent source")
        if not forms.delta(omega1).is_zero():
            raise DescentError("descendant representative is not delta-closed")
    H1 = sys.master.sigma if top else None
    structure1 = PresympStructure(omega1, theta1, sys.structure.spectrum)
    return GaugeSystem(Q, structure1, H1)


def descent_chain(sys: GaugeSystem, steps: int) -> list[GaugeSystem]:
    """Iterated descent: [sys, sys.descendant, ...], at most steps entries
    beyond sys, ending at the first zero structure.  Each step reads the
    kept ``descendant``, so every reader shares the same systems."""
    chain = [sys]
    for _ in range(steps):
        if chain[-1].structure.omega.is_zero():
            break
        chain.append(chain[-1].descendant)
    return chain


def brst_current(sys: GaugeSystem) -> LocalForm:
    """Conserved current density J with d(J) = -1/2 {H,H} and delta(J)
    matching i_Q omega_1 modulo d.

    J is the sigma of ``sys.master`` and omega_1 the structure of
    ``sys.descendant``; neither is computed again here."""
    mc = sys.master
    if not mc.ok:
        raise variational.NotDivergenceError(mc.residual or {})
    J = mc.sigma
    lhs = forms.delta(J)
    rhs = forms.contract(sys.Q, sys.descendant.structure.omega)
    if not variational.equiv_mod_d(lhs, rhs):
        raise DescentError("current fails the descendant contraction cross-check")
    return J


def verify_evolution_generator(S: LocalForm, Gamma: LocalForm,
                               structure: PresympStructure) -> bool:
    """Whether the bracket (S, Gamma) vanishes modulo d: the charge S is
    invariant under the evolution Gamma generates."""
    if Gamma.is_zero():
        return True
    gpar = (Gamma.parity() + Gamma.hdeg()) % 2
    ggh = Gamma.grade_of("ghost")
    if (gpar, ggh) not in ((kernel.EVEN, 0), (kernel.ODD, 1)):
        raise GradingError(
            f"evolution generator must be even ghost 0 or odd ghost 1, "
            f"got intrinsic parity {gpar} ghost {ggh}")
    br = bracket(S, Gamma, structure)
    return variational.equiv_mod_d(br, LocalForm(br.dim))
