"""Degree machinery, homogenization and derived multibrackets.

The chiral-boson model is the workhorse here: its descended structure is
inhomogeneous in the momentum degree, the bounded ansatz search finds the
printed homogenizer with an exact certificate, and the derived brackets
built from the homogenized charge obey the homotopy identities.
"""

import collections
import itertools
from fractions import Fraction as Fr

import pytest

from vtc import (builtin_models, forms, foliation, grading, kernel, linsolve,
                 model, parser, report, symplectic, variational)
from vtc.forms import LocalForm
from vtc.kernel import FieldSpec, Spectrum


@pytest.fixture(scope="module")
def chiral():
    m = builtin_models.builtin("chiral")
    st = m.structure()
    O = m.master_density()
    Q = symplectic.hamiltonian_field(O, st)
    sys0 = symplectic.GaugeSystem(Q, st, O)
    sys1 = symplectic.descend(sys0)
    return dict(m=m, st=st, O=O, Q=Q, sys1=sys1, om1=sys1.structure.omega)


@pytest.fixture(scope="module")
def reduced(chiral):
    m = chiral["m"]
    F = m.foliation
    w1red = foliation.reduce(chiral["om1"], F)
    st_red = symplectic.PresympStructure(w1red, spectrum=F.spatial)
    h = grading.find_homogenizer(w1red, F.spatial)
    return dict(F=F, spl=F.spatial, w1red=w1red, st_red=st_red, h=h)


def sf1(s):
    return forms.scalar_form(1, s)


def euler_field(spectrum, kind, conjugator=None):
    """The Euler field of a grading, optionally conjugated by a flow e^X:
    the oracle of ``grade_split`` and of the homogenizer's flow.

    ``kind`` selects which factors are counted: ``"momentum"`` counts source
    variables, ``"polyvector"`` counts antifield variables.  Without a
    conjugator this is the literal field X^a = phi^a on the counted fields,
    whose Lie derivative multiplies each homogeneous component by its
    degree.  With one, the field is transported through the inverse flow,
    e^{-ad X}, so that it measures the degree of the flow's image; a
    structure made homogeneous by e^X is an exact eigenform of the result.
    Raises ValueError on any other ``kind``, and TruncationError if that
    series has not terminated after ``grading.TRUNCATION_ORDER`` terms.
    """
    role = kernel.grading_role(kind)
    comps = {}
    for f in spectrum.fields:
        if f.role != role:
            continue
        for comp in f.components():
            g = kernel.jet_gen(spectrum, f.name, comp, ())
            comps[g] = kernel.GradedScalar.generator(g)
    base = forms.EvoField(spectrum, comps, parity=kernel.EVEN, ghost=0)
    if conjugator is None or conjugator.is_zero():
        return base
    total = term = base
    for k in range(1, grading.TRUNCATION_ORDER + 1):
        term = forms.scale_field(
            forms.commutator(conjugator, term), Fr(-1, k))
        if term.is_zero():
            return total
        total = forms.add_fields(total, term)
    raise grading.TruncationError(
        f"conjugated Euler field did not stabilize within order "
        f"{grading.TRUNCATION_ORDER}")


# -- degree splits ----------------------------------------------------------


def test_charge_splits_by_momentum_degree(chiral):
    parts = chiral["O"].grade_split(grading.KIND_MOMENTUM).items()
    assert [k for k, _ in parts] == [1, 2]
    total = LocalForm(2)
    for _, c in parts:
        total = total + c
    assert total == chiral["O"]


def test_descended_structure_splits(chiral):
    sp = chiral["m"].spectrum
    K = kernel.parameter("k")
    parts = chiral["om1"].grade_split(grading.KIND_MOMENTUM)
    assert sorted(parts) == [1, 2]

    def sf2(s):
        return forms.scalar_form(2, s)

    dxp = forms.dx(2, 0) + forms.dx(2, 1)
    dxm = forms.dx(2, 0) - forms.dx(2, 1)
    lead = LocalForm(2)
    sub = LocalForm(2)
    for i in range(3):
        eb = forms.delta(sf2(kernel.jet(sp, "etab", (i,))))
        lead = lead + forms.wedge(
            eb, forms.delta(forms.wedge(sf2(kernel.jet(sp, "phi", (i,))), dxp)))
        sub = sub + forms.wedge(
            eb, forms.delta(forms.wedge(sf2(kernel.jet(sp, "phib", (i,))),
                                        dxm))).scale(K)
    assert parts[1] == lead
    assert parts[2] == sub


def test_split_of_homogeneous_form_is_single(chiral):
    parts = chiral["om1"].grade_split(grading.KIND_POLYVECTOR)
    assert len(parts) == 1


def test_split_of_zero_is_empty():
    assert LocalForm(2).grade_split(grading.KIND_MOMENTUM) == {}


def test_counting_field_measures_degree(chiral):
    Em = euler_field(chiral["m"].spectrum, grading.KIND_MOMENTUM)
    for k, c in chiral["O"].grade_split(grading.KIND_MOMENTUM).items():
        assert forms.lie(Em, c) == c.scale(k)


def test_an_unknown_grading_name_is_one_error_everywhere(chiral):
    for call in (lambda: chiral["O"].grade_split("momentun"),
                 lambda: euler_field(chiral["m"].spectrum, "momentun")):
        with pytest.raises(ValueError, match="^unknown grading 'momentun'$"):
            call()


# -- pullback ---------------------------------------------------------------


def test_pullback_of_zero_field_is_identity(chiral):
    X = forms.EvoField(chiral["m"].spectrum, {})
    assert grading.pullback(X, chiral["om1"]) == chiral["om1"]


def test_pullback_is_algebra_morphism(reduced):
    spl = reduced["spl"]
    X = reduced["h"].X
    a = sf1(kernel.jet(spl, "phi", (0,)) * kernel.jet(spl, "phib", (1,)))
    b = forms.wedge(sf1(kernel.jet(spl, "etab", (2,))), forms.dx(1, 0))
    assert grading.pullback(X, forms.wedge(a, b)) == \
        forms.wedge(grading.pullback(X, a), grading.pullback(X, b))


def test_pullback_inverts(reduced):
    X = reduced["h"].X
    Xin = forms.scale_field(X, -1)
    for a in (reduced["w1red"],
              sf1(kernel.jet(reduced["spl"], "phi", (1,)))):
        assert grading.pullback(Xin, grading.pullback(X, a)) == a
        assert grading.pullback(X, grading.pullback(Xin, a)) == a


def test_pullback_reports_nonterminating_series(reduced):
    spl = reduced["spl"]
    E = euler_field(spl, grading.KIND_MOMENTUM)
    # phib has momentum degree 1, so every term of e^{L_E} is nonzero
    with pytest.raises(grading.TruncationError) as info:
        grading.pullback(E, sf1(kernel.jet(spl, "phib", (0,))))
    assert str(info.value) == "pullback series did not terminate within order 16"


# -- the homogenizer --------------------------------------------------------


SWEEP = [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]


def test_homogenizer_matches_printed_field(reduced):
    spl = reduced["spl"]
    K = kernel.parameter("k")
    comps = reduced["h"].X.base_components()
    expected = {kernel.jet_gen(spl, "phi", (i,)):
                K * kernel.jet(spl, "phib", (i,)) for i in range(3)}
    assert {g: v for g, v in comps.items() if not v.is_zero()} == expected


def test_homogenizer_certificate_is_exact(reduced):
    h = reduced["h"]
    assert h.degree == 1
    parts = reduced["w1red"].grade_split(grading.KIND_MOMENTUM)
    assert h.leading == parts[1]
    assert h.pulled_back == h.leading
    assert grading.pullback(h.X, reduced["w1red"]) == h.leading


def test_homogeneous_input_needs_no_homogenizer(reduced):
    parts = reduced["w1red"].grade_split(grading.KIND_MOMENTUM)
    h = grading.find_homogenizer(parts[1], reduced["spl"])
    assert h.X.base_components() == {}
    assert grading.pullback(h.X, parts[1]) == parts[1]


def test_the_zero_form_gets_the_zero_field_at_degree_0(reduced):
    h = grading.find_homogenizer(LocalForm(1), reduced["spl"])
    assert h.X.is_zero()
    assert h.degree == 0
    assert h.pulled_back.is_zero()


def test_unreachable_ansatz_reports_failure(reduced):
    spl = reduced["spl"]
    ghostly = forms.wedge_all([
        forms.contact(1, kernel.jet_gen(spl, "etab", (0,))),
        forms.contact(1, kernel.jet_gen(spl, "etab", (1,))),
        forms.dx(1, 0)])
    bad = reduced["w1red"] + ghostly
    with pytest.raises(grading.NoHomogenizerError):
        grading.find_homogenizer(bad, spl, jet_order=0, poly_degree=1)


@pytest.mark.parametrize("jet_order,poly_degree", SWEEP)
def test_exact_tail_ends_the_search_after_one_stage(reduced, monkeypatch,
                                                    jet_order, poly_degree):
    # the tail is a degree-4 horizontal differential: the first stage solves
    # it with no candidate, and a second stage would only repeat the first;
    # its retry modulo d saturates only the rows in reach, at every bound
    spl = reduced["spl"]
    leading = reduced["w1red"].grade_split(grading.KIND_MOMENTUM)[1]
    exact = parser.parse_expression(
        "d(phib[2]*phib[2] ^ del(phib[0]) ^ del(phib[1]))", spl)
    stages = []
    stage_solve = grading._stage_solve

    def counting(*args):
        stages.append(args)
        return stage_solve(*args)

    monkeypatch.setattr(grading, "_stage_solve", counting)
    h = grading.find_homogenizer(leading + exact, spl, jet_order=jet_order,
                                 poly_degree=poly_degree)
    assert len(stages) == 1
    assert h.X.is_zero()
    assert h.leading == leading
    assert h.pulled_back == leading + exact


@pytest.mark.parametrize("bounds", [None] + SWEEP,
                         ids=["report"] + [f"{j}-{p}" for j, p in SWEEP])
def test_a_homogenizer_checks_against_its_input(reduced, bounds):
    # independent of the search: pull the input back by X and the result
    # back by -X, and compare with the input's own momentum split
    if bounds is None:
        run = report._Run(builtin_models.builtin("chiral"), steps=2)
        w1red, h = run.reduced_structure.omega, run.homogenizer
    else:
        w1red = reduced["w1red"]
        h = grading.find_homogenizer(w1red, reduced["spl"],
                                     jet_order=bounds[0],
                                     poly_degree=bounds[1])
    assert grading.pullback(h.X, w1red) == h.pulled_back
    assert h.leading == w1red.grade_split(grading.KIND_MOMENTUM)[h.degree]
    assert variational.equiv_mod_d(h.pulled_back, h.leading)
    assert grading.pullback(forms.scale_field(h.X, -1), h.pulled_back) == w1red


# -- pruning the homogenizer's candidates -----------------------------------


def image_labels(image):
    return {variational.block_key(key)
            for key, _ in variational.form_mono_items(image)}


def mono_label(mono):
    return variational.block_key(((), (), mono))


class Listed:
    """An explicit candidate list as a source of candidates for
    ``grading._stage_solve``; the ids are the list's indices."""

    def __init__(self, basis):
        self.basis = basis
        self._by_label = {}
        for i, (direction, mono) in enumerate(basis):
            self._by_label.setdefault(
                (direction, mono_label(mono)), []).append(i)

    def fill(self, direction, label):
        return self._by_label.get((direction, label), ())

    def candidate(self, i):
        return self.basis[i]


def ansatz_pool(spectrum, jet_order):
    """Every generator a candidate may use, in generator order."""
    pool = [kernel.param_gen(p) for p in spectrum.parameters]
    for f in spectrum.fields:
        for comp in f.components():
            for r in range(jet_order + 1):
                for mi in itertools.combinations_with_replacement(
                        range(spectrum.dim), r):
                    pool.append(kernel.jet_gen(spectrum, f.name, comp, mi))
    return sorted(pool)


def candidate_monomials(pool, poly_degree):
    """Every monomial over the pool in combination order, bucketed by
    parity, ghost and counted degrees in order of first appearance."""
    info = [(g, kernel.gen_parity(g), kernel.gen_ghost(g)) for g in pool]
    buckets = {}
    for r in range(1, poly_degree + 1):
        for combo in itertools.combinations_with_replacement(info, r):
            mono = []
            ok = True
            for g, p, _ in combo:
                if mono and mono[-1][0] == g:
                    if p:
                        ok = False
                        break
                    mono[-1] = (g, mono[-1][1] + 1)
                else:
                    mono.append((g, 1))
            if not ok:
                continue
            par = sum(p for _, p, _ in combo) % 2
            gh = sum(h for _, _, h in combo)
            srcdeg = kernel.mono_degree(tuple(mono), kernel.ROLE_SOURCE)
            afdeg = kernel.mono_degree(tuple(mono), kernel.ROLE_ANTIFIELD)
            buckets.setdefault((par, gh, srcdeg, afdeg), []).append(tuple(mono))
    return buckets


def stage_basis(spectrum, kind, raise_by, buckets):
    """The full candidate basis of a stage, by direction and then bucket,
    as the homogenizer enumerated it before it filled labels."""
    role = kernel.GRADING_ROLES[kind]
    basis = []
    for f in spectrum.fields:
        own = 1 if f.role == role else 0
        for comp in f.components():
            direction = kernel.jet_gen(spectrum, f.name, comp, ())
            for (par, gh, srcdeg, afdeg), monos in buckets.items():
                if par != f.parity or gh != f.ghost:
                    continue
                counted = srcdeg if kind == grading.KIND_MOMENTUM else afdeg
                if counted != raise_by + own:
                    continue
                basis.extend((direction, m) for m in monos)
    return basis


def full_basis(spectrum, kind, raise_by, jet_order, poly_degree):
    return stage_basis(spectrum, kind, raise_by, candidate_monomials(
        ansatz_pool(spectrum, jet_order), poly_degree))


def predicted_labels(leading, basis):
    """For each candidate m * d/d(phi), the labels rho + label(m) its image
    can reach, rho a reduced label of phi."""
    reduced = grading._reduced_labels(leading)
    return [frozenset(grading._label_add(rho, mono_label(mono))
                      for rho in reduced.get(direction, ()))
            for direction, mono in basis]


def in_reach_by_filter(leading, residual, basis):
    """Indices of the candidates in reach, found by labelling every
    candidate and growing the residual's labels until no candidate's
    labels meet them."""
    groups = {}
    for i, labels in enumerate(predicted_labels(leading, basis)):
        if labels:
            groups.setdefault(labels, []).append(i)
    reach = image_labels(residual)
    kept = []
    grown = True
    while grown:
        grown = False
        for labels in list(groups):
            if not reach.isdisjoint(labels):
                kept.extend(groups.pop(labels))
                reach |= labels
                grown = True
    return sorted(kept)


def every(pool):
    """Every candidate id of a ``grading._Pool``, in order: the pool filled
    at every label of its generators."""
    parts = sorted(pool.variants)
    ids = []
    for direction in pool.directions:
        for size in range(1, pool.poly_degree + 1):
            for combo in itertools.combinations_with_replacement(parts, size):
                label = tuple((part, len(list(run)))
                              for part, run in itertools.groupby(combo))
                ids.extend(pool.fill(direction, label))
    return sorted(ids)


def stage_system(spectrum, residual, images, modulo_d):
    """The equations {row: (coefficients, rhs)} of a stage over every
    candidate; with ``modulo_d``, those of its retry: every row closed under
    preimages of d within the rows' coordinate degree plus one."""
    rows = {}
    for i, image in enumerate(images):
        for key, c in variational.form_mono_items(image):
            rows.setdefault(key, {})[("c", i)] = c
    rhs = {}
    for key, c in variational.form_mono_items(residual):
        rhs[key] = rhs.get(key, Fr(0)) + c
        rows.setdefault(key, {})
    if modulo_d:
        x_cap = variational.max_x_degree(rows) + 1
        for cand, image in variational.saturate_d(spectrum.dim, rows, x_cap).items():
            for key, c in image.items():
                rows.setdefault(key, {})[("b", cand)] = c
    return {key: (coeffs, -rhs.get(key, Fr(0))) for key, coeffs in rows.items()}


def full_stage_solve(spectrum, leading, residual, basis, images):
    """A stage solved over every candidate, with no pruning: (solution,
    whether the first solve was consistent)."""

    def solve(modulo_d):
        system = stage_system(spectrum, residual, images, modulo_d)
        return linsolve.solve_linear(
            [system[key] for key in sorted(system, key=repr)])

    sol = solve(False)
    first_consistent = sol is not None
    if sol is None:
        sol = solve(True)
    assert sol is not None
    return ({i: v for (tag, i), v in sol.items() if tag == "c" and v},
            first_consistent)


@pytest.fixture(scope="module")
def first_stage(reduced):
    """The chiral homogenizer's one stage: every candidate with its image."""
    spl = reduced["spl"]
    (k0, leading), (gap, residual) = reduced["w1red"].grade_split(
        grading.KIND_MOMENTUM).items()
    basis = full_basis(spl, grading.KIND_MOMENTUM, gap - k0, 2, 3)
    images = [forms.lie(grading._basis_field(spl, direction, mono), leading)
              for direction, mono in basis]
    return dict(spl=spl, leading=leading, residual=residual, basis=basis,
                images=images)


def test_every_candidate_image_lies_in_its_predicted_labels(first_stage):
    predicted = predicted_labels(first_stage["leading"],
                                 first_stage["basis"])
    images = first_stage["images"]
    assert len(images) == len(predicted) == 5940
    assert sum(1 for im in images if im) == 4455
    for image, labels in zip(images, predicted):
        assert image_labels(image) <= labels


def test_pruned_stage_solve_equals_the_full_solve(first_stage):
    args = (first_stage["spl"], first_stage["leading"],
            first_stage["residual"], first_stage["basis"])
    kept = grading._candidates_in_reach(*args[1:3], Listed(args[3]))
    assert 0 < len(kept) < 20
    sol = grading._stage_solve(*args[:3], Listed(args[3]))
    assert (sol, True) == full_stage_solve(*args, first_stage["images"])
    assert sol and set(sol) <= set(kept)


@pytest.fixture
def two_blocks():
    return two_block_stage()


def two_block_stage():
    """A stage where the direction w meets two rows of L, so the candidate
    u_x d/dw reaches the blocks {u, u} and {u, v}; u_x d/dz reaches only
    {u, v} and v_x d/du only {v, w}.  The residual lies in {u, u}."""
    spec = Spectrum(1, [FieldSpec(name, kernel.EVEN, 0) for name in "uvwz"])

    def ct(name):
        return forms.contact(1, kernel.jet_gen(spec, name))

    dx = forms.dx(1, 0)
    leading = (forms.wedge_all([ct("u"), ct("w"), dx])
               + forms.wedge_all([ct("v"), ct("w"), dx])
               + forms.wedge_all([ct("v"), ct("z"), dx]))
    ux = ((kernel.jet_gen(spec, "u", (), (0,)), 1),)
    vx = ((kernel.jet_gen(spec, "v", (), (0,)), 1),)
    basis = [(kernel.jet_gen(spec, "z"), ux), (kernel.jet_gen(spec, "w"), ux),
             (kernel.jet_gen(spec, "u"), vx)]
    images = [forms.lie(grading._basis_field(spec, direction, mono), leading)
              for direction, mono in basis]
    uu = variational.block_key(((), (kernel.jet_gen(spec, "u"),) * 2, ()))
    residual = LocalForm(1, {key: s for key, s in images[1].terms.items()
                             if variational.block_key(key + ((),)) == uu})
    assert residual and image_labels(residual) == {uu}
    return dict(spec=spec, ct=ct, leading=leading, residual=residual,
                basis=basis, images=images)


def retry_solves():
    """The retries modulo d of the stages of the two retry tests below,
    each a ``variational.solve_mod_d`` call with the caller's columns
    ``("c", id)``: [(dim, rows, target, x_cap), ...]."""
    stage = two_block_stage()
    spec, leading, basis, ct = (stage[k] for k in ("spec", "leading", "basis", "ct"))
    exact = forms.d(forms.wedge(ct("u"), ct("v")))
    u, w = kernel.jet_gen(spec, "u"), kernel.jet_gen(spec, "w")
    calls = []
    solve = variational.solve_mod_d

    def recording(dim, rows, target, x_cap):
        calls.append((dim, {key: dict(c) for key, c in rows.items()},
                      dict(target), x_cap))
        return solve(dim, rows, target, x_cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "solve_mod_d", recording)
        grading._stage_solve(spec, leading, stage["residual"] + exact, Listed(basis))
        grading._stage_solve(
            spec, leading,
            exact - forms.lie(grading._basis_field(spec, w, ((u, 1),)), leading),
            grading._Pool(spec, 0, 0, 1))
    assert len(calls) == 2 and all(rows for _, rows, _, _ in calls)
    return calls


def test_closure_follows_a_candidate_into_a_second_block(two_blocks):
    # u_x d/dz comes first and is needed to solve the {u, v} rows that
    # u_x d/dw brings in, so it is in reach only on the closure's second pass
    spec, leading, residual, basis, images = (
        two_blocks[k] for k in ("spec", "leading", "residual", "basis", "images"))
    predicted = predicted_labels(leading, basis)
    for image, labels in zip(images, predicted):
        assert image and image_labels(image) <= labels
    assert image_labels(images[1]) == predicted[1] and len(predicted[1]) == 2
    assert grading._candidates_in_reach(
        leading, residual, Listed(basis)) == [0, 1]
    sol = grading._stage_solve(spec, leading, residual, Listed(basis))
    assert (sol, True) == full_stage_solve(spec, leading, residual, basis, images)
    assert sorted(sol) == [0, 1]


def equation_counter(equations):
    return collections.Counter(
        (frozenset(coeffs.items()), rhs) for coeffs, rhs in equations)


def test_retry_modulo_d_solves_the_full_system(two_blocks, monkeypatch):
    # an exact form outside the images' span makes the first solve
    # inconsistent; the retry solves the rows in reach alone, which are
    # whole components of the full retry system: the rest of it is
    # homogeneous and shares no column with them
    spec, leading, basis, images, ct = (
        two_blocks[k] for k in ("spec", "leading", "basis", "images", "ct"))
    residual = two_blocks["residual"] + forms.d(forms.wedge(ct("u"), ct("v")))
    systems = []
    eliminate = linsolve.eliminate

    def recording(keys, rows):
        rows = [(dict(row), rhs) for row, rhs in rows]
        systems.append(equation_counter(
            ({keys[r]: v for r, v in row.items()}, rhs) for row, rhs in rows))
        return eliminate(keys, rows)

    monkeypatch.setattr(linsolve, "eliminate", recording)
    sol = grading._stage_solve(spec, leading, residual, Listed(basis))
    assert (sol, False) == full_stage_solve(spec, leading, residual, basis, images)
    assert sol
    full = stage_system(spec, residual, images, modulo_d=True)
    assert len(systems) == 4 and systems[3] == equation_counter(full.values())
    kept = grading._candidates_in_reach(leading, residual, Listed(basis))
    labels = image_labels(residual).union(
        *(image_labels(images[i]) for i in kept))
    inside = [eq for key, eq in full.items()
              if variational.block_key(key) in labels]
    outside = [eq for key, eq in full.items()
               if variational.block_key(key) not in labels]
    assert systems[1] == equation_counter(inside)
    assert outside and all(rhs == 0 for _, rhs in outside)
    assert {c for coeffs, _ in inside for c in coeffs}.isdisjoint(
        {c for coeffs, _ in outside for c in coeffs})


def test_retry_images_only_the_candidates_in_reach(two_blocks, monkeypatch):
    # with jet order 0 the pool's images miss an exact form, so the first
    # solve is inconsistent and the retry sets u d/dw; it solves the rows it
    # has, so only the candidates in reach of the residual pay for an image
    spec, leading, ct = (two_blocks[k] for k in ("spec", "leading", "ct"))
    u, w = kernel.jet_gen(spec, "u"), kernel.jet_gen(spec, "w")
    residual = (forms.d(forms.wedge(ct("u"), ct("v")))
                - forms.lie(grading._basis_field(spec, w, ((u, 1),)), leading))
    pool = grading._Pool(spec, 0, 0, 1)
    ids = every(pool)
    basis = [pool.candidate(key) for key in ids]
    full = full_stage_solve(spec, leading, residual, basis, [
        forms.lie(grading._basis_field(spec, *cand), leading)
        for cand in basis])
    kept = grading._candidates_in_reach(leading, residual, pool)
    verdicts = []
    images = []
    eliminate, lie = linsolve.eliminate, forms.lie

    def recording_solve(keys, rows):
        sol = eliminate(keys, rows)
        verdicts.append(sol is not None)
        return sol

    def counting_lie(*args):
        images.append(args)
        return lie(*args)

    monkeypatch.setattr(linsolve, "eliminate", recording_solve)
    monkeypatch.setattr(forms, "lie", counting_lie)
    sol = grading._stage_solve(spec, leading, residual, pool)
    assert verdicts == [False, True]
    assert {pool.candidate(key): c for key, c in sol.items()} == {
        (w, ((u, 1),)): 1}
    assert ({ids.index(key): c for key, c in sol.items()}, False) == full
    assert 0 < len(images) == len(kept) < len(ids)


def test_prediction_reads_the_rows_of_delta_leading():
    # L = y du ^ dx holds no contact of y, but delta L = dy ^ du ^ dx does:
    # the image of v d/dy comes from contract(X, delta L) alone
    spec = Spectrum(1, [FieldSpec(name, kernel.EVEN, 0) for name in "uvy"])
    leading = forms.wedge_all([
        forms.scalar_form(1, kernel.jet(spec, "y")),
        forms.contact(1, kernel.jet_gen(spec, "u")), forms.dx(1, 0)])
    basis = [(kernel.jet_gen(spec, "y"), ((kernel.jet_gen(spec, "v"), 1),))]
    image = forms.lie(grading._basis_field(spec, *basis[0]), leading)
    assert image
    assert image_labels(image) == set(predicted_labels(leading, basis)[0])


# -- generating the candidates label by label -------------------------------


@pytest.mark.parametrize("jet_order,poly_degree", SWEEP)
def test_homogenizer_is_the_same_field_at_every_bound(reduced, jet_order,
                                                       poly_degree):
    spl = reduced["spl"]
    K = kernel.parameter("k")
    h = grading.find_homogenizer(reduced["w1red"], spl, jet_order=jet_order,
                                 poly_degree=poly_degree)
    expected = forms.EvoField(spl, {
        kernel.jet_gen(spl, "phi", (i,)): K * kernel.jet(spl, "phib", (i,))
        for i in range(3)})
    assert h.X == expected
    assert h.X == reduced["h"].X


@pytest.mark.parametrize("jet_order,poly_degree", SWEEP)
def test_generated_candidates_are_the_in_reach_part_of_the_full_basis(
        first_stage, jet_order, poly_degree):
    spl, leading, residual = (first_stage[k]
                              for k in ("spl", "leading", "residual"))
    basis = full_basis(spl, grading.KIND_MOMENTUM, 1, jet_order, poly_degree)
    pool = grading._Pool(spl, 1, jet_order, poly_degree)
    generated = grading._candidates_in_reach(leading, residual, pool)
    in_reach = in_reach_by_filter(leading, residual, basis)
    assert 0 < len(generated) < 20
    assert [pool.candidate(key) for key in generated] == \
        [basis[i] for i in in_reach]


def test_every_candidate_of_the_pool_is_the_full_basis(first_stage):
    spl = first_stage["spl"]
    pool = grading._Pool(spl, 1, 2, 3)
    assert [pool.candidate(key) for key in every(pool)] == first_stage["basis"]


def factors(mono):
    return tuple(g for g, e in mono for _ in range(e))


def test_every_candidate_of_the_maxwell_leaf_pool_in_combination_order():
    # the leaf's fields of several roles, parities and ghost numbers make
    # many (parity, ghost, source, antifield) buckets per direction; the ids
    # order them by direction and combination order alone
    spl = builtin_models.builtin("maxwell").foliation.spatial
    basis = full_basis(spl, grading.KIND_MOMENTUM, 1, 1, 3)
    assert len(basis) == 50598
    pool = grading._Pool(spl, 1, 1, 3)
    ids = every(pool)
    assert ids == sorted(ids)
    assert [pool.candidate(key) for key in ids] == sorted(
        basis, key=lambda cand: (cand[0], len(factors(cand[1])),
                                 factors(cand[1])))


def test_the_later_of_two_equal_images_gets_zero():
    # L = (du + dv) ^ dw ^ dx: m d/du and m d/dv have one image, so the
    # residual pins only their sum and the later column is free
    spec = Spectrum(1, [FieldSpec(name, kernel.EVEN, 0) for name in "uvw"])

    def ct(name):
        return forms.contact(1, kernel.jet_gen(spec, name))

    leading = forms.wedge_all([ct("u") + ct("v"), ct("w"), forms.dx(1, 0)])
    wx = ((kernel.jet_gen(spec, "w", (), (0,)), 1),)
    first, later = (kernel.jet_gen(spec, "u"), wx), (kernel.jet_gen(spec, "v"), wx)
    images = [forms.lie(grading._basis_field(spec, *cand), leading)
              for cand in (first, later)]
    assert images[0] and images[0] == images[1] and first < later
    pool = grading._Pool(spec, 0, 1, 1)
    sol = grading._stage_solve(spec, leading, images[0].scale(-3), pool)
    assert {pool.candidate(key): c for key, c in sol.items()} == {first: 3}
    for order in ([first, later], [later, first]):
        assert grading._stage_solve(spec, leading, images[0].scale(-3),
                                    Listed(order)) == {0: 3}


def test_retry_over_the_pool_solves_the_full_system(two_blocks):
    # the pool of u, v, w, z and their first derivatives, one factor each;
    # its candidates in reach solve the exact form in the first solve
    spec, leading, ct = (two_blocks[k] for k in ("spec", "leading", "ct"))
    residual = two_blocks["residual"] + forms.d(forms.wedge(ct("u"), ct("v")))
    pool = grading._Pool(spec, 0, 1, 1)
    basis = full_basis(spec, grading.KIND_MOMENTUM, 0, 1, 1)
    assert [pool.candidate(key) for key in every(pool)] == basis
    by_pool = grading._stage_solve(spec, leading, residual, pool)
    by_list = grading._stage_solve(spec, leading, residual, Listed(basis))
    assert by_list
    assert {pool.candidate(key): c for key, c in by_pool.items()} == \
        {basis[i]: c for i, c in by_list.items()}


def test_conjugated_euler_field_fixes_structure(reduced):
    spl = reduced["spl"]
    K = kernel.parameter("k")
    Ep = euler_field(spl, grading.KIND_MOMENTUM, reduced["h"].X)
    comps = {g: v for g, v in Ep.base_components().items() if not v.is_zero()}
    expected = {}
    for i in range(3):
        expected[kernel.jet_gen(spl, "phi", (i,))] = \
            K * kernel.jet(spl, "phib", (i,))
        expected[kernel.jet_gen(spl, "phib", (i,))] = \
            kernel.jet(spl, "phib", (i,))
        expected[kernel.jet_gen(spl, "etab", (i,))] = \
            kernel.jet(spl, "etab", (i,))
    assert comps == expected
    assert forms.lie(Ep, reduced["w1red"]) == reduced["w1red"]


# -- derived brackets -------------------------------------------------------


def test_unary_derived_bracket_is_brst_action(chiral):
    st = chiral["st"]
    parts = chiral["O"].grade_split(grading.KIND_MOMENTUM)
    sp = chiral["m"].spectrum
    a = forms.wedge(forms.scalar_form(2, kernel.jet(sp, "phi", (0,)) *
                                      kernel.jet(sp, "phi", (1,))),
                    forms.volume(2))
    got = grading.derived_bracket(parts[1], [a], st)
    assert got == symplectic.bracket(parts[1], a, st)


def test_binary_derived_bracket_nests(chiral):
    st = chiral["st"]
    sp = chiral["m"].spectrum
    parts = chiral["O"].grade_split(grading.KIND_MOMENTUM)
    vol = forms.volume(2)
    a = forms.wedge(forms.scalar_form(2, kernel.jet(sp, "phi", (0,))), vol)
    b = forms.wedge(forms.scalar_form(2, kernel.jet(sp, "eta", (1,)) *
                                      kernel.jet(sp, "phi", (2,))), vol)
    got = grading.derived_bracket(parts[2], [a, b], st)
    inner = symplectic.bracket(parts[2], a, st)
    assert got == symplectic.bracket(inner, b, st)


def test_derived_bracket_rejects_inhomogeneous_generator(chiral):
    with pytest.raises(grading.ArityError):
        grading.derived_bracket(chiral["O"], [chiral["O"]], chiral["st"])


def test_derived_bracket_rejects_wrong_arity(chiral):
    parts = chiral["O"].grade_split(grading.KIND_MOMENTUM)
    sp = chiral["m"].spectrum
    a = forms.wedge(forms.scalar_form(2, kernel.jet(sp, "phi", (0,))),
                    forms.volume(2))
    with pytest.raises(grading.ArityError):
        grading.derived_bracket(parts[2], [a], chiral["st"])
    with pytest.raises(grading.ArityError,
                       match="^derived bracket needs at least one argument$"):
        grading.derived_bracket(parts[2], [], chiral["st"])


def test_derived_bracket_rejects_graded_arguments(chiral):
    parts = chiral["O"].grade_split(grading.KIND_MOMENTUM)
    with pytest.raises(grading.ArityError):
        grading.derived_bracket(parts[2], [parts[1], parts[1]], chiral["st"])


def test_derived_bracket_rejects_arguments_of_mixed_degree(chiral):
    # a sum of a degree-0 and a degree-1 density has no single degree; the
    # unary bracket would return a degree-1 form, not a degree-0 one
    O1 = chiral["O"].grade_split(grading.KIND_MOMENTUM)[1]
    a = parser.parse_expression("(phi[0] + phi[1]*phib[2]) ^ vol",
                                chiral["m"].spectrum)
    with pytest.raises(grading.ArityError,
                       match=r"^argument 0 has momentum degrees \[0, 1\], "
                             r"expected \[0\]$"):
        grading.derived_bracket(O1, [a], chiral["m"].structure())


def derived_closure(run, hs, st):
    """The report's algebra closure check, one (i, j) at a time through
    ``grading.derived_bracket``: {{hs, e_i}, e_j} == eps_ijk e_k modulo d
    for the plain field densities e_i."""
    spl = run.slicing.spatial
    eps = model.structure_constants(run.m.algebra_constants)
    rank = max(i for (i, _, _) in eps) + 1
    pair = next(f for c, f in spl.conjugate_pairs())
    dens = [forms.wedge(forms.dressed(spl, pair.name, (i,)),
                        forms.volume(spl.dim)) for i in range(rank)]
    for i, j in itertools.product(range(rank), repeat=2):
        want = LocalForm(spl.dim)
        for k in range(rank):
            want = want + dens[k].scale(eps.get((i, j, k), 0))
        got = grading.derived_bracket(hs, [dens[i], dens[j]], st)
        if not variational.equiv_mod_d(got, want):
            return False
    return True


@pytest.mark.parametrize("sign", [1, -1], ids=["su2", "negated"])
def test_algebra_closure_is_the_derived_bracket_check(chiral, monkeypatch,
                                                      sign):
    constants = model.structure_constants
    monkeypatch.setattr(model, "structure_constants", lambda name: {
        key: sign * c for key, c in constants(name).items()})
    run = report._Run(chiral["m"], steps=1)
    h = run.homogenizer
    hs = grading.pullback(h.X, run.charge)
    st = symplectic.PresympStructure(h.pulled_back, spectrum=run.slicing.spatial)
    closes = sign == 1
    assert report._algebra_closure(run, hs, st) is closes
    assert derived_closure(run, hs, st) is closes
    rep = report.run_pipeline(chiral["m"], ("homogenize",))
    assert rep["stages"]["homogenize"]["algebra_closes"] is closes


def test_binary_bracket_symmetry_sign(chiral):
    st = chiral["st"]
    sp = chiral["m"].spectrum
    vol = forms.volume(2)
    parts = chiral["O"].grade_split(grading.KIND_MOMENTUM)

    def dens(s):
        return forms.wedge(forms.scalar_form(2, s), vol)

    a = dens(kernel.jet(sp, "eta", (0,)) * kernel.jet(sp, "phi", (1,)))
    b = dens(kernel.jet(sp, "eta", (2,)) * kernel.jet(sp, "phi", (0,), (1,)))
    ab = grading.derived_bracket(parts[2], [a, b], st)
    ba = grading.derived_bracket(parts[2], [b, a], st)
    z = LocalForm(2)
    assert variational.equiv_mod_d(ab + ba, z)
    c = dens(kernel.jet(sp, "phi", (0,)) * kernel.jet(sp, "phi", (0,)))
    ac = grading.derived_bracket(parts[2], [a, c], st)
    ca = grading.derived_bracket(parts[2], [c, a], st)
    assert variational.equiv_mod_d(ac - ca, z)
