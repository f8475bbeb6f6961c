"""Seeded calculus queries on the Maxwell spacetime and leaf spectra.

Each query is model-language text.  Running it parses the text with
``parser.parse_expression`` and checks one identity that holds by
construction:

* ``homotopy``: the contract d(h(w)) + h(d(w)) == w below the top degree;
* ``divergence``: d(divergence_primitive(f)) == f for f = d(sigma);
* ``bracket``: {A, B} and the signed {B, A} agree modulo d.

The result form is printed with ``model.form_text``; the printed texts of
a pass over the queries are hashed so that a run can be compared
byte-for-byte with a pinned digest.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Generator pools in surface syntax.  ``x[j]`` entries are base coordinates;
# every other entry is a jet variable of the named field.
SPACES = {
    "spacetime": {
        "dim": 4,
        "scalars": ["x[0]", "x[2]", "A[0]", "A[1],[0]", "A[2],[3]", "C",
                    "C,[0]", "As[0]", "Cs"],
        "contacts": ["A[0]", "A[1],[0]", "C", "C,[3]", "As[0]", "Cs"],
    },
    "leaf": {
        "dim": 3,
        "scalars": ["x[0]", "x[1]", "A[1]", "A[2],[0]", "E[0]", "E[1],[2]",
                    "lam", "C", "Cd", "As[3]", "Cs"],
        "contacts": ["A[1]", "A[3],[1]", "E[2]", "lam", "Cd", "C,[2]",
                     "As[0]"],
    },
}

# Bracket arguments on the spacetime BV structure, with their parities.
BRACKET_GENS = [("A[0]", 0), ("A[1]", 0), ("A[1],[0]", 0), ("A[2],[3]", 0),
                ("Cs", 0), ("C", 1), ("C,[1]", 1), ("As[0]", 1),
                ("As[2],[2]", 1)]

KINDS = ("homotopy", "divergence", "bracket")
KIND_WEIGHTS = (5, 3, 2)
# The catalogue of query shapes and generators is drawn from this fixed
# seed, the same for every run; the run's seed draws the coefficients and
# signs.  So every seed runs comparable work and prints different results.
CATALOGUE_SEED = 1506
# Every this-many-th query is a homotopy query with two contact factors,
# one of them on a derived field: the slowest kind, kept at a fixed share.
DERIVED_EVERY = 20


@dataclass(frozen=True)
class Query:
    kind: str
    space: str
    texts: tuple[str, ...]
    parities: tuple[int, ...] = ()


class _Draw:
    """Random choices: structure from the catalogue, values from the seed."""

    def __init__(self, seed: int):
        self.shape = random.Random(CATALOGUE_SEED)
        self.value = random.Random(seed)

    def coeff(self) -> tuple[str, str]:
        num = self.value.choice((1, 2, 3))
        den = self.value.choice((1, 2))
        sign = self.value.choice(("+", "-"))
        return sign, (f"{num}/{den}" if den > 1 else str(num))


def _scalar_text(draw: _Draw, pool: list[str], jet: bool) -> str:
    """A sum of one or two terms of distinct pool factors.

    With ``jet`` set every term carries a jet variable, so the scalar is
    never a function of the base coordinates alone.
    """
    rnd = draw.shape
    jets = [g for g in pool if not g.startswith("x[")]
    parts = []
    for i in range(rnd.randint(1, 2)):
        factors = rnd.sample(pool, rnd.randint(0, 2))
        if jet and not any(f in jets for f in factors):
            factors.append(rnd.choice([g for g in jets if g not in factors]))
        sign, c = draw.coeff()
        body = "*".join([c] + factors)
        if i == 0:
            parts.append(("-" if sign == "-" else "") + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def _bracket_density(draw: _Draw, parity: int) -> str:
    rnd = draw.shape
    wanted = rnd.randint(1, 2)
    terms = []
    while len(terms) < wanted:
        picked = rnd.sample(BRACKET_GENS, rnd.randint(1, 3))
        if sum(p for _, p in picked) % 2 != parity:
            continue
        sign, c = draw.coeff()
        body = "*".join([c] + [g for g, _ in picked])
        terms.append(("-" if sign == "-" else "") + body if not terms
                     else f" {sign} {body}")
    return f"({''.join(terms)}) ^ vol"


def _homotopy(draw: _Draw, space: str, derived: bool) -> Query:
    rnd = draw.shape
    spec = SPACES[space]
    dim = spec["dim"]
    s = _scalar_text(draw, spec["scalars"], jet=False)
    dxs = sorted(rnd.sample(range(dim), rnd.randint(1, dim - 1)))
    if derived:
        first = rnd.choice([c for c in spec["contacts"] if "," in c])
        contacts = [first, rnd.choice([c for c in spec["contacts"]
                                       if c != first])]
    else:
        # Two contact factors only on underived fields here; derived pairs
        # have their own slot (DERIVED_EVERY).
        ncontacts = rnd.randint(1, 2)
        pool = spec["contacts"] if ncontacts == 1 else \
            [c for c in spec["contacts"] if "," not in c]
        contacts = rnd.sample(pool, ncontacts)
    factors = [f"({s})"] + [f"dx[{j}]" for j in dxs] + \
        [f"del({c})" for c in contacts]
    return Query("homotopy", space, (" ^ ".join(factors),))


def make_query(draw: _Draw, index: int) -> Query:
    rnd = draw.shape
    if index % DERIVED_EVERY == DERIVED_EVERY - 1:
        return _homotopy(draw, rnd.choice(sorted(SPACES)), derived=True)
    kind = rnd.choices(KINDS, KIND_WEIGHTS)[0]
    if kind == "bracket":
        pa, pb = rnd.randint(0, 1), rnd.randint(0, 1)
        return Query(kind, "spacetime",
                     (_bracket_density(draw, pa), _bracket_density(draw, pb)),
                     (pa, pb))
    space = rnd.choice(sorted(SPACES))
    if kind == "homotopy":
        return _homotopy(draw, space, derived=False)
    spec = SPACES[space]
    s = _scalar_text(draw, spec["scalars"], jet=True)
    return Query(kind, space,
                 (f"d(({s}) ^ ib({rnd.randrange(spec['dim'])}, vol))",))


def make_queries(seed: int, count: int) -> list[Query]:
    draw = _Draw(seed)
    return [make_query(draw, i) for i in range(count)]


class Calculus:
    """The Maxwell spectra and structure the queries run against."""

    def __init__(self, vtc):
        self.vtc = vtc
        m = vtc.parser.parse_model(vtc.builtin_models.model_text("maxwell"))
        self.spectra = {"spacetime": m.spectrum, "leaf": m.foliation.spatial}
        self.structure = m.structure()
        om = self.structure.omega
        self.sigma = (om.parity() + om.hdeg()) % 2

    def run(self, q: Query, falsify: bool = False) -> tuple[bool, str]:
        """Evaluate one query: (identity holds, printed result)."""
        v = self.vtc
        forms, variational = v.forms, v.variational
        sp = self.spectra[q.space]
        parsed = [v.parser.parse_expression(t, sp) for t in q.texts]

        def expected(form):
            # A falsified query compares against a wrong value: the identity
            # plus a nonzero constant, which no side can equal.
            return form + forms.scalar_form(sp.dim, 1) if falsify else form

        if q.kind == "homotopy":
            (w,) = parsed
            h = variational.horizontal_homotopy(w)
            ok = forms.d(h) + variational.horizontal_homotopy(forms.d(w)) \
                == expected(w)
            out = h
        elif q.kind == "divergence":
            (f,) = parsed
            prim = variational.divergence_primitive(f)
            ok = forms.d(prim) == expected(f)
            out = prim
        else:
            a, b = parsed
            pa, pb = q.parities
            ab = v.symplectic.bracket(a, b, self.structure)
            ba = v.symplectic.bracket(b, a, self.structure)
            sign = -1 if ((pa + self.sigma) * (pb + self.sigma)) % 2 == 0 \
                else 1
            ok = variational.equiv_mod_d(ab, expected(ba.scale(sign)))
            out = ab
        return ok, v.model.form_text(out)
