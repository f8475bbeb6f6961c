"""The sparse exact solver against two oracles.

The dense oracle is textbook Gauss-Jordan elimination on the dense
augmented matrix, with the columns in sorted key order.  The reduced
row-echelon form of a system is unique, so the solution with every free
column pinned to 0 is too: ``solve_linear`` must return exactly that dict,
or None exactly when the oracle finds a row 0 = b with b nonzero.

The sparse oracle, ``fraction_solve``, is the elimination ``solve_linear``
ran before it became fraction-free: ``Fraction`` rows scaled to a leading
1, fed in the caller's order and keyed by the column keys themselves
(``solve_linear`` feeds them largest leading column first and works on
column ranks).  It is fast enough to replay every system the calculus
queries and both reports solve.  The seed-0 calculus queries are also
checked against their digest in ``perfbench/pinned.json``, which pins
the printed answers of the engine's homotopy, divergence and bracket
queries.
"""

import hashlib
import heapq
import importlib.util
import json
import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import vtc
from vtc import builtin_models, linsolve, report
# the calculus queries read these as attributes of the vtc package
from vtc import forms, model, parser, symplectic, variational  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def is_exact(v):
    """A solution value in its one form: an int when integral, else a
    Fraction with a denominator greater than 1."""
    return type(v) is int or (type(v) is Fr and v.denominator > 1)


def dense_rref_solve(equations):
    """(solution or None, pivot columns) by dense Gauss-Jordan elimination."""
    cols = sorted({c for coeffs, _ in equations for c, v in coeffs.items() if v})
    matrix = [[Fr(coeffs.get(c, 0)) for c in cols] + [Fr(rhs)]
              for coeffs, rhs in equations]
    pivot_cols = []
    for j in range(len(cols)):
        r = len(pivot_cols)
        p = next((i for i in range(r, len(matrix)) if matrix[i][j]), None)
        if p is None:
            continue
        matrix[r], matrix[p] = matrix[p], matrix[r]
        lead = matrix[r][j]
        matrix[r] = [v / lead for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[j]:
                f = row[j]
                matrix[i] = [a - f * b for a, b in zip(row, matrix[r])]
        pivot_cols.append(j)
    pivots = {cols[j] for j in pivot_cols}
    if any(row[-1] for row in matrix[len(pivot_cols):]):
        return None, pivots
    solution = {c: Fr(0) for c in cols}
    for i, j in enumerate(pivot_cols):
        solution[cols[j]] = matrix[i][-1]
    return solution, pivots


def fraction_solve(equations):
    """The rational elimination ``solve_linear`` replaced, kept as an oracle.

    Rows are reduced in the order given against the stored pivots they
    contain, in increasing column order; each pivot is stored under its
    smallest column, scaled to a leading 1; back substitution runs in
    decreasing pivot-column order with free columns pinned to 0.
    """
    pivots = {}
    columns = set()
    for coeffs, rhs in equations:
        row = {c: v for c, v in coeffs.items() if v}
        columns.update(row)
        pending = [c for c in row if c in pivots]
        heapq.heapify(pending)
        while pending:
            col = heapq.heappop(pending)
            factor = row.pop(col, None)
            if factor is None:
                continue
            prest, prhs = pivots[col]
            for c, v in prest.items():
                old = row.get(c)
                if old is None:
                    row[c] = -factor * v
                    if c in pivots:
                        heapq.heappush(pending, c)
                else:
                    nv = old - factor * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
            rhs = rhs - factor * prhs
        if not row:
            if rhs:
                return None
            continue
        pcol = min(row)
        lead = row.pop(pcol)
        if lead != 1:
            row = {c: Fr(v, lead) for c, v in row.items()}
            rhs = Fr(rhs, lead)
        pivots[pcol] = (row, rhs)
    solution = {col: 0 for col in columns}
    for pcol in sorted(pivots, reverse=True):
        rest, value = pivots[pcol]
        for c, v in rest.items():
            if c in pivots:
                value = value - v * solution[c]
        solution[pcol] = value
    return solution


def _random_row(rnd, keys, density):
    return {k: Fr(rnd.randint(-3, 3), rnd.randint(1, 3))
            for k in keys if rnd.random() < density}


def _combination(rnd, rows):
    """A random rational combination of (coeffs, rhs) rows."""
    coeffs, rhs = {}, Fr(0)
    for row, b in rows:
        f = Fr(rnd.randint(-2, 2), rnd.randint(1, 2))
        for k, v in row.items():
            coeffs[k] = coeffs.get(k, Fr(0)) + f * v
        rhs += f * b
    return coeffs, rhs


def _low_rank_system(rnd, keys):
    """Rows spanning fewer dimensions than there are columns, consistent."""
    rank = rnd.randint(1, max(1, len(keys) - 1))
    truth = {k: Fr(rnd.randint(-4, 4), rnd.randint(1, 3)) for k in keys}
    base = []
    for _ in range(rank):
        row = _random_row(rnd, keys, 0.5)
        base.append((row, sum((v * truth[k] for k, v in row.items()), Fr(0))))
    return [_combination(rnd, base) for _ in range(rnd.randint(1, 2 * rank + 2))]


def _check_against_oracle(equations):
    expected, pivots = dense_rref_solve(equations)
    got = linsolve.solve_linear(equations)
    assert got == expected
    if got is not None:
        for coeffs, rhs in equations:
            assert sum((v * got[k] for k, v in coeffs.items() if v), Fr(0)) == rhs
    return got, pivots


def test_random_sparse_systems_match_the_dense_oracle():
    rnd = random.Random(20240611)
    consistent = inconsistent = 0
    for _ in range(300):
        keys = list(range(rnd.randint(1, 9)))
        equations = [(_random_row(rnd, keys, rnd.choice((0.2, 0.4, 0.8))),
                      Fr(rnd.randint(-3, 3)))
                     for _ in range(rnd.randint(1, 12))]
        got, _ = _check_against_oracle(equations)
        if got is None:
            inconsistent += 1
        else:
            consistent += 1
    assert consistent > 50 and inconsistent > 50
    # square nonsingular systems of 30 to 40 columns (row i holds column i
    # and a few others), so that every row is needed and many rows share a
    # leading column
    for _ in range(4):
        keys = list(range(rnd.randint(30, 40)))
        truth = {k: Fr(rnd.randint(-4, 4), rnd.randint(1, 3)) for k in keys}
        equations = []
        for k in keys:
            row = {**_random_row(rnd, keys, 0.1), k: Fr(rnd.choice((-2, -1, 1, 3)))}
            equations.append((row, sum((v * truth[c] for c, v in row.items()), Fr(0))))
        rnd.shuffle(equations)
        got, pivots = _check_against_oracle(equations)
        assert got == truth and pivots == set(keys)


def test_rank_deficient_systems_pin_free_columns_to_zero():
    rnd = random.Random(7)
    free_seen = 0
    for _ in range(200):
        keys = [f"v{i}" for i in range(rnd.randint(2, 9))]
        equations = _low_rank_system(rnd, keys)
        got, pivots = _check_against_oracle(equations)
        assert got is not None
        free = set(got) - pivots
        assert len(pivots) < len(keys)
        for k in free:
            assert got[k] == 0
        free_seen += len(free)
    assert free_seen > 200


def test_inconsistent_systems_return_none():
    rnd = random.Random(11)
    for _ in range(200):
        keys = list(range(rnd.randint(1, 8)))
        equations = _low_rank_system(rnd, keys)
        coeffs, rhs = _combination(rnd, equations)
        # a row in the span of the others, with a different right-hand side
        equations.insert(rnd.randint(0, len(equations)),
                         (coeffs, rhs + rnd.choice((-1, 1, Fr(1, 2)))))
        assert dense_rref_solve(equations)[0] is None
        assert linsolve.solve_linear(equations) is None


def test_mixed_tagged_tuple_keys_match_the_dense_oracle():
    # the homogenizer's columns: ("c", i) for candidate fields and
    # ("b", monomial key) for d-images of candidate primitives
    keys = ([("b", ((j,), (), ((("x", k), 1),))) for j in range(3) for k in range(2)]
            + [("c", i) for i in range(5)])
    rnd = random.Random(3)
    for _ in range(150):
        chosen = rnd.sample(keys, rnd.randint(1, len(keys)))
        if rnd.random() < 0.5:
            equations = _low_rank_system(rnd, chosen)
        else:
            equations = [(_random_row(rnd, chosen, 0.3), Fr(rnd.randint(-2, 2)))
                         for _ in range(rnd.randint(1, 14))]
        got, pivots = _check_against_oracle(equations)
        if got is not None:
            for k in set(got) - pivots:
                assert got[k] == 0


def test_column_that_cancels_and_reappears():
    equations = [
        ({"x0": Fr(1), "x2": Fr(1)}, Fr(1)),
        ({"x1": Fr(1), "x2": Fr(-1), "x4": Fr(1)}, Fr(2)),
        ({"x2": Fr(1), "x3": Fr(1)}, Fr(3)),
        # reducing by the x0 pivot cancels x2; the x1 pivot brings it back,
        # and it must then be eliminated against the x2 pivot
        ({"x0": Fr(1), "x1": Fr(1), "x2": Fr(1), "x3": Fr(5)}, Fr(10)),
    ]
    got, pivots = _check_against_oracle(equations)
    assert pivots == {"x0", "x1", "x2", "x3"}
    assert got == {"x0": Fr(-1), "x1": Fr(4), "x2": Fr(2), "x3": Fr(1), "x4": Fr(0)}


def test_integer_systems_divide_exactly():
    got = linsolve.solve_linear([({"a": 2}, 1)])
    assert got == {"a": Fr(1, 2)}
    assert type(got["a"]) is Fr
    got = linsolve.solve_linear([({"a": 3, "b": 1}, 2), ({"b": 2}, 4)])
    assert got == {"a": 0, "b": 2}
    # the pivot of a keeps b in its tail, and back substitution past b = 1/2
    # lands on an integer: with the pivot's lead 1 (a = 3 - 2 * 1/2), and
    # with lead 4 (a = (5 - 2 * 1/2) / 4)
    for lead, rhs, a in ((1, 3, 2), (4, 5, 1)):
        got = linsolve.solve_linear([({"a": lead, "b": 2}, rhs),
                                     ({"a": lead, "b": 4}, rhs + 1)])
        assert got == {"a": a, "b": Fr(1, 2)}
        assert type(got["a"]) is int and type(got["b"]) is Fr


def test_row_order_does_not_change_the_solution():
    # the reduced row-echelon form does not depend on the row order, so
    # callers may sort their rows by any key
    rnd = random.Random(5)
    kinds = {"random": 0, "rank-deficient": 0, "inconsistent": 0}
    for _ in range(150):
        keys = list(range(rnd.randint(1, 8)))
        kind = rnd.choice(sorted(kinds))
        if kind == "random":
            equations = [(_random_row(rnd, keys, 0.4), Fr(rnd.randint(-3, 3)))
                         for _ in range(rnd.randint(1, 10))]
        else:
            equations = _low_rank_system(rnd, keys)
            if kind == "inconsistent":
                coeffs, rhs = _combination(rnd, equations)
                equations.append((coeffs, rhs + 1))
        expected = linsolve.solve_linear(equations)
        if kind == "inconsistent":
            assert expected is None
        if kind == "rank-deficient":
            assert expected is not None
        for _ in range(4):
            shuffled = list(equations)
            rnd.shuffle(shuffled)
            assert linsolve.solve_linear(shuffled) == expected
        kinds[kind] += 1
    assert min(kinds.values()) > 30


# -- property test against the dense oracle -----------------------------------

# pairwise coprime, so a row's lcm is the product of its distinct denominators
_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)
_BIG = 10**15
_entries = st.one_of(
    st.integers(-_BIG, _BIG),
    st.integers(-3, 3),
    st.builds(Fr, st.integers(-_BIG, _BIG), st.sampled_from(_DENOMINATORS)),
    st.builds(Fr, st.integers(-3, 3), st.sampled_from(_DENOMINATORS)),
)


@st.composite
def systems(draw):
    """(kind, equations): sparse rows of large integers and Fractions.

    ``random`` rows have any right-hand side.  A ``rank-deficient`` system
    has fewer base rows than columns, right-hand sides that one assignment
    meets, and combinations of the base rows; an ``inconsistent`` one is
    such a system with one combination's right-hand side shifted.
    """
    kind = draw(st.sampled_from(("random", "rank-deficient", "inconsistent")))
    ncols = draw(st.integers(1 if kind == "random" else 2, 7))
    keys = list(range(ncols))
    rows = st.dictionaries(st.sampled_from(keys), _entries, max_size=ncols)
    if kind == "random":
        return kind, draw(st.lists(st.tuples(rows, _entries),
                                   min_size=1, max_size=9))
    truth = {k: draw(_entries) for k in keys}
    base = [(row, sum((v * truth[k] for k, v in row.items()), Fr(0)))
            for row in draw(st.lists(rows, min_size=1, max_size=ncols - 1))]
    equations = list(base)
    for i in range(draw(st.integers(1, 3))):
        coeffs, rhs = {}, Fr(0)
        for row, b in base:
            f = draw(_entries)
            for k, v in row.items():
                coeffs[k] = coeffs.get(k, 0) + f * v
            rhs += f * b
        if i == 0 and kind == "inconsistent":
            rhs += draw(st.sampled_from((Fr(1), Fr(-1, 7), Fr(_BIG, 13))))
        equations.insert(draw(st.integers(0, len(equations))), (coeffs, rhs))
    return kind, equations


@settings(max_examples=300, derandomize=True, deadline=None)
@given(systems())
def test_large_and_fractional_systems_match_the_dense_oracle(system):
    kind, equations = system
    expected, pivots = dense_rref_solve(equations)
    got = linsolve.solve_linear(equations)
    assert got == expected
    if kind != "random":
        assert (got is None) == (kind == "inconsistent")
    if got is None:
        return
    assert all(is_exact(v) for v in got.values())
    assert all(got[k] == 0 for k in set(got) - pivots)
    for coeffs, rhs in equations:
        assert sum((v * got[k] for k, v in coeffs.items() if v), Fr(0)) == rhs


# -- every system the engine solves, against the rational elimination ---------


def _load_calculus():
    """``perfbench/calculus.py``, imported from its file without changing it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_calculus", PERFBENCH / "calculus.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _recording(run):
    """run() with every system ``solve_linear`` receives recorded:
    (run's result, [equations, ...])."""
    systems = []
    solve = linsolve.solve_linear

    def recording(equations):
        equations = [(dict(coeffs), rhs) for coeffs, rhs in equations]
        systems.append(equations)
        return solve(equations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "solve_linear", recording)
        return run(), systems


def _calculus_pass(seed):
    """The 200 calculus queries of ``perfbench/run.py --workload calculus
    --seed seed``: ([(identity holds, printed result)], recorded systems)."""
    calculus = _load_calculus()
    calc = calculus.Calculus(vtc)
    queries = calculus.make_queries(seed, 200)
    return _recording(lambda: [calc.run(q) for q in queries])


@pytest.fixture(scope="module")
def calculus_pass():
    return _calculus_pass(0)


def test_calculus_queries_match_the_pinned_digest(calculus_pass):
    results, _ = calculus_pass
    assert all(ok for ok, _ in results)
    printed = "".join(text + "\n" for _, text in results).encode()
    pinned = json.loads((PERFBENCH / "pinned.json").read_text())
    assert hashlib.sha256(printed).hexdigest() == pinned["calculus"]["0"]


def test_engine_systems_match_the_rational_elimination(calculus_pass):
    systems = calculus_pass[1] + _calculus_pass(1)[1]
    for name in builtin_models.BUILTINS:
        m = builtin_models.builtin(name)
        systems += _recording(lambda: report.run_pipeline(m))[1]
    distinct = {}
    for equations in systems:
        key = tuple((frozenset(coeffs.items()), rhs) for coeffs, rhs in equations)
        distinct.setdefault(key, equations)
    assert len(distinct) > 300
    for equations in distinct.values():
        got = linsolve.solve_linear(equations)
        assert got == fraction_solve(equations)
        # the rows reach the elimination in another order, and rows with
        # the same leading column meet in the opposite order
        back = linsolve.solve_linear(equations[::-1])
        assert back == got
        if got is not None:
            assert all(is_exact(v) for v in [*got.values(), *back.values()])
