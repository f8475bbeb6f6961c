"""Exact sparse linear solving over the rationals.

Deterministic elimination used by the divergence-inversion, homotopy and
homogenizer machinery.  Rows and columns are keyed by hashables that sort
against each other; coefficients and right-hand sides are ints or
Fractions.  The elimination is fraction-free, after Bareiss (Math. Comp.
22 (1968) 565): every row is held in Python ints.

There is one elimination core, ``eliminate``, and it runs on the int ranks
of the columns in sorted key order: the heap, each row's leading column,
the pivot dict and back substitution.  The keys are nested tuples, and a
tuple does not cache its hash, so a dict probe or comparison on a key
costs several times one on an int.  ``solve_linear`` is its keyed front
end: it sorts the distinct column keys once and ranks every row.
``variational.solve_mod_d`` builds its ranked rows itself, straight from
the saturation's numbered rows, and calls the core directly.  The core
runs in three passes:

* set-up: each row with a Fraction in it is scaled to integers by the lcm
  of its denominators, right-hand side included; a row of ints is taken as
  it is.  The rows are then fed in decreasing order of their leading rank,
  by a stable sort, so ties keep the caller's order.  A pivot's tail lies
  only in columns above its lead, so taking the largest leads first keeps
  the tails short and cuts both reduction steps and fill;
* forward elimination: each row is reduced only against the stored pivots
  whose columns it contains, in increasing column order, as
  ``(lead/g)*row - (factor/g)*pivot`` with ``g = gcd(lead, factor)``.  It
  is then stored under its smallest remaining column, divided by its
  content (the gcd of its entries and right-hand side) and with a positive
  lead.  Stored pivot rows are never updated afterwards, so a sparse
  system stays sparse;
* back substitution in decreasing pivot-column order, with one division
  per pivot, by its lead; the solution is mapped back to the keys, in key
  order.

Each reduction step multiplies the row by a nonzero integer, so the row is
a multiple of the one that rational elimination with leading-1 pivots
would give, with the same columns.  A row's leading column after reduction
depends only on the span of the rows before it, so whatever the row order,
the pivot columns are those of the system's reduced row-echelon form.
Free (non-pivot) columns are pinned to zero, which makes the solution that
unique reduced row-echelon one.  So neither the ranks (rank order is key
order) nor the row order changes the answer: a system gives the same
values in any row order, each an ``int`` when it is integral and a
``Fraction`` only when it has a denominator (``kernel.exact``).  That is
why ``variational.solve_mod_d`` feeds its rows in the numbers that
``variational.saturate_d`` gives them as it first meets them, the
caller's rows first, instead of sorting them: the columns, their ranks and
the row set fix the answer, and the numbering fixes only the row order.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Hashable, Iterable, Optional

from .kernel import exact

Row = dict[Hashable, int | Fraction]


def solve_linear(equations: Iterable[tuple[Row, int | Fraction]],
                 ) -> Optional[dict[Hashable, int | Fraction]]:
    """Solve a sparse rational linear system.

    ``equations`` is an iterable of (coefficients, rhs) pairs.  Returns an
    assignment for every column that appears (free columns get 0), in
    sorted key order, or None when the system is inconsistent.  Every value
    is an int when it is integral, else a Fraction.
    """
    equations = list(equations)
    keys = sorted({c for coeffs, _ in equations for c, v in coeffs.items() if v})
    rank = {c: i for i, c in enumerate(keys)}
    return eliminate(keys, [({rank[c]: v for c, v in coeffs.items() if v}, rhs)
                            for coeffs, rhs in equations])


def eliminate(keys: list[Hashable],
              rows: Iterable[tuple[dict[int, int | Fraction], int | Fraction]],
              ) -> Optional[dict[Hashable, int | Fraction]]:
    """The elimination core: ``solve_linear`` on ranked columns.

    ``keys`` are the sorted column keys, and each row is ({rank: nonzero
    coefficient}, rhs), a rank being a column's index in ``keys``.  The
    core takes the row dicts over and reduces them in place.  Returns
    {key: value} for every key, in key order, or None when the system is
    inconsistent.
    """
    # each row scaled to ints; a row of ints is taken as it is
    fed = []
    for row, rhs in rows:
        if type(rhs) is Fraction or Fraction in map(type, row.values()):
            den = lcm(rhs.denominator, *[v.denominator for v in row.values()])
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
            rhs = rhs.numerator * (den // rhs.denominator)
        if row:
            fed.append((min(row), row, rhs))
        elif rhs:
            return None
    # largest leading column first; the sort is stable, so ties keep the
    # caller's order
    fed.sort(key=itemgetter(0), reverse=True)
    # pivot column -> (lead, the rest of its row, all in larger columns;
    # rhs), in ints with content 1 and lead > 0
    pivots: dict[int, tuple[int, dict[int, int], int]] = {}
    for _, row, rhs in fed:
        pending = [c for c in row if c in pivots]
        heapq.heapify(pending)
        while pending:
            col = heapq.heappop(pending)
            # a column can cancel, or be queued twice after cancelling and
            # reappearing; only larger columns enter, so none returns later
            factor = row.pop(col, None)
            if factor is None:
                continue
            lead, prest, prhs = pivots[col]
            g = gcd(lead, factor)
            factor //= g
            scale = lead // g
            if scale != 1:
                row = {c: scale * v for c, v in row.items()}
                rhs *= scale
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
            rhs -= factor * prhs
        if not row:
            if rhs:
                return None
            continue
        pcol = min(row)
        lead = row.pop(pcol)
        content = gcd(lead, rhs, *row.values())
        if lead < 0:
            content = -content
        if content != 1:
            row = {c: v // content for c, v in row.items()}
            lead //= content
            rhs //= content
        pivots[pcol] = (lead, row, rhs)
    values: list[int | Fraction] = [0] * len(keys)
    for pcol in sorted(pivots, reverse=True):
        lead, rest, value = pivots[pcol]
        for c, v in rest.items():
            # a free column holds int 0, which changes neither value nor type
            value -= v * values[c]
        values[pcol] = exact(value if lead == 1 else Fraction(value, lead))
    return dict(zip(keys, values))
