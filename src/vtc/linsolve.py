"""Exact sparse linear solving over the rationals.

Deterministic elimination used by the divergence-inversion, homotopy and
homogenizer machinery.  Rows and columns are keyed by arbitrary sortable
hashables; coefficients and right-hand sides are ints or Fractions.  The
elimination is fraction-free, after Bareiss (Math. Comp. 22 (1968) 565):
every row is held in Python ints.  The solve runs in two passes:

* forward elimination: each incoming equation is scaled to integers by the
  lcm of its denominators, right-hand side included.  It is reduced only
  against the stored pivots whose columns it contains, in increasing column
  order, as ``(lead/g)*row - (factor/g)*pivot`` with ``g = gcd(lead,
  factor)``.  It is then stored under its smallest remaining column,
  divided by its content (the gcd of its entries and right-hand side) and
  with a positive lead.  Stored pivot rows are never updated afterwards, so
  a sparse system stays sparse;
* back substitution in decreasing pivot-column order, with one division
  per pivot, by its lead.

Each reduction step multiplies the row by a nonzero integer, so the row is
a multiple of the one that rational elimination with leading-1 pivots
would give, with the same columns.  A row's leading column after reduction
depends only on the span of the rows before it, so the pivot columns are
those of the system's reduced row-echelon form.  Free (non-pivot) columns
are pinned to zero, which makes the solution that unique reduced
row-echelon one: identical systems always produce identical solutions.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Optional

Row = dict[Hashable, int | Fraction]


def solve_linear(equations: Iterable[tuple[Row, int | Fraction]],
                 ) -> Optional[dict[Hashable, int | Fraction]]:
    """Solve a sparse rational linear system.

    ``equations`` is an iterable of (coefficients, rhs) pairs.  Returns an
    assignment for every column that appears (free columns get 0), or None
    when the system is inconsistent.  Every value is an int or a Fraction.
    """
    # pivot column -> (lead, the rest of its row, all in larger columns;
    # rhs), in ints with content 1 and lead > 0
    pivots: dict[Hashable, tuple[int, dict[Hashable, int], int]] = {}
    columns: set = set()
    for coeffs, rhs in equations:
        den = lcm(rhs.denominator, *[v.denominator for v in coeffs.values()])
        row = {c: v.numerator * (den // v.denominator)
               for c, v in coeffs.items() if v}
        rhs = rhs.numerator * (den // rhs.denominator)
        columns.update(row)
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
    solution: dict[Hashable, int | Fraction] = {col: 0 for col in columns}
    for pcol in sorted(pivots, reverse=True):
        lead, rest, value = pivots[pcol]
        for c, v in rest.items():
            if c in pivots:
                value = value - v * solution[c]
        solution[pcol] = value if lead == 1 else Fraction(value, lead)
    return solution
