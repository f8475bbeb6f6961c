"""Exact sparse linear solving over the rationals.

Deterministic elimination used by the divergence-inversion, homotopy and
homogenizer machinery.  Rows and columns are keyed by arbitrary sortable
hashables.  The solve runs in two passes:

* forward elimination: each incoming row is reduced only against the stored
  pivots whose columns it contains, in increasing column order, and is then
  stored, scaled to a leading 1, under its smallest remaining column.  Stored
  pivot rows are never updated afterwards, so a sparse system stays sparse;
* back substitution in decreasing pivot-column order.

A row's leading column after reduction depends only on the span of the rows
before it, so the pivot columns are those of the system's reduced
row-echelon form.  Free (non-pivot) columns are pinned to zero, which makes
the solution that unique reduced row-echelon one: identical systems always
produce identical solutions.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Hashable, Iterable, Optional

Row = dict[Hashable, Fraction]


def solve_linear(equations: Iterable[tuple[Row, Fraction]]) -> Optional[dict[Hashable, Fraction]]:
    """Solve a sparse rational linear system.

    ``equations`` is an iterable of (coefficients, rhs) pairs.  Returns an
    assignment for every column that appears (free columns get 0), or None
    when the system is inconsistent.
    """
    # pivot column -> (the rest of its row, all in larger columns; rhs),
    # scaled so that the pivot coefficient is 1
    pivots: dict[Hashable, tuple[Row, Fraction]] = {}
    columns: set = set()
    for coeffs, rhs in equations:
        row = {c: v for c, v in coeffs.items() if v}
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
            row = {c: Fraction(v, lead) for c, v in row.items()}
            rhs = Fraction(rhs, lead)
        pivots[pcol] = (row, rhs)
    solution = {col: 0 for col in columns}
    for pcol in sorted(pivots, reverse=True):
        rest, value = pivots[pcol]
        for c, v in rest.items():
            if c in pivots:
                value = value - v * solution[c]
        solution[pcol] = value
    return solution
