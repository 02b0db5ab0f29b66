"""Exact linear algebra over the rationals on one sparse elimination kernel.

Matrices come in and go out as dense lists of rows, but inside the kernel a
row is a dict from column to nonzero Fraction.  Rows enter one at a time and
each is reduced at its lowest column against the pivots found so far, so the
work follows the nonzeros, not the shape: GKM degree systems have hundreds
of rows with two or three nonzeros each.  An optional back-substitution
gives the reduced row echelon form, which is unique, so nullspace bases and
solutions do not depend on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from .algebra import ONE, ZERO, Vec, as_vec, vsub

# column -> nonzero entry, the leading 1 of a pivot row left implicit
Row = dict[int, Fraction]


def _cancel(row: Row, c: int, tail: Row) -> None:
    """Clear column c of row with the pivot row whose leading 1 sits at c."""
    f = row.pop(c)
    for j, x in tail.items():
        y = row.get(j, ZERO) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _eliminate(rows, reduced: bool = False) -> tuple[dict[int, Row], list[Fraction]]:
    """Echelon form of the dense ``rows``.

    Returns the pivots, mapping each pivot column to the rest of its row
    scaled to a leading 1, in the order the rows came in, and the leading
    entries before scaling, in the same order.  Rows that reduce to zero
    leave no pivot.  With ``reduced`` every pivot row is then cleared at the
    other pivot columns, which gives the reduced row echelon form.
    """
    pivots: dict[int, Row] = {}
    leads: list[Fraction] = []
    for dense in rows:
        row = {j: Fraction(x) for j, x in enumerate(dense) if x}
        while row:
            c = min(row)
            tail = pivots.get(c)
            if tail is None:
                lead = row.pop(c)
                pivots[c] = {j: x / lead for j, x in row.items()}
                leads.append(lead)
                break
            _cancel(row, c, tail)
    if reduced:
        # later pivots are already clear of every other pivot column, so
        # cancelling them never brings a pivot column back
        for c in sorted(pivots, reverse=True):
            tail = pivots[c]
            for p in [p for p in tail if p in pivots]:
                _cancel(tail, p, pivots[p])
    return pivots, leads


def _det(pivots: dict[int, Row], leads: list[Fraction], n: int) -> Fraction:
    """Determinant of an n-row square matrix from its forward elimination.

    Elimination only adds multiples of earlier rows, and the rows sorted
    by pivot column are upper triangular, so the determinant is the sign
    of that sort times the product of the leading entries.
    """
    if len(pivots) < n:
        return ZERO
    inversions = sum(a > b for a, b in combinations(pivots, 2))
    return (-1) ** inversions * prod(leads, start=ONE)


def rank(rows) -> int:
    return len(_eliminate(rows)[0])


def nullspace(rows, ncols: int | None = None) -> list[Vec]:
    """Basis of the right kernel; ``ncols`` is required when rows is empty.

    One vector per free column f of the reduced row echelon form: 1 at f,
    minus column f of each pivot row at that row's pivot column.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty system")
    pivots, _ = _eliminate(rows, reduced=True)
    basis: list[Vec] = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for c, tail in pivots.items():
            v[c] = -tail.get(f, ZERO)
        basis.append(tuple(v))
    return basis


def solve_square(a_rows, b) -> Vec | None:
    """Solve the square system a x = b exactly; None when a is singular."""
    n = len(a_rows)
    pivots, _ = _eliminate([list(row) + [bi] for row, bi in zip(a_rows, b)],
                           reduced=True)
    if len(pivots) < n or n in pivots:
        return None
    return tuple(pivots[c].get(n, ZERO) for c in range(n))


def det(a_rows) -> Fraction:
    return _det(*_eliminate(a_rows), len(a_rows))


def adjugate_int(a_rows) -> tuple[list[list[int]], int] | None:
    """Adjugate and determinant of an integer matrix, both exact integers;
    None when the matrix is singular.

    adj(A) @ A == det(A) * I, so signs of A^-1 y can be read off integer
    products adj(A) @ y against the sign of det(A).  Both come from one
    reduced elimination of [A | I]: while A is invertible the identity
    block never decides a pivot, so the leading entries are those of A.
    """
    n = len(a_rows)
    pivots, leads = _eliminate([list(row) + [int(i == j) for j in range(n)]
                                for i, row in enumerate(a_rows)], reduced=True)
    if any(c >= n for c in pivots):
        return None
    d = _det(pivots, leads, n)
    adj = [[d * pivots[c].get(n + j, ZERO) for j in range(n)] for c in range(n)]
    assert all(x.denominator == 1 for row in adj for x in row)
    return [[int(x) for x in row] for row in adj], int(d)


def affine_rank(points) -> int:
    """Dimension of the affine hull; -1 for no points, 0 for a single point."""
    pts = [as_vec(p) for p in points]
    if not pts:
        return -1
    if len(pts) == 1:
        return 0
    base = pts[0]
    return rank([list(vsub(p, base)) for p in pts[1:]])
