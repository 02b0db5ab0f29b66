"""Exact linear algebra over the rationals on two elimination kernels.

``rank`` and ``nullspace`` share one sparse kernel.  Matrices come in and go
out as dense lists of rows, but inside it a row is a dict from column to
nonzero Fraction.  Rows enter one at a time and each is reduced at its
lowest column against the pivots found so far, so the work follows the
nonzeros, not the shape: GKM degree systems have hundreds of rows with two
or three nonzeros each.  An optional back-substitution gives the reduced
row echelon form, which is unique, so nullspace bases do not depend on the
order of elimination.

Square systems (``solve_square``, ``det``, ``adjugate_int``) share one
fraction-free Bareiss elimination on integer rows (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968): every intermediate entry is a minor of the input, so no
Fraction and no gcd is made inside the loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _eliminate(rows, reduced: bool = False) -> dict[int, Row]:
    """Echelon form of the dense ``rows``.

    Returns the pivots, mapping each pivot column to the rest of its row
    scaled to a leading 1, in the order the rows came in.  Rows that reduce
    to zero leave no pivot.  With ``reduced`` every pivot row is then
    cleared at the other pivot columns, which gives the reduced row echelon
    form.
    """
    pivots: dict[int, Row] = {}
    for dense in rows:
        row = {j: Fraction(x) for j, x in enumerate(dense) if x}
        while row:
            c = min(row)
            tail = pivots.get(c)
            if tail is None:
                lead = row.pop(c)
                pivots[c] = {j: x / lead for j, x in row.items()}
                break
            _cancel(row, c, tail)
    if reduced:
        # later pivots are already clear of every other pivot column, so
        # cancelling them never brings a pivot column back
        for c in sorted(pivots, reverse=True):
            tail = pivots[c]
            for p in [p for p in tail if p in pivots]:
                _cancel(tail, p, pivots[p])
    return pivots


def rank(rows) -> int:
    return len(_eliminate(rows))


def nullspace(rows, ncols: int | None = None) -> list[Vec]:
    """Basis of the right kernel; ``ncols`` is required when rows is empty.

    One vector per free column f of the reduced row echelon form: 1 at f,
    minus column f of each pivot row at that row's pivot column.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty system")
    pivots = _eliminate(rows, reduced=True)
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


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, as ints, in a new list,
    and the product of those multipliers."""
    # the subset loop of from_halfspaces passes ints: skip the scaling
    if all(type(x) is int for row in rows for x in row):
        return list(rows), 1
    out, scale = [], 1
    for row in rows:
        s = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return out, scale


def _bareiss(m: list[list[int]], n: int) -> tuple[list[list[int]], int] | None:
    """adj(A) @ B and det(A) for the n integer rows [A | B] in the list
    ``m``, which it reorders and refills without writing into any row; None
    when A is singular.

    Bareiss's fraction-free elimination: at step i every later row becomes
    (p * row - f * pivot row) / q, p the pivot, f the row's entry under it
    and q the previous pivot.  The division is exact, each entry being a
    minor of [A | B], and the last pivot is det(A) up to the sign of the row
    swaps.  Back-substitution then gives the integer X = det(A) A^-1 B:
    U[i][i] X_i = det(A) y_i - sum over j > i of U[i][j] X_j, again exact.
    """
    sign, q = 1, 1
    for i in range(n):
        if not m[i][i]:
            r = next((r for r in range(i + 1, n) if m[r][i]), None)
            if r is None:
                return None
            m[i], m[r] = m[r], m[i]
            sign = -sign
        pivot = m[i]
        p = pivot[i]
        for r in range(i + 1, n):
            row = m[r]
            f = row[i]
            if f:
                m[r] = [(p * x - f * y) // q for x, y in zip(row, pivot)]
            elif p != q:  # with f = 0 the row is only rescaled by p / q
                m[r] = [p * x // q for x in row]
        q = p
    d = sign * q
    X = [[0] * (len(row) - n) for row in m]
    for i in reversed(range(n)):
        row = m[i]
        for c in range(len(X[i])):
            s = d * row[n + c] - sum(row[j] * X[j][c] for j in range(i + 1, n))
            X[i][c] = s // row[i]
    return X, d


def solve_square(a_rows, b) -> tuple[tuple[int, ...], int] | None:
    """Solve the square system a x = b exactly; None when a is singular.

    Returns the integer Cramer form (X, D): x = X / D with D > 0 and
    gcd(X, D) = 1, so equal solutions give equal pairs.  A row holding
    fractions is first scaled to integers by the lcm of its denominators.
    """
    m, _ = _integer_rows([[*row, bi] for row, bi in zip(a_rows, b)])
    found = _bareiss(m, len(m))
    if found is None:
        return None
    X, D = [row[0] for row in found[0]], found[1]
    g = gcd(*X, D)
    if D < 0:
        g = -g
    return tuple(x // g for x in X), D // g


def det(a_rows) -> Fraction:
    m, scale = _integer_rows(a_rows)
    found = _bareiss(m, len(m))
    return ZERO if found is None else Fraction(found[1], scale)


def adjugate_int(a_rows) -> tuple[list[list[int]], int] | None:
    """Adjugate and determinant of an integer matrix, both exact integers;
    None when the matrix is singular.

    adj(A) @ A == det(A) * I, so signs of A^-1 y can be read off integer
    products adj(A) @ y against the sign of det(A).  Both come from one
    fraction-free solve against the identity.
    """
    m, scale = _integer_rows(a_rows)
    if scale != 1:
        raise ValueError("adjugate_int needs an integer matrix")
    n = len(m)
    return _bareiss([[*row, *(int(i == j) for j in range(n))]
                     for i, row in enumerate(m)], n)


def affine_rank(points) -> int:
    """Dimension of the affine hull; -1 for no points, 0 for a single point."""
    pts = [as_vec(p) for p in points]
    if not pts:
        return -1
    if len(pts) == 1:
        return 0
    base = pts[0]
    return rank([list(vsub(p, base)) for p in pts[1:]])
