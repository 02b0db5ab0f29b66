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
Comp. 1968): every entry met is a minor of the input, so no Fraction and
no gcd is made inside the loop.  Callers clear denominators where the rows
are made; on Fraction rows the loop's ``//`` would floor silently.  It is
one list comprehension per row update and plain loops elsewhere, since
``from_halfspaces`` calls ``solve_square`` once per constraint subset.
On 3x3 systems alone ``solve_square`` skips the loop for the closed-form
Cramer rule, a cofactor expansion along the first row.  A 3-D build makes
one solve per row triple, 9,880 for 40 half-spaces, and there the closed
form takes about an eighth of the loop's time.  A 2-D build makes a few
dozen solves and a cube:6 build 924, too few to pay for another formula,
so every other size, and ``det`` and ``adjugate_int`` at every size, stay
on Bareiss.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import ONE, ZERO, Vec

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


def _bareiss(m: list[list[int]], n: int) -> tuple[list[list[int]], int] | None:
    """adj(A) @ B and det(A) for the n integer rows [A | B] in the list
    ``m``, which it reorders and refills without writing into any row; None
    when A is singular.

    Bareiss's fraction-free elimination: at step i every later row becomes
    (p * row - f * pivot row) / q, p the pivot, f the row's entry under it
    and q the previous pivot.  The division is exact, each entry being a
    minor of [A | B], and the last pivot is det(A) up to the sign of the row
    swaps.  Back-substitution then gives the integer X = det(A) A^-1 B, one
    column at a time: U[i][i] x_i = det(A) y_i - sum over j > i of
    U[i][j] x_j, again exact.
    """
    sign, q = 1, 1
    for i in range(n):
        pivot = m[i]
        if not pivot[i]:
            for r in range(i + 1, n):
                if m[r][i]:
                    break
            else:
                return None
            m[i], m[r] = m[r], pivot
            pivot = m[i]
            sign = -sign
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
    x = [0] * n
    for c in range(n, len(m[0]) if m else 0):
        for i in range(n - 1, -1, -1):
            row = m[i]
            s = d * row[c]
            for j in range(i + 1, n):
                s -= row[j] * x[j]
            X[i][c - n] = x[i] = s // row[i]
    return X, d


def solve_square(a_rows, b) -> tuple[tuple[int, ...], int] | None:
    """Solve the square system a x = b exactly; None when a is singular.

    a and b hold ints.  Returns the integer Cramer form (X, D): x = X / D
    with D > 0 and gcd(X, D) = 1, so equal solutions give equal pairs.
    A 3x3 system takes the closed form X = adj(a) b, D = det(a), with the
    same pair as ``_bareiss``, its twin; every other size goes through
    ``_bareiss`` (see the module docstring for why only n = 3 forks).
    """
    if len(a_rows) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a_rows
        r0, r1, r2 = b
        # the 2x2 minors of rows 2 and 3, m = (b x c), expand D along row 1;
        # adj(a) b = r0 (b x c) + r1 (c x a) + r2 (a x b) = r0 m + a x w
        # with w = r2 b - r1 c
        m0 = b1 * c2 - b2 * c1
        m1 = b2 * c0 - b0 * c2
        m2 = b0 * c1 - b1 * c0
        D = a0 * m0 + a1 * m1 + a2 * m2
        if not D:
            return None
        w0 = r2 * b0 - r1 * c0
        w1 = r2 * b1 - r1 * c1
        w2 = r2 * b2 - r1 * c2
        X0 = r0 * m0 + a1 * w2 - a2 * w1
        X1 = r0 * m1 + a2 * w0 - a0 * w2
        X2 = r0 * m2 + a0 * w1 - a1 * w0
        g = gcd(X0, X1, X2, D) if D > 0 else -gcd(X0, X1, X2, D)
        return (X0 // g, X1 // g, X2 // g), D // g
    found = _bareiss([[*row, bi] for row, bi in zip(a_rows, b)], len(a_rows))
    if found is None:
        return None
    X, D = [row[0] for row in found[0]], found[1]
    g = gcd(*X, D) if D > 0 else -gcd(*X, D)
    return tuple(x // g for x in X), D // g


def det(a_rows) -> int:
    """Determinant of a square matrix of integer rows; 0 when singular."""
    found = _bareiss(list(a_rows), len(a_rows))
    return 0 if found is None else found[1]


def adjugate_int(a_rows) -> tuple[list[list[int]], int] | None:
    """Adjugate and determinant of a square matrix of integer rows, both
    exact integers; None when the matrix is singular.

    adj(A) @ A == det(A) * I, so signs of A^-1 y can be read off integer
    products adj(A) @ y against the sign of det(A).  Both come from one
    fraction-free solve against the identity.
    """
    n = len(a_rows)
    return _bareiss([[*row, *(int(i == j) for j in range(n))]
                     for i, row in enumerate(a_rows)], n)

