"""Exact linear algebra on integer rows, by two fraction-free kernels.

``rank`` and ``nullspace`` share one sparse kernel.  A dense integer row
becomes a dict from column to nonzero int, and rows enter one at a time.
Each is reduced at its lowest column by cross-multiplying it with the pivot
row there, after dividing both leading entries by their gcd, and is then
divided by its content.  The work follows the nonzeros, not the shape: GKM
degree systems have hundreds of rows with two or three nonzeros each.
``nullspace`` back-substitutes in integers with one running scale and makes
a Fraction only for each entry it returns.  Its basis is the reduced one,
1 at each free column, which is unique, so it does not depend on the order
of elimination.

Square systems (``solve_square``, ``det``, ``adjugate_int``) share one
fraction-free Bareiss elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968):
every entry met is a minor of the input, so no gcd is made inside the loop.
It is one list comprehension per row update and plain loops elsewhere,
since ``from_halfspaces`` calls ``solve_square`` once per constraint subset.
On 3x3 systems alone ``solve_square`` skips the loop for the closed-form
Cramer rule, a cofactor expansion along the first row.  A 3-D build makes
one solve per row triple, 9,880 for 40 half-spaces, and there the closed
form takes about an eighth of the loop's time.  A 2-D build makes a few
dozen solves and a cube:6 build 924, too few to pay for another formula,
so every other size, and ``det`` and ``adjugate_int`` at every size, stay
on Bareiss.

Callers clear denominators where the rows are made: on Fraction rows the
sparse kernel's gcd raises TypeError, and Bareiss's ``//`` floors silently.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd

from .algebra import ZERO, Vec


def _eliminate(rows) -> dict[int, dict[int, int]]:
    """The pivots of the dense integer ``rows``, in the order the rows came
    in: each pivot column maps to its row, primitive and positive there, as
    a dict from column to nonzero entry.  Rows that reduce to zero leave no
    pivot."""
    pivots: dict[int, dict[int, int]] = {}
    for dense in rows:
        row = dict(compress(enumerate(dense), dense))
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
                pivots[c] = {j: x // g for j, x in row.items()}
                break
            g = gcd(pivot[c], row[c])
            p, f = pivot[c] // g, row[c] // g
            if p != 1:
                row = {j: p * x for j, x in row.items()}
            for j, y in pivot.items():  # cancels row[c]
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
    return pivots


def rank(rows) -> int:
    return len(_eliminate(rows))


def nullspace(rows, ncols: int | None = None) -> list[Vec]:
    """Basis of the right kernel; ``ncols`` is required when rows is empty.

    One vector v = x / d per free column f: x_f = d, other free entries 0,
    pivots below f solved from the last up (those above f are 0).  A pivot
    row with entry p at c and sum s over the columns solved so far gives
    x_c = -s / g and scales x and d by p / g, g = gcd(s, p)."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty system")
    pivots = _eliminate(rows)
    order = sorted(pivots)
    basis: list[Vec] = []
    for f in range(ncols):
        if f in pivots:
            continue
        x, d = {f: 1}, 1
        for c in reversed(order[:bisect_left(order, f)]):
            row = pivots[c]
            s = sum(y * x[j] for j, y in row.items() if j in x)
            if s:
                g = gcd(s, row[c])
                if row[c] != g:
                    d *= row[c] // g
                    x = {j: row[c] // g * y for j, y in x.items()}
                x[c] = -s // g
        basis.append(tuple(Fraction(x[j], d) if j in x else ZERO
                           for j in range(ncols)))
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

