"""Exact Gaussian elimination helpers, against a dense elimination oracle."""

import random
from fractions import Fraction as F
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import gkm, linalg, polytopes


# ---------------------------------------------------------------------------
# dense oracle: fraction Gauss-Jordan with largest-pivot selection


def _rref(m):
    """Reduce m in place to reduced row echelon form; return pivot columns."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = -1
        best_abs = F(0)
        for i in range(r, nrows):
            a = abs(m[i][c])
            if a > best_abs:
                best, best_abs = i, a
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def dense(rows):
    return [[F(x) for x in row] for row in rows]


def oracle_rank(rows):
    return len(_rref(dense(rows))) if rows else 0


def oracle_nullspace(rows, ncols):
    m = dense(rows)
    pivots = _rref(m)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fcol] = F(1)
        for row, pcol in zip(m, pivots):
            v[pcol] = -row[fcol]
        basis.append(tuple(v))
    return basis


def oracle_solve(a, b):
    n = len(a)
    m = [list(row) + [bi] for row, bi in zip(dense(a), b)]
    if _rref(m) != list(range(n)):
        return None
    return tuple(F(row[n]) for row in m)


def oracle_inverse(a):
    n = len(a)
    m = dense([list(row) + [int(i == j) for j in range(n)]
               for i, row in enumerate(a)])
    if _rref(m) != list(range(n)):
        return None
    return [row[n:] for row in m]


def oracle_det(a):
    """Leibniz expansion: a sum over permutations, no elimination at all."""
    n = len(a)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = F((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


# ---------------------------------------------------------------------------
# random rational matrices: tall, wide, rank-deficient, zero rows, empty

entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def matrices(draw, square=False, max_size=6):
    nrows = draw(st.integers(0, max_size))
    ncols = nrows if square else draw(st.integers(0, max_size))
    if draw(st.booleans()):
        # a product through a thin middle: rank at most k
        k = draw(st.integers(0, max(nrows, ncols)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        rows = [[sum((l[t] * right[t][j] for t in range(k)), F(0))
                 for j in range(ncols)] for l in left]
    else:
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    for i in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            rows[i] = [F(0)] * ncols
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_dense_oracle(case):
    rows, ncols = case
    assert linalg.rank(rows) == oracle_rank(rows)
    assert linalg.nullspace(rows, ncols=ncols) == oracle_nullspace(rows, ncols)


def _solution(found):
    """The Fraction vector X/D of a Cramer form (X, D), checked to be
    reduced: D > 0 and gcd(X, D) = 1."""
    if found is None:
        return None
    X, D = found
    assert all(type(x) is int for x in (*X, D))
    assert D > 0 and gcd(*X, D) == 1
    return tuple(F(x, D) for x in X)


@settings(max_examples=300, deadline=None)
@given(matrices(square=True, max_size=5), st.lists(entries, min_size=5, max_size=5))
def test_square_kernels_match_dense_oracle(case, b):
    a, n = case
    b = b[:n]
    assert linalg.det(a) == oracle_det(a)
    assert _solution(linalg.solve_square(a, b)) == oracle_solve(a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_adjugate_int_matches_dense_oracle(a):
    d = oracle_det(a)
    if d == 0:
        assert linalg.adjugate_int(a) is None
        return
    adj, det = linalg.adjugate_int(a)
    assert det == d
    assert adj == [[x * d for x in row] for row in oracle_inverse(a)]


def test_degree_systems_of_the_catalog_match_dense_oracle():
    for spec in polytopes.catalog_specs():
        G = gkm.moment_graph(polytopes.from_spec(spec))
        for k in range(4):
            rows, ncols = gkm._degree_system(G, k)
            assert linalg.rank(rows) == oracle_rank(rows), (spec, k)
            assert (linalg.nullspace(rows, ncols=ncols)
                    == oracle_nullspace(rows, ncols)), (spec, k)


# ---------------------------------------------------------------------------
# examples


def test_solve_square():
    x = linalg.solve_square([[2, 1], [1, -1]], [F(3), F(0)])
    assert x == ((1, 1), 1)
    assert _solution(x) == (F(1), F(1))
    # rows with fractions are scaled to integers: x = (1/7, 4/7)
    x = linalg.solve_square([[F(1, 2), 1], [-2, F(3, 4)]], [F(9, 14), F(1, 7)])
    assert x == ((1, 4), 7)
    assert linalg.solve_square([[0, 3], [-6, 0]], [2, 4]) == ((-2, 2), 3)
    assert linalg.solve_square([[1, 2], [2, 4]], [1, 2]) is None
    assert linalg.solve_square([], []) == ((), 1)


def test_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(rows) == 2
    basis = linalg.nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(F(a) * b for a, b in zip(row, v)) == 0
    assert len(linalg.nullspace([], ncols=3)) == 3


def test_det_and_inverse():
    a = [[1, 2], [3, 4]]
    assert linalg.det(a) == -2


def test_adjugate_int_refuses_fractions():
    with pytest.raises(ValueError, match="integer matrix"):
        linalg.adjugate_int([[F(1, 2), 0], [0, 1]])
    assert linalg.adjugate_int([[F(2), 0], [0, 1]]) == ([[1, 0], [0, 2]], 2)


def test_adjugate_int_identity():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if linalg.det(a) == 0:
            continue
        adj, d = linalg.adjugate_int(a)
        prod = [
            [sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        expected = [[d if i == j else 0 for j in range(n)] for i in range(n)]
        assert prod == expected


def test_affine_rank():
    assert linalg.affine_rank([]) == -1
    assert linalg.affine_rank([(F(1), F(2))]) == 0
    assert linalg.affine_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1
    assert linalg.affine_rank([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]) == 2
