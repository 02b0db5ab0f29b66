"""Exact Gaussian elimination helpers, against a dense elimination oracle."""

import random
from fractions import Fraction as F
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import cli, gkm, linalg, polytopes
from momentkit.algebra import clear_denominators
from test_polytopes import TWIN_CASES, random_cut_boxes


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
# the sparse Fraction kernel that the integer one replaced, kept as its twin


def _cancel(row, c, tail):
    """Clear column c of row with the pivot row whose leading 1 sits at c."""
    f = row.pop(c)
    for j, x in tail.items():
        y = row.get(j, F(0)) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _fraction_eliminate(rows, reduced=False):
    """Pivot column -> the rest of its row scaled to a leading 1, in
    Fractions; with ``reduced`` every pivot row is then cleared at the
    other pivot columns, which gives the reduced row echelon form."""
    pivots = {}
    for dense in rows:
        row = {j: F(x) for j, x in enumerate(dense) if x}
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


def fraction_rank(rows):
    return len(_fraction_eliminate(rows))


def fraction_nullspace(rows, ncols):
    pivots = _fraction_eliminate(rows, reduced=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for c, tail in pivots.items():
            v[c] = -tail.get(f, F(0))
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# random rational matrices: tall, wide, rank-deficient, zero rows, empty

entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)
# every kernel takes integer rows only
int_entries = st.one_of(st.just(0), st.integers(-6, 6))
big_entries = st.one_of(st.just(0), st.integers(-6, 6),
                        st.integers(-10 ** 30, 10 ** 30))


@st.composite
def matrices(draw, square=False, max_size=6, entries=entries):
    nrows = draw(st.integers(0, max_size))
    ncols = nrows if square else draw(st.integers(0, max_size))
    if draw(st.booleans()):
        # a product through a thin middle: rank at most k
        k = draw(st.integers(0, max(nrows, ncols)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        rows = [[sum((l[t] * right[t][j] for t in range(k)), 0)
                 for j in range(ncols)] for l in left]
    else:
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    for i in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            rows[i] = [0] * ncols
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_dense_oracle(case):
    # each row cleared of its denominators: the same rank and kernel
    rows, ncols = case
    cleared = [clear_denominators(row)[0] for row in rows]
    assert linalg.rank(cleared) == oracle_rank(rows)
    assert linalg.nullspace(cleared, ncols=ncols) == oracle_nullspace(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(matrices(entries=big_entries))
def test_integer_kernel_matches_fraction_twin_and_dense_oracle(case):
    rows, ncols = case
    r = linalg.rank(rows)
    basis = linalg.nullspace(rows, ncols=ncols)
    assert r == fraction_rank(rows) == oracle_rank(rows)
    assert basis == fraction_nullspace(rows, ncols) == oracle_nullspace(rows, ncols)
    assert len(basis) == ncols - r
    assert all(type(x) is F for v in basis for x in v)


def test_integer_kernel_on_fixed_shapes():
    big = 10 ** 30
    cases = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[0] * 4] * 3, 4),
             ([[big, 1], [1, big]], 2),            # full rank, huge entries
             ([[big, 2 * big, 3], [2 * big, 4 * big, 6]], 3),  # rank 1
             ([[1], [2], [3], [big]], 1),          # tall
             ([[3, 0, big, -1, 7]], 5),            # wide
             ([[2, 4], [3, 6], [0, 0]], 2)]        # rank-deficient, zero row
    for rows, ncols in cases:
        assert linalg.rank(rows) == fraction_rank(rows) == oracle_rank(rows)
        assert (linalg.nullspace(rows, ncols=ncols)
                == fraction_nullspace(rows, ncols)
                == oracle_nullspace(rows, ncols))
    assert linalg.nullspace([[2, 3]]) == [(F(-3, 2), F(1))]
    with pytest.raises(TypeError):
        linalg.rank([[F(1, 2), 1]])


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
@given(matrices(square=True, max_size=5, entries=int_entries),
       st.lists(int_entries, min_size=5, max_size=5))
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


def _lu(n, rng, zero_at=None, last_pivot=None):
    """Integer L U, L unit lower and U upper triangular with small random
    entries, U's diagonal nonzero except at ``last_pivot``; L[j][i] = 0
    for ``zero_at`` = (i, j).  Returns the rows and prod(diag U)."""
    L = [[int(r == c) or (rng.randint(-2, 2) if c < r else 0)
          for c in range(n)] for r in range(n)]
    if zero_at is not None:
        i, j = zero_at
        L[j][i] = 0
    U = [[rng.choice((-3, -2, -1, 1, 2, 3)) if r == c
          else (rng.randint(-3, 3) if c > r else 0) for c in range(n)]
         for r in range(n)]
    if last_pivot is not None:
        U[last_pivot][last_pivot] = 0
    rows = [[sum(L[r][k] * U[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]
    return rows, prod(U[k][k] for k in range(n))


def _leading_rank(a, k):
    return oracle_rank([row[:k] for row in a[:k]])


def _check_square_kernels(a, d, rng):
    """solve_square, det and adjugate_int on a, whose determinant is d,
    against the dense oracle."""
    b = [rng.randint(-9, 9) for _ in a]
    assert _solution(linalg.solve_square(a, b)) == oracle_solve(a, b)
    assert linalg.det(a) == d
    if len(a) <= 5:
        assert oracle_det(a) == d
    if d == 0:
        assert linalg.adjugate_int(a) is None
        return
    adj, det = linalg.adjugate_int(a)
    assert det == d
    assert adj == [[x * d for x in row] for row in oracle_inverse(a)]


def test_square_kernels_swap_rows_at_every_pivot_position():
    # rows i and j > i of L U swapped, with L[j][i] = 0: the leading minors
    # of order up to i stay nonzero and the one of order i + 1 vanishes,
    # so the elimination meets a zero pivot at position i and swaps; j is
    # the last row, and the next one up to size 8, and i runs up to n - 2,
    # the last pivot with a row below it
    rng = random.Random(15)
    for n in (*range(2, 9), 12, 16):
        for i in range(n - 1):
            for j in sorted({i + 1 if n <= 8 else n - 1, n - 1}):
                a, d = _lu(n, rng, zero_at=(i, j))
                a[i], a[j] = a[j], a[i]
                assert _leading_rank(a, i) == i
                assert _leading_rank(a, i + 1) == i
                _check_square_kernels(a, -d, rng)


def test_square_kernels_singular_only_at_the_last_pivot():
    # every leading minor but the last is nonzero: the elimination runs to
    # the last pivot, finds it zero with no row below, and reports singular
    rng = random.Random(16)
    for n in range(1, 17):
        a, d = _lu(n, rng, last_pivot=n - 1)
        assert d == 0
        assert all(_leading_rank(a, k) == k for k in range(n))
        assert oracle_rank(a) == n - 1
        _check_square_kernels(a, 0, rng)
        assert linalg.solve_square(a, [1] * n) is None


def test_degree_systems_of_the_catalog_match_dense_oracle():
    for spec in polytopes.catalog_specs():
        G = gkm.moment_graph(polytopes.from_spec(spec))
        for k in range(4):
            rows, ncols = gkm._degree_system(G, k)
            assert linalg.rank(rows) == oracle_rank(rows), (spec, k)
            assert (linalg.nullspace(rows, ncols=ncols)
                    == oracle_nullspace(rows, ncols)), (spec, k)


def _bareiss_solution(a, b):
    """The reduced Cramer form of a x = b read from ``_bareiss`` itself."""
    found = linalg._bareiss([[*row, bi] for row, bi in zip(a, b)], len(a))
    if found is None:
        return None
    X, D = [row[0] for row in found[0]], found[1]
    g = gcd(*X, D) if D > 0 else -gcd(*X, D)
    return tuple(x // g for x in X), D // g


def _check_closed_form(a, b):
    """solve_square on the 3x3 system a x = b against ``_bareiss`` and the
    dense oracle; returns det(a) by the Leibniz oracle."""
    found = linalg.solve_square(a, b)
    assert found == _bareiss_solution(a, b)
    assert _solution(found) == oracle_solve(a, b)
    d = oracle_det(a)
    assert (found is None) == (d == 0)
    return d


def test_closed_form_3x3_matches_bareiss_and_dense_oracle():
    rng = random.Random(21)
    signs = set()
    for bound, count in ((3, 3000), (10 ** 20, 400)):
        for _ in range(count):
            a = [[rng.randint(-bound, bound) for _ in range(3)]
                 for _ in range(3)]
            b = [rng.randint(-bound, bound) for _ in range(3)]
            d = _check_closed_form(a, b)
            signs.add((bound, (d > 0) - (d < 0)))
    assert signs == {(3, 1), (3, 0), (3, -1), (10 ** 20, 1), (10 ** 20, -1)}


def test_closed_form_3x3_on_singular_systems():
    rng = random.Random(22)
    for bound in (3, 10 ** 20):
        def draw():
            return [rng.randint(-bound, bound) for _ in range(3)]

        for _ in range(60):
            u, v, b = draw(), draw(), draw()
            s, t, k = (rng.randint(-3, 3) for _ in range(3))
            w = [s * x + t * y for x, y in zip(u, v)]
            rank2 = [u, v, w]
            rank1 = [u, [k * x for x in u], [s * x for x in u]]
            for a in (rank2, rank1, [[0] * 3] * 3):
                for rows in permutations(a):
                    assert _check_closed_form(list(rows), b) == 0
            # a zero row and two equal rows, at every position
            for i, j in permutations(range(3), 2):
                zero = [draw() for _ in range(3)]
                zero[i] = [0, 0, 0]
                equal = [draw() for _ in range(3)]
                equal[j] = list(equal[i])
                assert _check_closed_form(zero, b) == 0
                assert _check_closed_form(equal, b) == 0
    assert linalg.solve_square([[1, 2, 3], [2, 4, 6], [0, 0, 1]],
                               [1, 2, 3]) is None


def test_closed_form_3x3_with_negative_determinant():
    rng = random.Random(23)
    # a row swap and -I: det -1, so the sign moves into X
    assert linalg.solve_square([[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                               [4, 6, -9]) == ((6, 4, -9), 1)
    assert linalg.solve_square([[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                               [2, 0, -4]) == ((-2, 0, 4), 1)
    assert linalg.solve_square([[0, 0, 3], [0, 2, 0], [1, 0, 0]],
                               [1, 1, -1]) == ((-6, 3, 2), 6)
    for bound in (3, 10 ** 20):
        seen = 0
        while seen < 200:
            a = [[rng.randint(-bound, bound) for _ in range(3)]
                 for _ in range(3)]
            if oracle_det(a) > 0:
                a[0], a[2] = a[2], a[0]
            b = [rng.randint(-bound, bound) for _ in range(3)]
            if _check_closed_form(a, b) < 0:
                seen += 1


# ---------------------------------------------------------------------------
# examples


def test_solve_square():
    x = linalg.solve_square([[2, 1], [1, -1]], [3, 0])
    assert x == ((1, 1), 1)
    assert _solution(x) == (F(1), F(1))
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
    with pytest.raises(ValueError, match="^ncols required for an empty system$"):
        linalg.nullspace([])


def test_det_and_inverse():
    a = [[1, 2], [3, 4]]
    assert linalg.det(a) == -2
    assert type(linalg.det(a)) is int
    assert type(linalg.det([[1, 2], [2, 4]])) is int


def test_square_kernels_get_ints_from_every_caller(monkeypatch):
    # on Fraction rows Bareiss's // floors silently and the sparse
    # kernel's gcd raises, so the kernels trust their callers: every entry
    # that reaches them from src/ is an int
    seen = {name: [] for name in ("solve_square", "det", "adjugate_int",
                                  "rank", "nullspace")}
    for name, types in seen.items():
        def record(*args, kernel=getattr(linalg, name), types=types, **kw):
            for arg in args:
                for x in arg:
                    types.extend(map(type, x) if isinstance(x, (list, tuple))
                                 else [type(x)])
            return kernel(*args, **kw)
        monkeypatch.setattr(linalg, name, record)
    for spec in polytopes.catalog_specs():
        for cmd in ("validate", "decompose", "count", "volume", "betti"):
            assert cli.run([cmd, spec])[1] == 0, (cmd, spec)
        for k in range(4):
            assert cli.run(["gkm-dim", spec, "--k", str(k)])[1] == 0, (spec, k)
    for error, dim, hs in TWIN_CASES.values():
        if error is None:
            polytopes.from_halfspaces(dim, hs)
        else:
            with pytest.raises(error):
                polytopes.from_halfspaces(dim, hs)
    assert len(list(random_cut_boxes(4, 30))) == 30
    for name, types in seen.items():
        assert types and set(types) == {int}, name


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
