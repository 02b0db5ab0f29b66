"""Signed decomposition of a simple polytope into half-open vertex cones.

Fix a direction xi that pairs nonzero with every edge vector.  At each
vertex, edge generators pairing positively with xi are flipped so all
generators point against xi; flipped generators get strict (open)
coefficients and the cone enters with sign (-1)^(number flipped).  The
signed sum of cone indicators then reproduces the polytope indicator at
every point of R^n, boundary included, with no tolerance anywhere.

The same signs turn the cones' lattice-point generating functions into
the lattice count of the polytope (Brion; Lawrence-Varchenko).  Each cone
is its half-open fundamental parallelepiped translated by the monoid of
its generators, so its generating function is a power sum over the
|det| lattice points of the parallelepiped divided by one geometric
series per generator; the count is the constant term of the signed sum,
exact rational work that does not grow with dilation.

Only simple vertices are supported, so each cone is one n-by-n integer
matrix, eliminated once: its adjugate gives exact membership signs and
the parallelepiped's lattice points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from operator import add, floordiv, mul

from . import linalg
from .algebra import Vec, as_vec, dot, generic_vector, primitive, vneg, vsub
from .errors import DomainError, NonSimpleVertexError, NotPolarizingError
from .polytopes import Polytope, VertexFigure

# signed_lattice_count refuses a decomposition whose parallelepipeds hold
# more lattice points than this in total (the sum of |det| over the vertex
# cones); the largest benchmark count job enumerates about 70,000
MAX_PARALLELEPIPED_POINTS = 1_000_000


@dataclass(frozen=True)
class PolarizedCone:
    """Half-open vertex cone with orientation sign.

    ``open_flags[j]`` is True when generator j was flipped and therefore
    carries a strict coefficient; ``sign`` is (-1)^(number of True flags).
    """

    apex: Vec
    generators: tuple[Vec, ...]
    open_flags: tuple[bool, ...]
    sign: int


def tangent_cone(vf: VertexFigure) -> PolarizedCone:
    """Unpolarized tangent cone at a vertex: every generator closed, sign +1.

    This is the plain positive span of the edge vectors; polarization
    rewrites it relative to a direction.
    """
    gens = vf.primitive_edge_dirs
    return PolarizedCone(vf.vertex, gens, (False,) * len(gens), 1)


def is_polarizing(P: Polytope, xi) -> bool:
    """True iff xi pairs nonzero with every edge direction of P."""
    xi = as_vec(xi)
    return all(dot(w, xi) != 0 for at_v in P.weights for w in at_v)


def choose_polarizing_vector(P: Polytope, seed=0) -> Vec:
    """Deterministic-from-seed direction pairing nonzero with every edge."""
    if not P.vertices:
        raise DomainError("polytope has no vertices")
    return generic_vector(P.dim, [w for at_v in P.weights for w in at_v],
                          seed=seed)


def polarize(vf: VertexFigure, xi) -> PolarizedCone:
    """Polarized tangent cone at a vertex for the direction xi."""
    xi = as_vec(xi)
    generators: list[Vec] = []
    flags: list[bool] = []
    for alpha in vf.primitive_edge_dirs:
        pairing = dot(alpha, xi)
        if pairing == 0:
            raise NotPolarizingError(
                f"direction pairs to zero with edge vector {alpha}")
        if pairing > 0:
            generators.append(vneg(alpha))
            flags.append(True)
        else:
            generators.append(alpha)
            flags.append(False)
    sign = -1 if sum(flags) % 2 else 1
    return PolarizedCone(vf.vertex, tuple(generators), tuple(flags), sign)


class _ConeTester:
    """Membership of a polarized cone via integer sign tests.

    With A the generator matrix (columns = generators), x is in the cone
    iff the coefficients c = A^-1 (x - apex) obey the flags.  Using
    adj(A) and clearing denominators reduces each coefficient sign to an
    integer product.  ``cols`` are the integer columns of A and ``det`` its
    signed determinant; ``shift`` is the apex times ``scale``, the least
    multiplier that makes it integral.
    """

    __slots__ = ("apex", "open_flags", "cols", "adj", "det", "scale", "shift")

    def __init__(self, cone: PolarizedCone):
        n = len(cone.apex)
        if len(cone.generators) != n:
            raise NonSimpleVertexError(
                f"cone needs exactly {n} generators, got {len(cone.generators)}")
        # positive per-generator rescaling never changes membership, so work
        # with primitive integer generators
        cols = [[int(e) for e in primitive(g)] for g in cone.generators]
        matrix = [[cols[j][i] for j in range(n)] for i in range(n)]
        found = linalg.adjugate_int(matrix)
        if found is None:
            raise NonSimpleVertexError(
                "cone generators are linearly dependent; non-simple vertices "
                "are unsupported")
        self.apex = cone.apex
        self.open_flags = cone.open_flags
        self.cols = cols
        self.adj, self.det = found
        self.scale = lcm(*(e.denominator for e in cone.apex))
        self.shift = [int(self.scale * e) for e in cone.apex]

    def contains(self, x: Vec) -> bool:
        diff = vsub(x, self.apex)
        denom = lcm(*(e.denominator for e in diff))
        y = [int(e * denom) for e in diff]
        for row, is_open in zip(self.adj, self.open_flags):
            # det * (adj row . y) has the sign of the coefficient
            t = sum(a * b for a, b in zip(row, y)) * self.det
            if t < 0 or (is_open and t == 0):
                return False
        return True

    def power_sums(self, xi: list[int], ws: list[int]) -> list[int]:
        """S_k = sum of <p, xi>^k over the lattice points p of the half-open
        fundamental parallelepiped, k = 0..n; xi must be integral and
        ``ws[j]`` the pairing of column j with it.

        Its points are apex + A c with c_j in [0, 1) for closed and (0, 1]
        for open generators, one per class of Z^n modulo the lattice of A.
        The classes are the points 0 <= r_i < h_i, h the diagonal of a
        lower-triangular Hermite form of A; each r is moved into the
        parallelepiped by p = r - A m with m = floor(A^-1 (r - apex)), or
        ceil(.) - 1 for open generators.
        """
        n = len(xi)
        h = _hermite_diagonal(self.cols)
        # A^-1 (r - apex) = adj (scale r - shift) / (scale det); both
        # signs flipped so the denominator is positive, and an open
        # generator's ceil(c) - 1 read as floor((num - 1) / den)
        den = self.scale * self.det
        sgn = 1 if den > 0 else -1
        adj = [[sgn * a for a in row] for row in self.adj]
        den *= sgn
        base = [-sum(a * s for a, s in zip(row, self.shift)) - is_open
                for row, is_open in zip(adj, self.open_flags)]
        step = [self.scale * row[-1] for row in adj]
        dens = [den] * n
        sums = [0] * (n + 1)
        for head in product(*(range(k) for k in h[:-1])):
            nums = [b + self.scale * sum(a * r for a, r in zip(row, head))
                    for b, row in zip(base, adj)]
            q0 = sum(r * x for r, x in zip(head, xi))
            for _ in range(h[-1]):
                # <p, xi> = <r, xi> - sum_j m_j <g_j, xi>
                q = q0 - sum(map(mul, ws, map(floordiv, nums, dens)))
                power = 1
                for k in range(n + 1):
                    sums[k] += power
                    power *= q
                q0 += xi[-1]
                nums = list(map(add, nums, step))
        return sums


def _hermite_diagonal(cols: list[list[int]]) -> list[int]:
    """Diagonal of a lower-triangular Hermite form of the lattice spanned by
    the integer columns ``cols``; its product is |det|.  Row by row,
    Euclid's algorithm on pairs of columns (unimodular column operations)
    clears the row right of the diagonal."""
    cols = [list(c) for c in cols]
    diag = []
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            while cols[j][i]:
                f = cols[i][i] // cols[j][i]
                cols[i], cols[j] = cols[j], [u - f * v for u, v
                                             in zip(cols[i], cols[j])]
        diag.append(abs(cols[i][i]))
    return diag


@functools.cache
def _bernoulli(n: int) -> tuple[int, tuple[int, ...]]:
    """(D, (D*B_0, ..., D*B_n)): the Bernoulli numbers of s/(e^s - 1) =
    sum B_m s^m/m! (so B_1 = -1/2) over their common denominator D."""
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(-sum(comb(m + 1, k) * b for k, b in enumerate(bern))
                    / (m + 1))
    d = lcm(*(b.denominator for b in bern))
    return d, tuple(int(b * d) for b in bern)


def _constant_term(sums: list[int], ws: list[int]) -> Fraction:
    """Constant term at t = 0 of sum_p e^{t<p,xi>} / prod_j (1 - e^{t w_j}).

    With 1/(1 - e^s) = -(1/s) sum B_m s^m/m! it is (-1)^n / prod w_j times
    the t^n coefficient of (sum S_k t^k/k!) prod_j sum B_m (w_j t)^m/m!.
    The series are multiplied as integer exponential generating functions
    (coefficient k stands for t^k/k!), the Bernoulli ones scaled by D.
    """
    n = len(ws)
    d, bern = _bernoulli(n)
    series = sums
    for w in ws:
        factor = [b * w ** m for m, b in enumerate(bern)]
        series = [sum(comb(k, i) * series[i] * factor[k - i]
                      for i in range(k + 1)) for k in range(n + 1)]
    return Fraction((-1) ** n * series[n], d ** n * factorial(n) * prod(ws))


def cone_contains(cone: PolarizedCone, x) -> bool:
    """Exact membership honoring each generator's closed/open flag."""
    x = as_vec(x)
    if len(x) != len(cone.apex):
        raise DomainError("point dimension does not match the cone")
    return _ConeTester(cone).contains(x)


def _decomposition(P: Polytope, xi: Vec) -> list:
    """[cones, testers or None] for xi, kept on P so it dies with P."""
    if xi not in P._polar:
        P._polar[xi] = [tuple(polarize(P.vertex_figure(i), xi)
                              for i in range(len(P.vertices))), None]
    return P._polar[xi]


def polar_decompose(P: Polytope, xi) -> tuple[PolarizedCone, ...]:
    """Polarized tangent cone at every vertex, in vertex order."""
    return _decomposition(P, as_vec(xi))[0]


def _cached_testers(P: Polytope, xi: Vec) -> tuple[tuple[_ConeTester, int], ...]:
    entry = _decomposition(P, xi)
    if entry[1] is None:
        entry[1] = tuple((_ConeTester(c), c.sign) for c in entry[0])
    return entry[1]


def signed_indicator_sum(P: Polytope, xi, x) -> int:
    """Sum over vertices of sign * [x in polarized cone].

    Computed independently of any membership test on P itself; equality
    with ``P.contains(x)`` as 0/1 is the content of the decomposition
    identity and is asserted by the test suite, never assumed here.
    """
    xi = as_vec(xi)
    x = as_vec(x)
    total = 0
    for tester, sign in _cached_testers(P, xi):
        if tester.contains(x):
            total += sign
    return total


def signed_lattice_count(P: Polytope, xi, box) -> int:
    """Lattice count of P as a signed sum over its polarized vertex cones.

    Each cone contributes the constant term of its lattice-point generating
    function, a power sum over the lattice points of its half-open
    fundamental parallelepiped (one per unit of |det|) divided by one
    geometric series per generator.  ``box`` is one inclusive integer
    (lo, hi) pair per coordinate and must contain P; it is validated, not
    scanned.  A decomposition with more than MAX_PARALLELEPIPED_POINTS
    parallelepiped points in total is refused before any is enumerated.
    """
    xi = as_vec(xi)
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != P.dim:
        raise DomainError(f"box has {len(box)} ranges, expected {P.dim}")
    for lo, hi in box:
        if lo > hi:
            raise DomainError(f"empty box range ({lo}, {hi})")
    for v in P.vertices:
        for (lo, hi), coord in zip(box, v):
            if not (lo <= coord <= hi):
                raise DomainError(
                    f"box does not contain the polytope: vertex coordinate "
                    f"{coord} outside [{lo}, {hi}]")
    testers = _cached_testers(P, xi)
    points = sum(abs(tester.det) for tester, _ in testers)
    if points > MAX_PARALLELEPIPED_POINTS:
        raise DomainError(
            f"vertex cones hold {points} parallelepiped points, over the "
            f"limit of {MAX_PARALLELEPIPED_POINTS}")
    # the constant term is unchanged by t -> ct, so xi may be made integral
    scale = lcm(*(e.denominator for e in xi))
    xi_int = [int(e * scale) for e in xi]
    total = Fraction(0)
    for tester, sign in testers:
        ws = [sum(g * x for g, x in zip(col, xi_int)) for col in tester.cols]
        total += sign * _constant_term(tester.power_sums(xi_int, ws), ws)
    assert total.denominator == 1, f"non-integral lattice count {total}"
    return int(total)
