"""Signed decomposition of a simple polytope into half-open vertex cones.

Fix a direction xi that pairs nonzero with every edge vector.  The cone
at vertex i is spanned by its primitive edge directions ``P.weights[i]``,
read straight off the polytope as int tuples.  ``pair_direction`` pairs
each with xi cleared once per call, an int sum with the same sign, and
refuses a zero pairing as ``NotGenericError``.  Generators pairing positively
with xi are flipped so all of them point against xi; flipped generators
get strict (open) coefficients, and the cone's sign, (-1)^(number
flipped), is read from its open flags.  The signed sum of cone indicators
then reproduces the polytope indicator at every point of R^n, boundary
included, with no tolerance anywhere.  A membership test clears the
point's denominators once and each cone's apex once (on the cone), so
the point's offset from every apex is an integer vector.

The same signs turn the cones' lattice-point generating functions into
the lattice count of the polytope (Brion; Lawrence-Varchenko).  Each cone
is its half-open fundamental parallelepiped translated by the monoid of
its generators, so its generating function is a power sum over the
|det| lattice points of the parallelepiped divided by one geometric
series per generator; the count is the constant term of the signed sum,
exact rational work that does not grow with dilation.  The power sums walk
each parallelepiped line by line along the last coordinate, a bounded
block of points at a time.  Along a line each point's pairing with xi
moves by one fixed slope, except where one of the n floors that move the
point into the parallelepiped steps; each such step is found by one
division, and the block is the running sum of its moves, so Python-level
work is per floor step, not per point, and memory does not grow with
|det|.

Only simple vertices are supported, so each cone is one n-by-n integer
matrix, eliminated once, on the first read of ``PolarizedCone.lattice``:
its adjugate gives exact membership signs and the parallelepiped's
lattice points.  ``polar_decompose`` builds the cones per call and keeps
none: they are held by the caller, and die with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial, gcd, prod
from operator import add, mul, neg

from . import linalg
from .algebra import (
    Vec, as_vec, clear_denominators, clear_direction, generic_vector,
    pair_direction, primitive, vec_to_json, vneg)
from .errors import DomainError, NonSimpleVertexError, check_limit
from .polytopes import Polytope

# signed_lattice_count refuses a decomposition whose parallelepipeds hold
# more lattice points than this in total (the sum of |det| over the vertex
# cones); the largest benchmark count job enumerates about 70,000.  Each
# point costs a few C-level list steps and each floor step one division,
# so a line of a million points is summed in about 0.1 s
MAX_PARALLELEPIPED_POINTS = 1_000_000

# _power_sums walks a parallelepiped's lines this many points at a time:
# a line of a million points then peaks at 0.37 MB, not 80 MB held whole
POWER_SUM_BLOCK = 4096


@dataclass(frozen=True)
class PolarizedCone:
    """Half-open vertex cone, its orientation sign read from its flags.

    ``open_flags[j]`` is True when generator j was flipped and therefore
    carries a strict coefficient.
    """

    apex: Vec
    generators: tuple[Vec, ...]
    open_flags: tuple[bool, ...]

    @property
    def sign(self) -> int:
        """(-1)^(number of True flags)."""
        return (-1) ** sum(self.open_flags)

    @functools.cached_property
    def cleared_apex(self) -> tuple[list[int], int]:
        """(X, d) with apex == X / d, d > 0, cleared on first read."""
        return clear_denominators(self.apex)

    @functools.cached_property
    def lattice(self) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
        """(cols, adj, det) of the integer matrix A whose columns are the
        primitive generators (rescaling one never changes the cone): one
        elimination per cone, on first read.  A generator that is already a
        primitive int tuple, as ``polar_decompose`` makes them, is kept."""
        n = len(self.apex)
        if len(self.generators) != n:
            raise NonSimpleVertexError(
                f"cone needs exactly {n} generators, got {len(self.generators)}")
        for g in self.generators:
            if len(g) != n:
                raise DomainError(f"generator {vec_to_json(g)} has dimension "
                                  f"{len(g)}, expected {n}")
        if len(self.open_flags) != n:
            raise DomainError(
                f"cone has {len(self.open_flags)} open flags, expected {n}")
        cols = [g if type(g) is tuple and all(type(c) is int for c in g)
                and gcd(*g) == 1 else primitive(g) for g in self.generators]
        found = linalg.adjugate_int([[c[i] for c in cols] for i in range(n)])
        if found is None:
            raise NonSimpleVertexError(
                "cone generators are linearly dependent; non-simple vertices "
                "are unsupported")
        return cols, *found


def is_polarizing(P: Polytope, xi) -> bool:
    """True iff xi, cleared once, pairs nonzero with every edge direction."""
    X, _ = clear_direction(xi, P.dim)
    return all(sum(map(mul, w, X)) for at_v in P.weights for w in at_v)


def choose_polarizing_vector(P: Polytope, seed=0) -> Vec:
    """Deterministic-from-seed direction pairing nonzero with every edge,
    each edge tested once, by its direction from the lower vertex."""
    return generic_vector(P.dim, [
        w for i, (at_v, adjacent) in enumerate(zip(P.weights, P.neighbors))
        for w, j in zip(at_v, adjacent) if i < j], seed=seed)


def _contains(cone: PolarizedCone, X: list[int], d: int) -> bool:
    """x = X/d (d > 0) in the cone iff its coefficients A^-1 (x - apex)
    obey the flags, each sign read from an integer product with adj(A):
    with apex = A0/e, x - apex is the integer vector X*e - A0*d over d*e."""
    if len(X) != len(cone.apex):
        raise DomainError(
            f"point has dimension {len(X)}, expected {len(cone.apex)}")
    _, adj, det = cone.lattice
    A0, e = cone.cleared_apex
    y = [a * e - b * d for a, b in zip(X, A0)]
    for row, is_open in zip(adj, cone.open_flags):
        # det * (adj row . y) has the sign of the coefficient
        t = sum(a * b for a, b in zip(row, y)) * det
        if t < 0 or (is_open and t == 0):
            return False
    return True


def _power_sums(cone: PolarizedCone, xi: list[int], ws: list[int]) -> list[int]:
    """S_k = sum of <p, xi>^k over the lattice points p of the cone's
    half-open fundamental parallelepiped, k = 0..n; xi must be integral
    and ``ws[j]`` the pairing of column j of ``cone.lattice`` with it.

    Its points are apex + A c with c_j in [0, 1) for closed and (0, 1]
    for open generators, one per class of Z^n modulo the lattice of A.
    The classes are the points 0 <= r_i < h_i, h the diagonal of a
    lower-triangular Hermite form of A; each r is moved into the
    parallelepiped by p = r - A m with m = floor(A^-1 (r - apex)), or
    ceil(.) - 1 for open generators.  For each head (r_1..r_n-1) the last
    coordinate t runs along a line, taken POWER_SUM_BLOCK values at a
    time.  The numerator of m_j moves by s_j = q_j den + r_j per step of
    t, r_j the symmetric remainder (|r_j| <= den/2), so m_j is q_j t plus
    a floor that moves by at most one per step, at about |r_j|/den of the
    steps, each found by one division.  So <p, xi> moves by the slope
    sigma = xi_n - sum_j w_j q_j per step of t, and by -w_j more where
    floor j steps up (+w_j where it steps down): a block is the running
    sum (``accumulate``) of those moves, listed once, with Python-level
    work per floor step, not per point.  It adds its k-th powers to S_k,
    each list of powers the previous one times the block.
    """
    n = len(xi)
    cols, adj, det = cone.lattice
    h = _hermite_diagonal(cols)
    # A^-1 (r - apex) = adj (scale r - shift) / (scale det), scale making
    # the apex integral; signs flipped so the denominator is positive, and
    # an open generator's ceil(c) - 1 read as floor((num - 1) / den)
    shift, scale = cone.cleared_apex
    if det < 0:
        adj = [list(map(neg, row)) for row in adj]
    base = [-sum(map(mul, row, shift)) - is_open
            for row, is_open in zip(adj, cone.open_flags)]
    den = scale * abs(det)
    # s_j = q_j den + r_j with the symmetric remainder, |r_j| <= den/2
    half = den // 2
    quots, rems = zip(*(divmod(scale * row[-1] + half, den) for row in adj))
    rems = [r - half for r in rems]
    slope = xi[-1] - sum(map(mul, ws, quots))
    *head_sizes, line = h
    sums = [0] * (n + 1)
    # the innermost head coordinate steps nums and q0 by a column, as t does
    head_step = [scale * row[-2] for row in adj] if n > 1 else []
    for head in product(*map(range, head_sizes)):
        if head and head[-1]:
            nums = list(map(add, nums, head_step))
            q0 += xi[-2]
        else:
            nums = [b + scale * sum(map(mul, row, head))
                    for b, row in zip(base, adj)]
            q0 = sum(map(mul, head, xi))
        for start in range(0, line, POWER_SUM_BLOCK):
            size = min(POWER_SUM_BLOCK, line - start)
            # <p, xi> = <r, xi> - sum_j m_j <g_j, xi> moves by the slope per
            # step of t, and by -w_j (+w_j) more where floor j steps up
            # (down); the block holds these moves, then their running sum
            cs = [b + r * start for b, r in zip(nums, rems)]
            floors = [c // den for c in cs]
            block = [slope] * size
            block[0] = q0 + slope * start - sum(map(mul, ws, floors))
            for w, c, r, f in zip(ws, cs, rems, floors):
                # floor j reaches level e where c + r t first crosses e den
                if r > 0:
                    for e in range(f + 1, (c + r * (size - 1)) // den + 1):
                        block[(e * den - c - 1) // r + 1] -= w
                elif r < 0:
                    for e in range((c + r * (size - 1)) // den + 1, f + 1):
                        block[(c - e * den) // -r + 1] += w
            block = list(accumulate(block))
            sums[0] += len(block)
            power = block
            for k in range(1, n + 1):
                sums[k] += sum(power)
                if k < n:
                    power = list(map(mul, power, block))
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
    scaled, d = clear_denominators(bern)
    return d, tuple(scaled)


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


def polar_decompose(P: Polytope, xi) -> tuple[PolarizedCone, ...]:
    """Polarized tangent cone at every vertex, in vertex order.

    The pairings of xi with the weights are the rows of ``pair_direction``:
    a generator flips where its pairing is positive.  The cones are built
    per call and belong to the caller; P keeps none of them."""
    _, _, rows = pair_direction(P.weights, xi, P.dim)
    cones = []
    for apex, at_v, row in zip(P.vertices, P.weights, rows):
        flags = tuple(p > 0 for p in row)
        generators = tuple(vneg(a) if f else a for a, f in zip(at_v, flags))
        cones.append(PolarizedCone(apex, generators, flags))
    return tuple(cones)


def signed_indicator_sum(cones: tuple[PolarizedCone, ...], x) -> int:
    """Sum of sign * [x in cone] over the cones of a decomposition.

    Computed from the cones alone, with no membership test on the
    polytope; equality with ``P.contains(x)`` as 0/1 is the content of the
    decomposition identity and is asserted by the test suite, never assumed
    here.  x is cleared once, each cone's apex once, on the cone.
    """
    X, d = clear_denominators(as_vec(x))
    return sum(cone.sign for cone in cones if _contains(cone, X, d))


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
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != P.dim:
        raise DomainError(f"box has {len(box)} ranges, expected {P.dim}")
    for lo, hi in box:
        if lo > hi:
            raise DomainError(f"empty box range ({lo}, {hi})")
    for X, D in P.int_vertices:
        for (lo, hi), x in zip(box, X):
            if not (lo * D <= x <= hi * D):
                raise DomainError(
                    f"box does not contain the polytope: vertex coordinate "
                    f"{Fraction(x, D)} outside [{lo}, {hi}]")
    # the constant term is unchanged by t -> ct, so xi may be made integral
    xi_int, _ = clear_direction(xi, P.dim)
    cones = polar_decompose(P, xi_int)
    points = sum(abs(cone.lattice[2]) for cone in cones)
    check_limit(points, MAX_PARALLELEPIPED_POINTS,
                lambda: f"vertex cones hold {points} parallelepiped points,")
    total = Fraction(0)
    for cone in cones:
        ws = [sum(map(mul, col, xi_int)) for col in cone.lattice[0]]
        total += cone.sign * _constant_term(_power_sums(cone, xi_int, ws), ws)
    assert total.denominator == 1, f"non-integral lattice count {total}"
    return int(total)
