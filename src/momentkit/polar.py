"""Signed decomposition of a simple polytope into half-open vertex cones.

Fix a direction xi that pairs nonzero with every edge vector.  The cone
at vertex i is spanned by its primitive edge directions ``P.weights[i]``,
read straight off the polytope.  Generators pairing positively with xi
are flipped so all of them point against xi; flipped generators get
strict (open) coefficients and the cone enters with sign
(-1)^(number flipped).  The signed sum of cone indicators then
reproduces the polytope indicator at every point of R^n, boundary
included, with no tolerance anywhere.

The same signs turn the cones' lattice-point generating functions into
the lattice count of the polytope (Brion; Lawrence-Varchenko).  Each cone
is its half-open fundamental parallelepiped translated by the monoid of
its generators, so its generating function is a power sum over the
|det| lattice points of the parallelepiped divided by one geometric
series per generator; the count is the constant term of the signed sum,
exact rational work that does not grow with dilation.  The power sums walk
each parallelepiped line by line along the last coordinate, a bounded
block of points at a time, so a point costs a few integer operations
inside list comprehensions and memory does not grow with |det|.

Only simple vertices are supported, so each cone is one n-by-n integer
matrix, eliminated once, on the first read of ``PolarizedCone.lattice``:
its adjugate gives exact membership signs and the parallelepiped's
lattice points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from operator import mul, neg

from . import linalg
from .algebra import (
    Vec, as_vec, dot, generic_vector, primitive, vec_to_json, vneg, vsub)
from .errors import DomainError, NonSimpleVertexError, NotPolarizingError
from .polytopes import Polytope

# signed_lattice_count refuses a decomposition whose parallelepipeds hold
# more lattice points than this in total (the sum of |det| over the vertex
# cones); the largest benchmark count job enumerates about 70,000
MAX_PARALLELEPIPED_POINTS = 1_000_000

# _power_sums walks a parallelepiped's lines this many points at a time:
# a line of a million points then peaks at 0.3 MB, not 80 MB held whole
POWER_SUM_BLOCK = 4096


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

    @functools.cached_property
    def lattice(self) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
        """(cols, adj, det) of the integer matrix A whose columns are the
        primitive generators (rescaling one never changes the cone): one
        elimination per cone, on first read."""
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
        cols = [primitive(g) for g in self.generators]
        found = linalg.adjugate_int([[c[i] for c in cols] for i in range(n)])
        if found is None:
            raise NonSimpleVertexError(
                "cone generators are linearly dependent; non-simple vertices "
                "are unsupported")
        return cols, *found


def tangent_cone(P: Polytope, i: int) -> PolarizedCone:
    """Unpolarized tangent cone at vertex i: every generator closed, sign +1.

    This is the plain positive span of the edge vectors; polarization
    rewrites it relative to a direction.
    """
    gens = P.weights[i]
    return PolarizedCone(P.vertices[i], gens, (False,) * len(gens), 1)


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


def polarize(P: Polytope, i: int, xi) -> PolarizedCone:
    """Polarized tangent cone at vertex i for the direction xi."""
    xi = as_vec(xi)
    generators: list[Vec] = []
    flags: list[bool] = []
    for alpha in P.weights[i]:
        pairing = dot(alpha, xi)
        if pairing == 0:
            raise NotPolarizingError(
                f"direction pairs to zero with edge vector {vec_to_json(alpha)}")
        if pairing > 0:
            generators.append(vneg(alpha))
            flags.append(True)
        else:
            generators.append(alpha)
            flags.append(False)
    sign = -1 if sum(flags) % 2 else 1
    return PolarizedCone(P.vertices[i], tuple(generators), tuple(flags), sign)


def _contains(cone: PolarizedCone, x: Vec) -> bool:
    """x in the cone iff its coefficients A^-1 (x - apex) obey the flags,
    each sign read from an integer product with adj(A)."""
    _, adj, det = cone.lattice
    diff = vsub(x, cone.apex)
    denom = lcm(*(e.denominator for e in diff))
    y = [int(e * denom) for e in diff]
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
    time: m_j is affine in t under one floor, so a block's <p, xi> values
    are one list comprehension per generator, and the block adds its
    k-th powers to S_k, each list of powers the previous one times the
    block.
    """
    n = len(xi)
    cols, adj, det = cone.lattice
    h = _hermite_diagonal(cols)
    # A^-1 (r - apex) = adj (scale r - shift) / (scale det), scale making
    # the apex integral; signs flipped so the denominator is positive, and
    # an open generator's ceil(c) - 1 read as floor((num - 1) / den)
    scale = lcm(*[e.denominator for e in cone.apex])
    shift = [e.numerator * (scale // e.denominator) for e in cone.apex]
    if det < 0:
        adj = [list(map(neg, row)) for row in adj]
    base = [-sum(map(mul, row, shift)) - is_open
            for row, is_open in zip(adj, cone.open_flags)]
    step = [scale * row[-1] for row in adj]
    den = scale * abs(det)
    *head_sizes, line = h
    sums = [0] * (n + 1)
    for head in product(*map(range, head_sizes)):
        nums = [b + scale * sum(map(mul, row, head))
                for b, row in zip(base, adj)]
        q0 = sum(map(mul, head, xi))
        for start in range(0, line, POWER_SUM_BLOCK):
            ts = range(start, min(start + POWER_SUM_BLOCK, line))
            # <p, xi> = <r, xi> - sum_j m_j <g_j, xi>
            block = [q0 + xi[-1] * t for t in ts]
            for w, b, s in zip(ws, nums, step):
                block = [q - w * ((b + s * t) // den)
                         for q, t in zip(block, ts)]
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
        raise DomainError(
            f"point has dimension {len(x)}, expected {len(cone.apex)}")
    return _contains(cone, x)


def polar_decompose(P: Polytope, xi) -> tuple[PolarizedCone, ...]:
    """Polarized tangent cone at every vertex, in vertex order; cached on P,
    so the cones and their eliminations die with it."""
    xi = as_vec(xi)
    if xi not in P._polar:
        P._polar[xi] = tuple(polarize(P, i, xi)
                             for i in range(len(P.vertices)))
    return P._polar[xi]


def signed_indicator_sum(P: Polytope, xi, x) -> int:
    """Sum over vertices of sign * [x in polarized cone].

    Computed independently of any membership test on P itself; equality
    with ``P.contains(x)`` as 0/1 is the content of the decomposition
    identity and is asserted by the test suite, never assumed here.
    """
    xi = as_vec(xi)
    x = as_vec(x)
    if len(x) != P.dim:
        raise DomainError(f"point has dimension {len(x)}, expected {P.dim}")
    return sum(cone.sign for cone in polar_decompose(P, xi)
               if _contains(cone, x))


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
    cones = polar_decompose(P, xi)
    points = sum(abs(cone.lattice[2]) for cone in cones)
    if points > MAX_PARALLELEPIPED_POINTS:
        raise DomainError(
            f"vertex cones hold {points} parallelepiped points, over the "
            f"limit of {MAX_PARALLELEPIPED_POINTS}")
    # the constant term is unchanged by t -> ct, so xi may be made integral
    scale = lcm(*(e.denominator for e in xi))
    xi_int = [int(e * scale) for e in xi]
    total = Fraction(0)
    for cone in cones:
        ws = [sum(map(mul, col, xi_int)) for col in cone.lattice[0]]
        total += cone.sign * _constant_term(_power_sums(cone, xi_int, ws), ws)
    assert total.denominator == 1, f"non-integral lattice count {total}"
    return int(total)
