"""Signed decomposition of a simple polytope into half-open vertex cones.

Fix a direction xi that pairs nonzero with every edge vector.  At each
vertex, edge generators pairing positively with xi are flipped so all
generators point against xi; flipped generators get strict (open)
coefficients and the cone enters with sign (-1)^(number flipped).  The
signed sum of cone indicators then reproduces the polytope indicator at
every point of R^n, boundary included, with no tolerance anywhere.  The
same bookkeeping turns signed per-cone lattice counts over a bounding box
into the exact lattice count of the polytope.

Only simple vertices are supported, so cone membership is a single n-by-n
solve; its signs are read off integer adjugate products, which keeps the
per-point cost low enough for brute-force box enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from . import linalg
from .algebra import Vec, as_vec, dot, generic_vector, primitive, vneg, vsub
from .errors import DomainError, NonSimpleVertexError, NotPolarizingError
from .polytopes import Polytope, VertexFigure


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
    integer product, so box enumeration never builds a Fraction.
    """

    __slots__ = ("dim", "apex", "open_flags", "adj", "det_sign", "scale", "shift")

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
        adj, d = found
        self.dim = n
        self.apex = cone.apex
        self.open_flags = cone.open_flags
        self.adj = adj
        self.det_sign = 1 if d > 0 else -1
        # apex cleared to integers: coefficients of L*(x - apex) share signs
        # with those of x - apex
        self.scale = lcm(*(e.denominator for e in cone.apex))
        self.shift = [int(self.scale * e) for e in cone.apex]

    def _admits(self, y: list[int]) -> bool:
        """Do the coefficients of y obey the flags?  y must be a positive
        multiple of x - apex with integer entries."""
        for row, is_open in zip(self.adj, self.open_flags):
            t = sum(a * b for a, b in zip(row, y)) * self.det_sign
            if t < 0 or (is_open and t == 0):
                return False
        return True

    def contains_int(self, x: tuple[int, ...]) -> bool:
        return self._admits([self.scale * xi - si
                             for xi, si in zip(x, self.shift)])

    def contains(self, x: Vec) -> bool:
        diff = vsub(x, self.apex)
        denom = lcm(*(e.denominator for e in diff))
        return self._admits([int(e * denom) for e in diff])


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
    """Signed sum over vertices of lattice counts of each cone within box.

    ``box`` is one inclusive integer (lo, hi) pair per coordinate and must
    contain P; the signed total is then independent of the box choice and
    equals the number of lattice points of P.
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
    ranges = [range(lo, hi + 1) for lo, hi in box]
    total = 0
    for tester, sign in _cached_testers(P, xi):
        count = 0
        for x in product(*ranges):
            if tester.contains_int(x):
                count += 1
        total += sign * count
    return total
