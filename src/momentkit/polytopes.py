"""Compact convex rational polytopes from half-space data.

A polytope is ingested exclusively in H-representation: the bounded
intersection of half-spaces ``<normal, x> >= offset`` with inward-pointing
normals.  Vertices come exactly from all n-subsets of constraints.  Each
subset is one fraction-free integer solve (``linalg.solve_square``), whose
Cramer form (X, D), x = X/D, feeds integer sign tests against one table of
integer rows, in move-to-front order: a few rows reject most candidates,
and a rejected candidate is dropped with nothing recorded, so memory holds
the vertices, not the subsets.  A feasible candidate is recorded as a
Fraction tuple, for reports, and keeps its Cramer pair in an integer
vertex table.
What is derived later stays in ints: facets are the maximal tight vertex
sets, edge directions are differences of the tabled vertices, and a
membership test clears the point once and meets each integer row.
Edges and boundedness then come from one kernel test per distinct
(n-1)-subset of rows tight at some vertex: a kernel line through two
vertices is an edge, and one through a single vertex may be an unbounded
edge, whose ray names an unbounded region.  This is fast enough at the
scale this package targets (dimension <= 4, a few dozen half-spaces).
MAX_DIMENSION and MAX_CONSTRAINT_SUBSETS bound the loop.  A pivoting walk
would replace it once the benchmark's probes stop counting its solves
(C(2n, n) on cube:n).

Besides the representation itself this module carries the two brute-force
oracles that the rest of the package is validated against: exact Euclidean
volume by recursive cones over facets, and a lattice-point count over the
integer bounding box, which sums the runs of lattice points along the last
coordinate, read from the integer rows with no point held.  The volume
recursion reads each face as a vertex set from the vertex-facet incidence,
restricts no rows, and computes each face once, in a memo local to one
call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, floor, prod
from operator import mul

from . import linalg
from .algebra import (
    Vec,
    as_vec,
    check_digits,
    clear_denominators,
    dot,
    is_zero_vec,
    parse_rat,
    pivot_index,
    primitive,
    format_rat,
    vec_from_json,
    vec_to_json,
    vsub,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    EmptyRegionError,
    UnboundedRegionError,
    check_limit,
    quoted,
)


@dataclass(frozen=True)
class HalfSpace:
    """The constraint <normal, x> >= offset with inward-pointing normal;
    the canonical half-spaces of a ``Polytope`` hold primitive int normals."""

    normal: Vec | tuple[int, ...]
    offset: Fraction

    @staticmethod
    def make(normal, offset) -> "HalfSpace":
        return HalfSpace(as_vec(normal), Fraction(offset))


def _canonical_halfspace(hs: HalfSpace) -> HalfSpace:
    """Scale so the normal is a primitive integer vector, an int tuple.

    Positive rescalings describe the same half-space; the canonical form
    makes duplicates literal duplicates.  The offset scale is a Fraction,
    as ``/`` on two ints would be float division.
    """
    p = primitive(hs.normal)
    i = next(j for j, c in enumerate(hs.normal) if c != 0)
    return HalfSpace(p, hs.offset * Fraction(p[i], hs.normal[i]))


@dataclass(frozen=True)
class SmoothnessReport:
    simple: bool
    smooth: bool
    failing_vertex: int | None
    failing_det: int | None

    @property
    def reason(self) -> str | None:
        if self.smooth:
            return None
        return "not simple" if not self.simple else "non-unimodular vertex cone"


class Polytope:
    """Immutable bounded rational polytope with derived combinatorics.

    ``vertices`` are sorted lexicographically, and ``int_vertices[i]`` is
    vertex i as the Cramer pair (X, D), x = X/D, D > 0, gcd(X, D) = 1, that
    the build found it by: the per-vertex loops read this table.
    ``vertex_facets[i]`` is the frozenset of half-space indices active
    (tight) at vertex i; ``edges`` are index pairs (i, j) with i < j;
    ``neighbors[i]`` is the sorted tuple of vertices joined to vertex i by
    an edge, built once from ``edges``.  ``int_rows`` is the table of
    integer rows (q*a, p) of q*<a, x> >= p, a the primitive int tuple
    normal of each canonical half-space, in ``halfspaces`` order, that
    ``from_halfspaces`` built.  ``weights[i]`` holds the primitive
    directions of the edges leaving vertex i in ``neighbors[i]`` order (its
    isotropy weights) as int tuples, the one place a polytope derives edge
    directions: the edge (i, j) points along X_j*D_i - X_i*D_j.  ``facets``
    are read from the tight vertex sets alone (see its docstring).
    ``weights`` and ``facets`` are built on first read, then kept
    (``functools.cached_property``), both in ints.  A polytope keeps
    nothing per direction: ``polar.polar_decompose`` builds the polarized
    cones per call, and the caller holds them.
    """

    def __init__(self, dim, halfspaces, vertices, int_vertices, vertex_facets,
                 edges, int_rows):
        self.dim: int = dim
        self.halfspaces: tuple[HalfSpace, ...] = halfspaces
        self.vertices: tuple[Vec, ...] = vertices
        self.int_vertices: tuple[tuple[tuple[int, ...], int], ...] = int_vertices
        self.vertex_facets: tuple[frozenset[int], ...] = vertex_facets
        self.edges: tuple[tuple[int, int], ...] = edges
        self.int_rows: list[tuple[tuple[int, ...], int]] = int_rows
        adjacent: list[list[int]] = [[] for _ in vertices]
        for i, j in edges:
            adjacent[i].append(j)
            adjacent[j].append(i)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in adjacent)

    def __repr__(self) -> str:
        return (f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"edges={len(self.edges)}, halfspaces={len(self.halfspaces)})")

    @functools.cached_property
    def weights(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        table = self.int_vertices
        return tuple(
            tuple(primitive([y * d - x * e for x, y in zip(X, Y)])
                  for Y, e in map(table.__getitem__, adjacent))
            for (X, d), adjacent in zip(table, self.neighbors))

    @functools.cached_property
    def facets(self) -> tuple[int, ...]:
        """Half-space indices whose tight vertex set is (dim-1)-dimensional.

        With V_k the vertices tight on row k: when no row is tight at every
        vertex, P is full-dimensional, and its facets are its maximal proper
        faces (Ziegler, "Lectures on Polytopes", section 2): k is a facet
        when no V_j strictly contains V_k (every V_j contains an empty V_k
        strictly), and no rank is taken.  Otherwise P is flat: the rows
        tight everywhere, its implicit equalities, cut out its affine hull
        (Schrijver, "Theory of Linear and Integer Programming", 8.2) and
        are its facets if their normals have rank 1; it has none otherwise.
        """
        everywhere = frozenset.intersection(*self.vertex_facets)
        if everywhere:
            r = linalg.rank([self.int_rows[k][0] for k in everywhere])
            return tuple(sorted(everywhere)) if r == 1 else ()
        on_row: list[set[int]] = [set() for _ in self.halfspaces]
        for i, tight in enumerate(self.vertex_facets):
            for k in tight:
                on_row[k].add(i)
        return tuple(k for k, V in enumerate(on_row)
                     if not any(V < W for W in on_row))

    def contains(self, x) -> bool:
        """Boundary-inclusive membership test: x = X/d, cleared once, meets
        each integer row (a, p) when <a, X> >= p*d."""
        X, d = clear_denominators(as_vec(x))
        if len(X) != self.dim:
            raise DomainError(f"point has dimension {len(X)}, expected {self.dim}")
        return all(sum(map(mul, a, X)) >= p * d for a, p in self.int_rows)


def _ray(normals: list[tuple[int, ...]], v) -> list[int] | None:
    """d or -d, d the primitive integer vector along the kernel vector
    ``v``, whichever lies in the cone {d : <n_i, d> >= 0 for all i}; else
    None."""
    d = primitive(v)
    signs = [sum(map(mul, n, d)) for n in normals]
    for sign in (1, -1):
        if all(sign * s >= 0 for s in signs):
            return [sign * c for c in d]
    return None


def _edges(dim: int, normals: list[tuple[int, ...]],
           vertex_facets) -> tuple[tuple[int, int], ...]:
    """The sorted edges (i, j), i < j; raise unless the recession cone
    {d : <n_i, d> >= 0 for all i} is {0}.

    Vertices are grouped by the (dim-1)-subsets of their tight rows, one
    kernel per distinct subset.  A kernel line L meets P in a face of
    dimension <= 1, so L holds one or two vertices: two are an edge, kept
    once however many subsets name it.  An unbounded pointed polyhedron has
    a vertex with an unbounded edge, so only a line through one vertex can
    be a ray, and the first such line the scan meets names it.  Subsets are
    met vertex by vertex in sorted order, each vertex's in combinations
    order of its sorted tight rows, so the named ray is deterministic.
    """
    on_line: dict[tuple[int, ...], list[int]] = {}
    for i, facets in enumerate(vertex_facets):
        for s in combinations(sorted(facets), dim - 1):
            on_line.setdefault(s, []).append(i)
    edges = set()
    for s, ends in on_line.items():
        kernel = linalg.nullspace([normals[k] for k in s], ncols=dim)
        if len(kernel) != 1:
            continue
        if len(ends) == 2:
            edges.add(tuple(ends))
        elif ray := _ray(normals, kernel[0]):
            raise UnboundedRegionError(f"unbounded along direction {vec_to_json(ray)}")
    return tuple(sorted(edges))


# from_halfspaces, simplex and cube refuse a larger ambient dimension before
# they make any half-space; each constraint subset costs about n^2, so the
# subset limit alone would admit simplex:300 (45,451 subsets)
MAX_DIMENSION = 16


# from_halfspaces refuses, before any solve, m distinct half-spaces in
# dimension n when C(m, n) vertex solves plus C(m, n-1) kernel tests for
# edges and boundedness exceed this; cube:8 counts 24,310, a 40-half-space
# 3-D polytope 10,660.  The sum is an upper bound: the one kernel scan
# tests only the distinct (n-1)-subsets tight at some vertex, at most
# C(m, n-1), and on unbounded input stops at the first ray
MAX_CONSTRAINT_SUBSETS = 50_000


def from_halfspaces(dim: int, halfspaces) -> Polytope:
    """Build a polytope from inward half-spaces <normal, x> >= offset.

    Duplicate (positively proportional) constraints are merged; redundant
    ones are harmless.  Raises EmptyRegionError, UnboundedRegionError, or
    DegenerateInputError when the data does not cut out a compact polytope,
    and DomainError over MAX_DIMENSION or MAX_CONSTRAINT_SUBSETS.  Each
    half-space <a, x> >= p/q, a primitive, becomes the integer row (q*a, p).
    For the solution x = X/D of an n-subset, the sign of q*<a, X> - p*D
    rejects x or marks the row tight in ``vertex_facets``.  Rows are tested
    in move-to-front order, the last row to reject a candidate first: the
    order decides how soon a candidate is rejected, not whether, and a kept
    candidate meets every row.  Every candidate is scanned, and only a
    feasible one is recorded, so a vertex on more than n planes is found
    once per subset naming it and kept once.
    """
    if dim < 1:
        raise DomainError("ambient dimension must be at least 1")
    check_limit(dim, MAX_DIMENSION, lambda: f"dimension {dim} is")
    given = [h if isinstance(h, HalfSpace) else HalfSpace.make(*h) for h in halfspaces]
    if not given:
        raise DomainError("at least one half-space is required")
    for h in given:
        if len(h.normal) != dim:
            raise DomainError(f"normal {vec_to_json(h.normal)} does not have "
                              f"dimension {dim}")
        if is_zero_vec(h.normal):
            raise DomainError("half-space normal must be nonzero")
    canon = list(dict.fromkeys(_canonical_halfspace(h) for h in given))
    subsets = comb(len(canon), dim) + comb(len(canon), dim - 1)
    check_limit(subsets, MAX_CONSTRAINT_SUBSETS, lambda: (
        f"{len(canon)} half-spaces in dimension {dim} need {subsets} "
        f"constraint subsets,"))

    rows = [(tuple(c * h.offset.denominator for c in h.normal),
             h.offset.numerator) for h in canon]
    normals = [a for a, _ in rows]
    any_invertible = False
    # each feasible solution X/D as a Fraction tuple -> (its tight row
    # indices, (X, D))
    found: dict[Vec, tuple[frozenset[int], tuple[tuple[int, ...], int]]] = {}
    # (k, a, p) in test order, the last row to reject a candidate first
    order = [(k, a, p) for k, (a, p) in enumerate(rows)]
    for a_rows, b in zip(combinations(normals, dim),
                         combinations([p for _, p in rows], dim)):
        solution = linalg.solve_square(a_rows, b)
        if solution is None:
            continue
        any_invertible = True
        X, D = solution
        tight = []
        for i, (k, a, p) in enumerate(order):
            s = sum(map(mul, a, X)) - p * D
            if s < 0:
                if i:
                    order.insert(0, order.pop(i))
                break
            if not s:
                tight.append(k)
        else:
            found[tuple(Fraction(c, D) for c in X)] = (frozenset(tight),
                                                       solution)

    if not found:
        if not any_invertible:
            raise DegenerateInputError(
                "every constraint subset is singular: the normals do not span, "
                "so the region is empty or contains a line")
        raise EmptyRegionError("the half-spaces have empty intersection")

    verts = tuple(sorted(found))
    vertex_facets, int_vertices = zip(*map(found.__getitem__, verts))
    return Polytope(dim, tuple(canon), verts, int_vertices, vertex_facets,
                    _edges(dim, normals, vertex_facets), rows)


# ---------------------------------------------------------------------------
# builders


def simplex(n: int, scale=1) -> Polytope:
    """Standard n-simplex conv{0, scale*e_1, ..., scale*e_n}."""
    scale = Fraction(scale)
    if n < 1 or scale <= 0:
        raise DomainError("simplex needs n >= 1 and scale > 0")
    check_limit(n, MAX_DIMENSION, lambda: f"dimension {n} is")
    hs = [HalfSpace.make([1 if j == i else 0 for j in range(n)], 0) for i in range(n)]
    hs.append(HalfSpace.make([-1] * n, -scale))
    return from_halfspaces(n, hs)


def cube(n: int, scale=1) -> Polytope:
    """Axis cube [0, scale]^n."""
    scale = Fraction(scale)
    if n < 1 or scale <= 0:
        raise DomainError("cube needs n >= 1 and scale > 0")
    check_limit(n, MAX_DIMENSION, lambda: f"dimension {n} is")
    hs = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        hs.append(HalfSpace.make(e, 0))
        hs.append(HalfSpace.make([-c for c in e], -scale))
    return from_halfspaces(n, hs)


def hirzebruch(a: int) -> Polytope:
    """Trapezoid conv{(0,0), (a+1,0), (0,1), (1,1)}, smooth for every a >= 1.

    Any dilation or translation of this trapezoid would do equally well;
    these coordinates are simply a convenient normal form.
    """
    if a < 1:
        raise DomainError("hirzebruch parameter must be a positive integer")
    hs = [
        HalfSpace.make([1, 0], 0),
        HalfSpace.make([0, 1], 0),
        HalfSpace.make([0, -1], -1),
        HalfSpace.make([-1, -a], -(a + 1)),
    ]
    return from_halfspaces(2, hs)


def dilate(P: Polytope, k) -> Polytope:
    """Scale the polytope by a positive rational factor about the origin."""
    k = Fraction(k)
    if k <= 0:
        raise DomainError("dilation factor must be positive")
    return from_halfspaces(
        P.dim, [HalfSpace(h.normal, h.offset * k) for h in P.halfspaces])


def from_spec(spec: str) -> Polytope:
    """Parse builder specs like "simplex:2:1", "cube:3:2", "hirzebruch:1".

    A part written with more digits than the limit is refused
    (``check_digits``) before ``int`` sees it.
    """
    parts = spec.split(":")
    for part in parts:
        check_digits(part)
    name = parts[0]
    try:
        if name == "simplex" and len(parts) == 3:
            return simplex(int(parts[1]), parse_rat(parts[2]))
        if name == "cube" and len(parts) == 3:
            return cube(int(parts[1]), parse_rat(parts[2]))
        if name == "hirzebruch" and len(parts) == 2:
            return hirzebruch(int(parts[1]))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise ValueError(f"malformed builder spec {quoted(spec, exc)}") from exc
    raise ValueError(
        f"unknown builder spec {quoted(spec)}; expected simplex:n:scale, "
        f"cube:n:scale, or hirzebruch:a")


def catalog_specs() -> list[str]:
    """Builder specs of the standard verification catalog: simplices and
    cubes of dimension 1-3 and scale 1-3, then hirzebruch:1-3."""
    specs = [f"simplex:{n}:{s}" for n in range(1, 4) for s in range(1, 4)]
    specs += [f"cube:{n}:{s}" for n in range(1, 4) for s in range(1, 4)]
    return specs + [f"hirzebruch:{a}" for a in range(1, 4)]


# ---------------------------------------------------------------------------
# Delzant conditions


def smoothness_report(P: Polytope) -> SmoothnessReport:
    """The Delzant test; stops at the first vertex that fails it."""
    for i, n in enumerate(P.neighbors):
        if len(n) != P.dim:
            return SmoothnessReport(simple=False, smooth=False,
                                    failing_vertex=i, failing_det=None)
    for i, at_v in enumerate(P.weights):
        d = abs(linalg.det(at_v))
        if d != 1:
            return SmoothnessReport(simple=True, smooth=False,
                                    failing_vertex=i, failing_det=d)
    return SmoothnessReport(simple=True, smooth=True,
                            failing_vertex=None, failing_det=None)


# ---------------------------------------------------------------------------
# brute-force oracles


def volume_oracle(P: Polytope) -> Fraction:
    """Exact Euclidean volume by recursive cones over facets.

    From a base vertex, each facet not through it contributes
    height/|pivot coefficient| times the facet volume computed in projected
    coordinates; dropping the pivot coordinate cancels the Euclidean norm
    factors exactly, keeping every intermediate value rational.  A face is
    its vertex set, read from ``P.vertex_facets``; no row is restricted.  Its
    projected volume depends only on that set and the coordinates it keeps,
    so a memo local to the call computes each face once, however many facet
    orderings reach it.  P is flat, without volume, exactly when a row is
    tight at every vertex (an implicit equality), and then it is refused.
    It runs on the integer vertices d * v, d their least common denominator,
    so its kernels get integer rows, and finds d^n times P's volume.
    """
    if frozenset.intersection(*P.vertex_facets):
        raise DegenerateInputError("polytope is not full-dimensional")
    on_row = {frozenset(i for i, t in enumerate(P.vertex_facets) if k in t)
              for k in frozenset().union(*P.vertex_facets)}
    flat, d = clear_denominators([x for v in P.vertices for x in v])
    top = [flat[i:i + P.dim] for i in range(0, len(flat), P.dim)]
    return Fraction(_volume(top, on_row, frozenset(range(len(top))),
                            tuple(range(P.dim)), {}), d ** P.dim)


def _volume(top, on_row, face, kept, memo) -> Fraction:
    """Volume of the face with vertices top[i], i in ``face``, projected on
    the coordinates ``kept``; ``on_row`` holds the vertices tight on each
    row, and ``memo`` maps (face, kept) to the volumes found.  A facet F of
    the face G is G & R, where R holds the vertices tight on a row tight on
    F but not on all of G (G & R is a proper face of G containing F), and
    the one kernel vector of F's edge vectors is its normal."""
    n = len(kept)
    if n == 1:
        xs = [top[i][kept[0]] for i in face]
        return max(xs) - min(xs)
    base = tuple(top[min(face)][c] for c in kept)
    total = Fraction(0)
    for facet in {face & s for s in on_row}:
        if len(facet) < n or facet == face:
            continue
        first, *rest = [tuple(top[i][c] for c in kept) for i in sorted(facet)]
        kernel = linalg.nullspace([vsub(p, first) for p in rest])
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        height = abs(dot(normal, vsub(base, first)))
        if height == 0:
            continue
        piv = pivot_index(normal)
        key = (facet, kept[:piv] + kept[piv + 1:])
        if key not in memo:
            memo[key] = _volume(top, on_row, facet, key[1], memo)
        total += height / abs(normal[piv]) * memo[key]
    return total / n


def _vertex_box(P: Polytope, low, high) -> list[tuple[int, int]]:
    return [(low(min(coords)), high(max(coords))) for coords in zip(*P.vertices)]


def integer_box(P: Polytope) -> list[tuple[int, int]]:
    """Per-coordinate integer range [ceil(min), floor(max)] of candidate
    lattice points inside P."""
    return _vertex_box(P, ceil, floor)


def tight_box(P: Polytope) -> list[tuple[int, int]]:
    """Smallest integer box [floor(min), ceil(max)] containing P."""
    return _vertex_box(P, floor, ceil)


# lattice_points_oracle refuses an integer box with more points than this;
# it makes one pass over the rows per prefix and holds one residual per row;
# the largest benchmark count job has a box of 120,801 points
MAX_BOX_POINTS = 1_000_000


def check_box_size(box) -> None:
    """Raise DomainError when the inclusive integer ``box`` holds more than
    MAX_BOX_POINTS points."""
    points = prod(max(0, hi - lo + 1) for lo, hi in box)
    check_limit(points, MAX_BOX_POINTS,
                lambda: f"integer box holds {points} points,")


def _lattice_runs(P: Polytope, box):
    """Yield (prefix, low, high) for each nonempty run low <= t <= high of
    lattice points of P in ``box``, t the last coordinate, in lexicographic
    order.  A row (a, p) says c*t >= r, c = a[-1], r = p - <a[:-1], prefix>:
    c > 0 raises low to ceil(r/c), c < 0 lowers high to floor(r/c), and
    c = 0 < r empties the run.  r is computed once per line of the innermost
    prefix coordinate u (in dimension 1, one step with coefficient 0), then
    stepped by -a[-2] as u grows."""
    *head, (lo, hi) = box
    *outer, (u0, u1) = head or [(0, 0)]
    m = len(outer)
    rows = [(a[:m], a[m] if head else 0, a[-1], p) for a, p in P.int_rows]
    for start in product(*(range(a, b + 1) for a, b in outer)):
        line = [[p - sum(map(mul, a, start)) - b * u0, b, c]
                for a, b, c, p in rows]
        for u in range(u0, u1 + 1):
            low, high = lo, hi
            for row in line:
                r, b, c = row
                row[0] = r - b
                if c > 0:
                    if (t := -(-r // c)) > low:
                        low = t
                elif c < 0:
                    if (t := r // c) < high:
                        high = t
                elif r > 0:
                    low = hi + 1  # no break: every residual still steps
            if low <= high:
                yield (*start, u)[:len(head)], low, high


def lattice_points_oracle(P: Polytope) -> int:
    """The number of integer points of P, the sum of the run lengths of
    ``_lattice_runs``; refused, before any scan, when the integer bounding
    box holds over MAX_BOX_POINTS points.  No point is held."""
    box = integer_box(P)
    check_box_size(box)
    return sum(high - low + 1 for _, low, high in _lattice_runs(P, box))


# ---------------------------------------------------------------------------
# JSON form


def polytope_to_json(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "halfspaces": [
            {"normal": vec_to_json(h.normal), "offset": format_rat(h.offset)}
            for h in P.halfspaces
        ],
    }


def polytope_from_json(obj) -> Polytope:
    if not isinstance(obj, dict) or "dim" not in obj or "halfspaces" not in obj:
        raise ValueError("polytope JSON must have 'dim' and 'halfspaces'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"'dim' must be an integer, got {quoted(dim)}")
    entries = obj["halfspaces"]
    if not isinstance(entries, list):
        raise ValueError(f"'halfspaces' must be a list, got {quoted(entries)}")
    hs = []
    for entry in entries:
        if not isinstance(entry, dict) or not {"normal", "offset"} <= entry.keys():
            raise ValueError("half-space entry must be an object with "
                             f"'normal' and 'offset', got {quoted(entry)}")
        normal = vec_from_json(entry["normal"])
        if len(normal) != dim:
            raise ValueError(f"normal {quoted(entry['normal'])} has "
                             f"{len(normal)} entries, expected {dim}")
        hs.append(HalfSpace(normal, parse_rat(entry["offset"])))
    return from_halfspaces(dim, hs)
