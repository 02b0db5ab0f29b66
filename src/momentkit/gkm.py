"""Moment graphs of smooth polytopes and their divisibility cohomology.

The moment graph of a Delzant polytope is its edge graph with each edge
labeled by the primitive direction between its endpoints.  A class is a
polynomial per vertex; it is admissible when every edge label divides the
difference of the endpoint polynomials.  The dimension of the admissible
classes in each degree comes from one fraction-free integer rank of their
linear constraints, Betti numbers from counting downward edges against a
generic direction, and the two are tied together by a free-module
(Hilbert series) identity.

Edge labels matter only up to a nonzero factor, sign included, so a
``MomentGraph`` stores each label's line and graphs whose labels differ by
such factors are equal.  Algorithms read ``lines`` for divisibility, degree
systems and generic directions, and ``isotropy`` for Morse counts and
fixed-point sums.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import mul

from . import linalg
from .algebra import (
    Poly,
    Vec,
    clear_denominators,
    generic_vector,
    is_zero_vec,
    linear_poly,
    monomials,
    pair_direction,
    poly_degree,
    poly_from_json,
    poly_sub,
    poly_to_json,
    primitive,
    restrict_to_hyperplane,
    vec_to_json,
    vneg,
)
from .errors import DomainError, NotDelzantError, check_limit, quoted
from .polytopes import Polytope, smoothness_report

# A candidate equivariant class: one polynomial per graph vertex.
GKMClass = tuple[Poly, ...]


@dataclass(frozen=True)
class MomentGraph:
    """Vertices with positions, edges, and the lines of their labels.

    The third argument labels ``edges[k] = (i, j)`` (i < j) with one vector
    per edge, whose endpoint positions must differ by a nonzero multiple of
    it, of any length and sign.  At every vertex the incident labels must be
    pairwise linearly independent.  Construction checks both, the first by
    integer cross-multiplication on positions cleared of denominators once,
    naming the labels as given in its messages.  It stores ``lines[k]``, the
    primitive of label k with a positive first nonzero entry (two labels are
    parallel exactly when their lines are equal), and ``isotropy[v]``, the
    primitive weights of the edges at v in increasing edge order, pointing
    away from v as int tuples, oriented by positions.  Positions and edges
    are kept as tuples, so two graphs are equal, and hash alike, exactly
    when their positions, edges and lines are.
    """

    positions: tuple[Vec, ...]
    edges: tuple[tuple[int, int], ...]
    lines: tuple[tuple[int, ...], ...]
    isotropy: tuple[tuple[tuple[int, ...], ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = tuple(map(tuple, self.positions))
        edges = tuple(map(tuple, self.edges))
        labels = self.lines
        nverts = len(positions)
        if nverts == 0:
            raise DomainError("moment graph needs at least one vertex")
        dims = {len(p) for p in positions}
        if len(dims) != 1:
            raise DomainError("vertex positions have mixed dimensions")
        dim = dims.pop()
        if dim < 1:
            raise DomainError("moment graph needs dimension at least 1")
        if len(labels) != len(edges):
            raise DomainError("one weight per edge required")
        cleared = [clear_denominators(p) for p in positions]
        seen = set()
        incidence: list[list[int]] = [[] for _ in range(nverts)]
        isotropy: list[list[tuple[int, ...]]] = [[] for _ in range(nverts)]
        lines = []
        for k, ((i, j), w) in enumerate(zip(edges, labels)):
            if not (0 <= i < j < nverts):
                raise DomainError(f"bad edge ({i}, {j})")
            if (i, j) in seen:
                raise DomainError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if len(w) != dim:
                raise DomainError(f"weight on edge ({i}, {j}) has dimension "
                                  f"{len(w)}, expected {dim}")
            if is_zero_vec(w):
                raise DomainError(f"zero weight on edge ({i}, {j})")
            p = next(t for t, c in enumerate(w) if c)
            line = primitive(w if w[p] > 0 else vneg(w))
            # v - u = delta / (d_u d_v) must be (dp / line[p]) line, dp != 0
            (U, du), (V, dv) = cleared[i], cleared[j]
            delta = [y * du - x * dv for x, y in zip(U, V)]
            dp = delta[p]
            if not dp or any(e * line[p] != c * dp for e, c in zip(delta, line)):
                raise DomainError(f"endpoints of edge ({i}, {j}) do not differ "
                                  f"by a nonzero multiple of its weight")
            lines.append(line)
            out = line if dp > 0 else vneg(line)  # from u towards v
            incidence[i].append(k)
            incidence[j].append(k)
            isotropy[i].append(out)
            isotropy[j].append(vneg(out))
        for v, ks in enumerate(incidence):
            for a, b in combinations(ks, 2):
                if lines[a] == lines[b]:
                    raise DomainError(f"parallel weights at vertex {v}: "
                                      f"{vec_to_json(labels[a])} and "
                                      f"{vec_to_json(labels[b])}")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "isotropy", tuple(map(tuple, isotropy)))
        object.__setattr__(self, "lines", tuple(lines))

    @property
    def dim(self) -> int:
        return len(self.positions[0])

    @property
    def labels(self) -> list[str]:
        return [f"v{i}" for i in range(len(self.positions))]


def moment_graph(P: Polytope) -> MomentGraph:
    """Edge graph of a Delzant polytope with primitive direction labels."""
    report = smoothness_report(P)
    if not report.smooth:
        raise NotDelzantError(f"polytope is not Delzant: {report.reason}")
    weights = tuple(P.weights[i][P.neighbors[i].index(j)] for i, j in P.edges)
    return MomentGraph(P.vertices, P.edges, weights)


# ---------------------------------------------------------------------------
# membership


def gkm_check(G: MomentGraph, cls: GKMClass) -> tuple[int, ...]:
    """Indices, in edge order, of the edges (i, j) whose line does not
    divide cls[i] - cls[j]; empty exactly when the class is admissible."""
    if len(cls) != len(G.positions):
        raise DomainError(
            f"class has {len(cls)} components, graph has {len(G.positions)} "
            f"vertices")
    bad = next((m for f in cls for m in f if len(m) != G.dim), None)
    if bad is not None:
        raise DomainError(f"class monomial {quoted(bad)} has {len(bad)} "
                          f"exponents, expected {G.dim}")
    return tuple(k for k, ((i, j), line) in enumerate(zip(G.edges, G.lines))
                 if restrict_to_hyperplane(line, poly_sub(cls[i], cls[j])))


# ---------------------------------------------------------------------------
# degreewise dimensions by exact rank

# Largest degree system built: one unknown per vertex and degree-k monomial,
# V * C(k + n - 1, n - 1) in all; larger degrees raise DomainError.  Near the
# limit a system takes 0.8-1.0 s on one x86 core (simplex:5:1, k=9: 4290)
# and 117 MB at its tracemalloc peak, nearly all its 3,300 dense rows.
MAX_DEGREE_UNKNOWNS = 5000


def _degree_system(G: MomentGraph, k: int) -> tuple[list[list[int]], int]:
    """Linear constraints on monomial coefficients of a degree-k class.

    Unknowns are ordered (vertex, monomial) with monomials in descending
    graded lex order.  Edge (i, j) with label w needs the difference of its
    endpoint components to vanish on w = 0: restricting each monomial m
    there adds its terms, at column (i, m) and negated at (j, m), to one
    dense row per returned monomial; rows are ordered by edge, then monomial.
    Restricting |a|^k m along the edge's line ``G.lines[k]`` (w's primitive
    up to sign, so the same hyperplane; |a|: its largest entry in absolute
    value, at its pivot) gives int entries; the factor, one per edge,
    leaves every rank and kernel unchanged."""
    if k < 0:
        raise DomainError("degree must be non-negative")
    n = G.dim
    unknowns = len(G.positions) * comb(k + n - 1, n - 1)
    check_limit(unknowns, MAX_DEGREE_UNKNOWNS,
                lambda: f"degree {k} needs {unknowns} unknowns,")
    monos = monomials(n, k)
    nmono = len(monos)
    rows: list[list[int]] = []
    for (i, j), line in zip(G.edges, G.lines):
        scale = max(map(abs, line)) ** k
        block: dict[tuple, list[int]] = defaultdict(lambda: [0] * unknowns)
        for idx, m in enumerate(monos):
            restricted = restrict_to_hyperplane(line, {m: scale})
            for mono, coeff in restricted.items():
                block[mono][i * nmono + idx] += coeff
                block[mono][j * nmono + idx] -= coeff
        rows.extend(block[m] for m in monos if m in block)
    return rows, unknowns


def gkm_dimension(G: MomentGraph, k: int) -> int:
    """Dimension over Q of the degree-k admissible classes."""
    rows, ncols = _degree_system(G, k)
    return ncols - linalg.rank(rows)


def gkm_degree_basis(G: MomentGraph, k: int) -> list[GKMClass]:
    """Basis of the degree-k admissible classes from the exact nullspace."""
    rows, ncols = _degree_system(G, k)
    monos = monomials(G.dim, k)
    n = len(monos)
    return [tuple({m: c for m, c in zip(monos, v[p * n:p * n + n]) if c}
                  for p in range(len(G.positions)))
            for v in linalg.nullspace(rows, ncols=ncols)]


# ---------------------------------------------------------------------------
# Morse counting


def choose_generic_direction(G: MomentGraph, seed=0) -> Vec:
    """Direction pairing nonzero with every edge line."""
    return generic_vector(G.dim, G.lines, seed=seed)


def betti_numbers(G: MomentGraph, xi) -> tuple[int, ...]:
    """Count vertices by number of downward edges against xi.

    Entry k is the number of vertices with exactly k incident edges whose
    other endpoint pairs lower against xi.  ``G.isotropy[v]`` points from
    v towards its neighbours, so an edge goes down exactly when its weight
    pairs negatively with xi: the Morse index of v counts the negative
    entries of its row of ``pair_direction``.
    """
    _, _, rows = pair_direction(G.isotropy, xi, G.dim)
    profile = [0] * (max(map(len, rows)) + 1)
    for row in rows:
        profile[len([p for p in row if p < 0])] += 1
    return tuple(profile)


def free_module_check(G: MomentGraph, k_max: int) -> bool:
    """Hilbert-series test: degreewise dimensions match a free module with
    one generator of degree j per vertex of downward count j.  The
    downward-edge profile is the same for every generic direction."""
    if k_max < 0:
        raise DomainError("k_max must be non-negative")
    b = betti_numbers(G, choose_generic_direction(G))
    n = G.dim
    for k in range(k_max + 1):
        expected = sum(b[j] * comb(k - j + n - 1, n - 1)
                       for j in range(min(k, len(b) - 1) + 1))
        if gkm_dimension(G, k) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# facet generators


def facet_class(P: Polytope, G: MomentGraph, facet: int) -> GKMClass:
    """Degree-1 class supported on one facet.

    Vertices off the facet get zero; a vertex on the facet gets the unique
    primitive edge direction leaving the facet there, read as a linear
    polynomial.
    """
    if len(G.positions) != len(P.vertices):
        raise DomainError("graph does not match the polytope")
    if facet not in P.facets:
        raise DomainError(f"half-space {facet} is not a facet")
    normal = P.int_rows[facet][0]
    components: list[Poly] = []
    for i in range(len(P.vertices)):
        if facet not in P.vertex_facets[i]:
            components.append({})
            continue
        leaving = [d for d in P.weights[i] if sum(map(mul, normal, d))]
        if len(leaving) != 1:
            raise NotDelzantError(
                f"vertex {i} does not have a unique edge leaving the facet")
        components.append(linear_poly(leaving[0]))
    return tuple(components)


# ---------------------------------------------------------------------------
# JSON forms


def gkm_class_to_json(G: MomentGraph, cls: GKMClass) -> dict:
    return {label: poly_to_json(f) for label, f in zip(G.labels, cls)}


# gkm_class_from_json refuses a class of higher total degree before any
# arithmetic: integrate on cube:3:3 with x^d at every vertex takes 0.45 s on
# one x86 core at the limit, 1.3 s at 100,000; the cost grows like d^2
MAX_CLASS_DEGREE = 50_000


def gkm_class_from_json(G: MomentGraph, obj) -> GKMClass:
    if not isinstance(obj, dict):
        raise ValueError("class JSON must map vertex labels to polynomials")
    expected = set(G.labels)
    got = set(obj)
    if got != expected:
        raise ValueError(
            f"class labels {quoted(sorted(got))} do not match graph labels "
            f"{quoted(sorted(expected))}")
    cls = tuple(poly_from_json(obj[label], G.dim) for label in G.labels)
    degree = max(map(poly_degree, cls))
    check_limit(degree, MAX_CLASS_DEGREE, lambda: f"class has degree {degree},")
    return cls
