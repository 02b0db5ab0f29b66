"""Fixed-point sums over moment graphs: push-forwards and exact volumes.

A class admissible on the moment graph integrates to the sum over vertices
of its local value divided by the product of the weights there.  Rational
function arithmetic is sidestepped by evaluating at a generic rational
point; sampling several such points certifies the identities exactly at
this scale, since the underlying sum is a constant rational function.

One sum, ``_fixed_point_sum``, evaluates value_v / prod_w <w, xi> over the
vertices.  ``pushforward`` feeds it a class's values; ``volume_localization``
feeds it <v, xi>^n and scales by (-1)^n / n!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import (
    ONE,
    ZERO,
    Poly,
    Vec,
    as_vec,
    dot,
    generic_vector,
    linear_poly,
    poly_eval,
    poly_mul,
    primitive,
    vsub,
)
from .errors import DomainError, NotDelzantError, NotGenericError
from .gkm import GKMClass, MomentGraph, gkm_check, gkm_degree_basis
from .polytopes import Polytope, smoothness_report


@dataclass(frozen=True)
class FixedPointData:
    """Per-vertex isotropy weights: the primitive edge directions pointing
    away from each vertex.  Exactly dim independent weights per vertex."""

    graph: MomentGraph
    weights: tuple[tuple[Vec, ...], ...]


def fixed_point_data(G: MomentGraph) -> FixedPointData:
    n = G.dim
    all_weights = []
    for v, ks in enumerate(G.incidence):
        at_v = []
        for k in ks:
            i, j = G.edges[k]
            other = j if v == i else i
            at_v.append(primitive(vsub(G.positions[other], G.positions[v])))
        if len(at_v) != n:
            raise DomainError(
                f"vertex {v} has {len(at_v)} weights, expected {n}")
        all_weights.append(tuple(at_v))
    return FixedPointData(G, tuple(all_weights))


def euler_class_at(data: FixedPointData, v: int) -> Poly:
    """Product of the weight linear forms at a vertex, degree dim."""
    out = {(0,) * data.graph.dim: Fraction(1)}
    for w in data.weights[v]:
        out = poly_mul(out, linear_poly(w))
    return out


def choose_evaluation_point(data: FixedPointData, seed=0) -> Vec:
    """Deterministic-from-seed point where no weight vanishes."""
    flat = [w for per_vertex in data.weights for w in per_vertex]
    return generic_vector(data.graph.dim, flat, seed=seed)


def _fixed_point_sum(values, weights, xi: Vec) -> Fraction:
    """Sum over vertices of values[v] / prod of <w, xi> over weights[v]."""
    total = ZERO
    for value, at_v in zip(values, weights):
        denom = ONE
        for w in at_v:
            pairing = dot(w, xi)
            if pairing == 0:
                raise NotGenericError(
                    f"weight {w} vanishes at evaluation point {xi}")
            denom *= pairing
        total += value / denom
    return total


def pushforward(cls: GKMClass, data: FixedPointData, xi) -> Fraction:
    """Sum over vertices of component value over Euler class value at xi.

    Only classes passing the divisibility conditions have a well-defined
    push-forward, so admissibility is enforced up front.
    """
    xi = as_vec(xi)
    report = gkm_check(data.graph, cls)
    if not report.ok:
        raise DomainError(
            f"class fails the divisibility conditions on edges "
            f"{list(report.failures)}; its push-forward is undefined")
    return _fixed_point_sum((poly_eval(f, xi) for f in cls), data.weights, xi)


def pushforward_degree_vanishing(data: FixedPointData, k: int, xi_samples) -> bool:
    """Do all degree-k admissible classes push forward to zero?

    Meaningful for k below the graph dimension, where vanishing is forced
    by degree counting; checked on a spanning set of degree-k classes at
    each supplied evaluation point.
    """
    n = data.graph.dim
    if k >= n:
        raise DomainError(f"degree {k} is not below the dimension {n}")
    points = [as_vec(xi) for xi in xi_samples]
    if not points:
        raise DomainError("at least one evaluation point is required")
    for cls in gkm_degree_basis(data.graph, k):
        for xi in points:
            if pushforward(cls, data, xi) != 0:
                return False
    return True


def volume_localization(P: Polytope, xi) -> Fraction:
    """Exact volume as a fixed-point sum over the vertices.

    Each vertex contributes <v, xi>^n / (n! * prod_j <-alpha_j, xi>) with
    alpha_j its primitive edge directions, which is (-1)^n / n! times the
    push-forward of <v, X>^n.  Requires the Delzant conditions: without
    unimodular vertex cones the terms would need an extra index factor.
    """
    xi = as_vec(xi)
    report = smoothness_report(P)
    if not report.smooth:
        raise NotDelzantError(f"polytope is not Delzant: {report.reason}")
    n = P.dim
    weights = [P.vertex_figure(i).primitive_edge_dirs
               for i in range(len(P.vertices))]
    total = _fixed_point_sum((dot(v, xi) ** n for v in P.vertices), weights, xi)
    return Fraction((-1) ** n, factorial(n)) * total
