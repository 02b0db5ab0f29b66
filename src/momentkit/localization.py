"""Fixed-point sums over moment graphs: push-forwards and exact volumes.

A class admissible on the moment graph integrates to the sum over vertices
of its local value divided by the product of the weights there.  Rational
function arithmetic is sidestepped by evaluating at a generic rational
point; sampling several such points certifies the identities exactly at
this scale for a class of degree at most n = dim, whose sum is a constant
rational function.  A part of degree d > n pushes forward to a polynomial of
degree d - n in the evaluation point, so the CLI's ``integrate`` reports
``oracle-mismatch`` (exit 4) for <v, X>^3 on ``cube:2:1``, for example.

One sum, ``_fixed_point_sum``, evaluates value_v / prod_w <w, xi> over the
vertices.  ``pushforward`` takes the moment graph and feeds it a class's
values over the weights ``MomentGraph.isotropy``; ``volume_localization``
takes the polytope and feeds it <v, xi>^n over ``Polytope.weights``,
scaled by (-1)^n / n!.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (
    ONE,
    ZERO,
    Poly,
    Vec,
    as_vec,
    dot,
    linear_poly,
    poly_eval,
    poly_mul,
    vec_to_json,
)
from .errors import DomainError, NotDelzantError, NotGenericError
from .gkm import GKMClass, MomentGraph, gkm_check, gkm_degree_basis
from .polytopes import Polytope, smoothness_report


def _isotropy(G: MomentGraph) -> tuple[tuple[Vec, ...], ...]:
    """``G.isotropy``, checked to hold exactly dim weights at every vertex."""
    for v, at_v in enumerate(G.isotropy):
        if len(at_v) != G.dim:
            raise DomainError(
                f"vertex {v} has {len(at_v)} weights, expected {G.dim}")
    return G.isotropy


def euler_class_at(G: MomentGraph, v: int) -> Poly:
    """Product of the weight linear forms at a vertex, degree dim."""
    out = {(0,) * G.dim: Fraction(1)}
    for w in _isotropy(G)[v]:
        out = poly_mul(out, linear_poly(w))
    return out


def _fixed_point_sum(values, weights, xi: Vec) -> Fraction:
    """Sum over vertices of values[v] / prod of <w, xi> over weights[v]."""
    total = ZERO
    for value, at_v in zip(values, weights):
        denom = ONE
        for w in at_v:
            pairing = dot(w, xi)
            if pairing == 0:
                raise NotGenericError(
                    f"weight {vec_to_json(w)} vanishes at evaluation point "
                    f"{vec_to_json(xi)}")
            denom *= pairing
        total += value / denom
    return total


def _check_admissible(cls: GKMClass, G: MomentGraph) -> None:
    """Raise DomainError unless ``cls`` passes the divisibility conditions."""
    report = gkm_check(G, cls)
    if not report.ok:
        raise DomainError(
            f"class fails the divisibility conditions on edges "
            f"{list(report.failures)}; its push-forward is undefined")


def pushforward(cls: GKMClass, G: MomentGraph, xi) -> Fraction:
    """Sum over vertices of component value over Euler class value at xi.

    Only classes passing the divisibility conditions have a well-defined
    push-forward, so admissibility is enforced up front.
    """
    xi = as_vec(xi)
    weights = _isotropy(G)
    _check_admissible(cls, G)
    return _fixed_point_sum((poly_eval(f, xi) for f in cls), weights, xi)


def pushforward_degree_vanishing(G: MomentGraph, k: int, xi_samples) -> bool:
    """Do all degree-k admissible classes push forward to zero?

    Meaningful for k below the graph dimension, where vanishing is forced
    by degree counting; checked on a spanning set of degree-k classes at
    each supplied evaluation point, admissibility once per class.
    """
    n = G.dim
    if k >= n:
        raise DomainError(f"degree {k} is not below the dimension {n}")
    points = [as_vec(xi) for xi in xi_samples]
    if not points:
        raise DomainError("at least one evaluation point is required")
    basis = gkm_degree_basis(G, k)
    weights = _isotropy(G)
    for cls in basis:
        _check_admissible(cls, G)
        for xi in points:
            values = (poly_eval(f, xi) for f in cls)
            if _fixed_point_sum(values, weights, xi) != 0:
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
    total = _fixed_point_sum((dot(v, xi) ** n for v in P.vertices), P.weights, xi)
    return Fraction((-1) ** n, factorial(n)) * total
