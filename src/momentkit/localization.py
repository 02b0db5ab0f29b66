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
from .gkm import MAX_CLASS_DEGREE, GKMClass, MomentGraph, gkm_check
from .polytopes import Polytope, smoothness_report

# Evaluating a monomial of degree d at an integer point costs about d^2 past
# a fixed 3-30 us of Fraction arithmetic per term (x86, one core), which is
# what the d^2 part costs at d = 1000; the work limit charges each term so.
TERM_DEGREE_FLOOR = 1000


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


def pushforward(cls: GKMClass, G: MomentGraph, xi) -> Fraction:
    """Sum over vertices of component value over Euler class value at xi.

    Only classes passing the divisibility conditions have a well-defined
    push-forward, so admissibility is enforced up front.  Before that, a
    value is refused when the squares of its monomials' degrees, each
    raised to ``TERM_DEGREE_FLOOR`` first, sum to more than
    ``MAX_CLASS_DEGREE ** 2``; one monomial at the degree limit is allowed.
    """
    xi = as_vec(xi)
    limit = MAX_CLASS_DEGREE ** 2
    for label, f in zip(G.labels, cls):
        work = sum(max(sum(mono), TERM_DEGREE_FLOOR) ** 2 for mono in f)
        if work > limit:
            raise DomainError(
                f"class value at {label} needs evaluation work {work} (its "
                f"squared monomial degrees, each at least "
                f"{TERM_DEGREE_FLOOR}, summed), over the limit of {limit}")
    weights = _isotropy(G)
    report = gkm_check(G, cls)
    if not report.ok:
        raise DomainError(
            f"class fails the divisibility conditions on edges "
            f"{list(report.failures)}; its push-forward is undefined")
    return _fixed_point_sum((poly_eval(f, xi) for f in cls), weights, xi)


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
