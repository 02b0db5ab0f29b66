"""Fixed-point sums over moment graphs: push-forwards and exact volumes.

A class admissible on the moment graph integrates to the sum over vertices
of its local value divided by the product of the weights there.  Rational
function arithmetic is sidestepped by evaluating at a generic rational
point; sampling several such points certifies the identities exactly at
this scale for a class of degree at most n = dim, whose sum is a constant
rational function.  A part of degree d > n pushes forward to a polynomial of
degree d - n in the evaluation point, so the CLI's ``integrate`` reports
``oracle-mismatch`` (exit 4) for <v, X>^3 on ``cube:2:1``, for example.

One sum, ``_fixed_point_sum``, adds value_v / prod(row_v) over the rows of
``algebra.pair_direction``, the int pairings <w, X> of the weights at v with
xi = X/q cleared once per call.  ``pushforward`` checks a class, then
``fixed_point_value`` feeds the sum its values at X/q over the rows of
``MomentGraph.isotropy``, scaled by q^n.  ``volume_localization`` feeds it
<X_v, X>^n / D_v^n over the rows of ``Polytope.weights``, v = X_v/D_v read
from ``Polytope.int_vertices`` (q drops out of a term of degree 0), scaled by
(-1)^n / n!.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import mul

from . import gkm
from .algebra import (
    ZERO,
    Poly,
    Vec,
    linear_poly,
    pair_direction,
    poly_const,
    poly_eval,
    poly_mul,
)
from .errors import DomainError, NotDelzantError, check_limit
from .gkm import GKMClass, MomentGraph, gkm_check
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
    if not 0 <= v < len(G.positions):
        raise DomainError(f"no vertex {v} among {len(G.positions)} vertices")
    out = poly_const(G.dim, 1)
    for w in _isotropy(G)[v]:
        out = poly_mul(out, linear_poly(w))
    return out


def _fixed_point_sum(values, rows) -> Fraction:
    """Sum over vertices of values[v] / prod(rows[v]), the rows of
    ``pair_direction``: no pairing in them is zero."""
    total = ZERO
    for value, row in zip(values, rows):
        total += Fraction(value.numerator, value.denominator * prod(row))
    return total


def fixed_point_value(cls: GKMClass, G: MomentGraph, xi) -> Fraction:
    """Sum over vertices of component value over Euler class value at xi,
    for a class that ``pushforward`` has accepted: no check is made."""
    X, q, rows = pair_direction(_isotropy(G), xi, G.dim)
    point = tuple(Fraction(x, q) for x in X)
    return q ** G.dim * _fixed_point_sum((poly_eval(f, point) for f in cls), rows)


def pushforward(cls: GKMClass, G: MomentGraph, xi) -> Fraction:
    """Sum over vertices of component value over Euler class value at xi.

    Only classes passing the divisibility conditions have a well-defined
    push-forward, so admissibility is enforced up front, on every call.
    Before that, a value is refused when the squares of its monomials'
    degrees, each raised to ``TERM_DEGREE_FLOOR`` first, sum to more than
    ``gkm.MAX_CLASS_DEGREE ** 2``, read at call time; one monomial at the
    degree limit is allowed.  ``fixed_point_value`` then evaluates it.
    """
    for label, f in zip(G.labels, cls):
        work = sum(max(sum(mono), TERM_DEGREE_FLOOR) ** 2 for mono in f)
        check_limit(work, gkm.MAX_CLASS_DEGREE ** 2, lambda: (
            f"class value at {label} needs evaluation work {work} (its "
            f"squared monomial degrees, each at least {TERM_DEGREE_FLOOR}, "
            f"summed),"))
    failures = gkm_check(G, cls)
    if failures:
        raise DomainError(
            f"class fails the divisibility conditions on edges "
            f"{list(failures)}; its push-forward is undefined")
    return fixed_point_value(cls, G, xi)


def volume_localization(P: Polytope, xi) -> Fraction:
    """Exact volume as a fixed-point sum over the vertices.

    Each vertex contributes <v, xi>^n / (n! * prod_j <-alpha_j, xi>) with
    alpha_j its primitive edge directions, which is (-1)^n / n! times the
    push-forward of <v, X>^n.  Requires the Delzant conditions: without
    unimodular vertex cones the terms would need an extra index factor.
    """
    report = smoothness_report(P)
    if not report.smooth:
        raise NotDelzantError(f"polytope is not Delzant: {report.reason}")
    n = P.dim
    X, _, rows = pair_direction(P.weights, xi, n)
    values = (Fraction(sum(map(mul, V, X)) ** n, D ** n)
              for V, D in P.int_vertices)
    total = _fixed_point_sum(values, rows)
    return Fraction((-1) ** n, factorial(n)) * total
