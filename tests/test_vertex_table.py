"""The integer vertex table and the per-vertex loops that read it, each
against the Fraction body it replaced.

``Polytope.int_vertices`` holds every vertex as its Cramer pair (X, D).
``Polytope.contains``, ``polar.signed_indicator_sum`` and its one-cone term,
``is_polarizing``, ``gkm.betti_numbers``, ``gkm.facet_class``,
``localization.pushforward`` and ``volume_localization`` clear the point
or direction once and pair in ints.  Their former bodies, one Fraction
operation per coordinate, are kept here as twins, and every case compares
the answer or the exact error, type and message.
"""

import json
from fractions import Fraction as F
from itertools import product
from math import factorial

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentkit import cli, gkm, linalg, localization, polar
from momentkit.algebra import (
    as_vec, clear_denominators, dot, linear_poly, poly_eval, poly_mul,
    vec_to_json, vsub)
from momentkit.errors import DomainError, NotGenericError
from momentkit.polytopes import (
    catalog_specs, from_halfspaces, from_spec, tight_box)

from test_algebra import poly_pow
from test_polar import _in_cone, rational_simple_polytopes


# ---------------------------------------------------------------------------
# the Fraction twins: the bodies the integer loops replaced


def _fraction_contains(P, x):
    """``Polytope.contains`` with one Fraction dot per half-space."""
    x = as_vec(x)
    if len(x) != P.dim:
        raise DomainError(f"point has dimension {len(x)}, expected {P.dim}")
    return all(dot(a, x) >= p for a, p in P.int_rows)


def _fraction_cone_contains(cone, x):
    """``polar._contains`` clearing x - apex per cone, in Fractions."""
    x = as_vec(x)
    if len(x) != len(cone.apex):
        raise DomainError(
            f"point has dimension {len(x)}, expected {len(cone.apex)}")
    _, adj, det = cone.lattice
    y, _ = clear_denominators(vsub(x, cone.apex))
    for row, is_open in zip(adj, cone.open_flags):
        t = sum(a * b for a, b in zip(row, y)) * det
        if t < 0 or (is_open and t == 0):
            return False
    return True


def _fraction_indicator_sum(cones, x):
    return sum(cone.sign for cone in cones if _fraction_cone_contains(cone, x))


def _fraction_is_polarizing(P, xi):
    xi = as_vec(xi)
    return all(dot(w, xi) != 0 for at_v in P.weights for w in at_v)


def _fraction_betti(G, xi):
    """``betti_numbers`` from the heights <p, xi> of the positions."""
    xi = as_vec(xi)
    heights = [dot(p, xi) for p in G.positions]
    profile = [0] * (max(map(len, G.isotropy)) + 1)
    for v, at_v in enumerate(G.isotropy):
        down = 0
        for w, (i, j) in zip(at_v, (e for e in G.edges if v in e)):
            if heights[i] == heights[j]:
                raise NotGenericError(f"direction pairs to zero with weight "
                                      f"{vec_to_json(w)} at vertex {v}")
            down += heights[j if i == v else i] < heights[v]
        profile[down] += 1
    return tuple(profile)


def _fraction_facet_class(P, G, facet):
    normal = P.int_rows[facet][0]
    out = []
    for i, tight in enumerate(P.vertex_facets):
        leaving = [d for d in P.weights[i] if dot(normal, d) != 0]
        out.append(linear_poly(leaving[0]) if facet in tight else {})
    return tuple(out)


def _fraction_fixed_point_sum(values, weights, xi):
    """Sum over vertices of values[v] / prod of <w, xi>, in Fractions."""
    total = F(0)
    for v, (value, at_v) in enumerate(zip(values, weights)):
        denom = F(1)
        for w in at_v:
            pairing = dot(w, xi)
            if pairing == 0:
                raise NotGenericError(f"direction pairs to zero with weight "
                                      f"{vec_to_json(w)} at vertex {v}")
            denom *= pairing
        total += value / denom
    return total


def _fraction_pushforward(cls, G, xi):
    xi = as_vec(xi)
    return _fraction_fixed_point_sum((poly_eval(f, xi) for f in cls),
                                     G.isotropy, xi)


def _fraction_volume(P, xi):
    xi = as_vec(xi)
    n = P.dim
    total = _fraction_fixed_point_sum((dot(v, xi) ** n for v in P.vertices),
                                      P.weights, xi)
    return F((-1) ** n, factorial(n)) * total


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# inputs


def _mapped(P, U, t):
    """The image of P under x -> U x + t, U in GL_n(Z), t rational."""
    adj, d = linalg.adjugate_int(U)
    n = P.dim
    inv = [[d * x for x in row] for row in adj]  # U^-1, as det U = +-1
    hs = []
    for a, p in P.int_rows:
        normal = tuple(sum(inv[i][k] * a[i] for i in range(n))
                       for k in range(n))
        hs.append((normal, p + dot(normal, t)))
    return from_halfspaces(n, hs)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def delzant_polytopes(draw):
    """A catalog polytope, dilated by a rational factor and moved by a
    lattice map x -> U x + t with a rational t: still Delzant, with
    rational vertices."""
    P = from_spec(draw(st.sampled_from(catalog_specs())))
    n = P.dim
    k = draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
    P = from_halfspaces(n, [(a, p * k) for a, p in P.int_rows])
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        c = draw(st.integers(-2, 2)) if i != j else 0
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    if draw(st.booleans()):
        U[0] = [-a for a in U[0]]
    t = draw(st.tuples(*[rationals] * n))
    return _mapped(P, U, t)


def _boundary_points(P):
    """Vertices, edge midpoints and facet centroids, where >= and > differ,
    the centroid, and each of them pushed a little along every axis."""
    pts = list(P.vertices)
    pts += [tuple((a + b) / 2 for a, b in zip(P.vertices[i], P.vertices[j]))
            for i, j in P.edges]
    for k in P.facets:
        on = [v for v, tight in zip(P.vertices, P.vertex_facets) if k in tight]
        pts.append(tuple(sum(c) / len(on) for c in zip(*on)))
    pts.append(tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices)))
    nudged = []
    for p in pts[len(P.vertices):]:
        for i in range(P.dim):
            for eps in (F(1, 7), F(-1, 5)):
                nudged.append(tuple(c + eps * (j == i) for j, c in enumerate(p)))
    return pts + nudged


# ---------------------------------------------------------------------------
# the table


def test_vertex_table_is_the_cleared_vertices():
    shapes = [from_spec(s) for s in catalog_specs()]
    shapes.append(from_halfspaces(2, [((1, 0), F(1, 3)), ((0, 1), F(-2, 5)),
                                      ((-1, -1), -3)]))
    for P in shapes:
        assert len(P.int_vertices) == len(P.vertices)
        for v, (X, D) in zip(P.vertices, P.int_vertices):
            assert type(X) is tuple and all(type(c) is int for c in X)
            assert (list(X), D) == clear_denominators(v)


# ---------------------------------------------------------------------------
# twins


@settings(max_examples=60, deadline=None)
@given(st.one_of(delzant_polytopes(), rational_simple_polytopes()),
       st.tuples(*[rationals] * 3))
def test_membership_and_indicator_match_the_fraction_twins(P, draw):
    xi = draw[:P.dim]
    assert polar.is_polarizing(P, xi) == _fraction_is_polarizing(P, xi)
    assume(polar.is_polarizing(P, xi))
    cones = polar.polar_decompose(P, xi)
    for x in _boundary_points(P):
        inside = P.contains(x)
        assert inside == _fraction_contains(P, x)
        assert polar.signed_indicator_sum(cones, x) == int(inside)
        assert _fraction_indicator_sum(cones, x) == int(inside)
        for cone in cones:
            assert _in_cone(cone, x) == _fraction_cone_contains(cone, x)


def test_open_flags_and_rational_apexes_are_exercised():
    P = _mapped(from_spec("hirzebruch:2"), [[1, 0], [0, 1]], (F(1, 3), F(-1, 2)))
    cones = polar.polar_decompose(P, (F(3, 2), F(-1, 3)))
    assert any(any(c.open_flags) for c in cones)
    assert all(any(e.denominator > 1 for e in c.apex) for c in cones)
    for cone in cones:
        for x in _boundary_points(P):
            assert _in_cone(cone, x) == _fraction_cone_contains(cone, x)


def test_wrong_dimensions_raise_as_the_twins_do():
    P = from_spec("cube:2:1")
    cones = polar.polar_decompose(P, (1, 2))
    G = gkm.moment_graph(P)
    x = (1, 2, 3)
    for new, old in (
            (lambda: P.contains(x), lambda: _fraction_contains(P, x)),
            (lambda: polar.signed_indicator_sum(cones, x),
             lambda: _fraction_indicator_sum(cones, x)),
            (lambda: polar.is_polarizing(P, x),
             lambda: _fraction_is_polarizing(P, x)),
            (lambda: gkm.betti_numbers(G, x), lambda: _fraction_betti(G, x))):
        got = _outcome(new)
        assert type(got) is tuple and got == _outcome(old)


# small entries make ties: edges and pairs of vertices at equal height
small_directions = st.tuples(*[st.fractions(min_value=-2, max_value=2,
                                            max_denominator=2)] * 3)


@settings(max_examples=80, deadline=None)
@given(delzant_polytopes(), small_directions)
def test_betti_and_facet_classes_match_the_fraction_twins(P, draw):
    G = gkm.moment_graph(P)
    xi = draw[:P.dim]
    assert _outcome(gkm.betti_numbers, G, xi) == _outcome(_fraction_betti, G, xi)
    for k in P.facets:
        assert gkm.facet_class(P, G, k) == _fraction_facet_class(P, G, k)


def test_betti_ties_between_vertices_off_an_edge_are_generic():
    # (0, 1) and (1, 0) on the square share height 1 at xi = (1, 1), but
    # no edge joins them; every edge of the square pairs nonzero
    G = gkm.moment_graph(from_spec("cube:2:1"))
    assert gkm.betti_numbers(G, (1, 1)) == _fraction_betti(G, (1, 1)) == (1, 2, 1)
    for xi in ((0, 1), (F(3, 2), 0)):
        got = _outcome(gkm.betti_numbers, G, xi)
        assert got == _outcome(_fraction_betti, G, xi)
        assert got[0] is NotGenericError


def test_cones_and_morse_indices_read_one_pairing_per_weight():
    # the polytope and its graph hold one weight table; a generic direction
    # flips the weights pairing positively with it and counts those pairing
    # negatively, so a vertex's Morse index is the number of closed
    # generators of its cone, and a direction pairing to zero with a weight
    # is refused by every entry point under one message
    generic = refused = 0
    for spec in [*catalog_specs(), "cube:4:1", "simplex:4:1"]:
        P = from_spec(spec)
        G = gkm.moment_graph(P)
        assert P.weights == G.isotropy
        n = P.dim
        zero = ({},) * len(P.vertices)
        for xi in product(range(-2, 3), repeat=n):
            if not any(xi):
                continue
            got = _outcome(polar.polar_decompose, P, xi)
            if got[0] is NotGenericError:
                for call in (lambda: gkm.betti_numbers(G, xi),
                             lambda: localization.volume_localization(P, xi),
                             lambda: localization.pushforward(zero, G, xi)):
                    assert _outcome(call) == got
                refused += 1
                continue
            closed = [n - sum(cone.open_flags) for cone in got]
            assert gkm.betti_numbers(G, xi) == tuple(
                closed.count(k) for k in range(n + 1))
            generic += 1
    assert (generic, refused) == (694, 1538)


def _classes(P, G):
    """Admissible classes of degree 0..n + 1: the unit, products of facet
    classes, and the moment power <v, X>^n."""
    n = P.dim
    facets = [gkm.facet_class(P, G, k) for k in P.facets]
    out = [({(0,) * n: F(1)},) * len(P.vertices)]
    cls = out[0]
    for f in (facets * 2)[:n + 1]:
        cls = tuple(map(poly_mul, cls, f))
        out.append(cls)
    out.append(tuple(poly_pow(linear_poly(v), n) for v in P.vertices))
    return out


@settings(max_examples=60, deadline=None)
@given(delzant_polytopes(), small_directions)
def test_fixed_point_sums_match_the_fraction_twin(P, draw):
    G = gkm.moment_graph(P)
    xi = draw[:P.dim]
    for cls in _classes(P, G):
        got = _outcome(localization.pushforward, cls, G, xi)
        assert got == _outcome(_fraction_pushforward, cls, G, xi)
        assert got == _outcome(localization.fixed_point_value, cls, G, xi)
    assert _outcome(localization.volume_localization, P, xi) == \
        _outcome(_fraction_volume, P, xi)


def test_a_weight_pairing_to_zero_names_it_as_the_twin_does():
    P = _mapped(from_spec("cube:2:1"), [[1, 1], [0, 1]], (F(1, 2), F(-1, 3)))
    G = gkm.moment_graph(P)
    xi = (F(1, 2), F(-1, 2))  # pairs to zero with (1, 1)
    unit = ({(0, 0): F(1)},) * 4
    for new, old, args in (
            (localization.pushforward, _fraction_pushforward, (unit, G, xi)),
            (localization.fixed_point_value, _fraction_pushforward,
             (unit, G, xi)),
            (localization.volume_localization, _fraction_volume, (P, xi))):
        got = _outcome(new, *args)
        assert got == _outcome(old, *args)
        assert got == (NotGenericError, "direction pairs to zero with "
                       "weight ['1', '1'] at vertex 0")


def test_every_refusal_of_a_direction_is_one_class(tmp_path, capsys):
    # (1, 1) and (1/2, 1/2) pair to zero with the triangle's edge (1, -1):
    # each entry point refuses them as NotGenericError, under the one
    # message of ``pair_direction``, which names the weight and its vertex
    P = from_spec("simplex:2:1")
    G = gkm.moment_graph(P)
    unit = ({(0, 0): F(1)},) * 3
    message = "direction pairs to zero with weight ['1', '-1'] at vertex 1"
    for xi in ((1, 1), (F(1, 2), F(1, 2))):
        for call in (
                lambda: polar.polar_decompose(P, xi),
                lambda: polar.signed_lattice_count(P, xi, tight_box(P)),
                lambda: gkm.betti_numbers(G, xi),
                lambda: localization.pushforward(unit, G, xi),
                lambda: localization.fixed_point_value(unit, G, xi),
                lambda: localization.volume_localization(P, xi)):
            assert _outcome(call) == (NotGenericError, message)
    # through the CLI each refusal exits 3 with the message, and volume
    # retries with a seeded direction
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(gkm.gkm_class_to_json(G, unit)))
    capsys.readouterr()
    for command in (["count"], ["decompose"], ["betti"],
                    ["integrate", "--class", str(path)]):
        argv = [command[0], "simplex:2:1", *command[1:], "--xi", "1,1"]
        assert cli.main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    report, code = cli.run(["volume", "simplex:2:1", "--xi", "1,1", "--json"])
    assert code == 0 and report["result"]["xi_retried"] is True
