"""Fixed-point push-forwards, vanishing, and exact volumes."""

from fractions import Fraction as F
from math import factorial

import pytest

from momentkit import (
    DomainError,
    NotDelzantError,
    NotGenericError,
    choose_evaluation_point,
    choose_polarizing_vector,
    cube,
    dilate,
    euler_class_at,
    fixed_point_data,
    from_halfspaces,
    hirzebruch,
    moment_graph,
    pushforward,
    pushforward_degree_vanishing,
    simplex,
    volume_localization,
    volume_oracle,
)
from momentkit.algebra import (
    linear_poly,
    poly_const,
    poly_mul,
    poly_pow,
    poly_scale,
    vec,
)
from momentkit.gkm import facet_class, gkm_degree_basis
from momentkit.polytopes import from_spec, catalog_specs

INTERVAL_DATA = fixed_point_data(moment_graph(simplex(1, 1)))
TRIANGLE_DATA = fixed_point_data(moment_graph(simplex(2, 1)))


def _unit_class(data):
    n = data.graph.dim
    return tuple(poly_const(n, 1) for _ in data.graph.positions)


def test_euler_class_interval():
    # vertices are sorted, so index 0 is the origin
    assert euler_class_at(INTERVAL_DATA, 0) == {(1,): F(1)}
    assert euler_class_at(INTERVAL_DATA, 1) == {(1,): F(-1)}


def test_euler_class_triangle_origin():
    G = TRIANGLE_DATA.graph
    v = G.positions.index(vec(0, 0))
    assert euler_class_at(TRIANGLE_DATA, v) == {(1, 1): F(1)}  # x*y


def test_fixed_point_data_requires_n_weights():
    pyramid = from_halfspaces(3, [
        ((0, 0, 1), 0),
        ((-1, 0, -1), -1),
        ((1, 0, -1), -1),
        ((0, -1, -1), -1),
        ((0, 1, -1), -1),
    ])
    # the pyramid is not smooth, so build the graph by hand from its edges
    with pytest.raises(NotDelzantError):
        moment_graph(pyramid)


def test_fixed_point_weights_are_the_polytope_weights():
    for spec in catalog_specs():
        P = from_spec(spec)
        assert fixed_point_data(moment_graph(P)).weights == P.weights


def test_unit_class_pushes_to_zero():
    for data in (INTERVAL_DATA, TRIANGLE_DATA):
        xi = choose_evaluation_point(data, seed=0)
        assert pushforward(_unit_class(data), data, xi) == 0


def test_unit_class_triangle_by_explicit_fractions():
    # at xi = (1, 2): 1/(1*2) + 1/((-2)*(1-2)) + 1/((-1)*(2-1)) = 0
    xi = vec(1, 2)
    total = F(0)
    for v in range(3):
        denom = F(1)
        for w in TRIANGLE_DATA.weights[v]:
            denom *= w[0] * 1 + w[1] * 2
        total += F(1) / denom
    assert total == 0
    assert pushforward(_unit_class(TRIANGLE_DATA), TRIANGLE_DATA, xi) == 0


def test_point_class_integrates_to_one():
    # (x, 0) on the interval graph: x(xi)/x(xi) + 0/(-x(xi)) = 1
    cls = ({(1,): F(1)}, {})
    xi = choose_evaluation_point(INTERVAL_DATA, seed=1)
    assert pushforward(cls, INTERVAL_DATA, xi) == 1


def test_pushforward_requires_admissible_class():
    bad = (poly_const(1, 1), {})
    xi = choose_evaluation_point(INTERVAL_DATA, seed=0)
    with pytest.raises(DomainError):
        pushforward(bad, INTERVAL_DATA, xi)


def test_pushforward_rejects_vanishing_weight():
    with pytest.raises(NotGenericError):
        pushforward(_unit_class(TRIANGLE_DATA), TRIANGLE_DATA, vec(0, 1))


def test_pushforward_value_independent_of_point():
    P = hirzebruch(1)
    G = moment_graph(P)
    data = fixed_point_data(G)
    cls = facet_class(P, G, P.facets[0])
    square = tuple(poly_mul(f, f) for f in cls)
    values = set()
    for seed in range(5):
        xi = choose_evaluation_point(data, seed=seed)
        values.add(pushforward(square, data, xi))
    assert len(values) == 1


def test_degree_vanishing():
    samples = [choose_evaluation_point(TRIANGLE_DATA, seed=s) for s in range(3)]
    assert pushforward_degree_vanishing(TRIANGLE_DATA, 0, samples)
    assert pushforward_degree_vanishing(TRIANGLE_DATA, 1, samples)
    H = fixed_point_data(moment_graph(hirzebruch(1)))
    hs = [choose_evaluation_point(H, seed=s) for s in range(3)]
    assert len(gkm_degree_basis(H.graph, 1)) == 4
    assert pushforward_degree_vanishing(H, 1, hs)
    with pytest.raises(DomainError):
        pushforward_degree_vanishing(TRIANGLE_DATA, 2, samples)


def test_delta_classes_integrate_to_one():
    for spec in ("simplex:2:1", "cube:2:1", "hirzebruch:2"):
        G = moment_graph(from_spec(spec))
        data = fixed_point_data(G)
        xi = choose_evaluation_point(data, seed=2)
        for v in range(len(G.positions)):
            delta = tuple(
                euler_class_at(data, w) if w == v else {}
                for w in range(len(G.positions)))
            assert pushforward(delta, data, xi) == 1


def test_volume_interval():
    P = simplex(1, 1)
    for t in (F(1), F(-2), F(7, 3)):
        assert volume_localization(P, (t,)) == 1


def test_volume_simplex_is_half():
    P = simplex(2, 1)
    for xi in (vec(1, 2), vec(-3, 5), vec(2, 1)):
        assert volume_localization(P, xi) == F(1, 2)


def test_volume_matches_oracle_on_catalog():
    from momentkit import choose_polarizing_vector

    for spec in catalog_specs():
        P = from_spec(spec)
        expected = volume_oracle(P)
        for seed in range(2):
            xi = choose_polarizing_vector(P, seed=seed)
            assert volume_localization(P, xi) == expected


def test_volume_is_signed_pushforward_of_the_moment_power():
    # volume = (-1)^n * pushforward of <v, X>^n / n!
    for spec in catalog_specs():
        P = from_spec(spec)
        n = P.dim
        data = fixed_point_data(moment_graph(P))
        cls = tuple(poly_scale(F(1, factorial(n)), poly_pow(linear_poly(v), n))
                    for v in P.vertices)
        for seed in range(3):
            xi = choose_polarizing_vector(P, seed=seed)
            assert volume_localization(P, xi) == (-1) ** n * pushforward(cls, data, xi)


def test_volume_cube_example():
    P = cube(2, 2)
    from momentkit import choose_polarizing_vector

    xi = choose_polarizing_vector(P, seed=0)
    assert volume_localization(P, xi) == 4


def test_volume_dilation():
    from momentkit import choose_polarizing_vector

    P = hirzebruch(2)
    xi = choose_polarizing_vector(P, seed=0)
    base = volume_localization(P, xi)
    Q = dilate(P, 3)
    assert volume_localization(Q, xi) == 9 * base


def test_volume_rejects_non_generic_direction():
    with pytest.raises(NotGenericError):
        volume_localization(simplex(2, 1), vec(1, 1))


def test_volume_requires_delzant():
    T = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-2, -1), -2)])
    with pytest.raises(NotDelzantError):
        volume_localization(T, vec(1, 3))
