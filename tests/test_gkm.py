"""Moment graphs, divisibility checks, degree dimensions, Morse counts."""

import random
from fractions import Fraction as F

import pytest

from momentkit import (
    DomainError,
    MomentGraph,
    NotDelzantError,
    NotGenericError,
    betti_numbers,
    cube,
    facet_class,
    flip_weights,
    free_module_check,
    from_halfspaces,
    gkm_check,
    gkm_degree_basis,
    gkm_dimension,
    hirzebruch,
    is_simple,
    moment_graph,
    ordinary_betti,
    simplex,
)
from momentkit.algebra import (
    linear_poly,
    poly_const,
    poly_mul,
    primitive,
    vec,
    vsub,
)
from momentkit.gkm import (
    MAX_CLASS_DEGREE,
    MAX_DEGREE_UNKNOWNS,
    choose_generic_direction,
    gkm_class_from_json,
    gkm_class_to_json,
)
from momentkit.polytopes import from_spec, catalog_specs

INTERVAL = moment_graph(simplex(1, 1))
TRIANGLE = moment_graph(simplex(2, 1))


def _zero(n):
    return {}


def test_moment_graph_simplex():
    G = TRIANGLE
    assert len(G.positions) == 3
    assert len(G.edges) == 3
    up_to_sign = {tuple(abs(c) for c in w) for w in G.weights}
    assert up_to_sign == {(1, 0), (0, 1), (1, 1)}


def test_moment_graph_square_axis_weights():
    G = moment_graph(cube(2, 1))
    assert len(G.edges) == 4
    for w in G.weights:
        assert sorted(abs(c) for c in w) == [0, 1]


def test_moment_graph_interval():
    G = INTERVAL
    assert len(G.positions) == 2
    assert G.edges == ((0, 1),)
    assert G.weights == ((F(1),),)


def test_moment_graph_requires_smooth():
    T = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-2, -1), -2)])
    with pytest.raises(NotDelzantError):
        moment_graph(T)


def test_moment_graph_validation():
    with pytest.raises(DomainError):
        MomentGraph((vec(0, 0), vec(1, 0)), ((0, 1),), ())
    with pytest.raises(DomainError):
        MomentGraph((vec(0, 0), vec(1, 0)), ((1, 0),), ((F(1), F(0)),))
    # parallel weights at vertex 0, printed as rational strings
    message = r"parallel weights at vertex 0: \['1', '0'\] and \['2', '0'\]$"
    with pytest.raises(DomainError, match=message):
        MomentGraph(
            (vec(0, 0), vec(1, 0), vec(2, 0)),
            ((0, 1), (0, 2)),
            (vec(1, 0), vec(2, 0)),
        )
    # a weight of the wrong dimension
    message = r"weight on edge \(0, 1\) has dimension 3, expected 2$"
    with pytest.raises(DomainError, match=message):
        MomentGraph(((0, 0), (1, 0)), ((0, 1),), ((0, 0, 1),))


def _random_simple_polytope(rng):
    """The box [-6, 6]^3 cut by four random integer half-spaces, redrawn
    until it is simple."""
    box = [(tuple(s if j == i else 0 for j in range(3)), -6)
           for i in range(3) for s in (1, -1)]
    while True:
        cuts = [(tuple(rng.randint(-3, 3) for _ in range(3)), -rng.randint(3, 8))
                for _ in range(4)]
        if any(n == (0, 0, 0) for n, _ in cuts):
            continue
        P = from_halfspaces(3, box + cuts)
        if is_simple(P):
            return P


def test_stored_neighbors_and_incidence_match_an_edge_scan():
    rng = random.Random(5)
    catalog = [from_spec(spec) for spec in catalog_specs()]
    shapes = catalog + [_random_simple_polytope(rng) for _ in range(4)]
    for P in shapes:
        G = MomentGraph(P.vertices, P.edges, tuple(
            primitive(vsub(P.vertices[j], P.vertices[i])) for i, j in P.edges))
        if P in catalog:
            assert moment_graph(P).weights == G.weights
        assert P.weights is P.weights
        for v in range(len(P.vertices)):
            # the scans that the stored tuples replaced, kept as the oracle
            assert P.neighbors[v] == tuple(sorted(
                b if a == v else a for a, b in P.edges if v in (a, b)))
            assert G.incidence[v] == tuple(
                k for k, (i, j) in enumerate(G.edges) if v in (i, j))
            assert P.weights[v] == tuple(
                primitive(vsub(P.vertices[j], P.vertices[v]))
                for j in P.neighbors[v])


def test_gkm_check_interval():
    x = {(1,): F(1)}
    assert gkm_check(INTERVAL, (x, {})).ok
    report = gkm_check(INTERVAL, (poly_const(1, 1), {}))
    assert not report.ok
    assert report.failures == (0,)


def test_gkm_check_constant_tuples_pass():
    for G in (INTERVAL, TRIANGLE, moment_graph(cube(3, 1))):
        n = G.dim
        cls = tuple(poly_const(n, F(7, 3)) for _ in G.positions)
        assert gkm_check(G, cls).ok


def test_gkm_check_wrong_component_count():
    with pytest.raises(DomainError):
        gkm_check(INTERVAL, ({},))


def test_gkm_dimension_interval():
    # hand count: degree-k pairs (a x^k, b x^k) need x | (a - b) x^k, which
    # is automatic for k >= 1 and forces a = b for k = 0
    assert gkm_dimension(INTERVAL, 0) == 1
    assert gkm_dimension(INTERVAL, 1) == 2
    assert gkm_dimension(INTERVAL, 4) == 2


def test_gkm_dimension_triangle():
    assert gkm_dimension(TRIANGLE, 0) == 1
    assert gkm_dimension(TRIANGLE, 1) == 3  # equals the facet count


def test_gkm_dimension_degree_zero_counts_components():
    for G in (INTERVAL, TRIANGLE, moment_graph(hirzebruch(1))):
        assert gkm_dimension(G, 0) == 1


def test_gkm_dimension_manual_two_torus_sphere():
    # one edge labeled x + y: the degree-1 difference (a-c)x + (b-d)y must be
    # a multiple of x + y, one linear condition, so the dimension is 3
    G = MomentGraph((vec(0, 0), vec(1, 1)), ((0, 1),), (vec(1, 1),))
    assert gkm_dimension(G, 0) == 1
    assert gkm_dimension(G, 1) == 3


def test_gkm_degree_basis_spans_and_passes():
    for G in (TRIANGLE, moment_graph(hirzebruch(1))):
        for k in (0, 1, 2):
            basis = gkm_degree_basis(G, k)
            assert len(basis) == gkm_dimension(G, k)
            for cls in basis:
                assert gkm_check(G, cls).ok
                assert {sum(m) for f in cls for m in f} <= {k}


def test_betti_profiles():
    assert betti_numbers(TRIANGLE, choose_generic_direction(TRIANGLE)) == (1, 1, 1)
    GH = moment_graph(hirzebruch(1))
    assert betti_numbers(GH, choose_generic_direction(GH)) == (1, 2, 1)
    GC = moment_graph(cube(3, 1))
    assert betti_numbers(GC, choose_generic_direction(GC)) == (1, 3, 3, 1)


def test_betti_rejects_non_generic():
    with pytest.raises(NotGenericError):
        betti_numbers(TRIANGLE, vec(1, 1))


def test_betti_direction_invariance_and_duality():
    for spec in ("simplex:3:1", "cube:2:2", "hirzebruch:3"):
        G = moment_graph(from_spec(spec))
        profiles = set()
        for seed in range(5):
            xi = choose_generic_direction(G, seed=seed)
            b = betti_numbers(G, xi)
            profiles.add(b)
            neg = tuple(-c for c in xi)
            assert betti_numbers(G, neg) == tuple(reversed(b))
            assert b == tuple(reversed(b))
            assert sum(b) == len(G.positions)
        assert len(profiles) == 1


def test_free_module_check():
    assert free_module_check(INTERVAL, 4)
    assert free_module_check(TRIANGLE, 3)
    assert free_module_check(moment_graph(cube(2, 1)), 3)


def test_free_module_check_on_larger_degree_systems():
    assert free_module_check(moment_graph(cube(4, 1)), 4)
    assert free_module_check(moment_graph(cube(3, 1)), 5)


def test_degree_system_size_limit():
    # 3 vertices times k + 1 monomials; free on generators of degree 0, 1, 2
    k_max = MAX_DEGREE_UNKNOWNS // 3 - 1
    assert gkm_dimension(TRIANGLE, k_max) == 3 * k_max
    with pytest.raises(DomainError):
        gkm_dimension(TRIANGLE, k_max + 1)
    with pytest.raises(DomainError):
        gkm_degree_basis(TRIANGLE, 100000)


def test_ordinary_betti():
    assert ordinary_betti(TRIANGLE, 1) == 1
    assert ordinary_betti(moment_graph(hirzebruch(1)), 1) == 2
    for G in (INTERVAL, TRIANGLE):
        assert ordinary_betti(G, 0) == 1
    assert ordinary_betti(TRIANGLE, 5) == 0


def test_facet_class_interval():
    G = INTERVAL
    P = simplex(1, 1)
    facet_at_zero = next(
        k for k in P.facets
        if P.halfspaces[k].offset == 0 and P.halfspaces[k].normal == (1,))
    cls = facet_class(P, G, facet_at_zero)
    assert cls[P.vertices.index(vec(0))] == {(1,): F(1)}
    assert cls[P.vertices.index(vec(1))] == {}
    assert gkm_check(G, cls).ok


def test_facet_class_triangle_bottom_edge():
    P = simplex(2, 1)
    G = TRIANGLE
    bottom = next(k for k in P.facets if P.halfspaces[k].normal == (0, 1))
    cls = facet_class(P, G, bottom)
    by_vertex = dict(zip(P.vertices, cls))
    assert by_vertex[vec(0, 0)] == {(0, 1): F(1)}  # y
    assert by_vertex[vec(1, 0)] == linear_poly(vec(-1, 1))  # y - x
    assert by_vertex[vec(0, 1)] == {}
    assert gkm_check(G, cls).ok


def test_facet_classes_pass_and_count_facets():
    for spec in catalog_specs():
        P = from_spec(spec)
        G = moment_graph(P)
        for k in P.facets:
            assert gkm_check(G, facet_class(P, G, k)).ok
        assert gkm_dimension(G, 1) == len(P.facets)


def test_facet_class_rejects_non_facet():
    P = simplex(2, 1)
    with pytest.raises(DomainError):
        facet_class(P, TRIANGLE, 99)


def test_product_and_module_closure():
    rng = random.Random(3)
    G = moment_graph(hirzebruch(2))
    P = hirzebruch(2)
    classes = [facet_class(P, G, k) for k in P.facets]
    a, b = rng.sample(classes, 2)
    product = tuple(poly_mul(f, g) for f, g in zip(a, b))
    assert gkm_check(G, product).ok
    global_poly = {(2, 0): F(3), (0, 1): F(-1, 2)}
    scaled = tuple(poly_mul(global_poly, f) for f in a)
    assert gkm_check(G, scaled).ok


def test_sign_flip_invariance():
    rng = random.Random(17)
    for spec in ("simplex:2:1", "cube:2:1", "hirzebruch:1"):
        P = from_spec(spec)
        G = moment_graph(P)
        cls = facet_class(P, G, P.facets[0])
        base_dims = [gkm_dimension(G, k) for k in (0, 1, 2)]
        for _ in range(5):
            flips = [k for k in range(len(G.edges)) if rng.random() < 0.5]
            H = flip_weights(G, flips)
            assert gkm_check(H, cls).ok == gkm_check(G, cls).ok
            assert [gkm_dimension(H, k) for k in (0, 1, 2)] == base_dims


def test_json_round_trips():
    G = TRIANGLE
    cls = facet_class(simplex(2, 1), G, 0)
    back = gkm_class_from_json(G, gkm_class_to_json(G, cls))
    assert back == cls
    with pytest.raises(ValueError):
        gkm_class_from_json(G, {"v0": {}})


def test_class_degree_limit():
    G = TRIANGLE
    assert MAX_CLASS_DEGREE == 50_000

    def power(d, coeff="1"):
        return {label: {f"0,{d}": coeff} for label in G.labels}

    assert gkm_class_from_json(G, power(50_000)) == ({(0, 50_000): 1},) * 3
    for d in (50_001, 10**9):
        with pytest.raises(DomainError, match=f"class has degree {d}, over the "
                           "limit of 50000"):
            gkm_class_from_json(G, power(d))
    # zero terms carry no degree
    assert gkm_class_from_json(G, power(10**9, "0")) == ({},) * 3
