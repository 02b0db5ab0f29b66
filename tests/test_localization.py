"""Fixed-point push-forwards, vanishing, and exact volumes."""

import random
import time
from fractions import Fraction as F
from math import factorial

import pytest

from momentkit import (
    DomainError,
    NotDelzantError,
    NotGenericError,
    choose_polarizing_vector,
    cube,
    dilate,
    euler_class_at,
    flip_weights,
    from_halfspaces,
    hirzebruch,
    moment_graph,
    pushforward,
    simplex,
    smoothness_report,
    volume_localization,
    volume_oracle,
)
from momentkit import linalg, localization
from momentkit.algebra import (
    dot,
    linear_poly,
    monomials,
    poly_const,
    poly_mul,
    poly_pow,
    poly_scale,
    vec,
)
from momentkit.gkm import (
    MAX_CLASS_DEGREE,
    MomentGraph,
    choose_generic_direction,
    facet_class,
    gkm_degree_basis,
)
from momentkit.polytopes import from_spec, catalog_specs

INTERVAL = moment_graph(simplex(1, 1))
TRIANGLE = moment_graph(simplex(2, 1))


def _unit_class(G):
    return tuple(poly_const(G.dim, 1) for _ in G.positions)


def test_euler_class_interval():
    # vertices are sorted, so index 0 is the origin
    assert euler_class_at(INTERVAL, 0) == {(1,): F(1)}
    assert euler_class_at(INTERVAL, 1) == {(1,): F(-1)}


def test_euler_class_triangle_origin():
    v = TRIANGLE.positions.index(vec(0, 0))
    assert euler_class_at(TRIANGLE, v) == {(1, 1): F(1)}  # x*y


def test_pushforward_requires_n_weights():
    # the path (0,0)-(1,0)-(1,1) is a valid moment graph in dimension 2,
    # but its end vertices carry one weight each
    path = MomentGraph((vec(0, 0), vec(1, 0), vec(1, 1)), ((0, 1), (1, 2)),
                       (vec(1, 0), vec(0, 1)))
    message = "vertex 0 has 1 weights, expected 2"
    with pytest.raises(DomainError, match=message):
        pushforward(_unit_class(path), path, vec(1, 2))
    with pytest.raises(DomainError, match=message):
        euler_class_at(path, 1)


def test_fixed_point_weights_are_the_polytope_weights():
    for spec in catalog_specs():
        P = from_spec(spec)
        assert moment_graph(P).isotropy == P.weights


def test_isotropy_and_pushforward_ignore_label_signs():
    for spec in catalog_specs():
        P = from_spec(spec)
        G = moment_graph(P)
        cls = tuple(poly_pow(linear_poly(v), P.dim) for v in P.vertices)
        xi = choose_generic_direction(G, seed=1)
        value = pushforward(cls, G, xi)
        assert value != 0
        edges = range(len(G.edges))
        for flipped in (edges[::2], edges):
            H = flip_weights(G, flipped)
            assert H.weights != G.weights
            assert H.isotropy == G.isotropy
            assert pushforward(cls, H, xi) == value


def test_unit_class_pushes_to_zero():
    for G in (INTERVAL, TRIANGLE):
        xi = choose_generic_direction(G, seed=0)
        assert pushforward(_unit_class(G), G, xi) == 0


def test_unit_class_triangle_by_explicit_fractions():
    # at xi = (1, 2): 1/(1*2) + 1/((-2)*(1-2)) + 1/((-1)*(2-1)) = 0
    xi = vec(1, 2)
    total = F(0)
    for v in range(3):
        denom = F(1)
        for w in TRIANGLE.isotropy[v]:
            denom *= w[0] * 1 + w[1] * 2
        total += F(1) / denom
    assert total == 0
    assert pushforward(_unit_class(TRIANGLE), TRIANGLE, xi) == 0


def test_point_class_integrates_to_one():
    # (x, 0) on the interval graph: x(xi)/x(xi) + 0/(-x(xi)) = 1
    cls = ({(1,): F(1)}, {})
    xi = choose_generic_direction(INTERVAL, seed=1)
    assert pushforward(cls, INTERVAL, xi) == 1


def test_pushforward_requires_admissible_class():
    bad = (poly_const(1, 1), {})
    xi = choose_generic_direction(INTERVAL, seed=0)
    with pytest.raises(DomainError):
        pushforward(bad, INTERVAL, xi)


def test_pushforward_evaluation_work_limit(monkeypatch):
    # one monomial at the degree limit sums to the limit and is accepted;
    # a constant class pushes forward to 0
    assert MAX_CLASS_DEGREE ** 2 == 2_500_000_000
    at_limit = ({(50_000,): F(1)},) * 2
    assert pushforward(at_limit, INTERVAL, vec(F(3, 2))) == 0
    # x^d + y^d sums 2d^2: accepted at d = 35,355, refused at 35,356 before
    # the divisibility check
    xi = vec(1, 2)
    under = ({(35_355, 0): F(1), (0, 35_355): F(1)},) * 3
    assert pushforward(under, TRIANGLE, xi) == 0
    # each term is charged at least 1000^2: 2,500 terms of degree 100 to 124
    # are accepted, and one more is refused
    low = [m for d in range(100, 125) for m in monomials(2, d)]
    assert localization.TERM_DEGREE_FLOOR == 1000 and len(low) > 2_500
    assert pushforward(({m: F(1) for m in low[:2_500]},) * 3, TRIANGLE, xi) == 0
    monkeypatch.setattr(localization, "gkm_check", None)
    over = ({(35_356, 0): F(1), (0, 35_356): F(1)},) * 3
    for cls, work in ((over, 2_500_093_472),
                      (({m: F(1) for m in low[:2_501]},) * 3, 2_501_000_000)):
        with pytest.raises(DomainError, match=(
                rf"^class value at v0 needs evaluation work {work} \(its "
                r"squared monomial degrees, each at least 1000, summed\), "
                r"over the limit of 2500000000$")):
            pushforward(cls, TRIANGLE, xi)
    # 30,000 terms of degree 288 at every vertex of cube:3:3 took 30 s of
    # CPU time to evaluate under the squared degrees alone; now refused
    G = moment_graph(from_spec("cube:3:3"))
    wide = dict.fromkeys(monomials(3, 288)[:30_000], F(1))
    start = time.process_time()
    with pytest.raises(DomainError, match="work 30000000000 "):
        pushforward((wide,) * len(G.positions), G, vec(730, -211, 553))
    assert time.process_time() - start < 1.0


def test_pushforward_rejects_vanishing_weight():
    with pytest.raises(NotGenericError):
        pushforward(_unit_class(TRIANGLE), TRIANGLE, vec(0, 1))


def test_pushforward_value_independent_of_point():
    P = hirzebruch(1)
    G = moment_graph(P)
    cls = facet_class(P, G, P.facets[0])
    square = tuple(poly_mul(f, f) for f in cls)
    values = set()
    for seed in range(5):
        xi = choose_generic_direction(G, seed=seed)
        values.add(pushforward(square, G, xi))
    assert len(values) == 1


def test_degree_vanishing():
    # a degree-k basis pushes forward to 0 at every generic point for k < n
    H = moment_graph(hirzebruch(1))
    C = moment_graph(cube(3, 1))
    assert len(gkm_degree_basis(H, 1)) == 4
    assert len(gkm_degree_basis(C, 2)) == 18
    for G in (TRIANGLE, H, C):
        points = [choose_generic_direction(G, seed=s) for s in range(3)]
        for k in range(G.dim):
            for cls in gkm_degree_basis(G, k):
                assert all(pushforward(cls, G, xi) == 0 for xi in points)


def test_pushforward_checks_its_class_on_every_call(monkeypatch):
    from momentkit import localization

    G = moment_graph(cube(3, 1))
    points = [choose_generic_direction(G, seed=s) for s in range(3)]
    cls = gkm_degree_basis(G, 2)[0]
    checked = []
    check = localization.gkm_check
    monkeypatch.setattr(localization, "gkm_check",
                        lambda G, cls: checked.append(cls) or check(G, cls))
    for xi in points:
        pushforward(cls, G, xi)
    assert checked == [cls] * 3


def test_delta_classes_integrate_to_one():
    for spec in ("simplex:2:1", "cube:2:1", "hirzebruch:2"):
        G = moment_graph(from_spec(spec))
        xi = choose_generic_direction(G, seed=2)
        for v in range(len(G.positions)):
            delta = tuple(
                euler_class_at(G, w) if w == v else {}
                for w in range(len(G.positions)))
            assert pushforward(delta, G, xi) == 1


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
        G = moment_graph(P)
        cls = tuple(poly_scale(F(1, factorial(n)), poly_pow(linear_poly(v), n))
                    for v in P.vertices)
        for seed in range(3):
            xi = choose_polarizing_vector(P, seed=seed)
            assert volume_localization(P, xi) == (-1) ** n * pushforward(cls, G, xi)


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


def _lattice_map(rng, n):
    """U in GL_n(Z), a signed permutation times a few integer shears, and
    an integer translation t."""
    perm = rng.sample(range(n), n)
    U = [[rng.choice((1, -1)) * int(perm[i] == j) for j in range(n)]
         for i in range(n)]
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U, [rng.randint(-5, 5) for _ in range(n)]


def test_volume_is_invariant_under_lattice_maps():
    # y = U x + t sends <a, x> >= b to <U^-T a, y> >= b + <U^-T a, t>
    rng = random.Random(11)
    for spec in catalog_specs():
        P = from_spec(spec)
        n = P.dim
        assert smoothness_report(P).smooth
        volume = volume_oracle(P)
        for _ in range(3):
            U, t = _lattice_map(rng, n)
            adj, d = linalg.adjugate_int(U)
            inv = [[d * x for x in row] for row in adj]  # det U = +-1
            hs = []
            for h in P.halfspaces:
                a = tuple(sum(inv[i][k] * h.normal[i] for i in range(n))
                          for k in range(n))
                hs.append((a, h.offset + dot(a, t)))
            Q = from_halfspaces(n, hs)
            assert len(Q.vertices) == len(P.vertices)
            assert set(Q.vertices) == {
                tuple(dot(row, v) + c for row, c in zip(U, t)) for v in P.vertices}
            assert volume_oracle(Q) == volume
            xi = choose_polarizing_vector(Q, seed=0)
            assert volume_localization(Q, xi) == volume


def test_volume_rejects_non_generic_direction():
    with pytest.raises(NotGenericError):
        volume_localization(simplex(2, 1), vec(1, 1))


def test_volume_requires_delzant():
    T = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-2, -1), -2)])
    with pytest.raises(NotDelzantError):
        volume_localization(T, vec(1, 3))
