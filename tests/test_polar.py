"""Polarized vertex cones and the signed indicator/counting identities."""

import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from momentkit import (
    DomainError,
    NotPolarizingError,
    PolarizedCone,
    choose_polarizing_vector,
    cone_contains,
    cube,
    dilate,
    from_spec,
    hirzebruch,
    is_polarizing,
    lattice_points_oracle,
    polar_decompose,
    polarize,
    signed_indicator_sum,
    signed_lattice_count,
    simplex,
    tight_box,
)
from momentkit.polar import tangent_cone
from momentkit.algebra import dot, primitive, vec, vsub
from momentkit.polytopes import catalog_specs


def _figure_at(P, vertex):
    return P.vertex_figure(P.vertices.index(vertex))


def test_polarizing_validity_on_simplex():
    P = simplex(2, 1)
    assert not is_polarizing(P, vec(1, 1))  # edge (-1,1) pairs to zero
    assert is_polarizing(P, vec(1, 2))


def test_choose_polarizing_vector_deterministic():
    P = cube(2, 1)
    xi = choose_polarizing_vector(P, seed=0)
    assert xi == choose_polarizing_vector(P, seed=0)
    assert all(dot(primitive(vsub(P.vertices[j], P.vertices[i])), xi) != 0
               for i, j in P.edges)


def test_polarize_square_origin_nothing_flips():
    sq = cube(2, 1)
    cone = polarize(_figure_at(sq, vec(0, 0)), vec(-1, -1))
    assert cone.sign == 1
    assert cone.open_flags == (False, False)
    assert set(cone.generators) == {vec(1, 0), vec(0, 1)}


def test_polarize_square_origin_both_flip():
    sq = cube(2, 1)
    cone = polarize(_figure_at(sq, vec(0, 0)), vec(1, 1))
    assert cone.sign == 1
    assert cone.open_flags == (True, True)
    assert set(cone.generators) == {vec(-1, 0), vec(0, -1)}


def test_polarize_square_side_vertex_one_flip():
    sq = cube(2, 1)
    cone = polarize(_figure_at(sq, vec(1, 0)), vec(1, 1))
    assert cone.sign == -1
    assert sum(cone.open_flags) == 1
    assert set(cone.generators) == {vec(-1, 0), vec(0, -1)}


def test_polarize_rejects_zero_pairing():
    P = simplex(2, 1)
    with pytest.raises(NotPolarizingError):
        polarize(_figure_at(P, vec(0, 1)), vec(1, 1))


def test_tangent_cone_contains_the_polytope():
    P = hirzebruch(1)
    probes = list(P.vertices) + [(F(1, 2), F(1, 2)), (F(3, 2), F(1, 4))]
    for i in range(len(P.vertices)):
        cone = tangent_cone(P.vertex_figure(i))
        assert cone.sign == 1 and not any(cone.open_flags)
        for x in probes:
            if P.contains(x):
                assert cone_contains(cone, x)


def test_cone_contains_closed_and_open_apex():
    closed = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)), (False, False), 1)
    assert cone_contains(closed, vec(0, 0))
    opened = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)), (True, True), 1)
    assert not cone_contains(opened, vec(0, 0))


def test_cone_contains_half_open_quadrant():
    cone = PolarizedCone(vec(1, 0), (vec(-1, 0), vec(0, -1)), (False, True), -1)
    assert not cone_contains(cone, vec(F(1, 2), 0))
    assert cone_contains(cone, vec(F(1, 2), F(-1, 3)))


def test_cone_contains_rejects_dependent_generators():
    from momentkit import NonSimpleVertexError

    bad = PolarizedCone(vec(0, 0), (vec(1, 1), vec(2, 2)), (False, False), 1)
    with pytest.raises(NonSimpleVertexError):
        cone_contains(bad, vec(0, 0))
    short = PolarizedCone(vec(0, 0), (vec(1, 1),), (False,), 1)
    with pytest.raises(NonSimpleVertexError):
        cone_contains(short, vec(0, 0))


def test_signed_indicator_simplex_examples():
    P = simplex(2, 1)
    xi = choose_polarizing_vector(P, seed=0)
    assert signed_indicator_sum(P, xi, (F(1, 4), F(1, 4))) == 1
    assert signed_indicator_sum(P, xi, (2, 2)) == 0


def test_signed_indicator_at_vertex_by_hand():
    # xi = (1,2) on the unit triangle: only the cone at (0,1) contains the
    # origin, the cone at (0,0) is fully open there, and the cone at (1,0)
    # fails its single open flag; the signed sum is 0 + 0 + 1 = 1.
    P = simplex(2, 1)
    xi = vec(1, 2)
    cones = {c.apex: c for c in polar_decompose(P, xi)}
    origin = vec(0, 0)
    assert not cone_contains(cones[vec(0, 0)], origin)
    assert not cone_contains(cones[vec(1, 0)], origin)
    assert cone_contains(cones[vec(0, 1)], origin)
    assert cones[vec(1, 0)].sign == -1
    assert signed_indicator_sum(P, xi, origin) == 1


def test_sign_matches_open_flag_count():
    for spec in catalog_specs():
        P = from_spec(spec)
        xi = choose_polarizing_vector(P, seed=7)
        for cone in polar_decompose(P, xi):
            assert cone.sign == (-1) ** sum(cone.open_flags)
            assert all(dot(g, xi) < 0 for g in cone.generators)


def test_indicator_identity_on_sampled_points():
    rng = random.Random(13)
    for spec in ("simplex:2:1", "cube:2:2", "hirzebruch:1", "simplex:3:1"):
        P = from_spec(spec)
        xi = choose_polarizing_vector(P, seed=1)
        pts = list(P.vertices)
        for i, j in P.edges:
            v, w = P.vertices[i], P.vertices[j]
            t = F(rng.randint(1, 5), 6)
            pts.append(tuple(a + t * (b - a) for a, b in zip(v, w)))
        for _ in range(30):
            pts.append(tuple(F(rng.randint(-8, 8), rng.randint(1, 3))
                             for _ in range(P.dim)))
        for x in pts:
            assert signed_indicator_sum(P, xi, x) == int(P.contains(x))


def test_indicator_independent_of_direction():
    P = hirzebruch(2)
    x_in = (F(1, 3), F(1, 2))
    x_out = (5, 5)
    sums_in = set()
    sums_out = set()
    for seed in range(5):
        xi = choose_polarizing_vector(P, seed=seed)
        sums_in.add(signed_indicator_sum(P, xi, x_in))
        sums_out.add(signed_indicator_sum(P, xi, x_out))
    assert sums_in == {1}
    assert sums_out == {0}


def test_flip_involution():
    # negating xi swaps flipped and unflipped generators at every vertex
    P = cube(3, 2)
    xi = choose_polarizing_vector(P, seed=5)
    neg = tuple(-c for c in xi)
    for plus, minus in zip(polar_decompose(P, xi), polar_decompose(P, neg)):
        assert plus.apex == minus.apex
        assert sum(plus.open_flags) + sum(minus.open_flags) == P.dim
    for x in (vec(0, 0, 0), vec(1, 1, 1), vec(3, 0, 1)):
        assert signed_indicator_sum(P, xi, x) == signed_indicator_sum(P, neg, x)


def test_signed_lattice_count_examples():
    P = simplex(2, 1)
    xi = choose_polarizing_vector(P, seed=0)
    assert signed_lattice_count(P, xi, tight_box(P)) == 3
    Q = cube(2, 2)
    xiq = choose_polarizing_vector(Q, seed=0)
    assert signed_lattice_count(Q, xiq, tight_box(Q)) == 9
    R = dilate(simplex(2, 1), 7)
    xir = choose_polarizing_vector(R, seed=0)
    assert signed_lattice_count(R, xir, tight_box(R)) == 36
    assert len(lattice_points_oracle(R)) == 36


def test_signed_lattice_count_direction_independent():
    P = hirzebruch(3)
    box = tight_box(P)
    expect = len(lattice_points_oracle(P))
    seen = set()
    seed = 0
    while len(seen) < 5:
        xi = choose_polarizing_vector(P, seed=seed)
        seed += 1
        if xi in seen:
            continue
        seen.add(xi)
        assert signed_lattice_count(P, xi, box) == expect


def test_signed_lattice_count_box_independent():
    P = simplex(2, 2)
    xi = choose_polarizing_vector(P, seed=2)
    base = tight_box(P)
    expect = len(lattice_points_oracle(P))
    for pad in (0, 1, 3):
        box = [(lo - pad, hi + pad) for lo, hi in base]
        assert signed_lattice_count(P, xi, box) == expect


def test_signed_lattice_count_validates_box():
    P = cube(2, 2)
    xi = choose_polarizing_vector(P, seed=0)
    with pytest.raises(DomainError):
        signed_lattice_count(P, xi, [(0, 1), (0, 2)])
    with pytest.raises(DomainError):
        signed_lattice_count(P, xi, [(0, 2)])
    with pytest.raises(DomainError):
        signed_lattice_count(P, xi, [(2, 0), (0, 2)])


def test_decomposition_cache_dies_with_its_polytope():
    P = simplex(2, 1)
    xi = choose_polarizing_vector(P, seed=0)
    assert polar_decompose(P, xi) is polar_decompose(P, xi)
    assert signed_lattice_count(P, xi, tight_box(P)) == 3
    assert signed_indicator_sum(P, xi, vec(0, 0)) == 1
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None
