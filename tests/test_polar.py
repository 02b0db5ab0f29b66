"""Polarized vertex cones and the signed indicator/counting identities."""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction as F
from itertools import product
from math import comb, lcm, prod
from operator import add, floordiv, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentkit import (
    DomainError,
    NotGenericError,
    PolarizedCone,
    choose_polarizing_vector,
    cube,
    dilate,
    from_halfspaces,
    from_spec,
    hirzebruch,
    is_polarizing,
    lattice_points_oracle,
    polar_decompose,
    signed_indicator_sum,
    signed_lattice_count,
    simplex,
    smoothness_report,
    tight_box,
    volume_localization,
)
from momentkit import linalg, polar, polytopes
from momentkit.polar import _contains, _hermite_diagonal, _power_sums
from momentkit.algebra import dot, primitive, vec, vsub
from momentkit.polytopes import catalog_specs


def _box_scan_count(P, xi, box):
    """The former body of signed_lattice_count, kept as its oracle: the
    signed number of each polarized cone's lattice points in the box."""
    ranges = [range(lo, hi + 1) for lo, hi in box]
    total = 0
    for cone in polar_decompose(P, xi):
        total += cone.sign * sum(_contains(cone, x, 1) for x in product(*ranges))
    return total


def _polarize_at(P, vertex, xi):
    return polar_decompose(P, xi)[P.vertices.index(vertex)]


def _in_cone(cone, x):
    """Exact membership in one cone, honoring its closed/open flags: the
    cone's own term of ``signed_indicator_sum``."""
    return signed_indicator_sum((cone,), x) != 0


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


def test_choose_polarizing_vector_tests_each_edge_once(monkeypatch):
    # one direction per edge, from its lower vertex; a reversed direction
    # pairs to zero exactly when the direction does, so the draws and the
    # returned xi are those of the former list of both endpoints' weights
    shapes = [from_spec(s) for s in catalog_specs()] + [cube(4, 1)]
    shapes += [dilate(P, F(5, 3)) for P in shapes[::4]]
    for P in shapes:
        for seed in range(8):
            both = polar.generic_vector(
                P.dim, [w for at_v in P.weights for w in at_v], seed=seed)
            assert choose_polarizing_vector(P, seed=seed) == both
    seen = []
    generic = polar.generic_vector
    monkeypatch.setattr(polar, "generic_vector",
                        lambda dim, vs, seed: seen.append(vs) or
                        generic(dim, vs, seed=seed))
    for P in shapes:
        seen.clear()
        choose_polarizing_vector(P, seed=3)
        assert seen == [[primitive(vsub(P.vertices[j], P.vertices[i]))
                         for i, j in P.edges]]


def _fraction_polarize(P, i, xi):
    """polarize as it was before it cleared xi's denominators: one Fraction
    dot per weight."""
    generators, flags = [], []
    for alpha in P.weights[i]:
        pairing = dot(alpha, xi)
        if pairing == 0:
            raise NotGenericError(
                f"direction pairs to zero with weight "
                f"{[str(c) for c in alpha]} at vertex {i}")
        generators.append(tuple(-c for c in alpha) if pairing > 0 else alpha)
        flags.append(pairing > 0)
    return PolarizedCone(P.vertices[i], tuple(generators), tuple(flags))


def test_polarize_matches_the_fraction_twin():
    rng = random.Random(22)
    shapes = [from_spec(s) for s in catalog_specs()] + [cube(4, 1)]
    shapes += [dilate(P, F(7, 2)) for P in shapes[::3]]
    refused = 0
    for P in shapes:
        for _ in range(12):
            xi = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(P.dim))
            try:
                # the twin refuses at the first vertex that pairs to zero
                expect = tuple(_fraction_polarize(P, i, xi)
                               for i in range(len(P.vertices)))
            except NotGenericError as exc:
                with pytest.raises(NotGenericError) as got:
                    polar_decompose(P, xi)
                assert str(got.value) == str(exc)
                refused += 1
                continue
            cones = polar_decompose(P, xi)
            assert cones == expect
            assert all(type(c) is int
                       for cone in cones for g in cone.generators for c in g)
    assert refused > 20
    with pytest.raises(ValueError, match="^vector length mismatch: 2 vs 3$"):
        polar_decompose(cube(2, 1), (1, 2, 3))


def test_polarize_square_origin_nothing_flips():
    sq = cube(2, 1)
    cone = _polarize_at(sq, vec(0, 0), vec(-1, -1))
    assert cone.sign == 1
    assert cone.open_flags == (False, False)
    assert set(cone.generators) == {vec(1, 0), vec(0, 1)}


def test_polarize_square_origin_both_flip():
    sq = cube(2, 1)
    cone = _polarize_at(sq, vec(0, 0), vec(1, 1))
    assert cone.sign == 1
    assert cone.open_flags == (True, True)
    assert set(cone.generators) == {vec(-1, 0), vec(0, -1)}


def test_polarize_square_side_vertex_one_flip():
    sq = cube(2, 1)
    cone = _polarize_at(sq, vec(1, 0), vec(1, 1))
    assert cone.sign == -1
    assert sum(cone.open_flags) == 1
    assert set(cone.generators) == {vec(-1, 0), vec(0, -1)}


def test_polarize_rejects_zero_pairing():
    P = simplex(2, 1)
    with pytest.raises(NotGenericError):
        _polarize_at(P, vec(0, 1), vec(1, 1))


def test_signed_indicator_sum_rejects_wrong_dimension():
    P = simplex(2, 1)
    cones = polar_decompose(P, choose_polarizing_vector(P, seed=0))
    assert signed_indicator_sum(cones, (0, 0)) == 1
    for x in ((0, 0, 5), (0,), ()):
        with pytest.raises(DomainError, match=rf"^point has dimension "
                           rf"{len(x)}, expected 2$"):
            signed_indicator_sum(cones, x)
        with pytest.raises(DomainError):
            P.contains(x)


def test_tangent_cone_contains_the_polytope():
    P = hirzebruch(1)
    probes = list(P.vertices) + [(F(1, 2), F(1, 2)), (F(3, 2), F(1, 4))]
    for v, at_v in zip(P.vertices, P.weights):
        cone = PolarizedCone(v, at_v, (False,) * P.dim)
        for x in probes:
            if P.contains(x):
                assert _in_cone(cone, x)


def test_cone_contains_closed_and_open_apex():
    closed = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)), (False, False))
    assert _in_cone(closed, vec(0, 0))
    opened = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)), (True, True))
    assert not _in_cone(opened, vec(0, 0))


def test_cone_contains_half_open_quadrant():
    cone = PolarizedCone(vec(1, 0), (vec(-1, 0), vec(0, -1)), (False, True))
    assert not _in_cone(cone, vec(F(1, 2), 0))
    assert _in_cone(cone, vec(F(1, 2), F(-1, 3)))


def test_cone_contains_rejects_dependent_generators():
    from momentkit import NonSimpleVertexError

    bad = PolarizedCone(vec(0, 0), (vec(1, 1), vec(2, 2)), (False, False))
    with pytest.raises(NonSimpleVertexError):
        _in_cone(bad, vec(0, 0))
    short = PolarizedCone(vec(0, 0), (vec(1, 1),), (False,))
    with pytest.raises(NonSimpleVertexError):
        _in_cone(short, vec(0, 0))


def test_cone_rejects_mismatched_lengths():
    # every generator has the apex's dimension, never truncated to it
    long_gens = PolarizedCone((0, 0), ((1, 0, 5), (0, 1, 7)), (False, False))
    with pytest.raises(DomainError, match=r"generator \['1', '0', '5'\] has "
                       r"dimension 3, expected 2$"):
        _in_cone(long_gens, (1, 1))
    # one open flag per generator, a missing one never read as closed
    few_flags = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)), (True,))
    with pytest.raises(DomainError, match="cone has 1 open flags, expected 2$"):
        _in_cone(few_flags, vec(1, 0))
    too_many = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)),
                             (True, False, False))
    with pytest.raises(DomainError, match="cone has 3 open flags, expected 2$"):
        too_many.lattice
    cone = PolarizedCone(vec(0, 0), (vec(1, 0), vec(0, 1)), (False, False))
    for x in ((0, 0, 5), (0,), ()):
        with pytest.raises(DomainError, match=rf"point has dimension {len(x)}, "
                           r"expected 2$"):
            _in_cone(cone, x)


def test_cone_eliminates_once(monkeypatch):
    calls = []
    adjugate_int = linalg.adjugate_int
    monkeypatch.setattr(linalg, "adjugate_int",
                        lambda a: calls.append(a) or adjugate_int(a))
    cone = PolarizedCone(vec(1, 0), (vec(-1, 0), vec(0, -1)), (False, True))
    probes = [vec(F(1, 2), 0), vec(F(1, 2), F(-1, 3)), vec(1, 0), vec(0, -1),
              vec(2, -1)]
    assert [_in_cone(cone, x) for x in probes] == [
        False, True, False, True, False]
    assert len(calls) == 1


def test_cone_columns_are_primitive_and_reduced_only_when_needed(monkeypatch):
    reduced = []
    monkeypatch.setattr(polar, "primitive",
                        lambda g: reduced.append(g) or primitive(g))
    P = from_spec("hirzebruch:2")
    for cone in polar_decompose(P, choose_polarizing_vector(P)):
        assert cone.lattice[0] == list(cone.generators)
    assert reduced == []  # polar_decompose makes primitive int tuples
    # Fraction and non-primitive generators of a hand-built cone
    gens = (vec(2, 0, 0), vec(F(1, 2), F(3, 2), 0), (0, 0, -3))
    cone = PolarizedCone(vec(F(1, 3), 0, 1), gens, (False, True, False))
    assert cone.lattice[0] == [(1, 0, 0), (1, 3, 0), (0, 0, -1)]
    assert all(type(c) is int for col in cone.lattice[0] for c in col)
    assert reduced == list(gens)
    # primitive int tuples are kept as given, with no second reduction
    kept = PolarizedCone(vec(0, 0, 0), ((1, 0, 0), (1, 3, 0), (0, 0, -1)),
                         (False, False, False))
    assert kept.lattice[0] == cone.lattice[0]
    assert len(reduced) == 3


def test_cone_equality_ignores_its_elimination():
    def make():
        return PolarizedCone(vec(0, 0), (vec(1, 2), vec(1, -1)),
                             (False, True))

    a, b = make(), make()
    assert a.lattice[2] == -3
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_decomposition_is_a_tuple_of_cones():
    P = simplex(2, 1)
    cones = polar_decompose(P, choose_polarizing_vector(P, seed=0))
    assert type(cones) is tuple
    assert all(isinstance(c, PolarizedCone) for c in cones)


def test_cones_die_with_their_caller():
    # P stays alive and keeps no cone once the caller drops them
    P = cube(3, 1)
    xi = choose_polarizing_vector(P, seed=0)
    cones = polar_decompose(P, xi)
    ref = weakref.ref(cones[0])
    assert signed_lattice_count(P, xi, tight_box(P)) == 8
    assert signed_indicator_sum(cones, vec(0, 0, 0)) == 1
    del cones
    gc.collect()
    assert ref() is None


def test_signed_indicator_simplex_examples():
    P = simplex(2, 1)
    cones = polar_decompose(P, choose_polarizing_vector(P, seed=0))
    assert signed_indicator_sum(cones, (F(1, 4), F(1, 4))) == 1
    assert signed_indicator_sum(cones, (2, 2)) == 0


def test_signed_indicator_at_vertex_by_hand():
    # xi = (1,2) on the unit triangle: only the cone at (0,1) contains the
    # origin, the cone at (0,0) is fully open there, and the cone at (1,0)
    # fails its single open flag; the signed sum is 0 + 0 + 1 = 1.
    P = simplex(2, 1)
    xi = vec(1, 2)
    cones = {c.apex: c for c in polar_decompose(P, xi)}
    origin = vec(0, 0)
    assert not _in_cone(cones[vec(0, 0)], origin)
    assert not _in_cone(cones[vec(1, 0)], origin)
    assert _in_cone(cones[vec(0, 1)], origin)
    assert cones[vec(1, 0)].sign == -1
    assert signed_indicator_sum(cones.values(), origin) == 1


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
        cones = polar_decompose(P, choose_polarizing_vector(P, seed=1))
        pts = list(P.vertices)
        for i, j in P.edges:
            v, w = P.vertices[i], P.vertices[j]
            t = F(rng.randint(1, 5), 6)
            pts.append(tuple(a + t * (b - a) for a, b in zip(v, w)))
        for _ in range(30):
            pts.append(tuple(F(rng.randint(-8, 8), rng.randint(1, 3))
                             for _ in range(P.dim)))
        for x in pts:
            assert signed_indicator_sum(cones, x) == int(P.contains(x))


def test_indicator_independent_of_direction():
    P = hirzebruch(2)
    x_in = (F(1, 3), F(1, 2))
    x_out = (5, 5)
    sums_in = set()
    sums_out = set()
    for seed in range(5):
        cones = polar_decompose(P, choose_polarizing_vector(P, seed=seed))
        sums_in.add(signed_indicator_sum(cones, x_in))
        sums_out.add(signed_indicator_sum(cones, x_out))
    assert sums_in == {1}
    assert sums_out == {0}


def test_flip_involution():
    # negating xi swaps flipped and unflipped generators at every vertex
    P = cube(3, 2)
    xi = choose_polarizing_vector(P, seed=5)
    pluses = polar_decompose(P, xi)
    minuses = polar_decompose(P, tuple(-c for c in xi))
    for plus, minus in zip(pluses, minuses):
        assert plus.apex == minus.apex
        assert sum(plus.open_flags) + sum(minus.open_flags) == P.dim
    for x in (vec(0, 0, 0), vec(1, 1, 1), vec(3, 0, 1)):
        assert (signed_indicator_sum(pluses, x)
                == signed_indicator_sum(minuses, x))


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
    assert lattice_points_oracle(R) == 36


def test_signed_lattice_count_direction_independent():
    P = hirzebruch(3)
    box = tight_box(P)
    expect = lattice_points_oracle(P)
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
    expect = lattice_points_oracle(P)
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
    # xi is cleared once, after the box is checked
    with pytest.raises(DomainError, match="^box does not contain"):
        signed_lattice_count(P, (1, 2, 3), [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="^vector length mismatch: 2 vs 3$"):
        signed_lattice_count(P, (1, 2, 3), tight_box(P))
    # the check reads the integer vertex table, and names the coordinate
    T = from_halfspaces(1, [((1,), F(1, 2)), ((-1,), -3)])
    with pytest.raises(DomainError, match=r"^box does not contain the "
                       r"polytope: vertex coordinate 1/2 outside \[1, 3\]$"):
        signed_lattice_count(T, (1,), [(1, 3)])
    assert signed_lattice_count(T, (1,), [(0, 3)]) == 3


def test_polytope_dies_after_its_decomposition():
    P = simplex(2, 1)
    xi = choose_polarizing_vector(P, seed=0)
    assert signed_lattice_count(P, xi, tight_box(P)) == 3
    assert signed_indicator_sum(polar_decompose(P, xi), vec(0, 0)) == 1
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None


def _non_unimodular_triangle(height):
    """conv((0, 0), (1, 0), (1, height)): the cone at the origin has
    |det| = height, the other two are unimodular."""
    return from_halfspaces(2, [((0, 1), 0), ((-1, 0), -1), ((height, -1), 0)])


def test_vertex_sum_matches_box_scan():
    shapes = [from_spec(spec) for spec in catalog_specs()]
    shapes += [dilate(from_spec(spec), k)
               for spec in ("simplex:2:1", "cube:3:1", "hirzebruch:2",
                            "simplex:3:1")
               for k in (F(1, 3), F(5, 2), F(7, 3))]
    shapes += [_non_unimodular_triangle(h) for h in (2, 5)]
    shapes += [from_halfspaces(2, [((1, 0), F(-1, 2)), ((0, 1), F(-1, 3)),
                                   ((-2, -3), F(-13, 2))])]
    for P in shapes:
        expect = lattice_points_oracle(P)
        for seed in (0, 3):
            xi = choose_polarizing_vector(P, seed=seed)
            box = tight_box(P)
            assert _box_scan_count(P, xi, box) == expect
            assert signed_lattice_count(P, xi, box) == expect


def test_power_sums_visit_each_parallelepiped_point_once():
    # S_0 counts the parallelepiped's lattice points: |det| of the cone
    for P in (_non_unimodular_triangle(7), hirzebruch(3),
              dilate(simplex(3, 1), F(5, 2))):
        xi = choose_polarizing_vector(P, seed=1)
        xi_int = [int(e * 6) for e in xi]
        for cone in polar_decompose(P, xi):
            cols, _, det = cone.lattice
            ws = [sum(map(mul, col, xi_int)) for col in cols]
            assert _power_sums(cone, xi_int, ws)[0] == abs(det)


def _power_sums_by_point(cone, xi, ws):
    """The former body of _power_sums, kept as its twin: the same classes
    r of Z^n modulo the cone's lattice, walked one point at a time, each
    <p, xi> raised to the powers 0..n by repeated products."""
    n = len(xi)
    cols, adj, det = cone.lattice
    h = _hermite_diagonal(cols)
    scale = lcm(*(e.denominator for e in cone.apex))
    shift = [int(scale * e) for e in cone.apex]
    sgn = 1 if det > 0 else -1
    adj = [[sgn * a for a in row] for row in adj]
    base = [-sum(a * s for a, s in zip(row, shift)) - is_open
            for row, is_open in zip(adj, cone.open_flags)]
    step = [scale * row[-1] for row in adj]
    dens = [scale * abs(det)] * n
    sums = [0] * (n + 1)
    for head in product(*(range(k) for k in h[:-1])):
        nums = [b + scale * sum(a * r for a, r in zip(row, head))
                for b, row in zip(base, adj)]
        q0 = sum(r * x for r, x in zip(head, xi))
        for _ in range(h[-1]):
            q = q0 - sum(map(mul, ws, map(floordiv, nums, dens)))
            power = 1
            for k in range(n + 1):
                sums[k] += power
                power *= q
            q0 += xi[-1]
            nums = list(map(add, nums, step))
    return sums


def _assert_power_sums_match(cone, xi):
    """_power_sums equals its per-point twin for the integral xi."""
    ws = [sum(map(mul, col, xi)) for col in cone.lattice[0]]
    assert _power_sums(cone, xi, ws) == _power_sums_by_point(cone, xi, ws)


def test_power_sums_match_the_per_point_twin():
    shapes = [from_spec(spec) for spec in catalog_specs()]
    # rational apexes, and open flags at the vertices the direction flips
    shapes += [dilate(P, k) for P in shapes[:] for k in (F(5, 2), F(7, 2),
                                                         F(19, 2))]
    # one line of 2, 7 points, and lines that end just below, at, just past
    # and two past one block
    block = polar.POWER_SUM_BLOCK
    shapes += [_non_unimodular_triangle(h) for h in (2, 7, block - 1, block,
                                                     block + 1, 2 * block + 1)]
    for P in shapes:
        for seed in (0, 3):
            xi = choose_polarizing_vector(P, seed=seed)
            scale = lcm(*(e.denominator for e in xi))
            for cone in polar_decompose(P, xi):
                _assert_power_sums_match(cone, [int(e * scale) for e in xi])
    # a cone whose Hermite diagonal is (2, 3, 7): six heads, lines of 7
    gens = (vec(-2, -3, 2), vec(-2, 0, -1), vec(-2, 3, 3))
    for flags in product((False, True), repeat=3):
        cone = PolarizedCone(vec(F(1, 2), F(-2, 3), 5), gens, flags)
        assert _hermite_diagonal(cone.lattice[0]) == [2, 3, 7]
        _assert_power_sums_match(cone, [3, -1, 2])


def _cones(gens, apex):
    """The cone at ``apex`` on the int generators ``gens``, under every
    choice of open flags."""
    for flags in product((False, True), repeat=len(gens)):
        yield PolarizedCone(apex, tuple(vec(*g) for g in gens), flags)


def test_power_sums_with_zero_steps_match_the_per_point_twin():
    # a zero in the last column of adj makes m_j constant along each line,
    # and a zero last entry of xi makes <r, xi> constant: both are walked
    # by repeat, as range refuses a step of 0
    for gens in (((3, 3, 2), (1, 1, -3), (0, -2, -1)),
                 ((0, 1, -1), (3, 2, 1), (0, 3, 1))):
        for cone in _cones(gens, vec(F(1, 2), F(-2, 3), 5)):
            cols, adj, _ = cone.lattice
            assert 0 in [row[-1] for row in adj]
            assert _hermite_diagonal(cols)[-1] > 1
            for xi in ([3, -1, 2], [3, -1, 0], [0, 5, 0]):
                _assert_power_sums_match(cone, xi)


def test_power_sums_on_unimodular_cones_match_the_per_point_twin():
    # |det| = 1: one head, and its line holds one point; at a lattice apex
    # that point is the apex plus the sum of the open generators
    for gens, apex in product((((1, 0, 0), (1, 1, 0), (2, -1, 1)),
                               ((-1, 0, 0), (0, 0, -1), (0, 1, 0))),
                              (vec(F(7, 2), F(-1, 3), 2), vec(1, -2, 3))):
        for cone in _cones(gens, apex):
            assert _hermite_diagonal(cone.lattice[0]) == [1, 1, 1]
            point = [a + sum(g[i] for g, is_open in zip(gens, cone.open_flags)
                             if is_open) for i, a in enumerate(apex)]
            for xi in ([3, -1, 2], [3, -1, 0], [5, 0, 1]):
                _assert_power_sums_match(cone, xi)
                ws = [sum(map(mul, col, xi)) for col in cone.lattice[0]]
                sums = _power_sums(cone, xi, ws)
                assert sums[0] == 1
                if all(F(a).denominator == 1 for a in apex):
                    assert sums[1] == sum(map(mul, point, xi))


def _dense_triangle(N):
    """conv((0, 0), (1, 0), (a, N)), a = N // 2 + 1: a floor of the cone at
    the origin steps at about every other point of its line of N."""
    a = N // 2 + 1
    return from_halfspaces(2, [((0, 1), 0), ((N, -a), 0), ((-N, a - 1), -N)])


def _dense_simplex(N):
    """conv(0, e1, e2, (a, b, N)), a = N // 2 + 1 and b = N // 3 + 1: two
    floors of the cone at the origin step along its line of N points."""
    a, b = N // 2 + 1, N // 3 + 1
    return from_halfspaces(3, [((0, 0, 1), 0), ((0, N, -b), 0), ((N, 0, -a), 0),
                               ((-N, -N, a + b - 1), -N)])


def _step_share(cone):
    """The largest share of a line's points at which one floor m_j steps:
    |r_j| / den, r_j the symmetric remainder of its numerator's step."""
    _, adj, det = cone.lattice
    den = abs(det)
    return max(min(row[-1] % den, -row[-1] % den) for row in adj) / F(den)


def test_power_sums_with_dense_steps_match_the_per_point_twin():
    # the cone at the origin is one line of N points whose floors step at
    # a third to a half of them: small N, and lines that end just below,
    # at and just past one block, under every choice of open flags
    block = polar.POWER_SUM_BLOCK
    for N in (7, 31, block - 1, block, block + 1):
        for P in (_dense_triangle(N), _dense_simplex(N)):
            xi = choose_polarizing_vector(P, seed=0)
            scale = lcm(*(e.denominator for e in xi))
            xi = [int(e * scale) for e in xi]
            origin = _polarize_at(P, (0,) * P.dim, xi)
            assert _hermite_diagonal(origin.lattice[0])[-1] == N
            assert _step_share(origin) >= F(1, 3)
            for cone in polar_decompose(P, xi):
                for flagged in _cones(cone.generators, cone.apex):
                    _assert_power_sums_match(flagged, xi)


def test_vertex_sum_with_dense_steps_matches_the_oracle(monkeypatch):
    # the triangle's box holds about N^2/2 points, over the box limit at
    # one block; the oracle scans one line per x, so the limit is lifted
    monkeypatch.setattr(polytopes, "MAX_BOX_POINTS", 10 ** 8)
    block = polar.POWER_SUM_BLOCK
    for N in (7, 31, block - 1, block, block + 1):
        T = _dense_triangle(N)
        for seed in (0, 3):
            xi = choose_polarizing_vector(T, seed=seed)
            assert (signed_lattice_count(T, xi, tight_box(T))
                    == lattice_points_oracle(T))
    # the oracle scans about N^2/6 lines of the simplex, so its lines meet
    # the block's ends with a block of 16
    for size, sizes in ((block, (7, 31)), (16, (15, 16, 17))):
        monkeypatch.setattr(polar, "POWER_SUM_BLOCK", size)
        for N in sizes:
            S = _dense_simplex(N)
            for seed in (0, 3):
                xi = choose_polarizing_vector(S, seed=seed)
                assert (signed_lattice_count(S, xi, tight_box(S))
                        == lattice_points_oracle(S))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
             min_size=n, max_size=n),
    st.lists(st.integers(-6, 6), min_size=n, max_size=n))))
def test_power_sums_match_the_per_point_twin_on_random_cones(case):
    gens, flags, apex, xi = case
    assume(linalg.det(gens) != 0)
    cone = PolarizedCone(vec(*apex), tuple(vec(*g) for g in gens),
                         tuple(flags))
    _assert_power_sums_match(cone, xi)


def test_vertex_sum_memory_is_bounded_by_the_block():
    # a line of 200,000 points held at once peaks near 8 MB.  On the dense
    # triangle a floor steps at about every other point of that line, so
    # the steps are as many as the points and must be bounded by the block
    # too; its count is Pick's: area 100,000 and 100,002 boundary points
    for T, count in ((_non_unimodular_triangle(200_000), 200_002),
                     (_dense_triangle(200_000), 150_002)):
        xi = choose_polarizing_vector(T, seed=0)
        box = tight_box(T)
        tracemalloc.start()
        try:
            assert signed_lattice_count(T, xi, box) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_ehrhart_polynomial_leads_with_the_localization_volume():
    for spec in catalog_specs():
        P = from_spec(spec)
        assert smoothness_report(P).smooth
        n = P.dim
        counts = {}
        for k in list(range(1, n + 2)) + [1000]:
            Q = dilate(P, k)
            counts[k] = signed_lattice_count(
                Q, choose_polarizing_vector(Q, seed=0), tight_box(Q))
        # leading coefficient of the degree-n interpolant through k = 1..n+1
        leading = sum(F(counts[k]) / prod(k - j for j in range(1, n + 2)
                                           if j != k)
                      for k in range(1, n + 2))
        assert leading == volume_localization(P, choose_polarizing_vector(P))
        family, *rest = spec.split(":")
        if family == "cube":
            assert counts[1000] == (1000 * int(rest[1]) + 1) ** n
        elif family == "simplex":
            assert counts[1000] == comb(n + 1000 * int(rest[1]), n)


def test_count_refuses_oversized_work_before_enumerating(monkeypatch):
    # sum of |det| is height + 2, the oracle's box holds 2 (height + 1) points
    T = _non_unimodular_triangle(polar.MAX_PARALLELEPIPED_POINTS)
    xi = choose_polarizing_vector(T, seed=0)
    with pytest.raises(DomainError, match="over the limit"):
        signed_lattice_count(T, xi, tight_box(T))
    with pytest.raises(DomainError, match="over the limit"):
        lattice_points_oracle(T)
    monkeypatch.setattr(polar, "MAX_PARALLELEPIPED_POINTS", 8)
    monkeypatch.setattr(polytopes, "MAX_BOX_POINTS", 14)
    at_limit = _non_unimodular_triangle(6)
    xi = choose_polarizing_vector(at_limit, seed=0)
    assert signed_lattice_count(at_limit, xi, tight_box(at_limit)) == 8
    assert lattice_points_oracle(at_limit) == 8
    over = _non_unimodular_triangle(7)
    with pytest.raises(DomainError):
        signed_lattice_count(over, choose_polarizing_vector(over, seed=0),
                             tight_box(over))
    with pytest.raises(DomainError):
        lattice_points_oracle(over)


@st.composite
def rational_simple_polytopes(draw):
    """The box [-a, a]^3, a rational, cut by two to four half-spaces with
    small integer normals and rational offsets below 0 (the origin stays
    inside), redrawn until simple with a non-unimodular vertex cone and a
    non-integral vertex."""
    half = draw(st.fractions(min_value=1, max_value=3, max_denominator=3))
    hs = [([s if j == i else 0 for j in range(3)], -half)
          for i in range(3) for s in (1, -1)]
    for _ in range(draw(st.integers(2, 4))):
        normal = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
        offset = draw(st.fractions(min_value=F(1, 2), max_value=4,
                                   max_denominator=3))
        hs.append((normal, -offset))
    P = from_halfspaces(3, hs)
    report = smoothness_report(P)
    assume(report.simple and not report.smooth)
    assume(any(e.denominator > 1 for v in P.vertices for e in v))
    return P


@st.composite
def affine_lattice_maps(draw):
    """x -> U x + t with U in GL_3(Z), built from a signed permutation and
    a few integer shears, and t an integer vector."""
    perm = draw(st.permutations(range(3)))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * 3))
    U = [[signs[i] * int(perm[i] == j) for j in range(3)] for i in range(3)]
    shears = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
    for i, j, c in draw(st.lists(shears.filter(lambda s: s[0] != s[1]),
                                 max_size=3)):
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    t = draw(st.tuples(*[st.integers(-5, 5)] * 3))
    return U, t


def _mapped(P, U, t):
    """The image of P under x -> U x + t: <a, x> >= b becomes
    <U^-T a, y> >= b + <U^-T a, t>."""
    adj, d = linalg.adjugate_int(U)
    inv = [[d * x for x in row] for row in adj]  # det U = +-1
    hs = []
    for a, p in P.int_rows:
        normal = tuple(sum(inv[i][k] * a[i] for i in range(3))
                       for k in range(3))
        hs.append((normal, p + dot(normal, t)))
    return from_halfspaces(3, hs)


@settings(max_examples=40, deadline=None)
@given(rational_simple_polytopes(), affine_lattice_maps())
def test_vertex_sum_twins_and_lattice_invariance(P, move):
    expect = lattice_points_oracle(P)
    xi = choose_polarizing_vector(P, seed=0)
    assert signed_lattice_count(P, xi, tight_box(P)) == expect
    assert _box_scan_count(P, xi, tight_box(P)) == expect
    Q = _mapped(P, *move)
    assert signed_lattice_count(Q, choose_polarizing_vector(Q, seed=0),
                                tight_box(Q)) == expect
