"""End-to-end acceptance checks, one per criterion, all exact (no tolerances).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime against the stated target.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from momentkit import (
    betti_numbers,
    choose_polarizing_vector,
    dilate,
    euler_class_at,
    facet_class,
    free_module_check,
    from_halfspaces,
    from_spec,
    gkm_check,
    gkm_degree_basis,
    gkm_dimension,
    lattice_points_oracle,
    moment_graph,
    polar_decompose,
    pushforward,
    signed_indicator_sum,
    signed_lattice_count,
    simplex,
    smoothness_report,
    tight_box,
    volume_localization,
    volume_oracle,
)
from momentkit.algebra import poly_const, vec, vneg
from momentkit.gkm import MomentGraph, choose_generic_direction
from momentkit.polytopes import catalog_specs

CATALOG = [(spec, from_spec(spec)) for spec in catalog_specs()]


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\ncriterion {number} ({name}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {number} ({name}): PASS in {elapsed:.1f}s "
          f"(target {limit_seconds}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s runtime target")


def _distinct_polarizing_vectors(P, count=5):
    out = []
    seed = 0
    while len(out) < count:
        xi = choose_polarizing_vector(P, seed=seed)
        if xi not in out:
            out.append(xi)
        seed += 1
        assert seed < 50
    return out


def _random_convex(rng, points):
    weights = [F(rng.randint(1, 9)) for _ in points]
    total = sum(weights)
    dim = len(points[0])
    return tuple(
        sum(w * p[c] for w, p in zip(weights, points)) / total
        for c in range(dim))


def _sample_mix(P, rng, total=1000):
    """Vertices, edge points, facet points, interior and exterior probes."""
    verts = P.vertices
    pts = list(verts)
    for i, j in P.edges:
        for t in (F(1, 2), F(1, 3), F(2, 3)):
            pts.append(tuple(a + t * (b - a) for a, b in zip(verts[i], verts[j])))
    for k in P.facets:
        members = [v for v, facets in zip(verts, P.vertex_facets) if k in facets]
        for _ in range(5):
            pts.append(_random_convex(rng, members))
    for _ in range(150):
        pts.append(_random_convex(rng, verts))
    box = tight_box(P)
    for _ in range(100):  # guaranteed-exterior probes past the box corner
        pts.append(tuple(F(hi + rng.randint(1, 5), rng.randint(1, 2))
                         for _, hi in box))
    while len(pts) < total:  # mixed probes around the box
        pts.append(tuple(F(rng.randint(3 * lo - 3, 3 * hi + 3), rng.randint(1, 3))
                         for lo, hi in box))
    return pts[:total]


def test_criterion_1_pointwise_indicator_identity():
    with criterion(1, "signed cone indicators reproduce membership", 30):
        for idx, (spec, P) in enumerate(CATALOG):
            rng = random.Random(1000 + idx)
            points = _sample_mix(P, rng)
            assert len(points) == 1000
            for xi in _distinct_polarizing_vectors(P, 5):
                cones = polar_decompose(P, xi)
                for x in points:
                    assert signed_indicator_sum(cones, x) == int(P.contains(x))


def test_criterion_2_signed_lattice_counting():
    with criterion(2, "signed cone counts equal enumeration", 60):
        for spec, P in CATALOG:
            for k in range(1, 11):
                Q = dilate(P, k)
                xi = choose_polarizing_vector(Q, seed=k)
                assert (signed_lattice_count(Q, xi, tight_box(Q))
                        == lattice_points_oracle(Q))
        for k in range(1, 11):
            Q = dilate(simplex(2, 1), k)
            xi = choose_polarizing_vector(Q, seed=0)
            expected = (k + 1) * (k + 2) // 2
            assert signed_lattice_count(Q, xi, tight_box(Q)) == expected


def test_criterion_3_volume_localization():
    with criterion(3, "fixed-point volumes equal recursive volumes", 10):
        for spec, P in CATALOG:
            expected = volume_oracle(P)
            for xi in _distinct_polarizing_vectors(P, 5):
                assert volume_localization(P, xi) == expected
        for spec in ("simplex:1:1", "simplex:2:1", "simplex:3:1"):
            P = from_spec(spec)
            xi = choose_polarizing_vector(P, seed=1)
            n = P.dim
            fact = 1
            for i in range(2, n + 1):
                fact *= i
            assert volume_localization(P, xi) == F(1, fact)
            for k in (2, 3):
                Q = dilate(P, k)
                assert volume_localization(Q, xi) == F(k) ** n * F(1, fact)


def test_criterion_4_pushforward_vanishing_and_normalization():
    with criterion(4, "low degrees integrate to zero, deltas to one", 10):
        for spec, P in CATALOG:
            G = moment_graph(P)
            samples = [choose_generic_direction(G, seed=s) for s in range(3)]
            unit = tuple(poly_const(G.dim, 1) for _ in G.positions)
            if G.dim >= 1:
                assert pushforward(unit, G, samples[0]) == 0
            for k in range(G.dim):
                for cls in gkm_degree_basis(G, k):
                    assert all(pushforward(cls, G, xi) == 0 for xi in samples)
            for v in range(len(G.positions)):
                delta = tuple(euler_class_at(G, w) if w == v else {}
                              for w in range(len(G.positions)))
                assert gkm_check(G, delta) == ()
                assert pushforward(delta, G, samples[0]) == 1


def test_criterion_5_betti_consistency():
    with criterion(5, "Morse profiles and free-module dimensions", 60):
        spot = {
            "simplex:2:1": (1, 1, 1),
            "hirzebruch:1": (1, 2, 1),
            "cube:3:1": (1, 3, 3, 1),
        }
        for spec, P in CATALOG:
            G = moment_graph(P)
            profiles = set()
            for seed in range(5):
                profiles.add(betti_numbers(G, choose_generic_direction(G, seed=seed)))
            assert len(profiles) == 1
            profile = profiles.pop()
            assert profile == tuple(reversed(profile))
            assert sum(profile) == len(G.positions)
            assert free_module_check(G, 3)
            if spec in spot:
                assert profile == spot[spec]


def test_criterion_6_facet_generators():
    with criterion(6, "facet classes generate degree one", 10):
        for spec, P in CATALOG:
            G = moment_graph(P)
            for k in P.facets:
                assert gkm_check(G, facet_class(P, G, k)) == ()
            assert gkm_dimension(G, 1) == len(P.facets)


def test_criterion_7_delzant_validation():
    with criterion(7, "builders smooth, counterexamples flagged", 1):
        for spec, P in CATALOG:
            assert smoothness_report(P).smooth
        T = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-2, -1), -2)])
        rep = smoothness_report(T)
        assert not rep.smooth and rep.simple
        assert T.vertices[rep.failing_vertex] == vec(1, 0)
        assert rep.failing_det == 2
        pyramid = from_halfspaces(3, [
            ((0, 0, 1), 0),
            ((-1, 0, -1), -1),
            ((1, 0, -1), -1),
            ((0, -1, -1), -1),
            ((0, 1, -1), -1),
        ])
        rep = smoothness_report(pyramid)
        assert not rep.simple and rep.reason == "not simple"


def test_criterion_8_sign_convention_robustness():
    with criterion(8, "per-edge weight sign flips change nothing", 30):
        rng = random.Random(88)
        for spec, P in CATALOG:
            G = moment_graph(P)
            cls = facet_class(P, G, P.facets[0])
            base_check = gkm_check(G, cls)
            base_dims = [gkm_dimension(G, k) for k in (1, 2)]
            xi = choose_generic_direction(G, seed=0)
            base_betti = betti_numbers(G, xi)
            for _ in range(20):
                flips = [k for k in range(len(G.edges)) if rng.random() < 0.5]
                H = MomentGraph(G.positions, G.edges, tuple(
                    vneg(w) if k in flips else w for k, w in enumerate(G.lines)))
                assert H == G and hash(H) == hash(G)
                assert gkm_check(H, cls) == base_check
                assert [gkm_dimension(H, k) for k in (1, 2)] == base_dims
                assert betti_numbers(H, xi) == base_betti
