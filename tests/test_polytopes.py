"""Half-space ingestion, builders, Delzant checks, and the two oracles."""

import random
from fractions import Fraction as F

import pytest

from momentkit import (
    DegenerateInputError,
    DomainError,
    EmptyRegionError,
    UnboundedRegionError,
    cube,
    dilate,
    from_halfspaces,
    from_spec,
    hirzebruch,
    is_simple,
    is_smooth,
    lattice_points_oracle,
    simplex,
    smoothness_report,
    volume_oracle,
)
from momentkit.algebra import dot, primitive, vec, vsub
from momentkit.polytopes import (
    catalog_specs,
    integer_box,
    polytope_from_json,
    polytope_to_json,
    tight_box,
)


def unit_square():
    return from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])


def skew_triangle():
    # conv{(0,0), (1,0), (0,2)}: simple and rational but not smooth
    return from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-2, -1), -2)])


def square_pyramid():
    # apex (0,0,1) over the base [-1,1]^2 x {0}
    return from_halfspaces(3, [
        ((0, 0, 1), 0),
        ((-1, 0, -1), -1),
        ((1, 0, -1), -1),
        ((0, -1, -1), -1),
        ((0, 1, -1), -1),
    ])


# ---------------------------------------------------------------------------
# construction


def test_square_vertices_and_edges():
    P = unit_square()
    assert set(P.vertices) == {vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)}
    assert len(P.edges) == 4


def test_standard_simplex():
    P = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])
    assert set(P.vertices) == {vec(0, 0), vec(1, 0), vec(0, 1)}
    assert len(P.edges) == 3


def test_empty_region():
    with pytest.raises(EmptyRegionError):
        from_halfspaces(1, [((1,), 0), ((-1,), 1)])


def test_unbounded_region():
    with pytest.raises(UnboundedRegionError):
        from_halfspaces(2, [((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(UnboundedRegionError):
        from_halfspaces(1, [((1,), 0)])


def test_degenerate_region():
    # all 2-subsets singular: normals span only a line
    with pytest.raises(DegenerateInputError):
        from_halfspaces(2, [((1, 0), 0), ((-1, 0), 0)])


def test_input_validation():
    with pytest.raises(DomainError):
        from_halfspaces(2, [])
    with pytest.raises(DomainError):
        from_halfspaces(2, [((0, 0), 1)])
    with pytest.raises(DomainError):
        from_halfspaces(0, [((1,), 0)])


def test_duplicate_and_redundant_halfspaces_tolerated():
    P = from_halfspaces(2, [
        ((1, 0), 0), ((2, 0), 0),          # duplicate up to scaling
        ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
        ((1, 1), -5),                      # redundant
    ])
    assert len(P.vertices) == 4
    assert len(P.halfspaces) == 5  # duplicate merged, redundant kept
    assert len(P.facets) == 4


def test_flat_region_is_degenerate_for_volume():
    # the segment {0} x [0,1] inside R^2 has vertices but no volume
    P = from_halfspaces(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
    assert len(P.vertices) == 2
    with pytest.raises(DegenerateInputError):
        volume_oracle(P)


# ---------------------------------------------------------------------------
# builders


def test_simplex_builder():
    P = simplex(2, 1)
    assert set(P.vertices) == {vec(0, 0), vec(1, 0), vec(0, 1)}


def test_cube_builder():
    P = cube(3, 2)
    assert len(P.vertices) == 8
    assert len(P.edges) == 12
    assert vec(2, 2, 2) in P.vertices


def test_hirzebruch_builder_is_smooth():
    for a in (1, 2, 3):
        P = hirzebruch(a)
        assert len(P.vertices) == 4
        assert is_smooth(P)
    assert set(hirzebruch(1).vertices) == {
        vec(0, 0), vec(2, 0), vec(0, 1), vec(1, 1)}


def test_builder_preconditions():
    with pytest.raises(DomainError):
        simplex(2, 0)
    with pytest.raises(DomainError):
        cube(0, 1)
    with pytest.raises(DomainError):
        hirzebruch(0)


def test_from_spec():
    assert len(from_spec("cube:2:3").vertices) == 4
    assert len(from_spec("simplex:3:1").vertices) == 4
    assert len(from_spec("hirzebruch:2").vertices) == 4
    with pytest.raises(ValueError):
        from_spec("octahedron:3")
    with pytest.raises(ValueError):
        from_spec("cube:two:1")


def test_catalog_specs_cover_dims_1_to_3():
    specs = catalog_specs()
    assert "simplex:1:1" in specs and "cube:3:3" in specs and "hirzebruch:3" in specs
    assert len(specs) == 21


# ---------------------------------------------------------------------------
# vertex figures


def test_vertex_figure_square_origin():
    P = unit_square()
    i = P.vertices.index(vec(0, 0))
    vf = P.vertex_figure(i)
    assert set(vf.edge_dirs) == {vec(1, 0), vec(0, 1)}


def test_vertex_figure_simplex_corner():
    P = simplex(2, 1)
    i = P.vertices.index(vec(1, 0))
    vf = P.vertex_figure(i)
    assert set(vf.edge_dirs) == {vec(-1, 0), vec(-1, 1)}


def test_vertex_figure_hirzebruch_all_vertices():
    P = hirzebruch(1)
    for i in range(4):
        assert len(P.vertex_figure(i).edge_dirs) == 2


def test_edge_dirs_match_across_endpoints():
    for spec in ("simplex:2:1", "cube:3:1", "hirzebruch:2"):
        P = from_spec(spec)
        for i, j in P.edges:
            d = primitive(vsub(P.vertices[j], P.vertices[i]))
            assert d in P.vertex_figure(i).primitive_edge_dirs
            assert tuple(-c for c in d) in P.vertex_figure(j).primitive_edge_dirs


# ---------------------------------------------------------------------------
# Delzant conditions


def test_is_simple():
    assert is_simple(cube(3, 1))
    assert not is_simple(square_pyramid())
    for n in (1, 2, 3, 4):
        assert is_simple(simplex(n, 1))


def test_is_smooth_examples():
    assert is_smooth(cube(2, 1))
    assert not is_smooth(skew_triangle())
    assert is_smooth(hirzebruch(2))


def test_smoothness_report_pinpoints_bad_vertex():
    P = skew_triangle()
    rep = smoothness_report(P)
    assert rep.simple and not rep.smooth
    assert P.vertices[rep.failing_vertex] == vec(1, 0)
    assert rep.failing_det == 2


def test_smoothness_report_not_simple():
    rep = smoothness_report(square_pyramid())
    assert not rep.simple and not rep.smooth
    assert rep.reason == "not simple"


def test_smooth_implies_simple():
    for spec in catalog_specs():
        rep = smoothness_report(from_spec(spec))
        assert rep.smooth
        assert rep.simple


# ---------------------------------------------------------------------------
# membership


def test_contains():
    P = unit_square()
    assert P.contains((F(1, 2), F(1, 2)))
    assert P.contains((1, F(1, 2)))  # boundary inclusive
    assert not P.contains((2, 0))
    with pytest.raises(DomainError):
        P.contains((1, 2, 3))


# ---------------------------------------------------------------------------
# volume oracle


def test_volume_examples():
    assert volume_oracle(cube(2, 1)) == 1
    assert volume_oracle(simplex(2, 1)) == F(1, 2)
    assert volume_oracle(simplex(3, 1)) == F(1, 6)
    assert volume_oracle(hirzebruch(1)) == F(3, 2)
    assert volume_oracle(square_pyramid()) == F(4, 3)


def test_volume_dilation_law():
    rng = random.Random(9)
    for spec in ("simplex:2:1", "cube:3:2", "hirzebruch:2", "simplex:3:1"):
        P = from_spec(spec)
        base = volume_oracle(P)
        k = rng.randint(2, 5)
        Q = dilate(P, k)
        assert volume_oracle(Q) == F(k) ** P.dim * base
        assert set(Q.vertices) == {tuple(F(k) * c for c in v) for v in P.vertices}


# ---------------------------------------------------------------------------
# lattice oracle


def test_lattice_examples():
    assert len(lattice_points_oracle(simplex(2, 1))) == 3
    assert len(lattice_points_oracle(cube(2, 2))) == 9
    assert len(lattice_points_oracle(dilate(simplex(2, 1), 5))) == 21


def test_lattice_points_are_inside():
    P = hirzebruch(2)
    pts = lattice_points_oracle(P)
    assert len(pts) == len(set(pts))
    for x in pts:
        assert P.contains(x)


def test_boxes():
    P = dilate(simplex(2, 1), F(3, 2))
    assert integer_box(P) == [(0, 1), (0, 1)]
    assert tight_box(P) == [(0, 2), (0, 2)]


# ---------------------------------------------------------------------------
# structural invariants


def test_vertex_facet_duality():
    for spec in ("simplex:3:2", "cube:3:1", "hirzebruch:3"):
        P = from_spec(spec)
        for v, active in zip(P.vertices, P.vertex_facets):
            assert P.contains(v)
            assert len(active) >= P.dim
            assert len(active) == P.dim  # simple catalog polytopes
            for k in active:
                h = P.halfspaces[k]
                assert dot(h.normal, v) == h.offset


def test_euler_relations():
    for spec in ("simplex:2:2", "cube:2:3", "hirzebruch:1"):
        P = from_spec(spec)
        assert len(P.vertices) == len(P.edges)
    for spec in ("simplex:3:1", "cube:3:2"):
        P = from_spec(spec)
        assert len(P.vertices) - len(P.edges) + len(P.facets) == 2


def test_json_round_trip():
    P = hirzebruch(2)
    obj = polytope_to_json(P)
    Q = polytope_from_json(obj)
    assert Q.vertices == P.vertices
    assert Q.edges == P.edges
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 2})
    with pytest.raises(ValueError):
        polytope_from_json({"dim": "2", "halfspaces": []})
    with pytest.raises(ValueError):
        polytope_from_json({"dim": True, "halfspaces": obj["halfspaces"]})
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 1, "halfspaces": [
            {"normal": [True], "offset": "0"},
            {"normal": ["-1"], "offset": "-1"}]})
