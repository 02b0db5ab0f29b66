"""Half-space ingestion, builders, Delzant checks, and the two oracles."""

import random
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import (
    DegenerateInputError,
    DomainError,
    EmptyRegionError,
    UnboundedRegionError,
    choose_polarizing_vector,
    cube,
    dilate,
    from_halfspaces,
    from_spec,
    hirzebruch,
    lattice_points_oracle,
    moment_graph,
    polar_decompose,
    simplex,
    smoothness_report,
    volume_localization,
    volume_oracle,
)
from momentkit import linalg, polytopes
from momentkit.algebra import (
    clear_denominators,
    dot,
    is_zero_vec,
    parse_rat,
    pivot_index,
    primitive,
    vec,
    vec_from_json,
    vec_to_json,
    vsub,
)
from momentkit.polytopes import (
    _lattice_runs,
    catalog_specs,
    integer_box,
    polytope_from_json,
    polytope_to_json,
    tight_box,
)
from test_polar import rational_simple_polytopes


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
    # vectors in messages print as rational strings
    with pytest.raises(DomainError) as got:
        from_halfspaces(2, [((1, 0), 0), ((F(1, 2), 0, 1), 0)])
    assert str(got.value) == "normal ['1/2', '0', '1'] does not have dimension 2"


def test_duplicate_and_redundant_halfspaces_tolerated():
    P = from_halfspaces(2, [
        ((1, 0), 0), ((2, 0), 0),          # duplicate up to scaling
        ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
        ((1, 1), -5),                      # redundant
    ])
    assert len(P.vertices) == 4
    assert len(P.int_rows) == 5  # duplicate merged, redundant kept
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
        assert smoothness_report(P).smooth
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
    assert set(P.weights[i]) == {vec(1, 0), vec(0, 1)}


def test_vertex_figure_simplex_corner():
    P = simplex(2, 1)
    i = P.vertices.index(vec(1, 0))
    assert set(P.weights[i]) == {vec(-1, 0), vec(-1, 1)}


def test_vertex_figure_hirzebruch_all_vertices():
    P = hirzebruch(1)
    for i in range(4):
        assert len(P.weights[i]) == 2


def test_edge_dirs_match_across_endpoints():
    for spec in ("simplex:2:1", "cube:3:1", "hirzebruch:2"):
        P = from_spec(spec)
        for i, j in P.edges:
            d = primitive(vsub(P.vertices[j], P.vertices[i]))
            assert d in P.weights[i]
            assert tuple(-c for c in d) in P.weights[j]


def test_directions_and_normals_are_ints():
    for spec in catalog_specs():
        P = from_spec(spec)
        G = moment_graph(P)
        cone = polar_decompose(P, choose_polarizing_vector(P))[0]
        ints = [c for at_v in P.weights for w in at_v for c in w]
        ints += [c for at_v in G.isotropy for w in at_v for c in w]
        ints += [c for col in cone.lattice[0] for c in col]
        ints += [c for a, p in P.int_rows for c in (*a, p)]
        assert ints and all(type(c) is int for c in ints)


def test_int_normals_keep_exact_offsets():
    # q * <a, x> >= p with int normals: the rows stay ints after a rational
    # dilation, and the written offset p/q is a Fraction, never int / int
    hs = [((2, 0), 0), ((0, 3), F(-3, 2)), ((-1, -1), -2), ((-4, 0), -6)]
    P = from_halfspaces(2, hs)
    Q = dilate(P, F(5, 2))
    for R in (P, Q):
        assert all(type(c) is int for a, p in R.int_rows for c in (*a, p))
        assert all(type(c) is F for v in R.vertices for c in v)
    assert P.int_rows == [((1, 0), 0), ((0, 2), -1), ((-1, -1), -2),
                          ((-2, 0), -3)]
    assert [h["offset"] for h in polytope_to_json(P)["halfspaces"]] == [
        "0", "-1/2", "-2", "-3/2"]
    assert [h["offset"] for h in polytope_to_json(Q)["halfspaces"]] == [
        "0", "-5/4", "-5", "-15/4"]
    assert Q.vertices == tuple(tuple(F(5, 2) * c for c in v) for v in P.vertices)


# ---------------------------------------------------------------------------
# Delzant conditions


def test_is_simple():
    assert smoothness_report(cube(3, 1)).simple
    assert not smoothness_report(square_pyramid()).simple
    for n in (1, 2, 3, 4):
        assert smoothness_report(simplex(n, 1)).simple


def test_is_smooth_examples():
    assert smoothness_report(cube(2, 1)).smooth
    assert not smoothness_report(skew_triangle()).smooth
    assert smoothness_report(hirzebruch(2)).smooth


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


def _count_dets(monkeypatch):
    calls = []
    det = linalg.det
    monkeypatch.setattr(linalg, "det", lambda m: calls.append(1) or det(m))
    return calls


def test_smoothness_report_stops_at_the_first_failing_vertex(monkeypatch):
    calls = _count_dets(monkeypatch)
    # the square pyramid's apex, vertex 2, has four edges; no determinant
    # is taken
    rep = smoothness_report(square_pyramid())
    assert (rep.simple, rep.failing_vertex, rep.failing_det) == (False, 2, None)
    assert calls == []
    # conv{(0,0), (2,0), (0,1)}: |det| is 1 at (0, 0) and 2 at (0, 1); the
    # third vertex, (2, 0), is never tested
    P = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -2)])
    assert P.vertices == (vec(0, 0), vec(0, 1), vec(2, 0))
    rep = smoothness_report(P)
    assert (rep.simple, rep.failing_vertex, rep.failing_det) == (True, 1, 2)
    assert len(calls) == 2
    # a smooth polytope tests every vertex
    calls.clear()
    assert smoothness_report(cube(3, 1)).smooth
    assert len(calls) == 8


def test_vertex_data_is_built_once():
    P = hirzebruch(2)
    assert P.weights is P.weights
    assert P.facets is P.facets
    assert "weights" not in vars(simplex(2, 1))
    assert not hasattr(P, "__slots__")


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
    with pytest.raises(DomainError, match="^dilation factor must be positive$"):
        dilate(cube(2, 1), 0)


# the old recursion, which rebuilt every facet with from_halfspaces, kept as
# the oracle twin of the vertex-set faces and the per-face memo


def _rebuild_volume(P):
    n = P.dim
    if n == 1:
        xs = [v[0] for v in P.vertices]
        return max(xs) - min(xs)
    base = P.vertices[0]
    total = F(0)
    for k in P.facets:
        a, p = P.int_rows[k]
        height = dot(a, base) - p
        if height == 0:
            continue
        piv = pivot_index(a)
        total += height / abs(a[piv]) * _rebuild_volume(
            _rebuild_facet(P, k, piv))
    return total / n


def _rebuild_facet(P, k, piv):
    a, b = P.int_rows[k]
    rows = []
    for j, (n, o) in enumerate(P.int_rows):
        if j == k:
            continue
        factor = F(n[piv], a[piv])
        normal = tuple(c - factor * ac
                       for i, (c, ac) in enumerate(zip(n, a)) if i != piv)
        offset = o - factor * b
        if is_zero_vec(normal):
            if offset > 0:
                raise EmptyRegionError("facet substitution became infeasible")
            continue
        rows.append((normal, offset))
    return from_halfspaces(P.dim - 1, rows)


def ridge_tight_cube():
    # cube:3 and -x - y >= -2, tight only along the edge x = y = 1; on the
    # facets x = 1 and y = 1 it turns into a copy of another row
    return from_halfspaces(3, cube(3, 1).int_rows + [((-1, -1, 0), -2)])


def random_cut_boxes(seed, count, sizes=(3, 8)):
    """The box [-3, 3]^3 cut by sizes[0] to sizes[1] half-spaces with normals
    in [-2, 2]^3 and offsets in [-4, 0]: many cuts are redundant, and some
    vertices lie on more than three planes."""
    rng = random.Random(seed)
    normals = [n for n in product(range(-2, 3), repeat=3) if any(n)]
    box = [(tuple(s * int(j == i) for j in range(3)), -3)
           for i in range(3) for s in (1, -1)]
    for _ in range(count):
        cuts = [(rng.choice(normals), F(rng.randint(-8, 0), rng.randint(1, 2)))
                for _ in range(rng.randint(*sizes))]
        yield from_halfspaces(3, box + cuts)


def test_volume_oracle_matches_the_rebuild_twin():
    shapes = [from_spec(s) for s in catalog_specs()]
    shapes += [cube(n, 1) for n in range(2, 6)]
    shapes += [simplex(n, 1) for n in range(2, 6)]
    shapes += [square_pyramid(), ridge_tight_cube()]
    # x1 + x2 >= 0 on cube:4 is tight on the 2-face x1 = x2 = 0 alone: its
    # four vertices leave a 2-dimensional kernel, a face that is no facet
    redundant = from_halfspaces(4, cube(4, 1).int_rows + [((1, 1, 0, 0), 0)])
    shapes.append(redundant)
    # seed 4 draws six polytopes on which a memo keyed by vertex set alone,
    # without the kept coordinates, gives a wrong volume
    shapes += random_cut_boxes(4, 30)
    # 20 to 34 cuts: most rows are tight at no vertex; volume_oracle refuses
    # the two flat draws exactly as the twin's affine rank does
    draws = list(random_cut_boxes(1, 10, sizes=(20, 34)))
    for P in draws:
        _assert_volume_verdict_matches_twin(P)
    assert sum(_affine_rank(P.vertices) < 3 for P in draws) == 2
    shapes += [P for P in draws if _affine_rank(P.vertices) == 3]
    for P in shapes:
        assert volume_oracle(P) == _rebuild_volume(P), P
    assert volume_oracle(ridge_tight_cube()) == 1
    assert volume_oracle(redundant) == 1
    assert volume_localization(redundant, vec(1, 2, 3, 4)) == 1


def test_volume_oracle_builds_no_facet_and_computes_each_face_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("volume_oracle rebuilt a facet")

    seen = []
    volume = polytopes._volume

    def record(top, on_row, face, kept, memo):
        seen.append((face, kept))
        return volume(top, on_row, face, kept, memo)

    shapes = [cube(5, 1), square_pyramid(), ridge_tight_cube(),
              *random_cut_boxes(5, 5)]
    monkeypatch.setattr(polytopes, "from_halfspaces", refuse)
    monkeypatch.setattr(polytopes, "_volume", record)
    for P in shapes:
        seen.clear()
        volume_oracle(P)
        assert len(seen) == len(set(seen))
        # cube:5 from the origin: the faces x_S = 1 for the 31 sets S of
        # at most four coordinates; the rebuild reached each once per
        # ordering of S, 206 times in all
        if P.dim == 5:
            assert len(seen) == 2 ** 5 - 1


# ---------------------------------------------------------------------------
# lattice oracle


def test_lattice_examples():
    assert lattice_points_oracle(simplex(2, 1)) == 3
    assert lattice_points_oracle(cube(2, 2)) == 9
    assert lattice_points_oracle(dilate(simplex(2, 1), 5)) == 21


def _run_points(P):
    """The points of the oracle's runs, expanded in the order they come."""
    runs = _lattice_runs(P, integer_box(P))
    return [(*prefix, t) for prefix, low, high in runs
            for t in range(low, high + 1)]


def _assert_oracle_matches_the_twin(P):
    expect = _box_filter_points(P)
    assert _run_points(P) == expect, P
    assert lattice_points_oracle(P) == len(expect), P


def test_lattice_points_are_inside():
    P = hirzebruch(2)
    pts = _run_points(P)
    assert len(pts) == len(set(pts)) == lattice_points_oracle(P)
    for x in pts:
        assert P.contains(x)
    _assert_oracle_matches_the_twin(P)


def _box_filter_points(P):
    """The oracle's twin: every point of the integer bounding box, in
    ``product`` order, kept when ``P.contains`` (Fraction half-spaces, no
    integer rows) holds."""
    ranges = [range(lo, hi + 1) for lo, hi in integer_box(P)]
    return [x for x in product(*ranges) if P.contains(x)]


def translated_hirzebruch(a, k, shift):
    """k * hirzebruch(a) translated by the integer vector ``shift``."""
    base = [((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -a), -(a + 1))]
    return from_halfspaces(2, [(n, k * b + dot(n, shift)) for n, b in base])


def thin_triangle():
    # between y = (2x + 1)/14 and y = (10x + 25)/72 for 0 <= x <= 139/2:
    # under 0.28 wide, so the run of y is empty at most x
    return from_halfspaces(2, [((1, 0), 0), ((-1, 7), F(1, 2)),
                               ((5, -36), F(-25, 2))])


def test_lattice_oracle_matches_the_box_filter_twin():
    shapes = [from_spec(s) for s in catalog_specs()]
    shapes += [dilate(P, k) for P in shapes
               for k in (2, F(5, 2), F(7, 2), F(19, 2))]
    shapes += [from_halfspaces(1, [((1,), lo), ((-1,), -hi)])
               for lo, hi in [(F(-7, 3), F(5, 2)), (F(1, 3), F(2, 3)),
                              (F(-9, 2), F(-4, 3)), (F(2), F(2))]]
    shapes += [translated_hirzebruch(a, k, shift)
               for a, k, shift in [(1, 1, (-3, -7)), (2, F(5, 2), (-41, 12)),
                                   (3, F(7, 3), (-6, -50)), (1, 4, (0, -9))]]
    shapes += random_cut_boxes(2, 30)
    shapes.append(thin_triangle())
    # 4-D: the residual stepping runs inside two outer prefix coordinates
    shapes += [cube(4, F(5, 2)), simplex(4, F(7, 2)), from_halfspaces(4, [
        (tuple(s * int(j == i) for j in range(4)), s * end)
        for i, ends in enumerate([(F(-9, 2), F(-4, 3)), (F(-7, 3), F(1, 2)),
                                  (F(-13, 4), F(-1, 3)), (F(-5, 2), F(3, 2))])
        for s, end in zip((1, -1), ends)])]
    assert integer_box(shapes[-1]) == [(-4, -2), (-2, 0), (-3, -1), (-2, 1)]
    for P in shapes:
        _assert_oracle_matches_the_twin(P)
    head = integer_box(thin_triangle())[0]
    columns = {x for x, _ in _run_points(thin_triangle())}
    assert len(columns) < (head[1] - head[0] + 1) / 2


@settings(max_examples=40, deadline=None)
@given(rational_simple_polytopes())
def test_lattice_oracle_matches_the_box_filter_twin_on_random_input(P):
    _assert_oracle_matches_the_twin(P)


def test_lattice_oracle_memory_is_bounded_by_the_rows():
    # 1,000,000 points each: one tuple per point takes 73-88 MB
    for P in (cube(2, 999), cube(3, 99)):
        tracemalloc.start()
        try:
            assert lattice_points_oracle(P) == polytopes.MAX_BOX_POINTS
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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
                a, p = P.int_rows[k]
                assert dot(a, v) == p


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


# ---------------------------------------------------------------------------
# the Fraction subset loop, kept as the oracle twin of from_halfspaces


def _fraction_check_bounded(dim, normals, vertex_facets):
    """Raise unless the recession cone is {0}, by the verdict of the full
    scan over every (dim-1)-subset of rows.  The ray is named by the
    build's rule, in Fraction arithmetic: the first kernel line, over the
    vertices in sorted order and each vertex's tight (dim-1)-subsets in
    combinations order, along which d or -d pairs >= 0 with every normal."""
    def ray(subset):
        rows = [list(normals[i]) for i in subset]
        if rows and linalg.rank(rows) != dim - 1:
            return None
        kernel = linalg.nullspace(rows, ncols=dim)
        if len(kernel) != 1:
            return None
        d = kernel[0]
        for cand in (d, tuple(-c for c in d)):
            if all(dot(n, cand) >= 0 for n in normals):
                return primitive(cand)
        return None

    if linalg.rank([list(n) for n in normals]) < dim:
        raise UnboundedRegionError(
            "constraint normals do not span: recession cone contains a line")
    if not any(map(ray, combinations(range(len(normals)), dim - 1))):
        return
    # an unbounded pointed polyhedron has an unbounded edge at a vertex
    named = next(filter(None, (ray(s) for facets in vertex_facets
                               for s in combinations(sorted(facets), dim - 1))))
    raise UnboundedRegionError(f"unbounded along direction {vec_to_json(named)}")


def _fraction_solve(a, b):
    """x with a x = b by Gauss-Jordan on [a | b] in Fractions; None when a
    is singular."""
    n = len(a)
    m = [[F(x) for x in row] + [F(bi)] for row, bi in zip(a, b)]
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return None
        m[c], m[r] = m[r], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(row[n] for row in m)


def _canonical_halfspace(normal, offset):
    """Scale so the normal is a primitive integer vector, an int tuple.

    Positive rescalings describe the same half-space; the canonical form
    makes duplicates literal duplicates.  The offset scale is a Fraction,
    as ``/`` on two ints would be float division.
    """
    p = primitive(normal)
    i = next(j for j, c in enumerate(normal) if c != 0)
    return p, F(offset) * F(p[i], normal[i])


def _canonical_halfspaces(halfspaces):
    """The canonical pair of each (normal, offset) pair, in order, with
    later duplicates dropped."""
    canon = []
    for n, o in halfspaces:
        c = _canonical_halfspace(n, o)
        if c not in canon:
            canon.append(c)
    return canon


def _json_rows(halfspaces):
    """The ``halfspaces`` entries that ``polytope_to_json`` writes for the
    polytope these pairs cut out: the canonical pairs, as strings."""
    return [{"normal": [str(c) for c in n], "offset": str(o)}
            for n, o in _canonical_halfspaces(halfspaces)]


def _pairs(P):
    """P's half-spaces as the (normal, offset) pairs that
    ``polytope_to_json`` writes: primitive normals, rational offsets."""
    return [(vec_from_json(h["normal"]), parse_rat(h["offset"]))
            for h in polytope_to_json(P)["halfspaces"]]


def _fraction_build(dim, halfspaces):
    """Vertices, vertex_facets and edges by Fraction arithmetic throughout:
    a solve per n-subset, a Fraction dot per row for feasibility, a second
    sweep for the tight facets, and the recession test on Fraction signs."""
    canon = _canonical_halfspaces(halfspaces)
    normals = [n for n, _ in canon]
    offsets = [o for _, o in canon]
    any_invertible = False
    verts, seen = [], set()
    for subset in combinations(range(len(canon)), dim):
        x = _fraction_solve([normals[i] for i in subset],
                            [offsets[i] for i in subset])
        if x is None:
            continue
        any_invertible = True
        if x in seen:
            continue
        seen.add(x)
        if all(dot(n, x) >= b for n, b in zip(normals, offsets)):
            verts.append(x)
    if not verts:
        if not any_invertible:
            raise DegenerateInputError(
                "every constraint subset is singular: the normals do not span, "
                "so the region is empty or contains a line")
        raise EmptyRegionError("the half-spaces have empty intersection")
    verts.sort()
    vertex_facets = tuple(
        frozenset(k for k, (n, o) in enumerate(canon) if dot(n, v) == o)
        for v in verts)
    _fraction_check_bounded(dim, normals, vertex_facets)
    edges = []
    for i, j in combinations(range(len(verts)), 2):
        shared = vertex_facets[i] & vertex_facets[j]
        if len(shared) < dim - 1:
            continue
        if linalg.rank([list(normals[k]) for k in shared]) == dim - 1:
            edges.append((i, j))
    return tuple(verts), vertex_facets, tuple(edges)


def _affine_rank(points):
    """Dimension of the affine hull, -1 for no points: the rank of the
    differences from the first point, as linalg.affine_rank computed it
    before the affine hull was read from the rows tight at every vertex."""
    if not points:
        return -1
    return linalg.rank([clear_denominators(vsub(p, points[0]))[0]
                        for p in points[1:]])


def _rank_facets(P):
    """Polytope.facets as it was before it read the tight vertex sets: one
    Fraction affine rank per row."""
    return tuple(k for k in range(len(P.int_rows)) if _affine_rank(
        [v for v, t in zip(P.vertices, P.vertex_facets) if k in t])
        == P.dim - 1)


def _vsub_weights(P):
    """Polytope.weights as it was before it cleared denominators: the
    primitive of each Fraction difference of endpoints."""
    return tuple(
        tuple(primitive(vsub(P.vertices[j], v)) for j in adjacent)
        for v, adjacent in zip(P.vertices, P.neighbors))


def _assert_vertex_data_matches_twins(P):
    assert P.facets == _rank_facets(P)
    assert P.weights == _vsub_weights(P)
    _assert_volume_verdict_matches_twin(P)


def _assert_volume_verdict_matches_twin(P):
    """volume_oracle refuses P exactly when the twin finds it flat."""
    if _affine_rank(P.vertices) < P.dim:
        with pytest.raises(DegenerateInputError,
                           match="^polytope is not full-dimensional$"):
            volume_oracle(P)
    else:
        assert volume_oracle(P) > 0


def _assert_matches_twin(dim, halfspaces):
    try:
        expect = _fraction_build(dim, halfspaces)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            from_halfspaces(dim, halfspaces)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return type(exc)
    P = from_halfspaces(dim, halfspaces)
    assert (P.vertices, P.vertex_facets, P.edges) == expect
    assert polytope_to_json(P)["halfspaces"] == _json_rows(halfspaces)
    assert P.int_rows == [(tuple(c * o.denominator for c in n), o.numerator)
                          for n, o in _canonical_halfspaces(halfspaces)]
    _assert_vertex_data_matches_twins(P)
    return None


TWIN_CASES = {
    # the apex (0,0,1) lies on four facets
    "pyramid": (None, 3, [((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1),
                          ((0, -1, -1), -1), ((0, 1, -1), -1)]),
    "rational": (None, 2, [((1, 0), F(-1, 2)), ((0, 3), F(1, 3)),
                           ((-2, -1), F(-7, 2))]),
    "duplicate_and_redundant": (None, 2, [
        ((1, 0), 0), ((2, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
        ((1, 1), -5), ((-3, -3), F(-9, 2))]),
    "empty": (EmptyRegionError, 2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0),
                                    ((0, -1), -1)]),
    "unbounded": (UnboundedRegionError, 3, [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, 0), -1)]),
    # the apex (0,0,1) of the pyramid without its base: one degenerate
    # vertex, four unbounded edges
    "pyramid_unbounded": (UnboundedRegionError, 3, [
        ((-1, 0, -1), -1), ((1, 0, -1), -1), ((0, -1, -1), -1),
        ((0, 1, -1), -1)]),
    # normals that do not span leave every subset singular
    "line": (DegenerateInputError, 3, [
        ((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1),
        ((1, 1, 0), F(1, 2))]),
    "all_singular": (DegenerateInputError, 3, [
        ((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0)]),
    # a unit square in the plane z = 0: z >= 0 and -z >= 0 with one side
    # each cut out the same line, so two tight subsets name each edge
    "flat_square": (None, 3, [
        ((0, 0, 1), 0), ((0, 0, -1), 0), ((1, 0, 0), 0), ((-1, 0, 0), -1),
        ((0, 1, 0), 0), ((0, -1, 0), -1)]),
    # the unit cube and the redundant plane x + y >= 0 through its edge
    # x = y = 0, which the tight pairs of x, y and x + y each name
    "cube_redundant_edge_plane": (None, 3, [
        ((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1),
        ((0, 0, 1), 0), ((0, 0, -1), -1), ((1, 1, 0), 0)]),
    # in dimension 1 the one tight 0-subset is empty, its kernel the line
    "segment_1d": (None, 1, [((1,), F(-1, 2)), ((-2,), -3)]),
    # flat polytopes: the rows tight at every vertex are the facets when
    # the polytope spans dim - 1 dimensions, and there are none below
    "segment_2d": (None, 2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 0),
                             ((-1, 0), -1), ((1, 1), -5)]),
    "segment_3d": (None, 3, [((0, 1, 0), 0), ((0, -1, 0), 0), ((0, 0, 1), 0),
                             ((0, 0, -1), 0), ((1, 0, 0), 0), ((-1, 0, 0), -1)]),
    # x >= 0 is tight at no vertex
    "point_1d": (None, 1, [((1,), F(1, 2)), ((-2,), -1), ((1,), 0)]),
    "point_2d": (None, 2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0),
                           ((0, -1), 0), ((1, 1), -1)]),
    "ray_1d": (UnboundedRegionError, 1, [((1,), 0)]),
}


@pytest.mark.parametrize("name", sorted(TWIN_CASES))
def test_integer_build_matches_fraction_twin_on_edge_cases(name):
    error, dim, hs = TWIN_CASES[name]
    assert _assert_matches_twin(dim, hs) is error


# Unbounded regions led by a row tight at no vertex: a scan over every
# (n-1)-subset of rows would name another ray first, the scan over the
# subsets tight at a vertex names the ray of the first such line
REDUNDANT_FIRST = [
    # the wedge between (1,0) and (1,1), led by x - y >= -5: the tight row
    # y >= 0 gives (1,0), where every pair of rows would first give (1,1)
    (2, [((1, -1), -5), ((0, 1), 0), ((1, -1), 0)], ["1", "0"]),
    # the orthant, led by x + y >= -1: the tight rows z, x first give e2,
    # where every pair of rows would first give e3 from rows 0 and 2
    (3, [((1, 1, 0), -1), ((0, 0, 1), 0), ((1, 0, 0), 0), ((0, 1, 0), 0)],
     ["0", "1", "0"]),
]


@pytest.mark.parametrize("dim, hs, ray", REDUNDANT_FIRST)
def test_unbounded_message_names_the_first_ray_at_a_vertex(dim, hs, ray):
    with pytest.raises(UnboundedRegionError) as got:
        from_halfspaces(dim, hs)
    assert str(got.value) == f"unbounded along direction {ray}"
    assert all(dot(n, [int(c) for c in ray]) >= 0 for n, _ in hs)
    assert _assert_matches_twin(dim, hs) is UnboundedRegionError
    # capped by sum(x) <= 100, the region keeps its vertex, the origin, and
    # the first row is tight at no vertex
    P = from_halfspaces(dim, hs + [((-1,) * dim, -100)])
    assert (F(0),) * dim in P.vertices
    assert all(0 not in facets for facets in P.vertex_facets)


# a 16-D region whose ray e16 is cut out by its last 15 rows, x_i >= 0
# for i = 1..15: a rescan of every (n-1)-subset to name the ray would
# make C(20, 15) = 15,504 kernels, against 16 tight subsets at the origin
UNBOUNDED_16D = [
    ((-1,) * 15 + (0,), -10),
    ((-1, -2) + (-1,) * 13 + (0,), -20),
    ((-2, -1) + (-1,) * 13 + (0,), -20),
    ((-1,) * 14 + (-3, 0), -30),
    ((0,) * 15 + (1,), 0),
] + [(tuple(int(j == i) for j in range(16)), 0) for i in range(15)]


def test_boundedness_scans_the_tight_subsets_once(monkeypatch):
    # one nullspace per edge of cube:n, its n * 2^(n-1) distinct tight
    # (n-1)-subsets (against C(2n, n-1) subsets in all); each kernel line
    # holds two vertices, so no ray test runs, and no rank test either
    tested, kernels, ranks, tight = [], [], [], []
    ray, nullspace, rank = polytopes._ray, linalg.nullspace, linalg.rank
    edges = polytopes._edges
    monkeypatch.setattr(polytopes, "_ray",
                        lambda *a: tested.append(1) or ray(*a))
    monkeypatch.setattr(linalg, "nullspace",
                        lambda *a, **k: kernels.append(1) or nullspace(*a, **k))
    monkeypatch.setattr(linalg, "rank",
                        lambda *a, **k: ranks.append(1) or rank(*a, **k))
    monkeypatch.setattr(polytopes, "_edges", lambda dim, normals, facets: (
        tight.append({s for t in facets for s in combinations(sorted(t), dim - 1)})
        or edges(dim, normals, facets)))
    for n in range(2, 6):
        kernels.clear()
        P = cube(n, 1)
        assert len(kernels) == len(P.edges) == n * 2 ** (n - 1)
        assert tested == ranks == []
    # unbounded input makes no kernel beyond its distinct tight subsets
    for (dim, hs), direction in [
            (TWIN_CASES["unbounded"][1:], ["0", "0", "1"]),
            (TWIN_CASES["pyramid_unbounded"][1:], ["1", "1", "-1"]),
            (TWIN_CASES["ray_1d"][1:], ["1"]),
            ((16, UNBOUNDED_16D), ["0"] * 15 + ["1"])]:
        kernels.clear()
        tight.clear()
        with pytest.raises(UnboundedRegionError) as got:
            from_halfspaces(dim, hs)
        assert str(got.value) == f"unbounded along direction {direction}"
        assert 0 < len(kernels) <= len(tight[0])


@st.composite
def halfspace_systems(draw):
    """The box [-a, a]^n, n = 2..4, with some of its rows dropped, cut by
    half-spaces with small integer normals and rational offsets, some of
    them repeated at a positive scale.  Small entries make vertices on more
    than n planes, empty and unbounded regions common."""
    n = draw(st.integers(2, 4))
    a = draw(st.sampled_from((F(1), F(3, 2), F(2))))
    hs = []
    for i in range(n):
        for s in (1, -1):
            if draw(st.integers(0, 7)):
                hs.append((tuple(s * int(j == i) for j in range(n)), -a))
    for _ in range(draw(st.integers(0 if hs else 1, 4))):
        normal = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
        offset = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        hs.append((normal, offset))
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(2, 3))
            hs.append((tuple(k * c for c in normal), k * offset))
    return n, draw(st.permutations(hs))


@settings(max_examples=120, deadline=None)
@given(halfspace_systems())
def test_integer_build_matches_fraction_twin(system):
    _assert_matches_twin(*system)


def test_integer_build_matches_fraction_twin_on_catalog():
    for spec in catalog_specs() + ["cube:4:1", "simplex:4:2"]:
        P = from_spec(spec)
        for Q in (P, dilate(P, F(5, 3))):
            assert _assert_matches_twin(Q.dim, _pairs(Q)) is None
    # 20 to 34 cuts of a box: most rows are tight at no vertex and some
    # vertices lie on more than three planes, so the feasibility scan moves
    # rows to its front often
    for Q in random_cut_boxes(1, 5, sizes=(20, 34)):
        assert _assert_matches_twin(3, _pairs(Q)) is None


def test_vertex_data_matches_the_twins_on_cubes():
    for n in range(2, 8):
        for P in (cube(n, 1), cube(n, F(5, 3))):
            _assert_vertex_data_matches_twins(P)
            assert len(P.facets) == 2 * n


def test_3d_build_solves_each_row_triple_once(monkeypatch):
    # the closed-form 3x3 solve replaces no call: one per 3-subset of the
    # distinct rows, whatever order the feasibility scan tests rows in
    P = next(random_cut_boxes(1, 1, sizes=(20, 34)))
    hs = _pairs(P)
    hs += [(tuple(2 * c for c in n), 2 * b) for n, b in hs[:4]]
    calls = []
    solve = linalg.solve_square
    monkeypatch.setattr(linalg, "solve_square",
                        lambda a, b: calls.append(len(a)) or solve(a, b))
    Q = from_halfspaces(3, hs)
    m = len(P.int_rows)
    assert m >= 26 and len(Q.int_rows) == m
    assert calls == [3] * comb(m, 3)
    assert (Q.vertices, Q.vertex_facets, Q.edges) == (
        P.vertices, P.vertex_facets, P.edges)


def test_repeated_candidates_match_the_twin(monkeypatch):
    # the unit cube with three redundant planes through its vertex 0, six
    # planes in all there, and five redundant planes through (3, 3, 3)
    # outside it: many row triples give each of the two points, and every
    # triple is still solved once
    hs = _pairs(cube(3, 1))
    hs += [((1, 1, 1), 0), ((1, 2, 0), 0), ((0, 1, 3), 0)]
    hs += [((-1, 0, 0), -3), ((0, -1, 0), -3), ((0, 0, -1), -3),
           ((-1, -1, -1), -9), ((-1, -2, 0), -9)]
    calls = []
    solve = linalg.solve_square
    monkeypatch.setattr(linalg, "solve_square",
                        lambda a, b: calls.append(len(a)) or solve(a, b))
    assert _assert_matches_twin(3, hs) is None
    assert calls == [3] * comb(len(hs), 3)
    P = from_halfspaces(3, hs)
    assert len(P.vertices) == 8 and P.vertices[0] == (F(0),) * 3
    assert P.vertex_facets[0] == {0, 2, 4, 6, 7, 8}


def test_build_memory_holds_the_vertices_not_the_subsets():
    # 40 distinct rows give C(40, 3) = 9,880 candidates; recording each
    # rejected one peaked at 1.6 MB
    rng = random.Random(11)
    box = [(tuple(s * int(j == i) for j in range(3)), -10)
           for i in range(3) for s in (1, -1)]
    normals = [n for n in product(range(-2, 3), repeat=3)
               if any(n) and gcd(*n) == 1]
    hs = box + [(n, F(rng.randint(-40, -20), 2))
                for n in rng.sample(normals, 34)]
    from_halfspaces(3, hs)
    tracemalloc.start()
    try:
        P = from_halfspaces(3, hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(P.int_rows) == 40 and len(P.vertices) == 26
    assert peak < 200_000


# ---------------------------------------------------------------------------
# the work limit of the subset loop


def test_subset_limit_refuses_before_any_solve(monkeypatch):
    # the largest shape in use, C(16, 8) + C(16, 7) = 24,310 subsets
    assert polytopes.MAX_CONSTRAINT_SUBSETS == 50_000
    assert len(cube(8, 1).vertices) == 256
    # cube:3 has 6 distinct rows: C(6, 3) + C(6, 2) = 35 subsets; the
    # repeated rows are merged before counting
    hs = _pairs(cube(3, 1))
    hs += [(tuple(2 * c for c in n), 2 * b) for n, b in hs]
    calls = []
    solve = linalg.solve_square
    monkeypatch.setattr(linalg, "solve_square",
                        lambda a, b: calls.append(1) or solve(a, b))
    monkeypatch.setattr(polytopes, "MAX_CONSTRAINT_SUBSETS", 35)
    assert len(from_halfspaces(3, hs).vertices) == 8
    assert len(calls) == 20
    monkeypatch.setattr(polytopes, "MAX_CONSTRAINT_SUBSETS", 34)
    calls.clear()
    with pytest.raises(DomainError, match="35 constraint subsets, over the limit of 34"):
        from_halfspaces(3, hs)
    assert calls == []


def record_pair_work(monkeypatch) -> list[str]:
    """Record, in the returned list, each call of ``from_halfspaces``, each
    pair it coerces (``as_vec``) and each ``range`` the builders' pair
    lists loop over (a module global named ``range`` shadows the builtin)."""
    work = []
    for name, f in (("from_halfspaces", polytopes.from_halfspaces),
                    ("as_vec", polytopes.as_vec), ("range", range)):
        monkeypatch.setattr(polytopes, name, lambda *a, name=name, f=f:
                            work.append(name) or f(*a), raising=False)
    return work


def test_dimension_limit_refuses_before_any_halfspace(monkeypatch):
    # a builder refuses before it builds its pair list or calls
    # from_halfspaces, and from_halfspaces before it coerces an entry
    assert polytopes.MAX_DIMENSION == 16
    assert len(simplex(16, 1).vertices) == 17
    build = polytopes.from_halfspaces
    work = record_pair_work(monkeypatch)
    for make, n in ((cube, 2000), (simplex, 17), (simplex, 2000)):
        with pytest.raises(DomainError, match=f"dimension {n} is over the limit"):
            make(n, 1)
    with pytest.raises(DomainError, match="dimension 17 is over the limit"):
        build(17, [((1,) + (0,) * 16, 0)])
    assert work == []
    assert len(cube(2, 1).vertices) == 4
    assert {"from_halfspaces", "as_vec", "range"} <= set(work)


# ---------------------------------------------------------------------------
# the integer row table


def test_integer_rows_are_the_table_the_build_made(monkeypatch):
    built = []

    class Recording(polytopes.Polytope):
        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(polytopes, "Polytope", Recording)
    shapes = [from_spec(s) for s in catalog_specs()]
    shapes += [dilate(P, F(5, 2)) for P in shapes[::3]]
    assert len(built) == len(shapes)
    for P, rows in zip(shapes, built):
        assert P.int_rows is rows
        assert rows == [(tuple(c * o.denominator for c in n), o.numerator)
                        for n, o in _pairs(P)]
        _assert_oracle_matches_the_twin(P)
        assert P.int_rows is rows


# ---------------------------------------------------------------------------
# the stored rows and the written half-spaces


def test_proportional_halfspaces_give_one_row():
    # x >= 1/2, 2x >= 1 and (3/2)x >= 3/4 are one half-space: one row
    P = from_halfspaces(1, [((1,), F(1, 2)), ((2,), 1), ((F(3, 2),), F(3, 4)),
                            ((-1,), -3)])
    assert P.int_rows == [((2,), 1), ((-1,), -3)]
    assert P.vertices == ((F(1, 2),), (F(3),))


def test_json_writes_each_row_as_its_canonical_pair():
    # the row (2x, 1) is written as normal 1, offset 1/2; the two later
    # copies of x >= 1/2 are gone
    P = from_halfspaces(1, [((1,), F(1, 2)), ((2,), 1), ((F(3, 2),), F(3, 4)),
                            ((-1,), -3)])
    assert polytope_to_json(P) == {"dim": 1, "halfspaces": [
        {"normal": ["1"], "offset": "1/2"}, {"normal": ["-1"], "offset": "-3"}]}
    for P in map(from_spec, catalog_specs()):
        for Q in (P, dilate(P, F(5, 2))):
            obj = polytope_to_json(Q)
            assert obj["halfspaces"] == _json_rows(Q.int_rows)
            assert polytope_from_json(obj).int_rows == Q.int_rows


def test_derived_halfspaces_match_the_twin_on_the_catalog(monkeypatch):
    given = []
    build = polytopes.from_halfspaces

    def recording(dim, halfspaces):
        given.append(list(halfspaces))
        return build(dim, given[-1])

    monkeypatch.setattr(polytopes, "from_halfspaces", recording)
    shapes = [from_spec(s) for s in catalog_specs()]
    shapes += [dilate(P, F(5, 3)) for P in shapes[::4]]
    assert len(given) == len(shapes)
    for P, hs in zip(shapes, given):
        assert polytope_to_json(P)["halfspaces"] == _json_rows(hs)


@settings(max_examples=30, deadline=None)
@given(rational_simple_polytopes(),
       st.lists(st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6),
                min_size=1, max_size=4))
def test_derived_halfspaces_match_the_twin_on_random_input(P, scales):
    # each half-space of P rescaled, and the first few given twice
    hs = [(tuple(s * c for c in n), s * o)
          for k, (n, o) in enumerate(_pairs(P)) for s in [scales[k % len(scales)]]]
    hs += [(tuple(s * c for c in n), s * o) for (n, o), s in zip(hs, scales)]
    Q = from_halfspaces(P.dim, hs)
    assert polytope_to_json(Q)["halfspaces"] == _json_rows(hs)
    assert polytope_to_json(Q) == polytope_to_json(P)
    assert Q.int_rows == P.int_rows
