"""Moment graphs, divisibility checks, degree dimensions, Morse counts."""

import random
import re
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from momentkit import gkm, linalg
from momentkit import (
    DomainError,
    MomentGraph,
    NotDelzantError,
    NotGenericError,
    betti_numbers,
    cube,
    dilate,
    facet_class,
    free_module_check,
    from_halfspaces,
    gkm_check,
    gkm_degree_basis,
    gkm_dimension,
    hirzebruch,
    moment_graph,
    simplex,
    smoothness_report,
)
from momentkit.algebra import (
    clear_denominators,
    dot,
    generic_vector,
    linear_poly,
    monomials,
    pivot_index,
    poly_add,
    poly_const,
    poly_degree,
    poly_mul,
    poly_quotient_by_linear,
    poly_sub,
    primitive,
    restrict_to_hyperplane,
    vec,
    vec_to_json,
    vneg,
    vsub,
)
from momentkit.gkm import (
    MAX_CLASS_DEGREE,
    MAX_DEGREE_UNKNOWNS,
    _degree_system,
    choose_generic_direction,
    gkm_class_from_json,
    gkm_class_to_json,
)
from momentkit.localization import pushforward
from momentkit.polytopes import from_spec, catalog_specs

INTERVAL = moment_graph(simplex(1, 1))
TRIANGLE = moment_graph(simplex(2, 1))


def _zero(n):
    return {}


def test_moment_graph_simplex():
    G = TRIANGLE
    assert len(G.positions) == 3
    assert len(G.edges) == 3
    up_to_sign = {tuple(abs(c) for c in w) for w in G.lines}
    assert up_to_sign == {(1, 0), (0, 1), (1, 1)}


def test_moment_graph_square_axis_weights():
    G = moment_graph(cube(2, 1))
    assert len(G.edges) == 4
    for w in G.lines:
        assert sorted(abs(c) for c in w) == [0, 1]


def test_moment_graph_interval():
    G = INTERVAL
    assert len(G.positions) == 2
    assert G.edges == ((0, 1),)
    assert G.lines == ((1,),)


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
    # the endpoint positions must differ by a nonzero multiple of the label:
    # this triangle's labels and positions disagree on edge (1, 2), so the
    # labels (whose lines gkm_check reads) and the positions (read by
    # isotropy) would give classes whose push-forward depends on the direction
    message = r"endpoints of edge \({}, {}\) do not differ by a nonzero multiple of its weight$"
    with pytest.raises(DomainError, match=message.format(1, 2)):
        MomentGraph((vec(0, 0), vec(1, 0), vec(0, 1)), ((0, 1), (0, 2), (1, 2)),
                    (vec(1, 0), vec(0, 1), vec(1, 1)))
    for positions in ((vec(1, 2), vec(1, 2)), (vec(1, 2), vec(1, 3)),
                      (vec(0, 0), vec(1, 1))):
        with pytest.raises(DomainError, match=message.format(0, 1)):
            MomentGraph(positions, ((0, 1),), (vec(1, 0),))
    for positions, edges, weights, message in [
            ((), (), (), "moment graph needs at least one vertex"),
            ((vec(0, 0), vec(1, 0, 0)), (), (),
             "vertex positions have mixed dimensions"),
            ((vec(0, 0), vec(1, 0)), ((0, 1), (0, 1)), (vec(1, 0), vec(1, 0)),
             r"duplicate edge \(0, 1\)"),
            ((vec(0, 0), vec(1, 0)), ((0, 1),), (vec(0, 0),),
             r"zero weight on edge \(0, 1\)")]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            MomentGraph(positions, edges, weights)
    # the label's length and sign are free
    G = MomentGraph((vec(0, 0), vec(2, 0)), ((0, 1),), (vec(-3, 0),))
    assert G.isotropy == ((vec(1, 0),), (vec(-1, 0),))


def test_list_and_tuple_input_give_equal_graphs():
    # positions and edges are stored as tuples whatever they came in, so a
    # graph built from lists equals, and hashes like, one built from tuples
    G = MomentGraph([[0, 0], [1, 0]], [[0, 1]], [[1, 0]])
    H = MomentGraph(((0, 0), (1, 0)), ((0, 1),), ((1, 0),))
    assert G == H and hash(G) == hash(H)
    assert G.positions == ((0, 0), (1, 0)) and G.edges == ((0, 1),)
    square = moment_graph(cube(2, 1))
    lists = MomentGraph([list(p) for p in square.positions],
                        [list(e) for e in square.edges],
                        [list(w) for w in square.lines])
    assert lists == square and hash(lists) == hash(square)
    assert lists.isotropy == square.isotropy


def test_label_check_matches_a_rank_twin():
    # an edge is accepted exactly when its endpoints differ by a nonzero
    # vector of rank 1 together with the label
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randint(1, 4)
        u = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
        w = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if rng.random() < 0.5:
            v = tuple(a + F(rng.randint(-3, 3), rng.randint(1, 3)) * c
                      for a, c in zip(u, w))
        else:
            v = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
        if not any(w):
            continue
        d = vsub(v, u)
        expect = any(d) and linalg.rank([clear_denominators(d)[0],
                                         clear_denominators(w)[0]]) == 1
        try:
            MomentGraph((u, v), ((0, 1),), (w,))
        except DomainError:
            assert not expect
        else:
            assert expect


def _fraction_label_check(positions, edges, weights):
    """The edge check the graph made with Fraction arithmetic on the
    positions, kept as its twin: the message of the first edge whose
    endpoints do not differ by a nonzero multiple of its label, or None."""
    for (i, j), w in zip(edges, weights):
        u, v = positions[i], positions[j]
        p = next(t for t, c in enumerate(w) if c)
        dp = v[p] - u[p]  # v - u must be (dp / w[p]) w with dp != 0
        if not dp or any(x != y if not c else t != p and (y - x) * w[p] != c * dp
                         for t, (x, y, c) in enumerate(zip(u, v, w))):
            return (f"endpoints of edge ({i}, {j}) do not differ by a nonzero "
                    f"multiple of its weight")
    return None


def test_label_check_matches_the_fraction_twin():
    # the catalog, dilated to rational positions, its labels flipped or
    # rescaled; then each graph with one vertex moved, which breaks some of
    # the edges at it
    graphs = [moment_graph(P) for spec in catalog_specs()
              for P in (from_spec(spec), dilate(from_spec(spec), F(5, 3)))]
    labelled = [(G, G.lines) for G in graphs]
    labelled += [(G, tuple(vneg(w) if k % 2 == 0 else w
                           for k, w in enumerate(labels)))
                 for G, labels in labelled[:]]
    labelled += [(G, tuple(tuple(factor * c for c in w) for w in labels))
                 for G, labels in labelled[:] for factor in (-3, F(5, 2))]
    rng = random.Random(5)
    cases = []
    for G, _ in labelled:
        cases.append(G.positions)
        k = rng.randrange(len(G.positions))
        cases.append(G.positions[:k] + (tuple(
            x + F(rng.randint(-2, 2), rng.randint(1, 3))
            for x in G.positions[k]),) + G.positions[k + 1:])
    refused = 0
    for (G, labels), positions in zip(
            [case for case in labelled for _ in (0, 1)], cases):
        expect = _fraction_label_check(positions, G.edges, labels)
        try:
            H = MomentGraph(positions, G.edges, labels)
        except DomainError as exc:
            assert str(exc) == expect
            refused += 1
        else:
            assert expect is None
            assert (H == G) == (positions == G.positions)
    assert len(labelled) == 21 * 2 * 2 * 3
    assert 0 < refused < len(cases) // 2


def test_zero_dimensional_graph_is_refused():
    # gkm_dimension(G, 0) on such a graph raised a bare ValueError from
    # math.comb, and choose_generic_direction drew 1000 zero vectors
    for positions in (((),), ((), ())):
        with pytest.raises(DomainError,
                           match=r"^moment graph needs dimension at least 1$"):
            MomentGraph(positions, (), ())


def _isotropy_from_positions(G):
    """The isotropy the graph derived from positions, edge by edge, before
    it read it off the labels: kept as the oracle."""
    return tuple(
        tuple(primitive(vsub(G.positions[j if i == v else i], G.positions[v]))
              for i, j in G.edges if v in (i, j))
        for v in range(len(G.positions)))


def test_isotropy_matches_the_positions_twin():
    rng = random.Random(7)
    # each graph with the labels it was built from
    labelled = [(G, G.lines) for G in (
        moment_graph(from_spec(spec)) for spec in catalog_specs())]
    for P in (_random_simple_polytope(rng) for _ in range(4)):
        labels = tuple(P.weights[i][P.neighbors[i].index(j)] for i, j in P.edges)
        labelled.append((MomentGraph(P.vertices, P.edges, labels), labels))
    square = moment_graph(cube(2, 1))
    for r in range(5):
        for flips in combinations(range(4), r):
            labels = tuple(vneg(w) if k in flips else w
                           for k, w in enumerate(square.lines))
            H = MomentGraph(square.positions, square.edges, labels)
            assert H == square and hash(H) == hash(square)
            assert H.isotropy == square.isotropy
            labelled.append((H, labels))
    # vertices in reverse order: every edge (i, j) now runs from the
    # lexicographically larger position to the smaller
    labelled += [(MomentGraph(G.positions[::-1], tuple(
        (n - j, n - i) for i, j in G.edges), labels), labels)
        for G, labels in labelled for n in [len(G.positions) - 1]]
    for G, labels in list(labelled):
        for factor in (-3, F(5, 2)):
            scaled = tuple(tuple(factor * c for c in w) for w in labels)
            labelled.append((MomentGraph(G.positions, G.edges, scaled), scaled))
    assert len(labelled) == 3 * 2 * (21 + 4 + 16)
    for G, labels in labelled:
        assert G.isotropy == _isotropy_from_positions(G)
        for line, w in zip(G.lines, labels):
            assert line in (primitive(w), tuple(-c for c in primitive(w)))
            assert next(c for c in line if c) > 0


def _rank_pair_check(positions, edges, weights):
    """The independence check the graph made with one rank per pair of
    labels at a vertex: the message of the first parallel pair, or None."""
    for v in range(len(positions)):
        at_v = [w for w, e in zip(weights, edges) if v in e]
        for a, b in combinations(at_v, 2):
            if linalg.rank([clear_denominators(a)[0],
                            clear_denominators(b)[0]]) < 2:
                return (f"parallel weights at vertex {v}: {vec_to_json(a)} and "
                        f"{vec_to_json(b)}")
    return None


def test_parallel_check_matches_the_rank_twin():
    # stars: vertex 0 joined to 2-4 leaves along their labels, some labels
    # forced to be multiples of an earlier one
    rng = random.Random(13)
    refused = 0
    for _ in range(2000):
        n = rng.randint(1, 4)
        m = rng.randint(2, 4)
        centre = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        labels = []
        while len(labels) < m:
            if labels and rng.random() < 0.3:
                c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                labels.append(tuple(c * e for e in rng.choice(labels)))
            else:
                w = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
                if any(w):
                    labels.append(w)
        scales = [F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)) for _ in labels]
        leaves = [tuple(x + t * c for x, c in zip(centre, w))
                  for t, w in zip(scales, labels)]
        positions = (centre, *leaves)
        edges = tuple((0, k) for k in range(1, m + 1))
        labels = tuple(labels)
        expect = _rank_pair_check(positions, edges, labels)
        try:
            MomentGraph(positions, edges, labels)
        except DomainError as exc:
            assert str(exc) == expect
            refused += 1
        else:
            assert expect is None
    assert 200 < refused < 1800


def _betti_from_isotropy(G, xi):
    """The downward-edge count the graph made from isotropy pairings."""
    pairings = [[dot(w, xi) for w in ws] for ws in G.isotropy]
    for v, (ws, at_v) in enumerate(zip(G.isotropy, pairings)):
        for w, pairing in zip(ws, at_v):
            if pairing == 0:
                raise NotGenericError(f"direction pairs to zero with weight "
                                      f"{vec_to_json(w)} at vertex {v}")
    profile = [0] * (max(map(len, pairings)) + 1)
    for at_v in pairings:
        profile[sum(p < 0 for p in at_v)] += 1
    return tuple(profile)


def test_betti_numbers_match_the_isotropy_pairing_twin():
    for spec in catalog_specs():
        G = moment_graph(from_spec(spec))
        for seed in range(5):
            xi = choose_generic_direction(G, seed=seed)
            assert xi == generic_vector(
                G.dim, [w for ws in G.isotropy for w in ws], seed=seed)
            assert betti_numbers(G, xi) == _betti_from_isotropy(G, xi)
    G = moment_graph(cube(2, 1))
    messages = []
    for count in (betti_numbers, _betti_from_isotropy):
        with pytest.raises(NotGenericError) as got:
            count(G, vec(0, 1))
        messages.append(str(got.value))
    assert messages[0] == messages[1]


def test_moment_graph_makes_no_rank_call(monkeypatch):
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(1) or rank(rows))
    G = moment_graph(cube(4, 1))
    assert calls == []
    assert len(G.edges) == 32


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
        if smoothness_report(P).simple:
            return P


def test_stored_neighbors_and_incidence_match_an_edge_scan():
    rng = random.Random(5)
    catalog = [from_spec(spec) for spec in catalog_specs()]
    shapes = catalog + [_random_simple_polytope(rng) for _ in range(4)]
    for P in shapes:
        G = MomentGraph(P.vertices, P.edges, tuple(
            primitive(vsub(P.vertices[j], P.vertices[i])) for i, j in P.edges))
        if P in catalog:
            assert moment_graph(P) == G
        assert P.weights is P.weights
        for v in range(len(P.vertices)):
            # the scans that the stored tuples replaced, kept as the oracle
            assert P.neighbors[v] == tuple(sorted(
                b if a == v else a for a, b in P.edges if v in (a, b)))
            assert G.isotropy[v] == tuple(
                primitive(vsub(G.positions[j if i == v else i], G.positions[v]))
                for i, j in G.edges if v in (i, j))
            assert P.weights[v] == tuple(
                primitive(vsub(P.vertices[j], P.vertices[v]))
                for j in P.neighbors[v])


def test_gkm_check_interval():
    x = {(1,): F(1)}
    assert gkm_check(INTERVAL, (x, {})) == ()
    assert gkm_check(INTERVAL, (poly_const(1, 1), {})) == (0,)


def test_gkm_check_constant_tuples_pass():
    for G in (INTERVAL, TRIANGLE, moment_graph(cube(3, 1))):
        n = G.dim
        cls = tuple(poly_const(n, F(7, 3)) for _ in G.positions)
        assert gkm_check(G, cls) == ()


def test_gkm_check_wrong_component_count():
    with pytest.raises(DomainError):
        gkm_check(INTERVAL, ({},))


def test_gkm_check_refuses_monomials_of_the_wrong_length():
    G = moment_graph(cube(2, 1))
    for mono in ((1, 0, 5), (1,)):
        cls = ({mono: F(1)},) + ({},) * 3
        message = re.escape(f"class monomial {mono!r} has {len(mono)} "
                            "exponents, expected 2")
        with pytest.raises(DomainError, match=message):
            gkm_check(G, cls)
        with pytest.raises(DomainError, match=message):
            pushforward(cls, G, vec(1, 2))


def test_gkm_dimension_interval():
    # hand count: degree-k pairs (a x^k, b x^k) need x | (a - b) x^k, which
    # is automatic for k >= 1 and forces a = b for k = 0
    assert gkm_dimension(INTERVAL, 0) == 1
    assert gkm_dimension(INTERVAL, 1) == 2
    assert gkm_dimension(INTERVAL, 4) == 2
    # one variable has one monomial of each degree, built without a pass
    # over the degree
    assert gkm_dimension(INTERVAL, 10**12) == 2


def test_gkm_dimension_triangle():
    assert gkm_dimension(TRIANGLE, 0) == 1
    assert gkm_dimension(TRIANGLE, 1) == 3  # equals the facet count
    with pytest.raises(DomainError, match="^degree must be non-negative$"):
        gkm_dimension(TRIANGLE, -1)


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
                assert gkm_check(G, cls) == ()
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
    with pytest.raises(DomainError, match="^k_max must be non-negative$"):
        free_module_check(TRIANGLE, -1)


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


def _degree_system_by_index(G, k, labels=None):
    """The index-table builder that ``_degree_system`` replaced, kept as its
    twin: a residual list and index per edge, and a column table.  It
    restricts along ``labels``, one per edge of G, or along G's lines."""
    n = G.dim
    monos = monomials(n, k)
    nmono = len(monos)
    ncols = len(G.positions) * nmono
    col = {(v, m): v * nmono + idx
           for v in range(len(G.positions))
           for idx, m in enumerate(monos)}
    rows = []
    for (i, j), w in zip(G.edges, labels or G.lines):
        piv = pivot_index(w)
        residual = [m for m in monos if m[piv] == 0]
        if not residual:
            continue
        res_idx = {m: r for r, m in enumerate(residual)}
        block = [[0] * ncols for _ in residual]
        scale = abs(primitive(w)[piv]) ** k  # integer rows, as the builder's
        for m in monos:
            restricted = restrict_to_hyperplane(w, {m: scale})
            for mono, coeff in restricted.items():
                r = res_idx[mono]
                block[r][col[(i, m)]] += coeff.numerator
                block[r][col[(j, m)]] -= coeff.numerator
        rows.extend(block)
    return rows, ncols


def _sheared(P):
    """The image of P under x -> [[1,0,0],[1,1,0],[1,0,1]] x: the normal a
    of <a, x> >= b becomes (a0 - a1 - a2, a1, a2)."""
    return from_halfspaces(3, [((a - b - c, b, c), p)
                               for (a, b, c), p in P.int_rows])


def test_degree_system_matches_the_index_table_twin(monkeypatch):
    cases = [(from_spec(spec), 3) for spec in catalog_specs()]
    cases += [(from_spec(spec), 4) for spec in ("cube:4:1", "simplex:4:1")]
    images = [_sheared(from_spec(spec)) for spec in ("cube:3:1", "simplex:3:2")]
    cases += [(P, 4) for P in images]
    for P, k_max in cases:
        G = moment_graph(P)
        # every other label flipped and all rescaled by -3: the graph's
        # lines, which the system restricts along, do not move, and the
        # twin restricting along these labels builds the same rows
        labels = tuple(tuple(-3 * c for c in (vneg(w) if e % 2 == 0 else w))
                       for e, w in enumerate(G.lines))
        H = MomentGraph(G.positions, G.edges, labels)
        assert H == G and hash(H) == hash(G) and H.lines == G.lines
        for k in range(k_max + 1):
            rows = _degree_system(G, k)
            assert rows == _degree_system_by_index(G, k)
            assert _degree_system(H, k) == _degree_system_by_index(
                H, k, labels) == rows
            basis = gkm_degree_basis(G, k)
            with monkeypatch.context() as m:
                m.setattr(gkm, "_degree_system", _degree_system_by_index)
                assert gkm_degree_basis(G, k) == basis
    # the images have weights with three nonzero entries, on which a
    # monomial restricts to more than one, and are free like the catalog
    for P in images:
        G = moment_graph(P)
        assert any(all(w) for w in G.lines)
        b = betti_numbers(G, choose_generic_direction(G))
        for k in range(5):
            assert gkm_dimension(G, k) == sum(
                b[j] * comb(k - j + 2, 2) for j in range(min(k, 3) + 1))


def test_ordinary_betti():
    # once the module is free through degree k, its k-th ordinary Betti
    # number is entry k of the downward-edge profile
    H = moment_graph(hirzebruch(1))
    for G, k, expected in ((TRIANGLE, 1, 1), (H, 1, 2), (INTERVAL, 0, 1),
                           (TRIANGLE, 0, 1)):
        assert free_module_check(G, k)
        assert betti_numbers(G, choose_generic_direction(G))[k] == expected


def test_facet_class_interval():
    G = INTERVAL
    P = simplex(1, 1)
    facet_at_zero = next(k for k in P.facets if P.int_rows[k] == ((1,), 0))
    cls = facet_class(P, G, facet_at_zero)
    assert cls[P.vertices.index(vec(0))] == {(1,): F(1)}
    assert cls[P.vertices.index(vec(1))] == {}
    assert gkm_check(G, cls) == ()


def test_facet_class_triangle_bottom_edge():
    P = simplex(2, 1)
    G = TRIANGLE
    bottom = next(k for k in P.facets if P.int_rows[k][0] == (0, 1))
    cls = facet_class(P, G, bottom)
    by_vertex = dict(zip(P.vertices, cls))
    assert by_vertex[vec(0, 0)] == {(0, 1): F(1)}  # y
    assert by_vertex[vec(1, 0)] == linear_poly(vec(-1, 1))  # y - x
    assert by_vertex[vec(0, 1)] == {}
    assert gkm_check(G, cls) == ()


def test_facet_classes_pass_and_count_facets():
    for spec in catalog_specs():
        P = from_spec(spec)
        G = moment_graph(P)
        for k in P.facets:
            assert gkm_check(G, facet_class(P, G, k)) == ()
        assert gkm_dimension(G, 1) == len(P.facets)


def test_facet_class_rejects_non_facet():
    P = simplex(2, 1)
    with pytest.raises(DomainError):
        facet_class(P, TRIANGLE, 99)
    # the square's four vertices against the triangle's three
    with pytest.raises(DomainError, match="^graph does not match the polytope$"):
        facet_class(cube(2, 1), TRIANGLE, 0)


def test_product_and_module_closure():
    rng = random.Random(3)
    G = moment_graph(hirzebruch(2))
    P = hirzebruch(2)
    classes = [facet_class(P, G, k) for k in P.facets]
    a, b = rng.sample(classes, 2)
    product = tuple(poly_mul(f, g) for f, g in zip(a, b))
    assert gkm_check(G, product) == ()
    global_poly = {(2, 0): F(3), (0, 1): F(-1, 2)}
    scaled = tuple(poly_mul(global_poly, f) for f in a)
    assert gkm_check(G, scaled) == ()


def test_sign_flip_invariance():
    # labels flipped at random or all rescaled by -3/2: the failure lists
    # of an admissible class and of one failing on some edges, the
    # dimensions and the generic direction do not move
    rng = random.Random(17)
    for spec in ("simplex:2:1", "cube:2:1", "hirzebruch:1"):
        P = from_spec(spec)
        G = moment_graph(P)
        good = facet_class(P, G, P.facets[0])
        bad = (poly_add(good[0], {(0,) * (G.dim - 1) + (1,): F(1)}),) + good[1:]
        checks = [gkm_check(G, good), gkm_check(G, bad)]
        assert checks[0] == () and checks[1]
        assert len(checks[1]) < len(G.edges)
        base_dims = [gkm_dimension(G, k) for k in (0, 1, 2)]
        xi = choose_generic_direction(G)
        labels = [tuple(tuple(F(-3, 2) * c for c in w) for w in G.lines)]
        for _ in range(5):
            flips = [k for k in range(len(G.edges)) if rng.random() < 0.5]
            labels.append(tuple(vneg(w) if k in flips else w
                                for k, w in enumerate(G.lines)))
        for L in labels:
            H = MomentGraph(G.positions, G.edges, L)
            assert H == G and hash(H) == hash(G)
            assert [gkm_check(H, good), gkm_check(H, bad)] == checks
            assert [gkm_dimension(H, k) for k in (0, 1, 2)] == base_dims
            assert choose_generic_direction(H) == xi


def _failures_by_division(edges, labels, cls):
    """The edges whose label, as given, leaves a remainder when synthetic
    division takes it out of the difference of endpoint components."""
    failures = []
    for k, ((i, j), w) in enumerate(zip(edges, labels)):
        try:
            poly_quotient_by_linear(w, poly_sub(cls[i], cls[j]))
        except DomainError:
            failures.append(k)
    return tuple(failures)


def test_gkm_check_matches_the_synthetic_division_twin():
    """gkm_check restricts along the graph's lines; the twin divides by the
    labels as given, here as the polytope's and rescaled by -3/2 on every
    other edge.  Classes: the facet classes, a product of two, and each
    with one vertex's component changed by a monomial of its degree (the
    zero class, the product of a segment's two facet classes, counts as
    degree 0)."""
    rng = random.Random(37)
    for spec in [*catalog_specs(), "cube:4:1", "simplex:4:1"]:
        P = from_spec(spec)
        G = moment_graph(P)
        labels = tuple(tuple(F(-3, 2) * c for c in w) if k % 2 else w
                       for k, w in enumerate(G.lines))
        H = MomentGraph(G.positions, G.edges, labels)
        assert H == G and hash(H) == hash(G)
        classes = [facet_class(P, G, f) for f in P.facets]
        a, b = rng.sample(classes, 2)
        classes.append(tuple(poly_mul(f, g) for f, g in zip(a, b)))
        for cls in classes[:]:
            v = rng.randrange(len(cls))
            degree = max(0, *map(poly_degree, cls))
            mono = rng.choice(monomials(G.dim, degree))
            changed = poly_add(cls[v], {mono: F(rng.choice((-2, 1, 3)))})
            classes.append(cls[:v] + (changed,) + cls[v + 1:])
        failing = 0
        for cls in classes:
            expect = _failures_by_division(G.edges, G.lines, cls)
            assert gkm_check(G, cls) == expect
            assert gkm_check(H, cls) == _failures_by_division(
                H.edges, labels, cls) == expect
            failing += bool(expect)
        assert failing, spec


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
