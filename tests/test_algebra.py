"""Exact arithmetic layer: vectors, primitives, polynomial division."""

import random
import tracemalloc
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import algebra, catalog_specs, from_spec
from momentkit.algebra import (
    as_vec,
    clear_denominators,
    dot,
    generic_vector,
    is_zero_vec,
    linear_poly,
    monomials,
    parse_rat,
    pivot_index,
    poly_add,
    poly_const,
    poly_degree,
    poly_eval,
    poly_from_json,
    poly_mul,
    poly_quotient_by_linear,
    poly_to_json,
    primitive,
    restrict_to_hyperplane,
    vec,
    vec_from_json,
    vec_to_json,
)
from momentkit.errors import DomainError, check_limit


def _random_vec(rng, n, lo=-6, hi=6):
    return tuple(F(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n))


def _random_poly(rng, n, max_deg=3, terms=4):
    f = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = F(rng.randint(-5, 5))
        if c:
            f[mono] = f.get(mono, F(0)) + c
    return {m: c for m, c in f.items() if c}


def poly_pow(a, k):
    """a^k by square and multiply, from a itself, so int input stays int.
    The tests' power of a polynomial, and the twin restriction's."""
    if k < 0:
        raise ValueError("negative polynomial power")
    if k < 2:
        return dict(a) if k else poly_const(len(next(iter(a))) if a else 0, 1)
    half = poly_pow(poly_mul(a, a), k // 2)
    return poly_mul(half, a) if k & 1 else half


def test_primitive_examples():
    assert primitive(vec(2, 4)) == vec(1, 2)
    assert primitive(vec("1/2", "1/3")) == vec(3, 2)
    assert primitive(vec(-3, 0, 6)) == vec(-1, 0, 2)


def test_primitive_zero_vector_rejected():
    with pytest.raises(DomainError):
        primitive(vec(0, 0))


def test_primitive_idempotent_and_scale_invariant():
    rng = random.Random(11)
    for _ in range(200):
        v = _random_vec(rng, rng.randint(1, 4))
        if all(e == 0 for e in v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        assert all(e.denominator == 1 for e in p)
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert primitive(tuple(c * e for e in v)) == p


def _fraction_primitive(v):
    """primitive as it was before it returned ints: Fractions in and out."""
    v = as_vec(v)
    if is_zero_vec(v):
        raise DomainError("primitive vector of the zero vector is undefined")
    denom = lcm(*(e.denominator for e in v))
    ints = [int(e * denom) for e in v]
    g = gcd(*ints)
    return tuple(F(i // g) for i in ints)


def test_primitive_matches_the_fraction_twin():
    rng = random.Random(19)
    checked = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        v = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        if rng.random() < 0.3:
            v = tuple(int(e * 6) for e in v)  # plain ints are read too
        if not any(v):
            continue
        p = primitive(v)
        assert p == _fraction_primitive(v)
        assert all(type(e) is int for e in p)
        checked += 1
    assert checked > 1800
    for zero in ((0, 0), (F(0),), ()):
        with pytest.raises(DomainError, match="^primitive vector of the zero "
                           "vector is undefined$"):
            primitive(zero)


def test_clear_denominators():
    assert clear_denominators(vec("1/2", "-1/3", 2)) == ([3, -2, 12], 6)
    assert clear_denominators((4, -6)) == ([4, -6], 1)
    assert clear_denominators(()) == ([], 1)
    rng = random.Random(22)
    for _ in range(500):
        v = tuple(F(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 5)))
        X, d = clear_denominators(v)
        assert d == lcm(*(e.denominator for e in v)) and d > 0
        assert all(type(x) is int for x in X)
        assert tuple(F(x, d) for x in X) == v


def _fraction_generic_vector(dim, vectors, seed=0):
    """generic_vector as it was before it tested integer candidates."""
    vectors = [as_vec(v) for v in vectors]
    rng = random.Random(seed)
    for _ in range(1000):
        cand = tuple(F(rng.randint(-999, 999)) for _ in range(dim))
        if is_zero_vec(cand):
            continue
        if all(dot(cand, v) != 0 for v in vectors):
            return cand
    raise RuntimeError("internal error: no generic vector found in 1000 attempts")


def test_generic_vector_matches_the_fraction_twin():
    for spec in catalog_specs():
        P = from_spec(spec)
        weights = [w for at_v in P.weights for w in at_v]
        for seed in range(51):
            got = generic_vector(P.dim, weights, seed=seed)
            assert got == _fraction_generic_vector(P.dim, weights, seed=seed)
            assert all(type(e) is F for e in got)
    with pytest.raises(ValueError, match="vector length mismatch: 2 vs 3"):
        generic_vector(2, [(1, 2, 3)])
    # lengths are checked before the first draw, so a zero vector ahead of
    # the long one (the twin's RuntimeError) does not hide it
    with pytest.raises(ValueError, match="vector length mismatch: 2 vs 3"):
        generic_vector(2, [(0, 0), (1, 2, 3)])


def test_dot_symmetric_bilinear():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        u, v, w = (_random_vec(rng, n) for _ in range(3))
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        assert dot(u, v) == dot(v, u)
        lhs = dot(u, tuple(c * a + b for a, b in zip(v, w)))
        assert lhs == c * dot(u, v) + dot(u, w)
    with pytest.raises(ValueError, match="^vector length mismatch: 2 vs 3$"):
        dot((1, 2), (1, 2, 3))


def test_poly_degree_conventions():
    assert poly_degree({}) == -1
    assert poly_degree(poly_const(2, 5)) == 0
    f = poly_add({(1, 0): F(1)}, poly_const(2, 1))
    assert poly_degree(f) == 1


def test_poly_eval_is_ring_morphism():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        f, g = _random_poly(rng, n), _random_poly(rng, n)
        x = _random_vec(rng, n)
        assert poly_eval(poly_mul(f, g), x) == poly_eval(f, x) * poly_eval(g, x)
        assert poly_eval(poly_add(f, g), x) == poly_eval(f, x) + poly_eval(g, x)


def test_divides_linear_examples():
    # ell divides f exactly when f restricts to zero on ell = 0
    x = vec(1, 0)
    x_minus_y = vec(1, -1)
    f1 = {(2, 0): F(1), (1, 1): F(1)}  # x^2 + x*y
    assert restrict_to_hyperplane(x, f1) == {}
    f2 = {(2, 0): F(1), (0, 2): F(-1)}  # x^2 - y^2
    assert restrict_to_hyperplane(x_minus_y, f2) == {}
    assert restrict_to_hyperplane(x, {(0, 1): F(1)})  # x does not divide y


def test_quotient_examples():
    x = vec(1, 0)
    assert poly_quotient_by_linear(x, {(2, 0): F(1)}) == {(1, 0): F(1)}
    q = poly_quotient_by_linear(vec(1, -1), {(2, 0): F(1), (0, 2): F(-1)})
    assert q == {(1, 0): F(1), (0, 1): F(1)}  # x + y
    assert poly_quotient_by_linear(vec(0, 1), {}) == {}


def test_quotient_requires_divisibility():
    with pytest.raises(DomainError):
        poly_quotient_by_linear(vec(1, 0), {(0, 1): F(1)})
    with pytest.raises(DomainError, match="^division by the zero linear "
                       "form is undefined$"):
        poly_quotient_by_linear(vec(0, 0), {(1, 0): F(1)})


def test_division_round_trip():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 3)
        ell = _random_vec(rng, n, -4, 4)
        if all(e == 0 for e in ell):
            continue
        f = _random_poly(rng, n)
        prod = poly_mul(linear_poly(ell), f)
        assert restrict_to_hyperplane(ell, prod) == {}
        assert poly_quotient_by_linear(ell, prod) == f


def test_divisibility_agrees_with_random_hyperplane_points():
    # Probabilistic cross-check: f vanishes at 50 random points of the
    # hyperplane ell = 0 iff the exact substitution test says ell | f.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 3)
        ell = _random_vec(rng, n, -4, 4)
        if all(e == 0 for e in ell):
            continue
        f = _random_poly(rng, n)
        if rng.random() < 0.5:
            f = poly_mul(linear_poly(ell), f)
        piv = pivot_index(ell)
        all_zero = True
        for _ in range(50):
            x = list(_random_vec(rng, n, -50, 50))
            x[piv] = F(0)
            x[piv] = -dot(ell, tuple(x)) / ell[piv]
            if poly_eval(f, tuple(x)) != 0:
                all_zero = False
                break
        assert (restrict_to_hyperplane(ell, f) == {}) == all_zero


def test_restrict_to_hyperplane_kills_the_form_itself():
    ell = vec(2, -3, 1)
    assert restrict_to_hyperplane(ell, linear_poly(ell)) == {}


def test_restrict_to_hyperplane_high_exponent():
    # y = (2/3) x on 2x - 3y = 0, so y^t restricts to (2/3)^t x^t
    for t in (0, 1, 7, 5000):
        assert (restrict_to_hyperplane(vec(2, -3), {(0, t): F(1)})
                == {(t, 0): F(2, 3) ** t})


def _fraction_restrict(ell, f):
    """The restriction that the integer one replaced, kept as its twin:
    the solution -ell_j / a of ell = 0 in Fractions, raised by ``poly_pow``
    to each pivot exponent."""
    ell = as_vec(ell)
    piv = pivot_index(ell)
    n, a = len(ell), ell[piv]
    sol = {}
    for j, c in enumerate(ell):
        if j != piv and c != 0:
            e = [0] * n
            e[j] = 1
            sol[tuple(e)] = -c / a
    powers, out = {}, {}
    for mono, coeff in f.items():
        rest = list(mono)
        t = rest[piv]
        rest[piv] = 0
        if t not in powers:
            powers[t] = poly_pow(sol, t) if t else poly_const(n, 1)
        out = poly_add(out, poly_mul({tuple(rest): coeff}, powers[t]))
    return out


def _int_restrict(ell, f):
    """The integer restriction that the closed-form one replaced, kept as
    its twin: the substitution S as a polynomial, raised by ``poly_pow``
    and multiplied in by ``poly_mul`` per monomial, after the same two
    work limits with the same messages."""
    X, _ = clear_denominators(ell)
    piv = pivot_index(X)
    n, a = len(X), X[piv]
    sub = {tuple(int(i == j) for i in range(n)): -x
           for j, x in enumerate(X) if j != piv and x}
    s = len(sub)
    if s > 1:
        counts = [(comb(mono[piv] + s - 1, s - 1), mono[piv]) for mono in f]
        terms = sum(c for c, _ in counts)
        check_limit(terms, algebra.MAX_RESTRICTION_TERMS, lambda: (
            f"restricting to the hyperplane of {','.join(vec_to_json(ell))} "
            f"expands to {terms} terms,"))
        bits = max((x // g).bit_length() + (a // g).bit_length()
                   for x in sub.values() for g in [gcd(x, a)])
        size = bits * sum(c * t for c, t in counts)
        check_limit(size, algebra.MAX_RESTRICTION_BITS, lambda: (
            f"restricting to the hyperplane of {','.join(vec_to_json(ell))} "
            f"expands to about {size} bits,"))
    powers, out = {}, {}
    for mono, coeff in f.items():
        t = mono[piv]
        if t and not sub:
            continue
        if t not in powers:
            powers[t] = poly_pow(sub, t) if t else {(0,) * n: 1}, a ** t
        power, den = powers[t]
        term = {mono[:piv] + (0,) + mono[piv + 1:]:
                F(coeff, den) if den != 1 else coeff}
        out = poly_add(out, poly_mul(term, power))
    return out


@st.composite
def restriction_cases(draw):
    """(ell, f): ell has 1-4 entries, int or Fraction, with 0-3 nonzero off
    its pivot; f has pivot exponents 0-6, int and Fraction coefficients,
    and a multiple of ell that restricts to 0, so its terms cancel."""
    n = draw(st.integers(1, 4))
    nonzero = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                            unique=True))
    fractions = draw(st.booleans())
    ell = [0] * n
    for j in nonzero:
        c = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
        ell[j] = F(c, draw(st.integers(1, 4))) if fractions else c
    piv = pivot_index(ell)
    coeffs = st.one_of(st.integers(-40, 40).filter(bool),
                       st.fractions(-9, 9, max_denominator=6).filter(bool))

    def polys(top):
        monos = st.lists(st.integers(0, 2), min_size=n, max_size=n).flatmap(
            lambda m: st.integers(0, top).map(
                lambda t: tuple(m[:piv] + [t] + m[piv + 1:])))
        return st.dictionaries(monos, coeffs, max_size=4)

    f = poly_add(draw(polys(6)), poly_mul(linear_poly(ell), draw(polys(5))))
    return tuple(ell), f


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(restriction_cases(),
       st.one_of(st.none(), st.tuples(st.integers(1, 60), st.integers(1, 4000))))
def test_restriction_matches_the_poly_pow_twin(case, limits):
    ell, f = case
    piv = pivot_index(ell)
    got = restrict_to_hyperplane(ell, f)
    assert got == _int_restrict(ell, f)
    # each monomial alone: int values exactly where a^t divides an int
    # coefficient, and so for a^t times any int coefficient
    a = clear_denominators(ell)[0][piv]
    for mono, c in f.items():
        den = a ** mono[piv]
        for coeff in (c, den * c) if isinstance(c, int) else (c,):
            one = restrict_to_hyperplane(ell, {mono: coeff})
            assert one == _int_restrict(ell, {mono: coeff})
            exact = isinstance(coeff, int) and coeff % den == 0
            assert all(type(v) is (int if exact else F) for v in one.values())
    if limits is not None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra, "MAX_RESTRICTION_TERMS", limits[0])
            patch.setattr(algebra, "MAX_RESTRICTION_BITS", limits[1])
            assert (_outcome(restrict_to_hyperplane, ell, f)
                    == _outcome(_int_restrict, ell, f))


def test_line_cache_stays_bounded():
    # more distinct lines than the cache holds leave it at its maxsize; an
    # int line and its equal Fraction line share one entry, and an entry
    # is a tuple of ints and int pairs, nothing a caller could change
    solve = algebra._hyperplane_solution
    maxsize = solve.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int)
    solve.cache_clear()
    try:
        for c in range(2, maxsize + 52):
            assert restrict_to_hyperplane((c, 1, 2), {(1, 0, 0): c}) == {
                (0, 1, 0): -1, (0, 0, 1): -2}
        assert solve.cache_info().currsize == maxsize
        before = solve.cache_info()
        c = maxsize + 51
        assert restrict_to_hyperplane((F(c), F(1), F(2)), {(1, 0, 0): 1}) == {
            (0, 1, 0): F(-1, c), (0, 0, 1): F(-2, c)}
        after = solve.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, maxsize)
        entry = solve((7, -3, 0, 5))
        assert entry == (0, 7, ((1, 3), (3, -5)), 6)  # -5/7: 3 + 3 bits
        assert solve((7, -3, 0, 5)) is entry
        flat = [entry[0], entry[1], entry[3]] + [x for p in entry[2] for x in p]
        assert all(type(x) is int for x in flat)
        assert type(entry[2]) is tuple and all(type(p) is tuple for p in entry[2])
    finally:
        solve.cache_clear()


def test_restriction_matches_the_fraction_twin():
    # labels with s = 0..3 nonzero entries off the pivot, int and Fraction,
    # on int and Fraction coefficients; |a|^k m restricts to integers
    rng = random.Random(30)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        s = rng.randint(0, n - 1)
        ell = [0] * n
        for j in rng.sample(range(n), s + 1):
            ell[j] = rng.choice([-1, 1]) * rng.randint(1, 7)
        if rng.random() < 0.5:
            ell = [F(c, rng.randint(1, 4)) for c in ell]
        f = _random_poly(rng, n, max_deg=4)
        if rng.random() < 0.5:
            f = {m: c / rng.randint(1, 3) for m, c in f.items()}
        piv = pivot_index(ell)
        got = restrict_to_hyperplane(ell, f)
        assert got == _fraction_restrict(ell, f)
        assert all(m[piv] == 0 for m in got)
        X = primitive(ell)
        for m in monomials(n, 3):
            scaled = restrict_to_hyperplane(X, {m: abs(X[piv]) ** 3})
            assert scaled == {mono: abs(X[piv]) ** 3 * c for mono, c in
                              _fraction_restrict(ell, {m: 1}).items()}
            assert all(F(c).denominator == 1 for c in scaled.values())
        seen.add((s, type(ell[piv])))
    assert len(seen) == 8


def test_restriction_builds_only_the_powers_it_needs():
    # with s = 0 a monomial with a pivot exponent restricts to 0 at once;
    # with s = 1 its power is one monomial, x^50000 on 2x + 3y = 0 holds
    # about 16 KB, not the ~150 MB of every power up to 50000
    assert restrict_to_hyperplane((3,), {(10 ** 12,): 1}) == {}
    assert restrict_to_hyperplane((0, F(1, 2), 0),
                                  {(1, 10 ** 12, 2): 1, (1, 0, 2): 5}) == {
        (1, 0, 2): 5}
    tracemalloc.start()
    try:
        got = restrict_to_hyperplane((2, 3), {(0, 50_000): 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == {(50_000, 0): F(-2, 3) ** 50_000}
    assert peak < 2_000_000


def test_restriction_work_limit(monkeypatch):
    # a monomial with pivot exponent t expands to C(t + s - 1, s - 1) terms
    # when the substitution has s terms; one term never expands
    monkeypatch.setattr(algebra, "MAX_RESTRICTION_TERMS", 10)
    ell3, ell4 = vec(1, 1, 1), vec(1, 1, 1, 1)
    assert len(restrict_to_hyperplane(ell3, {(9, 0, 0): F(1)})) == 10
    assert len(restrict_to_hyperplane(ell4, {(3, 0, 0, 0): F(1)})) == 10
    for ell, f in ((ell3, {(10, 0, 0): F(1)}),
                   (ell3, {(5, 0, 0): F(1), (4, 1, 0): F(1)}),
                   (ell4, {(4, 0, 0, 0): F(1)})):
        with pytest.raises(DomainError, match="over the limit of 10"):
            restrict_to_hyperplane(ell, f)
    f = {(t, 0, 0): F(1) for t in range(100)}
    assert len(restrict_to_hyperplane(vec(1, 1, 0), f)) == 100


def test_restriction_refusals_name_the_form(monkeypatch):
    # the name of the form is built on refusal only; both messages are
    # pinned byte for byte.  On 3x - y/2 + 2z = 0, x^5 expands to 6 terms
    # of about 4 * 6 * 5 = 120 bits
    ell, f = vec(3, F(-1, 2), 2), {(5, 0, 0): F(1)}
    assert len(restrict_to_hyperplane(ell, f)) == 6
    monkeypatch.setattr(algebra, "MAX_RESTRICTION_TERMS", 5)
    with pytest.raises(DomainError) as got:
        restrict_to_hyperplane(ell, f)
    assert str(got.value) == ("restricting to the hyperplane of 3,-1/2,2 "
                              "expands to 6 terms, over the limit of 5")
    monkeypatch.setattr(algebra, "MAX_RESTRICTION_TERMS", 6)
    monkeypatch.setattr(algebra, "MAX_RESTRICTION_BITS", 119)
    with pytest.raises(DomainError) as got:
        restrict_to_hyperplane(ell, f)
    assert str(got.value) == ("restricting to the hyperplane of 3,-1/2,2 "
                              "expands to about 120 bits, over the limit of "
                              "119")
    monkeypatch.setattr(algebra, "MAX_RESTRICTION_BITS", 120)
    assert len(restrict_to_hyperplane(ell, f)) == 6


def test_accepted_restriction_formats_no_form_name(monkeypatch):
    # x^2 on x + y + z = 0 passes both checks; the refusal's subject, which
    # names the form, is never built
    def refuse(v):
        raise AssertionError("the form was formatted")

    monkeypatch.setattr(algebra, "vec_to_json", refuse)
    assert restrict_to_hyperplane(vec(1, 1, 1), {(2, 0, 0): F(1)}) == {
        (0, 2, 0): F(1), (0, 1, 1): F(2), (0, 0, 2): F(1)}


def test_poly_pow_matches_repeated_products():
    f = poly_add(linear_poly(vec(1, F(-2, 3), 5)), poly_const(3, 2))
    expected = poly_const(3, 1)
    for k in range(8):
        assert poly_pow(f, k) == expected
        expected = poly_mul(expected, f)
    with pytest.raises(ValueError, match="^negative polynomial power$"):
        poly_pow(f, -1)


def test_pivot_index_prefers_largest_then_lowest():
    assert pivot_index(vec(1, -3, 3)) == 1
    assert pivot_index(vec(2, 2)) == 0
    with pytest.raises(DomainError, match="^zero linear form$"):
        pivot_index(vec(0, 0))


def test_monomials_order_and_count():
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(1, 3) == [(3,)]
    assert monomials(1, 10**30) == [(10**30,)]
    assert monomials(3, 0) == [(0, 0, 0)]
    assert len(monomials(3, 4)) == 15  # C(4+2, 2)
    assert monomials(0, 0) == [()]
    assert monomials(0, 2) == []


def _recursive_monomials(nvars, degree):
    """monomials as it was before it read combinations_with_replacement:
    each exponent from the largest down, then the rest recursively."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def test_monomials_match_the_recursive_twin():
    for nvars in range(6):
        for degree in range(-1, 10):
            assert monomials(nvars, degree) == \
                _recursive_monomials(nvars, degree), (nvars, degree)


def test_rational_and_vector_json_round_trip():
    v = vec("3/4", -2, 0)
    assert vec_to_json(v) == ["3/4", "-2", "0"]
    assert vec_from_json(vec_to_json(v)) == v
    f = {(2, 1): F(-7, 3), (0, 0): F(4)}
    assert poly_to_json(f) == {"2,1": "-7/3", "0,0": "4"}
    assert poly_from_json(poly_to_json(f), 2) == f


def test_poly_from_json_validates_shape():
    with pytest.raises(ValueError):
        poly_from_json({"1": "2"}, 2)
    with pytest.raises(ValueError):
        poly_from_json({"-1,0": "2"}, 2)
    with pytest.raises(ValueError):
        poly_from_json(["nope"], 2)
    # each of these keys names x^1 y^0 again; the later one overwrote the
    # earlier term, so {"1,0": "1", "01,0": "2"} read as 2x
    for key in ("01,0", " 1, 0", "1,00", "+1,-0"):
        with pytest.raises(ValueError) as got:
            poly_from_json({"1,0": "1", key: "2"}, 2)
        assert str(got.value) == (
            f"exponent key {key!r} repeats the monomial of an earlier key")
    # a zero coefficient still claims its monomial, and is then dropped
    with pytest.raises(ValueError, match="repeats the monomial"):
        poly_from_json({"0,1": "0", "0,01": "3"}, 2)
    assert poly_from_json({"1,0": "1", "0,1": "0", "2,0": "0"}, 2) == {(1, 0): 1}


def test_generic_vector_deterministic_and_generic():
    vecs = [vec(1, 0), vec(0, 1), vec(-1, 1)]
    a = generic_vector(2, vecs, seed=3)
    b = generic_vector(2, vecs, seed=3)
    assert a == b
    assert all(dot(a, v) != 0 for v in vecs)
    assert generic_vector(2, vecs, seed=4) != a or True  # just runs


def test_as_vec_coerces_strings():
    assert as_vec(["1/2", 3]) == (F(1, 2), F(3))


def test_parse_rat_refuses_an_exponent_over_the_digit_limit():
    for text in ("1e10000000", "1e-10000000", "2E4301", "2e-4301", "1e+4_301"):
        with pytest.raises(DomainError) as got:
            parse_rat(text)
        assert text not in str(got.value)
    # small exponents, and those at the limit, still parse
    assert parse_rat("3e2") == 300
    assert parse_rat(" 25E-2 ") == F(1, 4)
    assert parse_rat("1.5e+1") == 15
    assert parse_rat("1e-4300") == F(1, 10 ** 4300)
    with pytest.raises(ValueError):
        parse_rat("1e")
