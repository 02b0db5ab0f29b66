"""Exact arithmetic layer: vectors, primitives, polynomial division."""

import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from momentkit import algebra, catalog_specs, from_spec
from momentkit.algebra import (
    as_vec,
    clear_denominators,
    divides_linear,
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
    poly_pow,
    poly_quotient_by_linear,
    poly_to_json,
    primitive,
    restrict_to_hyperplane,
    vec,
    vec_from_json,
    vec_to_json,
)
from momentkit.errors import DomainError


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
    x = vec(1, 0)
    x_minus_y = vec(1, -1)
    f1 = {(2, 0): F(1), (1, 1): F(1)}  # x^2 + x*y
    assert divides_linear(x, f1)
    f2 = {(2, 0): F(1), (0, 2): F(-1)}  # x^2 - y^2
    assert divides_linear(x_minus_y, f2)
    assert not divides_linear(x, {(0, 1): F(1)})  # x does not divide y


def test_divides_linear_zero_form_rejected():
    with pytest.raises(DomainError):
        divides_linear(vec(0, 0), {(1, 0): F(1)})


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
        assert divides_linear(ell, prod)
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
        assert divides_linear(ell, f) == all_zero


def test_restrict_to_hyperplane_kills_the_form_itself():
    ell = vec(2, -3, 1)
    assert restrict_to_hyperplane(ell, linear_poly(ell)) == {}


def test_restrict_to_hyperplane_high_exponent():
    # x = (3/2) y on 2x - 3y = 0, so x^t restricts to (3/2)^t y^t
    for t in (0, 1, 7, 5000):
        assert (restrict_to_hyperplane(vec(2, -3), {(t, 0): F(1)}, piv=0)
                == {(0, t): F(3, 2) ** t})


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
