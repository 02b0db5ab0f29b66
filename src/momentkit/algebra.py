"""Exact scalars, vectors, and sparse multivariate polynomials.

Every quantity in this package is an exact rational: scalars are
``fractions.Fraction``, vectors are plain tuples of Fractions (primitive
directions and canonical normals are int tuples), polynomials are sparse
dicts from exponent tuples to nonzero Fraction coefficients (the zero
polynomial is the empty dict; sums and products of int coefficients stay
ints).  A vector doubles as a linear form through the standard pairing
``dot``, so no separate linear form type is needed.

Nothing here ever touches floating point; polynomial identity is exact
dictionary equality.
"""

from __future__ import annotations

import functools
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

from .errors import DomainError, NotGenericError, check_limit, quoted

Vec = tuple[Fraction, ...]

# Exponent tuple (one entry per variable) -> nonzero coefficient.
Poly = dict[tuple[int, ...], Fraction]

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# vectors


def vec(*entries) -> Vec:
    """Build a vector, coercing ints / strings like "3/4" to Fractions."""
    return tuple(Fraction(e) for e in entries)


def as_vec(entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def clear_denominators(v) -> tuple[list[int], int]:
    """(X, d) with v == X / d: d > 0 the least common denominator of the
    int or Fraction vector v, X the list of ints d * v."""
    d = lcm(*(e.denominator for e in v))
    return [e.numerator * (d // e.denominator) for e in v], d


def clear_direction(xi, dim: int) -> tuple[list[int], int]:
    """``clear_denominators`` of the rational vector xi, which must have
    ``dim`` entries: a positive multiple X of xi, pairing in ints with the
    same signs."""
    xi = as_vec(xi)
    if len(xi) != dim:
        raise ValueError(f"vector length mismatch: {dim} vs {len(xi)}")
    return clear_denominators(xi)


def pair_direction(table, xi, dim: int) -> tuple[list[int], int, list[list[int]]]:
    """(X, q, rows): xi = X / q by ``clear_direction``, and rows[v] the int
    pairings <w, X> over the weights w of table[v], each with the sign of
    <w, xi>.  The first weight, in vertex then weight order, that pairs to
    zero is refused: every ``NotGenericError`` is raised here."""
    X, q = clear_direction(xi, dim)
    rows = []
    for v, at_v in enumerate(table):
        rows.append(row := [sum(map(mul, w, X)) for w in at_v])
        if 0 in row:
            raise NotGenericError(
                f"direction pairs to zero with weight "
                f"{vec_to_json(at_v[row.index(0)])} at vertex {v}")
    return X, q, rows


def primitive(v) -> tuple[int, ...]:
    """Unique positive scalar multiple of the int or Fraction vector v with
    coprime integer entries, as a tuple of ints.

    The direction of v is preserved: primitive((-3, 0, 6)) == (-1, 0, 2).
    """
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if not g:
        raise DomainError("primitive vector of the zero vector is undefined")
    return tuple(i // g for i in ints)


def generic_vector(dim: int, vectors, seed=0) -> Vec:
    """Deterministic-from-seed integer vector pairing nonzero with every input.

    At most 1000 candidates are drawn, with entries in [-999, 999]; a generic
    draw succeeds essentially immediately, so running out signals a bug.
    Each candidate is tested on plain int sums of products (exact on int and
    Fraction inputs alike) and returned as a Fraction vector.  Every input
    must have ``dim`` entries, checked before the first draw.
    """
    vectors = list(vectors)
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"vector length mismatch: {dim} vs {len(v)}")
    rng = random.Random(seed)
    for _ in range(1000):
        cand = tuple(rng.randint(-999, 999) for _ in range(dim))
        if any(cand) and all(sum(map(mul, cand, v)) for v in vectors):
            return as_vec(cand)
    raise RuntimeError("internal error: no generic vector found in 1000 attempts")


# ---------------------------------------------------------------------------
# serialization: rationals print as "p/q" (or "p" when q == 1)


def format_rat(q) -> str:
    q = Fraction(q)
    try:
        return str(q)
    except ValueError:  # a part has over sys.get_int_max_str_digits() digits
        big = max(abs(q.numerator), q.denominator)
        digits = int(big.bit_length() * 0.30103) + 1  # within one of exact
        raise DomainError(
            f"a rational of about {digits} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits for printing") from None


def check_digits(s: str) -> None:
    """Raise DomainError when ``s`` is written with more than
    sys.get_int_max_str_digits() digits, told by its length before any
    parse and named by its digit count, not echoed."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(s):
        digits = sum(map(str.isdecimal, s))
        check_limit(digits, limit,
                    lambda: f"a number written with {digits} digits is",
                    " digits")


def parse_rat(s) -> Fraction:
    """The rational a string or int stands for.

    A string over the digit limit (``check_digits``) is a DomainError, and
    so is an exponent, positive or negative, whose absolute value exceeds
    sys.get_int_max_str_digits(): ``Fraction`` would expand it in full.
    """
    if not isinstance(s, (str, int)) or isinstance(s, bool):
        raise ValueError(f"expected rational string, got {quoted(s)}")
    if isinstance(s, str):
        check_digits(s)
        limit = sys.get_int_max_str_digits()
        try:
            power = int(s.lower().partition("e")[2])
        except ValueError:  # no exponent, or a malformed one Fraction refuses
            power = 0
        if 0 < limit:
            check_limit(abs(power), limit,
                        lambda: f"a number written with an exponent over "
                                f"{limit} in absolute value is", " digits")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {quoted(s)}") from None
    except ValueError:  # Fraction's own message, with a long literal cut
        raise ValueError(f"Invalid literal for Fraction: {quoted(s)}") from None


def vec_to_json(v: Vec) -> list[str]:
    return [format_rat(e) for e in v]


def vec_from_json(items) -> Vec:
    if not isinstance(items, (list, tuple)):
        raise ValueError(
            f"expected list of rational strings, got {quoted(items)}")
    return tuple(parse_rat(e) for e in items)


# ---------------------------------------------------------------------------
# sparse polynomials


def poly_const(nvars: int, value) -> Poly:
    c = Fraction(value)
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def linear_poly(coeffs: Vec) -> Poly:
    """Degree-1 polynomial sum(coeffs[i] * x_i), no constant term."""
    n = len(coeffs)
    return {tuple(int(i == j) for i in range(n)): Fraction(c)
            for j, c in enumerate(coeffs) if c != 0}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_scale(-1, b))


def poly_scale(c, a: Poly) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {mono: c * coeff for mono, coeff in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def poly_eval(f: Poly, point: Vec) -> Fraction:
    total = ZERO
    for mono, c in f.items():
        term = c
        for e, x in zip(mono, point):
            if e:
                term *= x**e
        total += term
    return total


def poly_degree(f: Poly) -> int:
    """Total degree; the zero polynomial has degree -1 by convention."""
    if not f:
        return -1
    return max(sum(mono) for mono in f)


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending lex order.

    Stars and bars: the exponents are the gaps that nvars - 1 bars leave
    among degree + nvars - 1 slots, O(nvars) each, and rise in lex order as
    the bars do, so the list is read backwards.  itertools copies the slots,
    no more of them than tuples once nvars >= 2."""
    if degree < 0 or (nvars == 0 and degree > 0):
        return []
    if nvars <= 1:
        return [(degree,) * nvars]
    top = degree + nvars - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (top,)))
            for bars in reversed(list(combinations(range(top), nvars - 1)))]


# ---------------------------------------------------------------------------
# divisibility by a nonzero linear form


def pivot_index(ell: Vec) -> int:
    """Coefficient index used to eliminate a variable: largest absolute
    value, lowest index on ties.  Deterministic so constraint matrices and
    golden outputs are reproducible."""
    mags = [abs(x) for x in ell]
    if not any(mags):
        raise DomainError("zero linear form")
    return mags.index(max(mags))


# restrict_to_hyperplane refuses to expand to more terms: gkm-check of x^649
# at a vertex with edge weight (1,1,1) takes about 1 s on one x86 core, and
# the cost grows faster than the square of the term count
MAX_RESTRICTION_TERMS = 650
# nor to more bits, estimated as terms x pivot exponent x the largest bit
# length (numerator plus denominator) of the substitution's coefficients:
# x^649 on (1,1,1) is 650 x 649 x 2, the limit; z^649 on (1,100,101), at 14
# bits, took 10 s under the term limit alone; z^244, the most it admits
# there, takes 0.6 s
MAX_RESTRICTION_BITS = 843_700


@functools.lru_cache(maxsize=512)
def _hyperplane_solution(ell: tuple) -> tuple:
    """(piv, a, support, bits) of ell = 0, keyed by its entries (equal int and
    Fraction lines share one entry): with ell cleared to X, a = X[piv], the
    pairs (j, -X_j) over X_j != 0 off piv, and the largest bits of a -X_j / a."""
    X, _ = clear_denominators(ell)
    piv = pivot_index(X)
    a = X[piv]
    support = tuple((j, -x) for j, x in enumerate(X) if j != piv and x)
    bits = max(((x // g).bit_length() + (a // g).bit_length()
                for _, x in support for g in [gcd(x, a)]), default=0)
    return piv, a, support, bits


def _substitute(support, base: tuple, t: int) -> list:
    """x^base * S^t for S = sum of c x_j over (j, c) in support (s >= 1), as
    (exponents, int coefficient) pairs: each x_j but the last takes e of the
    degree left, times C(left, e) c^e, and the last takes the rest."""
    *head, (last, c_last) = support
    terms = [(base, 1, t)]
    for j, c in head:
        terms = [(m[:j] + (m[j] + e,) + m[j + 1:], coeff * comb(left, e) * c ** e,
                  left - e) for m, coeff, left in terms for e in range(left + 1)]
    return [(m[:last] + (m[last] + left,) + m[last + 1:], coeff * c_last ** left)
            for m, coeff, left in terms]


def restrict_to_hyperplane(ell: Vec, f: Poly) -> Poly:
    """Substitute the solution of ell = 0 for its pivot variable in f.

    The result has exponent 0 in the pivot slot, piv = ``pivot_index(ell)``;
    it is identically zero exactly when ell divides f.  With ell's
    denominators cleared to X and a = X[piv], the solution is S / a with
    S = sum of -X_j x_j over j != piv.
    A monomial with pivot exponent t takes S^t, in ints, over a^t: an int
    coefficient that a^t divides (|a|^k for t <= k) restricts to ints, any
    other to Fractions.  S^t has C(t + s - 1, s - 1) terms when S has s >= 1.
    """
    piv, a, support, bits = _hyperplane_solution(tuple(ell))
    s = len(support)
    if s > 1:
        counts = [(comb(mono[piv] + s - 1, s - 1), mono[piv]) for mono in f]
        terms = sum(c for c, _ in counts)
        check_limit(terms, MAX_RESTRICTION_TERMS, lambda: (
            f"restricting to the hyperplane of {','.join(vec_to_json(ell))} "
            f"expands to {terms} terms,"))
        size = bits * sum(c * t for c, t in counts)
        check_limit(size, MAX_RESTRICTION_BITS, lambda: (
            f"restricting to the hyperplane of {','.join(vec_to_json(ell))} "
            f"expands to about {size} bits,"))

    out: Poly = {}
    for mono, coeff in f.items():
        t = mono[piv]
        if not t:
            out[mono] = out.get(mono, 0) + coeff
        elif support:  # else S^t = 0, at once for any t
            den = a ** t
            coeff = (coeff // den if isinstance(coeff, int) and not coeff % den
                     else Fraction(coeff, den))
            base = mono[:piv] + (0,) + mono[piv + 1:]
            for key, c in _substitute(support, base, t):
                out[key] = out.get(key, 0) + coeff * c
    return {mono: c for mono, c in out.items() if c}


def poly_quotient_by_linear(ell: Vec, f: Poly) -> Poly:
    """Exact quotient g with f = ell * g; raises if ell does not divide f.

    Synthetic division along the pivot variable: writing ell = a*x_p + r
    with r free of x_p, the layers of f by x_p-exponent are peeled top down.
    """
    ell = as_vec(ell)
    if is_zero_vec(ell):
        raise DomainError("division by the zero linear form is undefined")
    if not f:
        return {}
    piv = pivot_index(ell)
    a = ell[piv]
    rem = list(ell)
    rem[piv] = ZERO
    r = linear_poly(tuple(rem))

    layers: dict[int, Poly] = {}
    for mono, coeff in f.items():
        rest = list(mono)
        t = rest[piv]
        rest[piv] = 0
        layers.setdefault(t, {})[tuple(rest)] = coeff
    top = max(layers)

    quotient: Poly = {}
    for k in range(top, 0, -1):
        qk = poly_scale(1 / a, layers.get(k, {}))
        for mono, coeff in qk.items():
            e = list(mono)
            e[piv] = k - 1
            quotient[tuple(e)] = coeff
        layers[k - 1] = poly_sub(layers.get(k - 1, {}), poly_mul(qk, r))
    if layers.get(0):
        raise DomainError("linear form does not divide the polynomial")
    return quotient


# ---------------------------------------------------------------------------
# canonical JSON form


def poly_to_json(f: Poly) -> dict[str, str]:
    """Map exponent strings like "2,0" to coefficient strings, grlex order."""
    return {
        ",".join(str(e) for e in mono): format_rat(f[mono])
        for mono in sorted(f, key=lambda m: (sum(m), m), reverse=True)
    }


def poly_from_json(obj, nvars: int) -> Poly:
    """The polynomial of a map from exponent keys like "2,0" to rational
    strings; two keys for one monomial, such as "1,0" and "01,0", are
    refused, since either would silently overwrite the other."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected monomial/coefficient map, got {quoted(obj)}")
    out: Poly = {}
    for key, val in obj.items():
        parts = str(key).split(",")
        if len(parts) != nvars:
            raise ValueError(
                f"exponent key {quoted(key)} does not have {nvars} entries")
        for part in parts:
            check_digits(part)
        mono = tuple(int(p) for p in parts)
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in key {quoted(key)}")
        if mono in out:
            raise ValueError(
                f"exponent key {quoted(key)} repeats the monomial of an earlier key")
        out[mono] = parse_rat(val)
    return {mono: c for mono, c in out.items() if c}
