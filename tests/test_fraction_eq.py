"""Fraction equality by cofactor division, against cross-multiplication.

`RationalFunction.__eq__` decides a/b == c/d by dividing one numerator by
the other and comparing the denominators against the cofactor; only when
neither numerator divides the other does it multiply out a*d and c*b.
Every verdict here is compared with that cross-multiplication, computed
inline, and with sympy's `cancel` when sympy is installed. The exact
division's quotient bound is checked to fail early and never to reject
an exact Laurent quotient.
"""

import heapq
import random

import pytest

from gencluster import polyring
from gencluster.polyring import (
    FactoredFraction,
    LaurentPolynomial,
    RationalFunction,
    VariableTable,
)

TABLE = VariableTable(["x", "y", "z"])


def poly(terms):
    return LaurentPolynomial(TABLE, terms)


def rand_poly(rng, count, lo=-2, hi=3):
    terms = {}
    for _ in range(count):
        key = tuple(rng.randint(lo, hi) for _ in range(3))
        terms[key] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return poly(terms)


def cross_eq(f, g):
    """The reference verdict: a/b == c/d iff a*d == c*b."""
    return f.num * g.den == g.num * f.den


def check(f, g, expected):
    assert cross_eq(f, g) is expected
    assert (f == g) is expected
    assert (g == f) is expected


# A, B: a fraction with negative exponents and negative leading coefficients;
# K, L, M: cofactors, pairwise coprime.
A = poly({(2, 0, -1): -3, (0, 1, 0): 2, (-1, 0, 2): 1})
B = poly({(1, -2, 0): -1, (0, 0, 0): 4, (0, 1, 1): 1})
K = poly({(0, 0, 0): 1, (1, -1, 0): -2})
L = poly({(0, -1, 0): 1, (0, 0, 3): 5})
M = poly({(-2, 0, 0): -1, (0, 0, 1): 1, (0, 1, 0): 1})


def test_equal_when_the_cofactor_divides_either_way():
    f = RationalFunction(A, B)
    g = RationalFunction(A * K, B * K)
    assert (g.num).exact_div(f.num) is not None
    check(f, g, True)
    # with a monomial cofactor and an integer factor the pair normalizes
    # differently but stays equal
    check(f, RationalFunction(A * poly({(-3, 2, 1): -6}), B * poly({(-3, 2, 1): -6})), True)
    check(RationalFunction(A * K * L, B * K * L), RationalFunction(A * L, B * L), True)


def test_equal_when_neither_numerator_divides():
    f = RationalFunction(A * K, B * K)
    g = RationalFunction(A * L, B * L)
    assert f.num.exact_div(g.num) is None and g.num.exact_div(f.num) is None
    check(f, g, True)
    check(RationalFunction(A * K * M, B * K * M), RationalFunction(A * L * L, B * L * L), True)


def test_unequal_pairs():
    f = RationalFunction(A, B)
    one = LaurentPolynomial.one(TABLE)
    check(f, RationalFunction(A * K, B * L), False)
    check(f, RationalFunction(A * K, B * K + one), False)
    check(f, RationalFunction(A + one, B), False)
    check(f, RationalFunction(-A, B), False)
    check(f, RationalFunction(A, B * poly({(0, 0, 1): 1})), False)
    check(f, RationalFunction(B, A), False)
    check(RationalFunction(A * K, B * K), RationalFunction(A * L, B * M), False)
    check(f, RationalFunction.from_poly(A * K), False)


def test_zero_numerators():
    zero = RationalFunction.zero(TABLE)
    raw_zero = RationalFunction(LaurentPolynomial.zero(TABLE), B, _raw=True)
    check(zero, RationalFunction(LaurentPolynomial.zero(TABLE), B * K), True)
    check(zero, raw_zero, True)
    check(zero, RationalFunction(A, B), False)
    check(raw_zero, RationalFunction(A, B), False)


def test_against_factored_fractions_in_both_orders():
    walk_side = FactoredFraction.from_poly(A) * FactoredFraction.from_poly(K, 2)
    walk_side = walk_side / (FactoredFraction.from_poly(B) * FactoredFraction.from_poly(K, 2))
    f = RationalFunction(A, B)
    assert f == walk_side
    assert walk_side == f
    other = FactoredFraction.from_poly(A) / FactoredFraction.from_poly(L)
    assert f != other
    assert other != f


def test_random_pairs_agree_with_cross_multiplication():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for trial in range(120):
        a, b = rand_poly(rng, rng.randint(1, 5)), rand_poly(rng, rng.randint(1, 5))
        k, m = rand_poly(rng, rng.randint(1, 3)), rand_poly(rng, rng.randint(1, 3))
        f = RationalFunction(a * k, b * k)
        g = RationalFunction(a * m, b * m) if trial % 3 else RationalFunction(a * m, b * k)
        expected = cross_eq(f, g)
        assert (f == g) is expected and (g == f) is expected
        seen[expected] += 1
    assert seen[True] and seen[False]


def test_verdicts_agree_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")

    def expr(p):
        return sum(c * x ** e[0] * y ** e[1] * z ** e[2] for e, c in p.terms.items())

    def to_sympy(f):
        return expr(f.num) / expr(f.den)

    pairs = [
        (RationalFunction(A, B), RationalFunction(A * K, B * K)),
        (RationalFunction(A * K, B * K), RationalFunction(A * L, B * L)),
        (RationalFunction(A, B), RationalFunction(A * K, B * L)),
        (RationalFunction(A, B), RationalFunction(A + LaurentPolynomial.one(TABLE), B)),
        (RationalFunction(A * M, B * M), RationalFunction(-A * M, -B * M)),
    ]
    for f, g in pairs:
        assert (f == g) is (sympy.cancel(to_sympy(f) - to_sympy(g)) == 0)


def test_hypothesis_cofactor_pairs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    exps = st.tuples(*[st.integers(-3, 3)] * 3)
    coeffs = st.integers(-4, 4).filter(bool)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=4).map(poly).filter(bool)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys, polys, polys)
    def prop(a, b, k, m):
        f = RationalFunction(a * k, b * k)
        for g in (RationalFunction(a * m, b * m), RationalFunction(a * m, b * k)):
            expected = cross_eq(f, g)
            assert (f == g) is expected and (g == f) is expected
        assert f == RationalFunction(a, b)

    prop()


# -- the quotient bound of exact_div ------------------------------------------------


@pytest.fixture
def pops(monkeypatch):
    """Count the heap pops of exact_div: one per quotient step or stale entry."""
    count = [0]
    real = heapq.heappop

    def counting(heap):
        count[0] += 1
        return real(heap)

    monkeypatch.setattr(polyring.heapq, "heappop", counting)
    return count


def test_non_divisible_pair_fails_at_the_bound(pops):
    # x^2 + 1 = (x + 1)(x - 1) + 2: the third quotient key, x^2, passes the
    # bound x^2 / x; without the bound the descent runs to the term cap.
    a = poly({(2, 0, 0): 1, (0, 0, 0): 1})
    b = poly({(1, 0, 0): 1, (0, 0, 0): 1})
    assert a.exact_div(b) is None
    assert pops[0] <= 4


def test_bound_precheck_fails_before_any_step(pops):
    # smallest quotient key x / 1 = x exceeds the largest one, x^3 / x^3 = 1
    a = poly({(1, 0, 0): 1, (3, 0, 0): 1})
    b = poly({(0, 0, 0): 1, (3, 0, 0): 1})
    assert a.exact_div(b) is None
    assert pops[0] == 0


def test_laurent_quotients_round_trip():
    rng = random.Random(29)
    for _ in range(80):
        q = rand_poly(rng, rng.randint(1, 6), -4, 2)
        b = rand_poly(rng, rng.randint(1, 5), -3, 3)
        a = q * b
        if not a:
            continue
        assert a.exact_div(b) == q
        assert a.exact_div(q) == b


def test_quotient_beyond_the_field_bound_is_still_found():
    # The bound max(a) - max(b) leaves the 16-bit fields; it still compares
    # correctly, and the division widens the table and finds the quotient.
    table = VariableTable(["s", "t"])
    a = LaurentPolynomial(table, {(16383, 0): 1, (16383, 1): 2})
    b = LaurentPolynomial(table, {(-16384, 0): 1})
    q = a.exact_div(b)
    assert dict(q.terms) == {(32767, 0): 1, (32767, 1): 2}
    assert q * b == a


@pytest.mark.parametrize("g, h", [(K, L), (L, K), (poly({(0, 0, 0): 1, (1, 0, 0): 1}),
                                                  poly({(0, 0, 0): 1, (0, 1, 0): 2}))])
def test_equality_skips_a_division_the_exponent_spans_rule_out(pops, g, h):
    # A*g / A*h would be g/h, a series that can stay below the quotient
    # bound, so the descent may run to the term cap (it does for the last
    # pair). An exact quotient needs each exponent span of the dividend to
    # reach the divisor's, and A*g is narrower than A*h in some variable
    # either way, so __eq__ starts neither division and cross-multiplies.
    f, other = RationalFunction(A * g, B * g), RationalFunction(A * h, B * h)
    assert (A * g).exact_div(A * h) is None and (A * h).exact_div(A * g) is None
    pops[0] = 0
    check(f, other, True)
    check(f, RationalFunction(A * h, B * g), False)
    assert pops[0] == 0
