"""The packed-coefficient product against the schoolbook loop and sympy.

`_mul_packed` groups each operand by all exponents but one, packs each
group's coefficients into one big int and multiplies groups pairwise.
`_mul_school` is the reference: every product here is compared with it,
term for term, and with sympy when it is installed. The cases cover
cancellation inside and across groups, negative data, coefficients wider
than a machine word, keys crossing the field bound and declined pairs.
"""

import random

import pytest

from gencluster import polyring
from gencluster.invariants import GeneralizedInvariants
from gencluster.pattern import ExchangeMatrix
from gencluster.polyring import LaurentPolynomial, VariableTable, _mul_packed, _mul_school

NAMES = ("x", "y", "z")


def table():
    return VariableTable(NAMES)


def poly(t, terms):
    return LaurentPolynomial(t, terms)


def packed(a, b):
    """_mul_packed on two polynomials of one table, which must not decline."""
    lay = polyring._pair(a, b)
    out = _mul_packed(a._d, b._d, lay)
    assert out is not None, "the product was declined"
    assert out == _mul_school(a._d, b._d, lay)
    return polyring._poly(a.table, lay, out)


def dense(t, rng, xs, rests, coeff=5):
    """Terms x^e * rest for e in xs and each rest exponent pair, random coefficients."""
    terms = {}
    for yz in rests:
        for e in xs:
            c = rng.randint(-coeff, coeff)
            if c:
                terms[(e,) + yz] = c
    return poly(t, terms)


def naive_mul(a, b):
    """The product over exponent tuples, one term pair at a time."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def sympy_product(a, b):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(NAMES)

    def expr(p):
        return sum(c * sympy.Mul(*[s ** e for s, e in zip(syms, k)]) for k, c in p.terms.items())

    prod = sympy.expand(expr(a) * expr(b))
    out = {}
    for term in sympy.Add.make_args(prod):
        c, mono = term.as_coeff_Mul()
        powers = mono.as_powers_dict()
        out[tuple(int(powers.get(s, 0)) for s in syms)] = int(c)
    return {k: v for k, v in out.items() if v}


def test_cancellation_zeroes_inner_slots():
    t = table()
    x = LaurentPolynomial.variable(t, "x")
    one = LaurentPolynomial.one(t)
    # (1 + x + ... + x^9)(1 - x) = 1 - x^10, in every group of a second factor
    geometric = sum((x ** k for k in range(10)), LaurentPolynomial.zero(t))
    rest = poly(t, {(0, 1, 0): 1, (0, 0, 1): -2, (0, 1, 1): 3})
    a, b = geometric * rest, (one - x) * rest
    p = packed(a, b)
    assert p == (one - x ** 10) * rest * rest
    assert all(e[0] in (0, 10) for e in p.terms)


def test_cancellation_across_groups_with_different_lowest_exponents():
    t = table()
    spread = poly(t, {(0, 0, 0): 1, (20, 0, 0): 1, (40, 0, 0): 1})
    # a = y(1 + x) + z x, b = z(1 + x) - y(2 + x): the yz coefficient is
    # (1 + x)^2 - x(2 + x) = 1, built from groups whose lowest x-exponents
    # differ (0 against 1), so its x and x^2 slots cancel between them.
    a = poly(t, {(0, 1, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1}) * spread
    b = poly(t, {(0, 0, 1): 1, (1, 0, 1): 1, (0, 1, 0): -2, (1, 1, 0): -1}) * spread
    p = packed(a, b)
    yz = {e[0] for e in p.terms if e[1:] == (1, 1)}
    assert yz == {0, 20, 40, 60, 80}


def test_cancellation_zeroes_a_whole_group():
    t = table()
    s = poly(t, {(0, 0, 0): 1, (1, 0, 0): 1, (20, 0, 0): 2, (21, 0, 0): -1, (40, 0, 0): 1})
    a = poly(t, {(0, 1, 0): 1, (0, 0, 1): 1}) * s
    b = poly(t, {(0, 1, 0): 1, (0, 0, 1): -1}) * s
    p = packed(a, b)
    # (y + z)(y - z) s^2 = (y^2 - z^2) s^2: the yz group vanishes entirely
    assert not any(e[1:] == (1, 1) for e in p.terms)
    assert p == poly(t, {(0, 2, 0): 1, (0, 0, 2): -1}) * s * s
    assert sympy_product(a, b) == dict(p.terms)


def test_negative_coefficients_and_exponents():
    rng = random.Random(41)
    t = table()
    rests = [(i, j) for i in range(-2, 2) for j in range(-1, 2)]
    for _ in range(5):
        a = dense(t, rng, range(-6, 2), rests)
        b = dense(t, rng, range(-3, 4), rests[::2])
        p = packed(a, b)
        assert any(c < 0 for c in p.coefficients())
        assert min(e[0] for e in p.terms) < 0
    assert sympy_product(a, b) == dict(p.terms)


def test_coefficients_wider_than_64_bits():
    rng = random.Random(43)
    t = table()
    rests = [(0, 0), (1, 0), (0, 1), (1, 1)]
    a = dense(t, rng, range(8), rests, coeff=3 ** 45)
    b = dense(t, rng, range(6), rests, coeff=3 ** 50)
    bound = max(map(abs, a.coefficients())) * max(map(abs, b.coefficients())) * len(b)
    assert bound.bit_length() > 64
    p = packed(a, b)
    assert max(abs(c) for c in p.coefficients()).bit_length() > 64
    assert sympy_product(a, b) == dict(p.terms)


@pytest.mark.parametrize("sign", [1, -1])
def test_product_crossing_the_field_bound_widens_and_reruns(sign, monkeypatch):
    t = table()
    bias = t.layout.bias
    bits = t.layout.bits
    top = bias - 40 if sign > 0 else -bias + 40
    rng = random.Random(47)
    rests = [(i, j) for i in range(3) for j in range(3)]
    a = dense(t, rng, range(top, top + 20 * sign, sign), rests)
    b = dense(t, rng, range(0, 30 * sign, sign), rests)
    assert len(a) * len(b) >= polyring._PACKED_MIN_PAIRS
    expected = naive_mul(a, b)
    assert max(abs(e[0]) for e in expected) >= bias
    with pytest.raises(polyring._FieldOverflow):
        _mul_packed(a._d, b._d, t.layout)
    calls = []
    real = polyring._mul_packed

    def spy(da, db, lay):
        calls.append(lay.bits)
        out = real(da, db, lay)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(polyring, "_mul_packed", spy)
    prod = a * b
    assert t.layout.bits > bits
    # the try at the old width overflows; the rerun at the new one is packed
    assert calls == [bits, t.layout.bits, True]
    assert dict(prod.terms) == expected
    assert prod.exact_div(b) == a


def test_declined_pair_returns_none_and_the_loop_serves_it():
    rng = random.Random(53)
    t = table()
    # 90 x 90 scattered terms: nearly every group holds one term
    a = poly(t, {tuple(rng.randint(-30, 30) for _ in range(3)): rng.randint(1, 9) for _ in range(90)})
    b = poly(t, {tuple(rng.randint(-30, 30) for _ in range(3)): -rng.randint(1, 9) for _ in range(90)})
    assert len(a) * len(b) >= polyring._PACKED_MIN_PAIRS
    lay = polyring._pair(a, b)
    assert _mul_packed(a._d, b._d, lay) is None
    assert (a * b)._d == _mul_school(a._d, b._d, lay)


def test_one_variable_table_packs_each_operand_whole():
    t = VariableTable(["x"])
    a = LaurentPolynomial(t, {(e,): (e + 1) * (1 if e % 2 else -1) for e in range(-5, 60)})
    b = LaurentPolynomial(t, {(e,): e - 3 for e in range(0, 70) if e != 3})
    lay = polyring._pair(a, b)
    out = _mul_packed(a._d, b._d, lay)
    assert out == _mul_school(a._d, b._d, lay)


def test_hypothesis_packed_equals_school():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    t = table()
    # four groups along x, so most pairs pack and some are declined
    exps = st.tuples(st.integers(-8, 8), st.integers(0, 1), st.integers(0, 1))
    coeffs = st.one_of(st.integers(-5, 5), st.integers(-(2 ** 70), 2 ** 70)).filter(bool)
    terms = st.dictionaries(exps, coeffs, min_size=6, max_size=40)
    packed_count = [0]

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(terms, terms)
    def prop(ta, tb):
        a, b = poly(t, ta), poly(t, tb)
        lay = polyring._pair(a, b)
        out = _mul_packed(a._d, b._d, lay)
        if out is not None:
            packed_count[0] += 1
            assert out == _mul_school(a._d, b._d, lay)

    prop()
    assert packed_count[0]


def test_case2_f1_squared_takes_the_packed_path(monkeypatch):
    B2 = ExchangeMatrix.from_rows([[0, 1], [-2, 0]], (2, 1))
    f1 = GeneralizedInvariants(B2, (2, 3)).walk((1, 2, 1)).F[0]
    assert len(f1) == 906
    calls = []
    real = polyring._mul_packed

    def spy(da, db, lay):
        out = real(da, db, lay)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(polyring, "_mul_packed", spy)
    square = f1 * f1
    assert calls == [True]
    assert square._d == _mul_school(f1._d, f1._d, f1._lay)


def test_common_stride_shortens_the_slots():
    t = table()
    # x-exponents step by 3 inside every group, from a different residue in
    # each group; the slots then hold x^3 steps
    a = poly(t, {(3 * e + y, y, z): (e + 1) * (-1) ** (y + z)
                 for e in range(-4, 12) for y in range(3) for z in range(2)})
    b = poly(t, {(3 * e - y, y, 0): 2 * e + 1 for e in range(-2, 9) for y in range(3)})
    lay = polyring._pair(a, b)
    shift = lay.shifts[0]
    _, _, step = polyring._pack_pair(a._d, b._d, ~(lay.mask << shift), shift, 8)
    assert step == 3 << shift
    assert polyring._dense_field(a._d, b._d, lay) == shift
    packed(a, b)
    assert sympy_product(a, b) == dict((a * b).terms)


@pytest.mark.parametrize("small, packs", [(9, False), (15, False), (16, True), (20, True)])
def test_routing_by_the_smaller_operand(small, packs, monkeypatch):
    # 960 x `small` terms are always enough pairs; the smaller operand's size
    # alone decides whether the product is packed
    t = table()
    a = poly(t, {(e, y, z): 1 + (7 * e + 3 * y + z) % 5 for e in range(60) for y in range(4)
                 for z in range(4)})
    b = poly(t, {(e, 0, 0): e - 4 for e in range(small + 1) if e != 4})
    assert len(a) * len(b) >= polyring._PACKED_MIN_PAIRS
    calls = []
    real = polyring._mul_packed

    def spy(da, db, lay):
        out = real(da, db, lay)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(polyring, "_mul_packed", spy)
    prod = b * a
    assert calls == ([True] if packs else [])
    assert prod._d == _mul_school(b._d, a._d, prod._lay)
