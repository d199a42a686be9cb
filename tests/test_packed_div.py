"""The packed-coefficient quotient and the one-term quotient against the heap.

`exact_div` sends a one-term divisor through a key shift (`_div_monomial`)
and a large division through `_div_packed`, which returns a quotient only
with its slot-bound certificate and otherwise defers to the heap division
`_div_terms`. `_div_terms` is the reference here: every quotient is
compared with it. The routing threshold is lowered in most tests so that
small inputs reach the packed route.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from gencluster import polyring
from gencluster.invariants import GeneralizedInvariants
from gencluster.pattern import ExchangeMatrix
from gencluster.polyring import LaurentPolynomial, VariableTable, _div_terms

NAMES = ("x", "y", "z")


def poly(t, terms):
    return LaurentPolynomial(t, terms)


def naive_mul(a, b):
    """The product over exponent tuples of two {tuple: coeff} maps."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


@pytest.fixture
def packed_calls(monkeypatch):
    """Route every multi-term division to `_div_packed`; record its answers."""
    monkeypatch.setattr(polyring, "_PACKED_DIV_MIN_PAIRS", 0)
    monkeypatch.setattr(polyring, "_PACKED_MIN_TERMS", 0)
    calls = []
    real = polyring._div_packed

    def spy(a, b, lay, shift, owned):
        calls.append(lay.bits)
        out = real(a, b, lay, shift, owned)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(polyring, "_div_packed", spy)
    return calls


def heap_quotient(a, b):
    lay = polyring._pair(a, b)
    return _div_terms(a._d, b._d, lay)


def test_hypothesis_packed_quotient_agrees_with_the_heap(packed_calls):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    t = VariableTable(NAMES)
    # x varies most, so most divisions make it dense and some are declined
    exps = st.tuples(st.integers(-6, 6), st.integers(-1, 1), st.integers(-1, 1))
    coeffs = st.one_of(st.integers(-5, 5), st.integers(-(2 ** 70), 2 ** 70)).filter(bool)
    quotients = st.dictionaries(exps, coeffs, min_size=3, max_size=25)
    divisors = st.dictionaries(exps, coeffs, min_size=2, max_size=10)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(quotients, divisors, exps, coeffs)
    def prop(tq, tb, m, cm):
        q, b = poly(t, tq), poly(t, tb)
        a = q * b
        if not a:
            return
        assert a.exact_div(b) == q
        assert a.exact_div(b)._d == heap_quotient(a, b)
        bumped = a + poly(t, {m: cm})
        expected = heap_quotient(bumped, b)
        got = bumped.exact_div(b)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got._d == expected

    prop()
    assert True in packed_calls[1::2]


def certified_case(t):
    """a = q * b with x dense, 3 groups of q and 2 of b; max|q| = 5 = max|a|."""
    q = poly(t, {(0, 0, 0): 1, (1, 0, 0): 5, (2, 0, 0): 3, (0, 1, 0): 2, (3, 1, 0): -1,
                 (1, 0, 1): 4, (2, 0, 1): 1})
    b = poly(t, {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1})
    return q * b, b, q


def test_narrow_slots_fail_the_certificate_and_the_heap_answers(packed_calls, monkeypatch):
    t = VariableTable(NAMES)
    a, b, q = certified_case(t)
    lay = polyring._pair(a, b)
    shift = polyring._dense_field(a._d, b._d, lay)
    assert shift == lay.shifts[0]
    assert polyring._div_packed(a._d, b._d, lay, shift, False) == q._d
    # With 5-bit slots every coefficient of a and b fits the balanced range
    # [-16, 16), so each group divides exactly and every work group reduces
    # to 0, but max|a| + max|q| * max|b| * min(len q, len b) >= 16: no
    # certificate, so the heap division answers.
    monkeypatch.setattr(polyring, "_div_width", lambda a, b: 5)
    amax = max(abs(c) for c in a.coefficients())
    bmax = max(abs(c) for c in b.coefficients())
    assert amax < 16 and bmax < 16
    assert amax + 5 * bmax * min(len(q), len(b)) >= 16
    groups = []
    real_decode = polyring._decode_into

    def decode(out, key, v, step, w):
        groups.append(key)
        return real_decode(out, key, v, step, w)

    monkeypatch.setattr(polyring, "_decode_into", decode)
    packed_calls.clear()
    heap = []
    real_heap = polyring._div_terms

    def heap_spy(da, db, lay):
        heap.append(len(da))
        return real_heap(da, db, lay)

    monkeypatch.setattr(polyring, "_div_terms", heap_spy)
    assert a.exact_div(b) == q
    assert packed_calls == [lay.bits, False]
    assert len(groups) == 3 and heap == [len(a)]


def test_narrow_slots_decode_a_wrong_quotient_the_certificate_rejects(packed_calls, monkeypatch):
    t = VariableTable(NAMES)
    b = poly(t, {(0, 0, 0): 1, (1, 0, 0): 1})
    q = poly(t, {(0, 0, 0): 1, (1, 0, 0): 20})
    a = q * b
    lay = polyring._pair(a, b)
    monkeypatch.setattr(polyring, "_div_width", lambda a, b: 5)
    # 20 leaves [-16, 16): the 5-bit digits of the exact int quotient
    # 1 + 20 * 32 read 1 - 12x + x^2, which is no quotient
    out = {}
    polyring._decode_into(out, lay.zero, 1 + 20 * 32, lay.units[0], 5)
    assert polyring._poly(t, lay, out) == poly(t, {(0, 0, 0): 1, (1, 0, 0): -12, (2, 0, 0): 1})
    assert a.exact_div(b) == q
    assert packed_calls == [lay.bits, False]


def test_strided_quotient_agrees_with_the_heap(packed_calls):
    t = VariableTable(NAMES)
    # x steps by 2 inside every group, from the residue of y in each group
    q = poly(t, {(2 * e + y, y, z): 3 * e - y + z or 1
                 for e in range(-3, 10) for y in range(-1, 2) for z in range(2)})
    b = poly(t, {(2 * e + y, y, 0): e + 2 for e in range(4) for y in range(2)})
    a = q * b
    lay = polyring._pair(a, b)
    shift = polyring._dense_field(a._d, b._d, lay)
    assert shift == lay.shifts[0]
    _, _, step = polyring._pack_pair(a._d, b._d, ~(lay.mask << shift), shift, 8)
    assert step == 2 << shift
    assert a.exact_div(b) == q
    assert packed_calls == [lay.bits, True]


def test_a_product_off_the_stride_defers(packed_calls):
    t = VariableTable(NAMES)
    # a = s + y x s with s = 1 + x^2 + ... + x^10 has stride 2. Dividing by
    # b = 1 + y x^2, the quotient group s times y x^2 starts at x^2, off the
    # stride of a's y-group, which starts at x^1. Read on that group's
    # stride it would cancel the group, and s would pass for the quotient.
    a = poly(t, {(2 * e + y, y, 0): 1 for e in range(6) for y in range(2)})
    b = poly(t, {(0, 0, 0): 1, (2, 1, 0): 1})
    assert a.exact_div(b) is None
    assert packed_calls == [t.layout.bits, False]


def test_a_remainder_defers_and_only_the_heap_says_not_divisible(packed_calls):
    t = VariableTable(NAMES)
    a, b, _ = certified_case(t)
    bumped = a + poly(t, {(1, 1, 1): 1})
    assert bumped.exact_div(b) is None
    assert packed_calls == [t.layout.bits, False]


@pytest.mark.parametrize("sign", [1, -1])
def test_quotient_crossing_the_field_bound_widens_and_reruns(sign, packed_calls):
    t = VariableTable(NAMES)
    bits = t.layout.bits
    bias = t.layout.bias
    rng = random.Random(61)
    # the quotient's x-exponents run past the field bound, the dividend's do not
    start = bias - 30 if sign > 0 else -bias + 30
    tq = {(start + sign * e, y, z): rng.randint(1, 9)
          for e in range(60) for y in range(2) for z in range(2)}
    tb = {(-sign * e - sign * 40, y, 0): rng.randint(1, 9) for e in range(8) for y in range(2)}
    ta = naive_mul(tq, tb)
    assert max(abs(e[0]) for e in tq) >= bias > max(abs(e[0]) for e in ta)
    a, b = poly(t, ta), poly(t, tb)
    assert t.layout.bits == bits
    q = a.exact_div(b)
    assert t.layout.bits > bits
    # the try at the old width overflows; the rerun at the new one is packed
    assert packed_calls == [bits, t.layout.bits, True]
    assert dict(q.terms) == tq


def test_one_term_divisor_is_a_key_shift():
    t = VariableTable(NAMES)
    a = poly(t, {(3, -2, 0): 6, (-1, 0, 4): -9, (0, 0, 0): 3})
    m = poly(t, {(1, -1, 2): 3})
    assert a.exact_div(m) == poly(t, {(2, -1, -2): 2, (-2, 1, 2): -3, (-1, 1, -2): 1})
    assert a.exact_div(m.scale(-1)) == poly(t, {(2, -1, -2): -2, (-2, 1, 2): 3, (-1, 1, -2): -1})
    unit = poly(t, {(-4, 0, 1): 1})
    assert a.exact_div(unit) == poly(t, {(7, -2, -1): 6, (3, 0, 3): -9, (4, 0, -1): 3})
    assert a.exact_div(unit.scale(-1)) * unit.scale(-1) == a
    assert a.exact_div(poly(t, {(0, 0, 0): 2})) is None
    assert a.exact_div(poly(t, {(0, 0, 0): -3})) == a.divide_int(-3)


def test_one_term_divisor_crossing_the_field_bound_widens():
    t = VariableTable(NAMES)
    bias = t.layout.bias
    a = poly(t, {(bias - 1, 0, 0): 2, (0, 1, 0): 4})
    m = poly(t, {(-2, 0, 0): 2})
    q = a.exact_div(m)
    assert dict(q.terms) == {(bias + 1, 0, 0): 1, (2, 1, 0): 2}
    assert q * m == a


def test_case2_deep_generalized_step_takes_the_packed_path(monkeypatch):
    B2 = ExchangeMatrix.from_rows([[0, 1], [-2, 0]], (2, 1))
    engine = GeneralizedInvariants(B2, (2, 3)).walk((1, 2, 1))
    calls = []
    real = polyring._div_packed

    def spy(a, b, lay, shift, owned):
        # the step hands its numerator over, and a certified quotient empties it
        assert owned
        before = dict(a)
        out = real(a, b, lay, shift, owned)
        calls.append((len(before), len(b), out is not None))
        if out is not None:
            assert polyring._mul_terms(out, b, lay) == before
        return out

    monkeypatch.setattr(polyring, "_div_packed", spy)
    engine.step(2)
    assert calls == [(79206, 20, True)]
    assert len(engine.F[1]) == 52577


def test_case2_deep_generalized_step_memory_growth():
    # The step builds its 79,206-term numerator by Horner's rule, so no power
    # of F_1 is held beside it, and the packed division frees the numerator
    # once packed. The bound is in units of the quotient's own size (its
    # dict, keys and values by sys.getsizeof), so it follows the object
    # sizes of the Python build: on x86-64 CPython 3.11 the quotient takes
    # 5.9 MB and the peak grows by 11.8 MB (2.0x); with F_1, F_1^2, F_1^3
    # and the numerator held next to the quotient it grew by 18.8 MB (3.2x).
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak from")
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        from gencluster.invariants import GeneralizedInvariants
        from gencluster.pattern import ExchangeMatrix

        def peak_kb():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])

        B2 = ExchangeMatrix.from_rows([[0, 1], [-2, 0]], (2, 1))
        engine = GeneralizedInvariants(B2, (2, 3)).walk((1, 2, 1))
        before = peak_kb()
        engine.step(2)
        growth = peak_kb() - before
        d = engine.F[1]._d
        size = sys.getsizeof(d) + sum(map(sys.getsizeof, d)) + sum(map(sys.getsizeof, d.values()))
        print(len(d), growth, size // 1024)
    """)
    src = os.path.dirname(os.path.dirname(polyring.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    terms, growth_kb, quotient_kb = map(int, out.stdout.split())
    assert terms == 52577
    assert growth_kb <= 2.5 * quotient_kb


def routing_case(shape):
    """q * b and b of one shape: a 20-term divisor with a large quotient, a
    900-term divisor with a 9-term quotient, a 5-term divisor."""
    t = VariableTable(NAMES)
    if shape == "small quotient":
        b = poly(t, {(e, y, z): 1 + (e * y + z) % 5 for e in range(30) for y in range(6)
                     for z in range(5)})
        q = poly(t, {(3 * i, i % 2, 0): i + 1 for i in range(9)})
    elif shape == "small divisor":
        b = poly(t, {(e, 0, 0): e + 1 for e in range(5)})
        q = poly(t, {(e, y, z): 1 + (e + y + z) % 3 for e in range(40) for y in range(15)
                     for z in range(12)})
    else:
        b = poly(t, {(e, y, 0): 1 + (e + y) % 3 for e in range(10) for y in range(2)})
        q = poly(t, {(e, 5 * y, 7 * z): 1 + (e * y + z) % 4 for e in range(40)
                     for y in range(6) for z in range(4)})
    return q * b, b, q


@pytest.mark.parametrize("shape, packs", [
    ("large quotient", True), ("small quotient", False), ("small divisor", False),
])
def test_routing_by_divisor_and_quotient_size(shape, packs, monkeypatch):
    # every case has enough term pairs; only the sizes of the two factors of
    # q * b, the quotient's counted as len(a) // len(b), decide the route
    a, b, q = routing_case(shape)
    assert len(a) * len(b) >= polyring._PACKED_DIV_MIN_PAIRS
    small = min(len(b), len(a) // len(b))
    assert (small >= polyring._PACKED_MIN_TERMS) == packs
    calls = []
    real = polyring._div_packed

    def spy(da, db, lay, shift, owned):
        out = real(da, db, lay, shift, owned)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(polyring, "_div_packed", spy)
    assert a.exact_div(b) == q
    assert calls == ([True] if packs else [])


# -- a dividend the caller hands over ---------------------------------------------


def test_exact_div_leaves_its_operands_unchanged_on_the_packed_route(packed_calls):
    t = VariableTable(NAMES)
    a, b, q = certified_case(t)
    da, db = dict(a._d), dict(b._d)
    assert a.exact_div(b) == q
    assert packed_calls == [t.layout.bits, True]
    assert a._d == da and b._d == db


def test_owned_division_returns_the_exact_div_quotient(packed_calls):
    t = VariableTable(NAMES)
    rng = random.Random(17)
    consumed = 0
    for _ in range(30):
        q = poly(t, {(rng.randint(-6, 6), rng.randint(-1, 1), rng.randint(-1, 1)):
                     rng.randint(-9, 9) or 1 for _ in range(rng.randint(3, 20))})
        b = poly(t, {(rng.randint(-3, 3), rng.randint(-1, 1), 0): rng.randint(1, 9)
                     for _ in range(rng.randint(2, 6))})
        a = q * b
        expected = a.exact_div(b)
        assert expected == q
        packed_calls.clear()
        assert a.exact_div(b, _owned=True) == expected
        # a certified packed quotient consumes the dividend; any other route leaves it
        if packed_calls[-1:] == [True]:
            consumed += 1
            assert a.is_zero()
        else:
            assert a == q * b
    assert consumed > 0


def test_uncertified_owned_quotient_restores_the_dividend(packed_calls, monkeypatch):
    t = VariableTable(NAMES)
    a, b, q = certified_case(t)
    whole = dict(a.terms)
    # 5-bit slots fail the certificate (see the narrow-slot test above)
    monkeypatch.setattr(polyring, "_div_width", lambda a, b: 5)
    heap = []
    real_heap = polyring._div_terms

    def heap_spy(da, db, lay):
        heap.append(dict(polyring._poly(t, lay, dict(da)).terms))
        return real_heap(da, db, lay)

    monkeypatch.setattr(polyring, "_div_terms", heap_spy)
    assert a.exact_div(b, _owned=True) == q
    assert packed_calls == [t.layout.bits, False]
    assert heap == [whole] and dict(a.terms) == whole

    bumped = a + poly(t, {(1, 1, 1): 1})
    whole = dict(bumped.terms)
    packed_calls.clear()
    heap.clear()
    assert bumped.exact_div(b, _owned=True) is None
    assert packed_calls == [t.layout.bits, False]
    assert heap == [whole] and dict(bumped.terms) == whole


@pytest.mark.parametrize("sign", [1, -1])
def test_owned_quotient_crossing_the_field_bound_widens_and_reruns(sign, packed_calls,
                                                                   monkeypatch):
    t = VariableTable(NAMES)
    bits = t.layout.bits
    bias = t.layout.bias
    rng = random.Random(61)
    start = bias - 30 if sign > 0 else -bias + 30
    tq = {(start + sign * e, y, z): rng.randint(1, 9)
          for e in range(60) for y in range(2) for z in range(2)}
    tb = {(-sign * e - sign * 40, y, 0): rng.randint(1, 9) for e in range(8) for y in range(2)}
    ta = naive_mul(tq, tb)
    a, b = poly(t, ta), poly(t, tb)
    sizes = []
    inner = polyring._div_packed

    def sizes_spy(da, db, lay, shift, owned):
        sizes.append((len(da), owned))
        return inner(da, db, lay, shift, owned)

    monkeypatch.setattr(polyring, "_div_packed", sizes_spy)
    q = a.exact_div(b, _owned=True)
    assert t.layout.bits > bits
    # the overflowing try handed the dividend back whole to the rerun
    assert packed_calls == [bits, t.layout.bits, True]
    assert sizes == [(len(ta), True)] * 2
    assert dict(q.terms) == tq
    assert a.is_zero()
