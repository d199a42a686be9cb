import random
from functools import reduce
from operator import mul

import pytest

from gencluster import polyring
from gencluster.polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    NotBlockSymmetricError,
    PsiConeError,
    PsiDomainError,
    PsiKernelError,
    RationalFunction,
    SymbolBlock,
    VariableTable,
    block_symmetric,
    cross_evaluate,
    elementary_reduce,
    elementary_symmetric,
    ff_add,
    ff_eq,
    psi_hat,
    psi_hat_factored,
)


@pytest.fixture
def xy():
    return VariableTable(["x", "y"])


def whole(p):
    """p over 1: the expanded fraction that psi_hat takes and returns."""
    return RationalFunction(p, LaurentPolynomial.one(p.table))


def P(table, expr):
    """Tiny builder: list of (coeff, {name: exp}) pairs."""
    out = LaurentPolynomial.zero(table)
    for coeff, mono in expr:
        out = out + LaurentPolynomial.monomial(table, mono, coeff)
    return out


def test_poly_product_difference_of_squares(xy):
    one = LaurentPolynomial.one(xy)
    x = LaurentPolynomial.variable(xy, "x")
    assert (one + x) * (one - x) == one - x * x


def test_split_product_expansion():
    table = VariableTable(["s11", "s12", "y"])
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    lhs = (one + s11 * y) * (one + s12 * y)
    rhs = one + (s11 + s12) * y + s11 * s12 * y * y
    assert lhs == rhs


def test_big_product_matches_schoolbook():
    table = VariableTable(["a", "b", "c"])
    rng = random.Random(5)

    def rand_poly(terms):
        out = {}
        for _ in range(terms):
            key = (rng.randint(-3, 6), rng.randint(0, 5), rng.randint(-2, 4))
            out[key] = rng.randint(-9, 9) or 1
        return LaurentPolynomial(table, out)

    p = rand_poly(140)
    q = rand_poly(130)
    fast = p * q  # large enough to take the packed route
    slow = LaurentPolynomial.zero(table)
    for exps, c in p.terms.items():
        slow = slow + LaurentPolynomial(table, {exps: c}) * q
    assert fast == slow


def test_ratfn_eq_examples(xy):
    x = LaurentPolynomial.variable(xy, "x")
    one = LaurentPolynomial.one(xy)
    f = RationalFunction(x * x - one, x - one)
    assert f == whole(x + one)
    assert RationalFunction(one, x) == whole(LaurentPolynomial.monomial(xy, {"x": -1}))
    y = LaurentPolynomial.variable(xy, "y")
    assert whole(one + y) != whole(one + y + y)


def test_ratfn_eq_is_equivalence_and_matches_expansion():
    table = VariableTable(["x", "y"])
    rng = random.Random(11)

    def rand_poly():
        out = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(-2, 3), rng.randint(-2, 3))
            out[key] = rng.randint(-4, 4) or 2
        return LaurentPolynomial(table, out)

    for _ in range(200):
        a = rand_poly()
        scale = rand_poly()
        b = RationalFunction(a * scale, scale)
        f = whole(a)
        assert f == f
        assert f == b and b == f
        g = whole(a + LaurentPolynomial.one(table))
        assert f != g


def test_exact_division_round_trips():
    table = VariableTable(["x", "y"])
    rng = random.Random(3)
    for _ in range(100):
        terms_a = {
            (rng.randint(-2, 4), rng.randint(0, 3)): rng.randint(-5, 5) or 1
            for _ in range(rng.randint(1, 6))
        }
        terms_b = {
            (rng.randint(-1, 3), rng.randint(0, 2)): rng.randint(-5, 5) or 3
            for _ in range(rng.randint(1, 5))
        }
        a = LaurentPolynomial(table, terms_a)
        b = LaurentPolynomial(table, terms_b)
        q = (a * b).exact_div(b)
        assert q is not None and q == a


def test_exact_division_detects_failure(xy):
    one = LaurentPolynomial.one(xy)
    x = LaurentPolynomial.variable(xy, "x")
    assert (x * x + one).exact_div(x + one) is None


def test_exact_quotient_larger_than_its_dividend(xy):
    # (1 - x^1502) / (1 - x) has 1,502 terms against the dividend's 2; the
    # quotient is bounded by its exponent box, not by the dividend's size
    one = LaurentPolynomial.one(xy)
    x = LaurentPolynomial.variable(xy, "x")
    y = LaurentPolynomial.variable(xy, "y")
    q = (one - x ** 1502).exact_div(one - x)
    assert q is not None and len(q) == 1502
    assert q * (one - x) == one - x ** 1502
    # a divisor wider than the dividend in y has no exact quotient
    assert (one - x ** 1502).exact_div(one - x * y) is None


def test_block_symmetric_examples():
    table = VariableTable(["s11", "s12", "y"])
    block = [0, 1]
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    assert block_symmetric(s11 + s12, block)
    assert not block_symmetric(s11, block)
    assert block_symmetric(s11 * s11 * s12 + s11 * s12 * s12, block)


def _symbols_two(table, targets=None):
    """One block of two splitting variables with generic or given targets."""
    if targets is None:
        targets = (
            FactoredFraction.variable(table, "z"),
            FactoredFraction.one(table),
        )
    return ElementarySymbols(
        table=table,
        blocks=(
            SymbolBlock(
                s_idx=(table.index("s11"), table.index("s12")),
                e_idx=(table.index("e11"), table.index("e12")),
                targets=targets,
            ),
        ),
    )


def test_elementary_reduce_newton_identity():
    table = VariableTable(["s11", "s12", "e11", "e12", "y", "z"])
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    e11 = LaurentPolynomial.variable(table, "e11")
    e12 = LaurentPolynomial.variable(table, "e12")
    blocks = [((0, 1), (2, 3))]
    assert elementary_reduce(s11 ** 2 + s12 ** 2, blocks) == e11 * e11 - e12.scale(2)
    assert elementary_reduce(s11 * s12, blocks) == e12
    with pytest.raises(NotBlockSymmetricError):
        elementary_reduce(s11, blocks)


def test_elementary_reduce_matches_expanded_product_oracle():
    # oracle: expand the split product directly and compare coefficients
    table = VariableTable(["s11", "s12", "e11", "e12", "y", "z"])
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    e11 = LaurentPolynomial.variable(table, "e11")
    e12 = LaurentPolynomial.variable(table, "e12")
    product = (one + s11 * y) * (one + s12 * y)
    reduced = elementary_reduce(product, [((0, 1), (2, 3))])
    assert reduced == one + e11 * y + e12 * y * y


def test_elementary_reduce_is_ring_homomorphism():
    table = VariableTable(["s11", "s12", "e11", "e12", "y"])
    blocks = [((0, 1), (2, 3))]
    rng = random.Random(23)

    def rand_symmetric():
        out = LaurentPolynomial.zero(table)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            c = rng.randint(-3, 3) or 1
            ye = rng.randint(0, 2)
            out = out + LaurentPolynomial.monomial(
                table, {"s11": a, "s12": b, "y": ye}, c
            )
            if a != b:
                out = out + LaurentPolynomial.monomial(
                    table, {"s11": b, "s12": a, "y": ye}, c
                )
        return out

    for _ in range(60):
        p, q = rand_symmetric(), rand_symmetric()
        assert elementary_reduce(p * q, blocks) == elementary_reduce(
            p, blocks
        ) * elementary_reduce(q, blocks)
        assert elementary_reduce(p + q, blocks) == elementary_reduce(
            p, blocks
        ) + elementary_reduce(q, blocks)


def test_normalization_keeps_block_content_equal():
    # a symmetric polynomial's monomial content is constant on each block
    table = VariableTable(["s11", "s12", "y"])
    rng = random.Random(7)
    for _ in range(100):
        base = LaurentPolynomial.zero(table)
        for _ in range(rng.randint(1, 4)):
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4)
            ye = rng.randint(-2, 2)
            base = base + LaurentPolynomial.monomial(table, {"s11": a, "s12": b, "y": ye}, c)
            base = base + LaurentPolynomial.monomial(table, {"s11": b, "s12": a, "y": ye}, c)
        shift = rng.randint(0, 2)
        sym = base.shift((shift, shift, 0))
        if sym.is_zero():
            continue
        content = sym.monomial_content()
        assert content[0] == content[1]


def _split_table():
    return VariableTable(["x", "s11", "s12", "e11", "e12", "y", "z"])


def test_psi_hat_split_product():
    table = _split_table()
    symbols = _symbols_two(table)
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    f = whole((one + s11 * y) * (one + s12 * y))
    image = psi_hat(f, symbols)
    z = LaurentPolynomial.variable(table, "z")
    assert image == whole(one + z * y + y * y)


def test_psi_hat_full_block_product_is_one():
    table = _split_table()
    symbols = _symbols_two(table)
    f = whole(LaurentPolynomial.monomial(table, {"s11": 1, "s12": 1}))
    image = psi_hat(f, symbols)
    assert image.num.is_one() and image.den.is_one()


def test_psi_hat_rejects_asymmetric():
    table = _split_table()
    symbols = _symbols_two(table)
    with pytest.raises(PsiDomainError):
        psi_hat(whole(LaurentPolynomial.monomial(table, {"s11": 1})), symbols)


def test_psi_hat_multiplicative():
    table = _split_table()
    symbols = _symbols_two(table)
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    rng = random.Random(17)
    pool = [
        whole((one + s11 * y) * (one + s12 * y)),
        whole(s11 * s12 + one),
        whole(LaurentPolynomial.monomial(table, {"s11": 1, "s12": 1, "y": 2})),
        whole(one + y),
    ]
    for _ in range(40):
        f, g = rng.choice(pool), rng.choice(pool)
        fg = RationalFunction(f.num * g.num, f.den * g.den)
        pf, pg = psi_hat(f, symbols), psi_hat(g, symbols)
        assert psi_hat(fg, symbols) == RationalFunction(pf.num * pg.num, pf.den * pg.den)


def test_psi_hat_factored_matches_expanded():
    table = _split_table()
    symbols = _symbols_two(table)
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    ff = (
        FactoredFraction.from_poly(one + s11 * y)
        * FactoredFraction.from_poly(one + s12 * y)
        * FactoredFraction.from_poly(s11 * s12 + one, -1)
    )
    assert psi_hat_factored(ff, symbols) == FactoredFraction.from_ratfn(
        psi_hat(ff.expand(), symbols)
    )


def test_psi_hat_is_the_factored_map_of_two_factors():
    # s11 and s12 alone are an incomplete orbit, so the factored map takes
    # the numerator and denominator as orbits of one
    table = _split_table()
    symbols = _symbols_two(table)
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    f = RationalFunction(s11 * s11 + s12 * s12, s11 * s12)
    image = psi_hat(f, symbols)
    assert image == psi_hat_factored(FactoredFraction.from_ratfn(f), symbols).expand()
    # (e1^2 - 2 e2) / e2 at e1 = z, e2 = 1
    z = LaurentPolynomial.variable(table, "z")
    assert image == whole(z * z - LaurentPolynomial.constant(table, 2))


def test_psi_hat_certifies_the_cone():
    # s11^2 + s12^2 = e1^2 - 2 e2 is symmetric but signed
    table = _split_table()
    symbols = _symbols_two(table)
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    f = whole(s11 * s11 + s12 * s12)
    z = LaurentPolynomial.variable(table, "z")
    assert psi_hat(f, symbols) == whole(
        z * z - LaurentPolynomial.constant(table, 2)
    )
    with pytest.raises(PsiConeError):
        psi_hat(f, symbols, require_nonneg=True)


def test_psi_hat_numerator_in_kernel():
    # s11 + s12 - z = e1 - z vanishes at e1 = z
    table = _split_table()
    symbols = _symbols_two(table)
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    z = LaurentPolynomial.variable(table, "z")
    with pytest.raises(PsiKernelError):
        psi_hat(whole(s11 + s12 - z), symbols)


def test_factored_fraction_cancels_and_compares():
    table = VariableTable(["x", "y"])
    one = LaurentPolynomial.one(table)
    x = LaurentPolynomial.variable(table, "x")
    y = LaurentPolynomial.variable(table, "y")
    f = FactoredFraction.from_poly(one + x) * FactoredFraction.from_poly(one + y, -1)
    g = f * f.inverse()
    assert g.is_one()
    doubled = FactoredFraction.from_poly((one + x).scale(2)) * FactoredFraction.from_poly(
        (one + y).scale(2), -1
    )
    assert ff_eq(f, doubled)
    assert f == f.expand()
    total = ff_add(f, FactoredFraction.one(table))
    expected = RationalFunction(one + x + one + y, one + y)
    assert total.expand() == expected


def test_cross_evaluate_monomial_and_general():
    src = VariableTable(["u", "v"])
    dst = VariableTable(["a", "b"])
    p = P(src, [(1, {}), (2, {"u": 1}), (3, {"u": 1, "v": 2})])
    mono = cross_evaluate(
        p,
        {0: FactoredFraction.variable(dst, "a"), 1: FactoredFraction.variable(dst, "b")},
        dst,
    )
    assert mono == FactoredFraction.from_poly(
        P(dst, [(1, {}), (2, {"a": 1}), (3, {"a": 1, "b": 2})])
    )
    one = LaurentPolynomial.one(dst)
    a = LaurentPolynomial.variable(dst, "a")
    general = cross_evaluate(
        p, {0: FactoredFraction.from_poly(one + a), 1: FactoredFraction.from_poly(a)}, dst
    )
    expect = one + (one + a).scale(2) + ((one + a) * a * a).scale(3)
    assert general == FactoredFraction.from_poly(expect)
    # on the polynomial's own table an unassigned variable stays
    one = LaurentPolynomial.one(src)
    v = LaurentPolynomial.variable(src, "v")
    inv = FactoredFraction.variable(src, "v", -1)
    assert cross_evaluate(p, {0: inv}, src) == FactoredFraction.from_poly(
        P(src, [(1, {}), (2, {"v": -1}), (3, {"v": 1})])
    )
    expect = one + (one + v).scale(2) + ((one + v) * v * v).scale(3)
    assert cross_evaluate(p, {0: FactoredFraction.from_poly(one + v)}, src) == (
        FactoredFraction.from_poly(expect)
    )


def test_cross_evaluate_remaps_past_unused_general_values(monkeypatch):
    # only the substituted variables decide the path: w is absent from p, so
    # its non-unit value (or a zero) leaves the one exponent remap in charge
    src = VariableTable(["u", "v", "w"])
    dst = VariableTable(["a", "b"])
    p = P(src, [(1, {}), (2, {"u": 1}), (3, {"u": 1, "v": -2})])
    one = LaurentPolynomial.one(dst)
    a = LaurentPolynomial.variable(dst, "a")

    def no_sum(terms, table):
        raise AssertionError("the general path ran")

    monkeypatch.setattr(polyring, "ff_sum", no_sum)
    # u goes to a product of unit monomial factors, a^2 / b
    unit = FactoredFraction.variable(dst, "a", 2) / FactoredFraction.variable(dst, "b")
    want = P(dst, [(1, {}), (2, {"a": 2, "b": -1}), (3, {"a": 2, "b": -3})])
    for unused in (FactoredFraction.from_poly(one + a.scale(2)), None):
        assign = {0: unit, 1: FactoredFraction.variable(dst, "b"), 2: unused}
        assert cross_evaluate(p, assign, dst) == FactoredFraction.from_poly(want)
    # on the polynomial's own table, with v unassigned and kept
    own = {0: FactoredFraction.variable(src, "v"),
           2: FactoredFraction.from_poly(LaurentPolynomial.variable(src, "w").scale(3))}
    assert cross_evaluate(p, own, src) == FactoredFraction.from_poly(
        P(src, [(1, {}), (2, {"v": 1}), (3, {"v": -1})])
    )


def test_cross_evaluate_with_fraction_values_matches_sympy():
    # the oracle substitutes in sympy's field of fractions over ZZ[a, b, c]
    sympy = pytest.importorskip("sympy")
    field, *gens = sympy.field("a,b,c", sympy.ZZ)
    src = VariableTable(["u", "v", "w"])
    dst = VariableTable(["a", "b", "c"])
    one = LaurentPolynomial.one(dst)
    a, b, c = (LaurentPolynomial.variable(dst, n) for n in "abc")
    # every denominator is a product from one pool, so variables share factors
    pool = [one + a, b + c.scale(2), a - c, one + a * b]
    rng = random.Random(23)

    def at(p, values):
        return sum(
            (reduce(mul, (v ** e for v, e in zip(values, exps) if e), k)
             for exps, k in p.terms.items()),
            field.zero,
        )

    def frac(f):
        if f is None:
            return field.zero
        num, den = f.expand_parts()
        return at(num, gens) / at(den, gens)

    def rand_fraction():
        num = rng.choice(pool) * rng.choice([one, a, b.scale(-3), c ** -1])
        dens = rng.sample(pool, rng.randint(1, 2))
        return reduce(mul, (FactoredFraction.from_poly(d, -1) for d in dens),
                      FactoredFraction.from_poly(num))

    def rand_poly():
        # exponents of both signs at every substituted variable
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(3)): rng.choice([-2, -1, 1, 3])
            for _ in range(rng.randint(1, 5))
        }
        return LaurentPolynomial(src, terms)

    def check(p, assign):
        got = cross_evaluate(p, assign, dst)
        assert frac(got) == at(p, [frac(assign[i]) for i in range(3)])
        return got

    for _ in range(20):
        check(rand_poly(), {i: rand_fraction() for i in range(3)})
    # two variables at one value: the sum cancels to exactly 0
    f = rand_fraction()
    p = P(src, [(1, {"u": 2, "w": -1}), (-1, {"v": 2, "w": -1})])
    assert check(p, {0: f, 1: f, 2: rand_fraction()}) is None
    # a zero value (None) drops the terms with it at a positive power ...
    assign = {0: None, 1: rand_fraction(), 2: rand_fraction()}
    p = P(src, [(2, {"u": 1, "v": -1}), (3, {"v": 2}), (-1, {"v": -1, "w": 1}), (5, {"u": 2})])
    assert check(p, assign) is not None
    assert check(P(src, [(1, {"u": 1, "v": -2})]), assign) is None
    # ... and may have no negative power, whichever group it sits in
    with pytest.raises(ZeroDivisionError):
        cross_evaluate(p + P(src, [(1, {"u": -1, "w": 2})]), assign, dst)


def test_render():
    table = VariableTable(["x", "y"])
    one = LaurentPolynomial.one(table)
    x = LaurentPolynomial.variable(table, "x")
    y = LaurentPolynomial.variable(table, "y")
    assert (one + y * x).render() == "1 + x*y"
    # monomial denominators normalize into the numerator
    assert RationalFunction(one, x).render() == "x^-1"
    assert RationalFunction(one + y, x + y).render() == "(1 + y)/(x + y)"


@pytest.mark.parametrize("case, text", [
    ("negative lead", "(-1 - y)/(-2 + x)"),
    ("monomial content", "(x^-2 + x^-1)/(x + y)"),
    ("integer content", "(1 + 2*x)/(1 + 3*y)"),
    ("equal parts", "1"),
    ("monomial denominator", "x^-1*y^-1 + y^-1 + x^-1"),
])
def test_factored_render_is_the_normalized_expansion(xy, case, text):
    one, x, y = (LaurentPolynomial.one(xy), LaurentPolynomial.variable(xy, "x"),
                 LaurentPolynomial.variable(xy, "y"))
    two = LaurentPolynomial.constant(xy, 2)
    num, den = {
        "negative lead": ([one + y], two - x),
        "monomial content": ([one + x], x * x * y + x * x * x),
        "integer content": ([two + x.scale(4)], y.scale(6) + two),
        # the factors do not cancel, their expansions do
        "equal parts": ([one + x, one - x], one - x * x),
        "monomial denominator": ([one + x + y], x * y),
    }[case]
    value = FactoredFraction.one(xy)
    for p in num:
        value = value * FactoredFraction.from_poly(p)
    value = value / FactoredFraction.from_poly(den)
    assert len(value.factors) == len(num) + 1
    assert value.render() == text
    assert RationalFunction(*value.expand_parts()).render() == text


def test_elementary_symmetric_explicit():
    table = VariableTable(["s1", "s2", "s3"])
    e2 = elementary_symmetric(table, (0, 1, 2), 2)
    assert len(e2) == 3
    assert e2.terms[(1, 1, 0)] == 1
