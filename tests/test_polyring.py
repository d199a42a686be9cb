import random

import pytest

from gencluster.polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    NotBlockSymmetricError,
    PsiDomainError,
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
    ratfn_eq,
    split_terms,
)


@pytest.fixture
def xy():
    return VariableTable(["x", "y"])


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


def test_laurent_units_cancel(xy):
    x = RationalFunction.variable(xy, "x")
    assert (x ** -1 * x).is_one()


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
    assert ratfn_eq(f, RationalFunction.from_poly(x + one))
    assert ratfn_eq(
        RationalFunction(one, x), RationalFunction.variable(xy, "x", -1)
    )
    y = LaurentPolynomial.variable(xy, "y")
    assert not ratfn_eq(
        RationalFunction.from_poly(one + y), RationalFunction.from_poly(one + y + y)
    )


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
        f = RationalFunction.from_poly(a)
        assert f == f
        assert f == b and b == f
        g = RationalFunction.from_poly(a + LaurentPolynomial.one(table))
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
            RationalFunction.variable(table, "z"),
            RationalFunction.one(table),
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
    f = RationalFunction.from_poly((one + s11 * y) * (one + s12 * y))
    image = psi_hat(f, symbols)
    z = LaurentPolynomial.variable(table, "z")
    assert image == RationalFunction.from_poly(one + z * y + y * y)


def test_psi_hat_full_block_product_is_one():
    table = _split_table()
    symbols = _symbols_two(table)
    f = RationalFunction.monomial(table, {"s11": 1, "s12": 1})
    assert psi_hat(f, symbols).is_one()


def test_psi_hat_rejects_asymmetric():
    table = _split_table()
    symbols = _symbols_two(table)
    with pytest.raises(PsiDomainError):
        psi_hat(RationalFunction.variable(table, "s11"), symbols)


def test_psi_hat_multiplicative():
    table = _split_table()
    symbols = _symbols_two(table)
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    rng = random.Random(17)
    pool = [
        RationalFunction.from_poly((one + s11 * y) * (one + s12 * y)),
        RationalFunction.from_poly(s11 * s12 + one),
        RationalFunction.monomial(table, {"s11": 1, "s12": 1, "y": 2}),
        RationalFunction.from_poly(one + y),
    ]
    for _ in range(40):
        f, g = rng.choice(pool), rng.choice(pool)
        assert psi_hat(f * g, symbols) == psi_hat(f, symbols) * psi_hat(g, symbols)


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
        {0: RationalFunction.variable(dst, "a"), 1: RationalFunction.variable(dst, "b")},
        dst,
    )
    assert mono == RationalFunction.from_poly(
        P(dst, [(1, {}), (2, {"a": 1}), (3, {"a": 1, "b": 2})])
    )
    one = RationalFunction.one(dst)
    a = RationalFunction.variable(dst, "a")
    general = cross_evaluate(p, {0: one + a, 1: a}, dst)
    expect = one + (one + a) * RationalFunction.constant(dst, 2) + (
        one + a
    ) * a * a * RationalFunction.constant(dst, 3)
    assert general == expect


def laurent_expand(f: RationalFunction, main_idx):
    """Expand f as a Laurent polynomial in the main variables.

    Coefficients live in the fraction field of the remaining variables.
    Returns a dict from main-variable exponent tuples (restricted to
    `main_idx`, in that order) to RationalFunction coefficients, or None
    when f is not Laurent in the main variables.
    """
    main = list(main_idx)
    num = {k: RationalFunction.from_poly(v) for k, v in split_terms(f.num, main).items()}
    den = {k: RationalFunction.from_poly(v) for k, v in split_terms(f.den, main).items()}
    dlead = max(den)
    dcoeff = den[dlead]
    out = {}
    cap = 4 * (len(num) + 1) * (len(den) + 1) + 64
    steps = 0
    while num:
        steps += 1
        if steps > cap:
            return None
        lead = max(num)
        q = num[lead] / dcoeff
        key = tuple(a - b for a, b in zip(lead, dlead))
        out[key] = q
        for dk, dv in den.items():
            nk = tuple(a + b for a, b in zip(key, dk))
            cur = num.get(nk)
            update = cur - q * dv if cur is not None else -(q * dv)
            if update.is_zero():
                num.pop(nk, None)
            else:
                num[nk] = update
    return out


def test_laurent_expand_and_render():
    table = VariableTable(["x", "y"])
    one = LaurentPolynomial.one(table)
    x = LaurentPolynomial.variable(table, "x")
    y = LaurentPolynomial.variable(table, "y")
    f = RationalFunction((one + y) * x + (one + y) * y * x * x, x * x)
    expansion = laurent_expand(f, [0])
    assert expansion is not None
    assert set(expansion) == {(-1,), (0,)}
    assert expansion[(-1,)] == RationalFunction.from_poly(one + y)
    assert laurent_expand(RationalFunction(one, one + x), [0]) is None
    assert (one + y * x).render() == "1 + x*y"
    # monomial denominators normalize into the numerator
    assert RationalFunction(one, x).render() == "x^-1"
    assert RationalFunction(one + y, x + y).render() == "(1 + y)/(x + y)"


def test_elementary_symmetric_explicit():
    table = VariableTable(["s1", "s2", "s3"])
    e2 = elementary_symmetric(table, (0, 1, 2), 2)
    assert len(e2) == 3
    assert e2.terms[(1, 1, 0)] == 1
