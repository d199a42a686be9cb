import random

import pytest

from gencluster.polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    PsiConeError,
    PsiDomainError,
    RationalFunction,
    SymbolBlock,
    VariableTable,
)
from gencluster.semifield import (
    P0_ZERO,
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    SemifieldMismatchError,
    evaluate_poly_semifield,
    project_np,
    psi,
    sf_add,
    sf_eq,
    sf_inv,
    sf_mul,
    sf_pow,
    specialize_Z,
)


@pytest.fixture
def trop():
    return SemifieldKind.tropical(["u"])


@pytest.fixture
def univ():
    table = VariableTable(["y", "z"])
    return SemifieldKind.universal(table, ["y", "z"])


def test_trivial_addition_is_unit():
    kind = SemifieldKind.trivial()
    one = SemifieldElement.one(kind)
    assert sf_eq(sf_add(one, one), one)
    assert sf_eq(sf_mul(one, sf_inv(one)), one)


def test_tropical_min_convention(trop):
    u2 = SemifieldElement.tropical(trop, [2])
    uinv = SemifieldElement.tropical(trop, [-1])
    assert sf_eq(sf_add(u2, uinv), uinv)
    u3 = SemifieldElement.tropical(trop, [3])
    assert sf_eq(sf_mul(u3, uinv), u2)


def test_universal_addition_and_inverse(univ):
    table = univ.table
    y = SemifieldElement.generator(univ, "y")
    y2 = sf_pow(y, 2)
    total = sf_add(y, y2)
    expect = RationalFunction.from_poly(
        LaurentPolynomial.variable(table, "y")
        + LaurentPolynomial.variable(table, "y", 2)
    )
    assert total.as_ratfn(table) == expect
    z = SemifieldElement.generator(univ, "z")
    one_zy = sf_add(SemifieldElement.one(univ), sf_mul(z, y))
    assert sf_eq(sf_mul(one_zy, sf_inv(one_zy)), SemifieldElement.one(univ))


def test_kind_mismatch_raises(trop, univ):
    with pytest.raises(SemifieldMismatchError, match="semifield mismatch"):
        sf_add(SemifieldElement.one(trop), SemifieldElement.one(univ))


@pytest.mark.parametrize("kind_name", ["trivial", "tropical", "universal"])
def test_semifield_laws_randomized(kind_name):
    rng = random.Random(99)
    if kind_name == "trivial":
        kind = SemifieldKind.trivial()

        def rand():
            return SemifieldElement.one(kind)

    elif kind_name == "tropical":
        kind = SemifieldKind.tropical(["u1", "u2"])

        def rand():
            return SemifieldElement.tropical(
                kind, [rng.randint(-4, 4), rng.randint(-4, 4)]
            )

    else:
        table = VariableTable(["y", "z"])
        kind = SemifieldKind.universal(table, ["y", "z"])

        def rand():
            out = LaurentPolynomial.zero(table)
            for _ in range(rng.randint(1, 3)):
                out = out + LaurentPolynomial.monomial(
                    table,
                    {"y": rng.randint(0, 2), "z": rng.randint(0, 2)},
                    rng.randint(1, 3),
                )
            den = LaurentPolynomial.monomial(table, {"y": rng.randint(0, 1)})
            return SemifieldElement.universal(kind, RationalFunction(out, den))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert sf_eq(sf_add(a, b), sf_add(b, a))
        assert sf_eq(sf_add(sf_add(a, b), c), sf_add(a, sf_add(b, c)))
        assert sf_eq(sf_mul(a, sf_add(b, c)), sf_add(sf_mul(a, b), sf_mul(a, c)))
        assert sf_eq(sf_mul(a, sf_inv(a)), SemifieldElement.one(a.kind))


def test_project_np_examples(trop, univ):
    u = SemifieldElement.tropical(trop, [1])
    doubled = GroupRingElement.from_terms(trop, [(2, u)])
    assert sf_eq(project_np(doubled), u)
    assert project_np(GroupRingElement.zero(univ)) is P0_ZERO
    y = SemifieldElement.generator(univ, "y")
    combo = GroupRingElement.from_terms(univ, [(1, y), (1, sf_pow(y, 2))])
    expect = sf_add(y, sf_pow(y, 2))
    assert sf_eq(project_np(combo), expect)


def test_project_np_rejects_signed(univ):
    y = SemifieldElement.generator(univ, "y")
    signed = GroupRingElement(univ, ((-1, y),))
    with pytest.raises(ValueError, match="not in NP"):
        project_np(signed)


def test_project_np_additive_multiplicative(trop):
    rng = random.Random(5)

    def rand_elem():
        return SemifieldElement.tropical(trop, [rng.randint(-3, 3)])

    def rand_np():
        return GroupRingElement.from_terms(
            trop, [(rng.randint(0, 3), rand_elem()) for _ in range(rng.randint(1, 3))]
        )

    for _ in range(300):
        a, b = rand_np(), rand_np()
        pa, pb = project_np(a), project_np(b)
        total = project_np(a + b)
        prod = project_np(a * b)
        if pa is P0_ZERO:
            assert (total is P0_ZERO and pb is P0_ZERO) or sf_eq(total, pb)
            assert prod is P0_ZERO
        elif pb is P0_ZERO:
            assert sf_eq(total, pa)
            assert prod is P0_ZERO
        else:
            assert sf_eq(total, sf_add(pa, pb))
            assert sf_eq(prod, sf_mul(pa, pb))


def _exchange(kind, interior):
    one = GroupRingElement.one(kind)
    return [one] + interior + [one]


def test_specialize_binomial(univ):
    y = SemifieldElement.generator(univ, "y")
    value = specialize_Z(_exchange(univ, []), y)
    assert sf_eq(value, sf_add(SemifieldElement.one(univ), y))


def test_specialize_degree_two(univ):
    # 1 + z*u + u^2 specialized at y
    z = GroupRingElement.from_terms(univ, [(1, SemifieldElement.generator(univ, "z"))])
    y = SemifieldElement.generator(univ, "y")
    value = specialize_Z(_exchange(univ, [z]), y)
    table = univ.table
    expect = RationalFunction.from_poly(
        LaurentPolynomial.one(table)
        + LaurentPolynomial.monomial(table, {"y": 1, "z": 1})
        + LaurentPolynomial.variable(table, "y", 2)
    )
    assert value.as_ratfn(table) == expect


def test_specialize_tropical_min(trop):
    one = GroupRingElement.one(trop)
    coeffs = [one, one, one]  # 1 + u + u^2
    y = SemifieldElement.tropical(trop, [1])
    value = specialize_Z(coeffs, y)
    # oracle: min over the exponent multiset {0, 1, 2}
    exponents = [0, 1, 2]
    assert value.payload == (min(exponents),)


def test_specialize_with_zero_interior_is_nonzero(univ):
    zero = GroupRingElement.zero(univ)
    y = SemifieldElement.generator(univ, "y")
    value = specialize_Z(_exchange(univ, [zero]), y)
    table = univ.table
    expect = RationalFunction.from_poly(
        LaurentPolynomial.one(table) + LaurentPolynomial.variable(table, "y", 2)
    )
    assert value.as_ratfn(table) == expect
    assert value is not P0_ZERO


def test_specialize_rejects_bad_endpoints(univ):
    y = SemifieldElement.generator(univ, "y")
    bad = [GroupRingElement.from_terms(univ, [(2, SemifieldElement.one(univ))])]
    with pytest.raises(ValueError, match="non-monic exchange polynomial"):
        specialize_Z(bad + [GroupRingElement.one(univ)], y)


def test_evaluate_poly_semifield_tropical(trop):
    table = VariableTable(["a", "b"])
    poly = (
        LaurentPolynomial.one(table)
        + LaurentPolynomial.variable(table, "a")
        + LaurentPolynomial.monomial(table, {"a": 1, "b": 1})
    )
    assign = {
        0: SemifieldElement.tropical(trop, [2]),
        1: SemifieldElement.tropical(trop, [-5]),
    }
    value = evaluate_poly_semifield(poly, assign, trop)
    assert value.payload == (min(0, 2, -3),)
    dead = evaluate_poly_semifield(
        LaurentPolynomial.variable(table, "a"), {0: P0_ZERO, 1: P0_ZERO}, trop
    )
    assert dead is P0_ZERO


def _psi_setup():
    table = VariableTable(["s11", "s12", "e11", "e12", "y", "z"])
    base = SemifieldKind.universal(table, ["y", "z"])
    ext = SemifieldKind.universal(table, ["y", "z", "s11", "s12"])
    symbols = ElementarySymbols(
        table=table,
        blocks=(
            SymbolBlock(
                s_idx=(0, 1),
                e_idx=(2, 3),
                targets=(
                    RationalFunction.variable(table, "z"),
                    RationalFunction.one(table),
                ),
            ),
        ),
    )
    return table, base, ext, symbols


def test_psi_split_specialization_factors():
    table, base, ext, symbols = _psi_setup()
    one = SemifieldElement.one(ext)
    y = SemifieldElement.generator(ext, "y")
    lhs = sf_mul(
        sf_add(one, sf_mul(SemifieldElement.generator(ext, "s11"), y)),
        sf_add(one, sf_mul(SemifieldElement.generator(ext, "s12"), y)),
    )
    image = psi(lhs, symbols, base)
    z = SemifieldElement.generator(base, "z")
    want = sf_add(
        sf_add(SemifieldElement.one(base), sf_mul(z, SemifieldElement.generator(base, "y"))),
        sf_pow(SemifieldElement.generator(base, "y"), 2),
    )
    assert sf_eq(image, want)


def test_psi_sends_full_split_monomial_to_one():
    table, base, ext, symbols = _psi_setup()
    member = SemifieldElement.universal(
        ext, RationalFunction.monomial(table, {"s11": 1, "s12": 1})
    )
    assert sf_eq(psi(member, symbols, base), SemifieldElement.one(base))


def test_psi_fixes_base_elements():
    table, base, ext, symbols = _psi_setup()
    y = SemifieldElement.generator(ext, "y")
    image = psi(y, symbols, base)
    assert sf_eq(image, SemifieldElement.generator(base, "y"))


def test_psi_rejects_asymmetric():
    table, base, ext, symbols = _psi_setup()
    with pytest.raises(PsiDomainError):
        psi(SemifieldElement.generator(ext, "s11"), symbols, base)


def test_psi_rejects_a_signed_e_form_in_factored_form():
    # s11^2 + s12^2 = e11^2 - 2*e12 leaves the cone; a factored payload
    # must be certified like an expanded one, not mapped to -2 + z^2
    table, base, ext, symbols = _psi_setup()
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    element = SemifieldElement(ext, FactoredFraction.from_poly(s11 ** 2 + s12 ** 2))
    with pytest.raises(PsiConeError):
        psi(element, symbols, base)


def test_psi_certifies_large_parts():
    # 4,032 terms: certification does not stop at a size cutoff
    table, base, ext, symbols = _psi_setup()
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    y = LaurentPolynomial.variable(table, "y")
    z = LaurentPolynomial.variable(table, "z")
    part = (s11 ** 2 + s12 ** 2) * (LaurentPolynomial.one(table) + y + z) ** 62
    assert len(part) == 4032
    block = symbols.blocks[0]
    symbols = ElementarySymbols(
        table=table,
        blocks=(
            SymbolBlock(
                s_idx=block.s_idx,
                e_idx=block.e_idx,
                targets=(RationalFunction.constant(table, 2), RationalFunction.one(table)),
            ),
        ),
    )
    element = SemifieldElement.universal(ext, RationalFunction.from_poly(part))
    with pytest.raises(PsiConeError):
        psi(element, symbols, base)


def test_psi_reciprocal_specialization():
    # inverse split variables specialize the reversed polynomial
    table = VariableTable(
        ["s21", "s22", "s23", "e21", "e22", "e23", "y", "z21", "z22"]
    )
    base = SemifieldKind.universal(table, ["y", "z21", "z22"])
    ext = SemifieldKind.universal(
        table, ["y", "z21", "z22", "s21", "s22", "s23"]
    )
    symbols = ElementarySymbols(
        table=table,
        blocks=(
            SymbolBlock(
                s_idx=(0, 1, 2),
                e_idx=(3, 4, 5),
                targets=(
                    RationalFunction.variable(table, "z21"),
                    RationalFunction.variable(table, "z22"),
                    RationalFunction.one(table),
                ),
            ),
        ),
    )
    one = SemifieldElement.one(ext)
    rng = random.Random(31)
    for _ in range(12):
        y = SemifieldElement.universal(
            ext,
            RationalFunction.monomial(
                table, {"y": rng.randint(1, 2), "z21": rng.randint(0, 1)}
            ),
        )
        prod = None
        for name in ("s21", "s22", "s23"):
            factor = sf_add(
                one,
                sf_mul(sf_inv(SemifieldElement.generator(ext, name)), y),
            )
            prod = factor if prod is None else sf_mul(prod, factor)
        image = psi(prod, symbols, base)
        # reversed coefficients: 1 + z22*u + z21*u^2 + u^3
        yb = psi(y, symbols, base)
        zz = {
            "z21": SemifieldElement.generator(base, "z21"),
            "z22": SemifieldElement.generator(base, "z22"),
        }
        want = sf_add(
            sf_add(
                SemifieldElement.one(base), sf_mul(zz["z22"], yb)
            ),
            sf_add(sf_mul(zz["z21"], sf_pow(yb, 2)), sf_pow(yb, 3)),
        )
        assert sf_eq(image, want)


def test_group_ring_render_and_eq(univ):
    y = SemifieldElement.generator(univ, "y")
    a = GroupRingElement.from_terms(univ, [(2, SemifieldElement.one(univ)), (1, y)])
    b = GroupRingElement.from_terms(univ, [(1, y), (2, SemifieldElement.one(univ))])
    assert a == b
    assert "2" in a.render()
