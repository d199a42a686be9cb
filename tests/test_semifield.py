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
    psi_hat,
    psi_hat_factored,
)
from gencluster.semifield import (
    P0_ZERO,
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    SemifieldMismatchError,
    evaluate_poly_semifield,
    iterated_oplus,
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


def test_trivial_kind_rejects_generators():
    # the trivial semifield is the tropical one on no generators; with a
    # generator it would quietly compute as tropical over it
    with pytest.raises(ValueError, match="no generators"):
        SemifieldKind("trivial", ("a",))
    assert SemifieldElement.one(SemifieldKind.trivial()).payload == ()


def test_unknown_generator_names_raise_value_error(trop, univ):
    with pytest.raises(ValueError, match="unknown generator 'v'"):
        SemifieldElement.tropical(trop, {"v": 1})
    for kind in (trop, univ, SemifieldKind.trivial()):
        with pytest.raises(ValueError, match="unknown generator 'v'"):
            SemifieldElement.generator(kind, "v")


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
    expect = FactoredFraction.from_poly(
        LaurentPolynomial.variable(table, "y")
        + LaurentPolynomial.variable(table, "y", 2)
    )
    assert total.as_factored(table) == expect
    z = SemifieldElement.generator(univ, "z")
    one_zy = sf_add(SemifieldElement.one(univ), sf_mul(z, y))
    assert sf_eq(sf_mul(one_zy, sf_inv(one_zy)), SemifieldElement.one(univ))


def test_is_one_answers_at_once_or_through_ff_eq(univ, trop, monkeypatch):
    import gencluster.semifield as semifield

    table = univ.table
    calls = []
    real = semifield.ff_eq

    def spy(a, b, *args):
        calls.append(len(a.factors))
        return real(a, b, *args)

    monkeypatch.setattr(semifield, "ff_eq", spy)
    assert GroupRingElement.one(univ).is_one() and not calls
    # (2y) * y^-1 * 2^-1 is 1, but its payload keeps three factors
    y = LaurentPolynomial.variable(table, "y")
    payload = (FactoredFraction.from_poly(y.scale(2)) * FactoredFraction.from_poly(y, -1)
               * FactoredFraction.from_poly(LaurentPolynomial.constant(table, 2), -1))
    assert len(payload.factors) == 3
    assert GroupRingElement(univ, ((1, SemifieldElement(univ, payload)),)).is_one()
    assert calls == [3]
    assert not GroupRingElement.of(SemifieldElement.generator(univ, "y")).is_one()
    assert calls == [3, 1]
    calls.clear()
    # tropical: the zero vector is one, anything else or a multiplicity 2 is not
    assert GroupRingElement.of(SemifieldElement.tropical(trop, [0])).is_one()
    assert GroupRingElement.one(SemifieldKind.trivial()).is_one()
    assert not GroupRingElement.of(SemifieldElement.tropical(trop, [1])).is_one()
    assert not GroupRingElement.of(SemifieldElement.tropical(trop, [0]), 2).is_one()
    assert not GroupRingElement.zero(trop).is_one() and not calls


def test_as_factored_scales_by_the_multiplicity(univ, trop):
    table = univ.table
    z = SemifieldElement.generator(univ, "z")
    one_y = sf_add(SemifieldElement.one(univ), SemifieldElement.generator(univ, "y"))
    value = sf_mul(z, sf_inv(one_y))
    for mult in (2, -3):
        doubled = GroupRingElement.of(value, mult).as_factored(table)
        num, den = value.as_factored(table).expand_parts()
        assert doubled == RationalFunction(num.scale(mult), den)
    u = SemifieldElement.tropical(trop, [2])
    ab = VariableTable(["u"])
    assert GroupRingElement.of(u, 2).as_factored(ab) == FactoredFraction.from_poly(
        LaurentPolynomial.monomial(ab, {"u": 2}, 2)
    )


def test_as_factored_of_a_sum_that_cancels_is_zero(univ):
    # y + z - (y + z): three terms over the common denominator 1, summing to 0
    table = univ.table
    y = SemifieldElement.generator(univ, "y")
    z = SemifieldElement.generator(univ, "z")
    ring = GroupRingElement.from_terms(univ, [(1, y), (1, z), (-1, sf_add(y, z))])
    assert len(ring.terms) == 3
    # the factored zero is None
    assert ring.as_factored(table) is None
    # over a shared factored denominator: y/(1 + z) + z/(1 + z) - (y + z)/(1 + z)
    inv = sf_inv(sf_add(SemifieldElement.one(univ), z))
    terms = [(1, sf_mul(y, inv)), (1, sf_mul(z, inv)), (-1, sf_mul(sf_add(y, z), inv))]
    assert GroupRingElement.from_terms(univ, terms).as_factored(table) is None


def test_universal_payload_is_always_factored(univ):
    table = univ.table
    y = SemifieldElement.generator(univ, "y")
    z = SemifieldElement.generator(univ, "z")
    yp, zp = LaurentPolynomial.variable(table, "y"), LaurentPolynomial.variable(table, "z")
    ring = GroupRingElement.from_terms(univ, [(2, y), (1, z)])
    unit = GroupRingElement.one(univ)
    ab = VariableTable(["a", "b"])
    poly = LaurentPolynomial.one(ab) + LaurentPolynomial.monomial(ab, {"a": 2, "b": -1}, 3)
    made = {
        "one": SemifieldElement.one(univ),
        "generator": y,
        "universal": SemifieldElement.universal(
            univ, FactoredFraction.from_poly(yp + zp) / FactoredFraction.from_poly(yp)
        ),
        "sf_add": sf_add(y, z),
        "sf_mul": sf_mul(y, z),
        "sf_inv": sf_inv(y),
        "sf_pow": sf_pow(sf_add(y, z), -2),
        "iterated_oplus": iterated_oplus(3, y),
        "project_np": project_np(ring),
        "specialize_Z": specialize_Z([unit, ring, unit], y),
        "evaluate_poly_semifield": evaluate_poly_semifield(poly, {0: y, 1: z}, univ),
    }
    for name, value in made.items():
        assert isinstance(value.payload, FactoredFraction), name
        assert value.as_factored(table) is value.payload, name


@pytest.mark.parametrize("case, error, match", [
    ("zero", ValueError, "zero is not a semifield element"),
    ("other table", SemifieldMismatchError, "semifield mismatch"),
    ("signed", ValueError, "subtraction-free"),
    ("signed denominator", ValueError, "subtraction-free"),
    ("non-generator", ValueError, "non-generator variable"),
])
def test_universal_rejects_values_outside_the_semifield(case, error, match):
    table = VariableTable(["x", "y"])
    kind = SemifieldKind.universal(table, ["y"])
    one, x, y = (LaurentPolynomial.one(table), LaurentPolynomial.variable(table, "x"),
                 LaurentPolynomial.variable(table, "y"))
    value = {
        "zero": None,
        "other table": FactoredFraction.variable(VariableTable(["x", "y"]), "y"),
        "signed": FactoredFraction.from_poly(one - y),
        "signed denominator": FactoredFraction.from_poly(one + y)
        / FactoredFraction.from_poly(y - one),
        "non-generator": FactoredFraction.from_poly(one + y) / FactoredFraction.from_poly(x),
    }[case]
    with pytest.raises(error, match=match):
        SemifieldElement.universal(kind, value)


def test_universal_judges_the_normalized_expansion():
    # (-1 - y) * (-1)^-1 has signed factors but is 1 + y: accepted, kept as given
    table = VariableTable(["y"])
    kind = SemifieldKind.universal(table, ["y"])
    one, y = LaurentPolynomial.one(table), LaurentPolynomial.variable(table, "y")
    value = FactoredFraction.from_poly(-one - y) * FactoredFraction.from_poly(-one, -1)
    element = SemifieldElement.universal(kind, value)
    assert element.payload is value
    one_y = sf_add(SemifieldElement.one(kind), SemifieldElement.generator(kind, "y"))
    assert sf_eq(element, one_y)


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
            return SemifieldElement.universal(
                kind, FactoredFraction.from_poly(out) / FactoredFraction.from_poly(den)
            )

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
    expect = FactoredFraction.from_poly(
        LaurentPolynomial.one(table)
        + LaurentPolynomial.monomial(table, {"y": 1, "z": 1})
        + LaurentPolynomial.variable(table, "y", 2)
    )
    assert value.as_factored(table) == expect


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
    expect = FactoredFraction.from_poly(
        LaurentPolynomial.one(table) + LaurentPolynomial.variable(table, "y", 2)
    )
    assert value.as_factored(table) == expect
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


def _term_by_term(poly, assign, kind):
    """evaluate_poly_semifield's sum, one semifield addition per term."""
    acc = None
    for powers, c in poly.sparse_terms():
        if any(assign[i] is P0_ZERO for i, _ in powers):
            continue
        value = SemifieldElement.one(kind)
        for i, e in powers:
            value = sf_mul(value, sf_pow(assign[i], e))
        value = iterated_oplus(c, value)
        acc = value if acc is None else sf_add(acc, value)
    return P0_ZERO if acc is None else acc


def test_evaluate_poly_semifield_universal_matches_term_by_term(univ):
    table = VariableTable(["a", "b", "c"])
    one = SemifieldElement.one(univ)
    y = SemifieldElement.generator(univ, "y")
    z = SemifieldElement.generator(univ, "z")
    values = [y, z, sf_add(y, z), sf_mul(y, sf_inv(sf_add(one, z))), P0_ZERO]
    rng = random.Random(5)
    for _ in range(40):
        poly = LaurentPolynomial.zero(table)
        for _ in range(rng.randint(1, 5)):
            mono = {v: rng.randint(-2, 3) for v in ("a", "b", "c")}
            poly = poly + LaurentPolynomial.monomial(table, mono, rng.randint(1, 3))
        assign = {i: rng.choice(values) for i in range(3)}
        if any(
            assign[i] is P0_ZERO and e < 0
            for powers, _ in poly.sparse_terms()
            for i, e in powers
        ):
            continue
        got = evaluate_poly_semifield(poly, assign, univ)
        want = _term_by_term(poly, assign, univ)
        if want is P0_ZERO:
            assert got is P0_ZERO
        else:
            assert sf_eq(got, want)
    a, c = LaurentPolynomial.variable(table, "a"), LaurentPolynomial.variable(table, "c")
    unit = LaurentPolynomial.one(table)
    assign = {0: values[3], 1: y, 2: P0_ZERO}
    # the zero marker drops the terms it divides
    got = evaluate_poly_semifield(unit + a.scale(2) + a * c + c * c, assign, univ)
    assert sf_eq(got, sf_add(one, iterated_oplus(2, values[3])))
    # a sum whose every term dies is the zero marker
    assert evaluate_poly_semifield(a * c + (c * c).scale(3), assign, univ) is P0_ZERO
    with pytest.raises(ZeroDivisionError):
        evaluate_poly_semifield(unit + LaurentPolynomial.monomial(table, {"a": 1, "c": -1}), assign, univ)
    with pytest.raises(ValueError, match="not in NP"):
        evaluate_poly_semifield(unit - a, assign, univ)


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
                    FactoredFraction.variable(table, "z"),
                    FactoredFraction.one(table),
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
    assert isinstance(image.payload, FactoredFraction)
    z = SemifieldElement.generator(base, "z")
    want = sf_add(
        sf_add(SemifieldElement.one(base), sf_mul(z, SemifieldElement.generator(base, "y"))),
        sf_pow(SemifieldElement.generator(base, "y"), 2),
    )
    assert sf_eq(image, want)


def test_psi_sends_full_split_monomial_to_one():
    table, base, ext, symbols = _psi_setup()
    member = SemifieldElement.universal(
        ext, FactoredFraction.from_poly(LaurentPolynomial.monomial(table, {"s11": 1, "s12": 1}))
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
                targets=(
                    FactoredFraction.from_poly(LaurentPolynomial.constant(table, 2)),
                    FactoredFraction.one(table),
                ),
            ),
        ),
    )
    element = SemifieldElement.universal(ext, FactoredFraction.from_poly(part))
    with pytest.raises(PsiConeError):
        psi(element, symbols, base)


def test_cached_signed_orbit_is_still_certified():
    # the unchecked call caches the signed e-form e11^2 - 2*e12; the cache
    # must not let a certifying call skip the cone check
    table, base, ext, symbols = _psi_setup()
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    ff = FactoredFraction.from_poly(s11 ** 2 + s12 ** 2)
    z = LaurentPolynomial.variable(table, "z")
    assert psi_hat_factored(ff, symbols) == FactoredFraction.from_poly(
        z * z - LaurentPolynomial.constant(table, 2)
    )
    assert symbols.orbits
    with pytest.raises(PsiConeError):
        psi_hat_factored(ff, symbols, require_nonneg=True)
    with pytest.raises(PsiConeError):
        psi(SemifieldElement(ext, ff), symbols, base)


def test_orbit_cache_misses_after_the_table_widens():
    table, base, ext, symbols = _psi_setup()
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y")
    z = LaurentPolynomial.variable(table, "z")
    split = [LaurentPolynomial.variable(table, s) for s in ("s11", "s12")]
    members = [one + s * y + s * s * z for s in split]

    def fraction():
        return FactoredFraction.from_poly(members[0]) * FactoredFraction.from_poly(members[1])

    ff = fraction()
    want = FactoredFraction.from_ratfn(psi_hat(ff.expand(), symbols))
    assert psi_hat_factored(ff, symbols) == want
    old = table.layout
    assert {lay for lay, _ in symbols.orbits} == {old}
    table.widen()
    # the old fraction's keys are stale; a rebuilt one is keyed anew, and
    # neither may be served an entry stored under the old layout
    for again in (ff, fraction()):
        assert psi_hat_factored(again, symbols) == FactoredFraction.from_ratfn(
            psi_hat(again.expand(), symbols)
        )
    assert {lay for lay, _ in symbols.orbits} == {old, table.layout}


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
                    FactoredFraction.variable(table, "z21"),
                    FactoredFraction.variable(table, "z22"),
                    FactoredFraction.one(table),
                ),
            ),
        ),
    )
    one = SemifieldElement.one(ext)
    rng = random.Random(31)
    for _ in range(12):
        y = SemifieldElement.universal(
            ext,
            FactoredFraction.from_poly(LaurentPolynomial.monomial(
                table, {"y": rng.randint(1, 2), "z21": rng.randint(0, 1)}
            )),
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
