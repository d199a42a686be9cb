"""The packed-monomial kernel against independent references.

Every operation is compared with a naive loop over exponent tuples written
here, and products and divisibility also with sympy when it is installed.
Exponents at and beyond the field bound of a new table check that an
overflowing key is detected and re-encoded wider, never silently wrong.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from gencluster import polyring
from gencluster.polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    RationalFunction,
    SymbolBlock,
    VariableTable,
    elementary_reduce,
    psi_hat,
    psi_hat_factored,
    split_terms,
    swap_variables,
)


def rand_terms(rng, width, count, lo=-3, hi=4):
    out = {}
    for _ in range(count):
        key = tuple(rng.randint(lo, hi) for _ in range(width))
        out[key] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return out


def naive_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def naive_render(terms, names):
    """The text form, built from a tuple-keyed dict."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), tuple(-v for v in e))):
        c = terms[exps]
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exps) if e
        ]
        mono = "*".join(factors)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def table_of(width):
    return VariableTable([f"v{i}" for i in range(width)])


# -- products -----------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 6])
def test_mul_matches_naive_loop(width):
    rng = random.Random(width)
    table = table_of(width)
    for trial in range(60):
        a = rand_terms(rng, width, rng.randint(0, 12))
        b = rand_terms(rng, width, rng.randint(0, 12))
        p = LaurentPolynomial(table, a) * LaurentPolynomial(table, b)
        assert dict(p.terms) == naive_mul(a, b)


def test_large_product_takes_the_same_loop():
    rng = random.Random(7)
    table = table_of(3)
    a = rand_terms(rng, 3, 150, -6, 6)
    b = rand_terms(rng, 3, 140, -6, 6)
    p = LaurentPolynomial(table, a) * LaurentPolynomial(table, b)
    assert dict(p.terms) == naive_mul(a, b)


def test_monomial_shift_matches_naive():
    rng = random.Random(11)
    table = table_of(4)
    for _ in range(50):
        a = rand_terms(rng, 4, rng.randint(1, 15))
        mono = tuple(rng.randint(-5, 5) for _ in range(4))
        c = rng.choice((1, -2, 3))
        p = LaurentPolynomial(table, a)
        expected = naive_mul(a, {mono: c})
        assert dict((p * LaurentPolynomial(table, {mono: c})).terms) == expected
        assert dict((LaurentPolynomial(table, {mono: c}) * p).terms) == expected
        assert dict(p.shift(mono).terms) == naive_mul(a, {mono: 1})


def test_pow_matches_repeated_naive_products():
    rng = random.Random(5)
    table = table_of(2)
    a = rand_terms(rng, 2, 4)
    p = LaurentPolynomial(table, a)
    expected = {(0, 0): 1}
    for k in range(5):
        assert dict((p ** k).terms) == expected
        expected = naive_mul(expected, a)


# -- exact division -------------------------------------------------------------


def test_exact_div_round_trip():
    rng = random.Random(3)
    for width in (1, 2, 4):
        table = table_of(width)
        for _ in range(40):
            a = LaurentPolynomial(table, rand_terms(rng, width, rng.randint(1, 8)))
            b = LaurentPolynomial(table, rand_terms(rng, width, rng.randint(1, 5)))
            assert (a * b).exact_div(b) == a


def test_exact_div_failure():
    table = table_of(2)
    one = LaurentPolynomial.one(table)
    x = LaurentPolynomial.variable(table, "v0")
    y = LaurentPolynomial.variable(table, "v1")
    assert (x * x + one).exact_div(x + one) is None
    assert (x * y + one).exact_div(x + y) is None
    assert x.scale(3).exact_div(x.scale(2)) is None
    rng = random.Random(9)
    for _ in range(40):
        a = LaurentPolynomial(table, rand_terms(rng, 2, rng.randint(1, 6)))
        b = LaurentPolynomial(table, rand_terms(rng, 2, rng.randint(2, 4)))
        bumped = a * b + LaurentPolynomial.monomial(table, {"v0": 9, "v1": -9})
        q = bumped.exact_div(b)
        assert q is None or q * b == bumped


def test_inexact_division_inside_the_fields_fails_without_widening():
    # The heap's would-be quotient 1 + 2*v5 + 4*v5^2 + ... leaves its field
    # at v5^(2^14). An exact quotient would lie in [0, 12]^4 x [0, 11], so
    # the division fails there; widening would let the series run on, with
    # ever longer coefficients, until memory runs out.
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        sys.path.insert(0, sys.argv[1])
        from gencluster.polyring import LaurentPolynomial, VariableTable
        table = VariableTable([f"v{i}" for i in range(1, 6)])
        bits = table.layout.bits
        one = LaurentPolynomial.one(table)
        a = one + LaurentPolynomial.monomial(table, {f"v{i}": 12 for i in range(1, 6)})
        b = one - LaurentPolynomial.variable(table, "v5").scale(2)
        print(a.exact_div(b) is None, table.layout.bits == bits)
    """)
    src = os.path.dirname(os.path.dirname(polyring.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["True", "True"]


# -- field bounds -----------------------------------------------------------------


def test_exponents_at_the_bound_fit_without_widening():
    table = table_of(3)
    bias = table.layout.bias
    bits = table.layout.bits
    terms = {(bias - 1, -bias, 0): 2, (-bias, bias - 1, 1): -1, (0, 0, 0): 5}
    p = LaurentPolynomial(table, terms)
    assert dict(p.terms) == terms
    assert p.lead_key() == max(terms)
    assert table.layout.bits == bits


@pytest.mark.parametrize("sign", [1, -1])
def test_product_crossing_the_bound_widens(sign):
    table = table_of(3)
    bias = table.layout.bias
    bits = table.layout.bits
    top = bias - 1 if sign > 0 else -bias
    a = {(top, 1, 0): 1, (0, top, 2): -3, (1, 1, 1): 1}
    b = {(sign, sign, 0): 2, (0, 0, 0): 1, (sign, 0, -1): 4}
    pa = LaurentPolynomial(table, a)
    pb = LaurentPolynomial(table, b)
    assert table.layout.bits == bits
    prod = pa * pb
    assert table.layout.bits > bits
    assert dict(prod.terms) == naive_mul(a, b)
    # values encoded before the widening still combine and compare exactly
    assert prod.exact_div(pb) == pa
    assert pa * pb == prod
    assert pa.lead_key() == max(a)


def test_constructor_and_shift_beyond_the_bound():
    table = table_of(2)
    big = 10 ** 6
    p = LaurentPolynomial(table, {(big, -big): 1, (0, 1): 2})
    assert dict(p.terms) == {(big, -big): 1, (0, 1): 2}
    q = LaurentPolynomial(table_of(2), {(1, 2): 1, (0, 0): 1})
    shifted = q.shift((big, -3 * big))
    assert dict(shifted.terms) == {(big + 1, 2 - 3 * big): 1, (big, -3 * big): 1}
    x = LaurentPolynomial.variable(q.table, "v0")
    assert dict((x ** -big).terms) == {(-big, 0): 1}


def test_exact_div_crossing_the_bound():
    table = table_of(2)
    bias = table.layout.bias
    a = LaurentPolynomial(table, {(bias - 2, 0): 1, (0, 1): 1})
    b = LaurentPolynomial(table, {(3, 0): 1, (0, 0): 1})
    prod = a * b
    assert prod.exact_div(b) == a
    assert dict(prod.terms) == naive_mul(dict(a.terms), dict(b.terms))


def test_substitution_and_transplant_beyond_the_bound():
    table = table_of(3)
    bias = table.layout.bias
    p = LaurentPolynomial(table, {(3, 1, 0): 1, (-2, 0, 1): 5, (0, 0, 0): -1})
    image = p.substitute_monomials({0: (0, bias, -1)})
    expected = {(0, 3 * bias + 1, -3): 1, (0, -2 * bias, 3): 5, (0, 0, 0): -1}
    assert dict(image.terms) == expected
    target = VariableTable(["w", "v2", "v1", "v0"])
    moved = image.transplant(target)
    assert dict(moved.terms) == {
        (0, -3, 3 * bias + 1, 0): 1,
        (0, 3, -2 * bias, 0): 5,
        (0, 0, 0, 0): -1,
    }


def _split_setup():
    table = VariableTable(["x", "s11", "s12", "e11", "e12", "y", "z"])
    symbols = ElementarySymbols(
        table=table,
        blocks=(
            SymbolBlock(
                s_idx=(1, 2),
                e_idx=(3, 4),
                targets=(FactoredFraction.variable(table, "z"), FactoredFraction.one(table)),
            ),
        ),
    )
    return table, symbols


def _elimination_results(table, power):
    one = LaurentPolynomial.one(table)
    y = LaurentPolynomial.variable(table, "y", power)
    s11 = LaurentPolynomial.variable(table, "s11")
    s12 = LaurentPolynomial.variable(table, "s12")
    product = (one + s11 * y) * (one + s12 * y)
    ff = FactoredFraction.from_poly(one + s11 * y) * FactoredFraction.from_poly(
        one + s12 * y
    ) * FactoredFraction.from_poly(s11 * s12 + one, -1)
    return product, ff


def test_elimination_survives_a_widening():
    """Values built before the table widens eliminate exactly as on a fresh table."""
    table, symbols = _split_setup()
    product, ff = _elimination_results(table, 3)
    bits = table.layout.bits
    LaurentPolynomial.variable(table, "x", 10 ** 5)
    assert table.layout.bits > bits
    fresh_table, fresh_symbols = _split_setup()
    fresh_product, fresh_ff = _elimination_results(fresh_table, 3)
    blocks = [((1, 2), (3, 4))]
    assert dict(elementary_reduce(product, blocks).terms) == dict(
        elementary_reduce(fresh_product, blocks).terms
    )
    image = psi_hat(RationalFunction.from_poly(product), symbols)
    fresh = psi_hat(RationalFunction.from_poly(fresh_product), fresh_symbols)
    assert dict(image.num.terms) == dict(fresh.num.terms)
    assert dict(image.den.terms) == dict(fresh.den.terms)
    assert psi_hat_factored(ff, symbols).expand().render() == (
        psi_hat_factored(fresh_ff, fresh_symbols).expand().render()
    )


def test_elimination_beyond_the_bound():
    table, symbols = _split_setup()
    big = table.layout.bias + 5
    product, _ = _elimination_results(table, big)
    image = psi_hat(RationalFunction.from_poly(product), symbols)
    assert image.den.is_one()
    assert dict(image.num.terms) == {
        (0, 0, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 0, big, 1): 1,
        (0, 0, 0, 0, 0, 2 * big, 0): 1,
    }


# -- order, rendering and views -------------------------------------------------------


def test_lead_key_is_the_lexicographic_maximum():
    rng = random.Random(17)
    for width in (1, 3, 5):
        table = table_of(width)
        for _ in range(50):
            terms = rand_terms(rng, width, rng.randint(1, 10), -40, 40)
            p = LaurentPolynomial(table, terms)
            assert p.lead_key() == max(terms)
            assert p.lead_coeff() == terms[max(terms)]


def test_render_is_byte_identical_to_the_tuple_form():
    rng = random.Random(23)
    table = VariableTable(["x1", "x2", "y11", "z"])
    for _ in range(80):
        terms = rand_terms(rng, 4, rng.randint(0, 9), -3, 3)
        p = LaurentPolynomial(table, terms)
        assert p.render() == naive_render(terms, table.names)


def test_terms_view_is_a_tuple_keyed_mapping():
    rng = random.Random(29)
    table = table_of(3)
    terms = rand_terms(rng, 3, 12)
    p = LaurentPolynomial(table, terms)
    view = p.terms
    assert len(view) == len(terms)
    assert view == terms and terms == view
    assert set(view) == set(terms)
    assert set(view.keys()) == set(terms)
    assert sorted(view.values()) == sorted(terms.values())
    key = next(iter(terms))
    assert key in view and view[key] == terms[key]
    with pytest.raises(KeyError):
        view[(10 ** 9, 0, 0)]
    assert LaurentPolynomial(table, view) == p


def test_swap_content_support_and_split_match_naive():
    rng = random.Random(31)
    table = table_of(4)
    for _ in range(40):
        terms = rand_terms(rng, 4, rng.randint(1, 10))
        p = LaurentPolynomial(table, terms)
        i, j = rng.sample(range(4), 2)
        swapped = {}
        for exps, c in terms.items():
            lst = list(exps)
            lst[i], lst[j] = lst[j], lst[i]
            swapped[tuple(lst)] = c
        assert dict(swap_variables(p, i, j).terms) == swapped
        assert p.monomial_content() == tuple(min(col) for col in zip(*terms))
        assert p.support_vars() == {v for exps in terms for v, e in enumerate(exps) if e}
        groups = {}
        for exps, c in terms.items():
            key = (exps[2], exps[0])
            rest = (0, exps[1], 0, exps[3])
            groups.setdefault(key, {})[rest] = c
        split = split_terms(p, [2, 0])
        assert {k: dict(v.terms) for k, v in split.items()} == groups


def test_substitute_monomials_matches_naive():
    rng = random.Random(37)
    table = table_of(3)
    for _ in range(40):
        terms = rand_terms(rng, 3, rng.randint(1, 10))
        target = tuple(rng.randint(-2, 2) for _ in range(3))
        out = {}
        for exps, c in terms.items():
            e = exps[1]
            new = [exps[0], 0, exps[2]]
            for t in range(3):
                new[t] += e * target[t]
            out[tuple(new)] = out.get(tuple(new), 0) + c
        out = {k: v for k, v in out.items() if v}
        image = LaurentPolynomial(table, terms).substitute_monomials({1: target})
        assert dict(image.terms) == out


# -- sympy as an independent oracle ---------------------------------------------------


def _to_sympy(sympy, terms, gens):
    """sympy Poly of terms / monomial content, and that content."""
    content = tuple(min(col) for col in zip(*terms))
    shifted = {tuple(e - m for e, m in zip(exps, content)): c for exps, c in terms.items()}
    return sympy.Poly.from_dict(shifted, *gens), content


def test_mul_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("a b c")
    table = table_of(3)
    rng = random.Random(41)
    for _ in range(30):
        a = rand_terms(rng, 3, rng.randint(1, 10))
        b = rand_terms(rng, 3, rng.randint(1, 10))
        pa, ca = _to_sympy(sympy, a, gens)
        pb, cb = _to_sympy(sympy, b, gens)
        expected = {
            tuple(e + x + y for e, x, y in zip(exps, ca, cb)): int(c)
            for exps, c in (pa * pb).as_dict().items()
        }
        got = LaurentPolynomial(table, a) * LaurentPolynomial(table, b)
        assert dict(got.terms) == expected


def test_exact_div_agrees_with_sympy_divisibility():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("a b")
    table = table_of(2)
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for trial in range(60):
        b = rand_terms(rng, 2, rng.randint(2, 4), -2, 2)
        a = naive_mul(rand_terms(rng, 2, rng.randint(1, 4), -2, 2), b)
        if trial % 2:
            a[(1, -1)] = a.get((1, -1), 0) + 1
            a = {k: v for k, v in a.items() if v}
        if not a:
            continue
        pa, _ = _to_sympy(sympy, a, gens)
        pb, _ = _to_sympy(sympy, b, gens)
        divisible = pa.div(pb, auto=False)[1].is_zero
        q = LaurentPolynomial(table, a).exact_div(LaurentPolynomial(table, b))
        assert (q is not None) == divisible
        if q is not None:
            assert dict((q * LaurentPolynomial(table, b)).terms) == a
        seen[divisible] += 1
    assert seen[True] and seen[False]
