import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import gencluster
from gencluster.composite import block_offsets, enlarge, read_block_matrix
from gencluster.cases import case_realization
from gencluster.pattern import (
    ExchangeMatrix,
    ExchangePolynomial,
    GeneralizedSeed,
    NotSkewSymmetrizableError,
    mutate_B,
    mutate_seed,
    reduced_words,
    validate_seed,
    walk,
    walk_y,
)
from gencluster.polyring import (
    FactoredFraction,
    LaurentPolynomial,
    RationalFunction,
    VariableTable,
    ff_eq,
)
from gencluster.semifield import (
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    sf_eq,
    sf_mul,
    sf_pow,
)
from gencluster.verify import random_generalized_seed


def test_validate_case1_passes():
    rz = case_realization(1)
    validate_seed(rz.g_seed)


def test_validate_rejects_symmetric_matrix():
    with pytest.raises(NotSkewSymmetrizableError, match="not skew-symmetrizable"):
        ExchangeMatrix.from_rows([[0, 1], [1, 0]]).symmetrizer()


def test_symmetrizer_for_case2_matrix():
    B = ExchangeMatrix.from_rows([[0, 1], [-2, 0]])
    assert B.symmetrizer() == (2, 1)
    given = ExchangeMatrix.from_rows([[0, 1], [-2, 0]], [2, 1])
    for d in (B.symmetrizer(), given.symmetrizer()):
        assert all(type(v) is int for v in d)


def test_symmetrizer_of_a_chain_is_the_smallest_integer_one():
    d = ExchangeMatrix.from_rows([[0, 1, 0], [-2, 0, 1], [0, -3, 0]]).symmetrizer()
    assert d == (6, 3, 1)
    assert all(type(v) is int for v in d)


def test_from_rows_rejects_a_rational_symmetrizer():
    # diag(1/2, 1) would make D*B skew-symmetric here
    with pytest.raises(ValueError, match="positive integers"):
        ExchangeMatrix.from_rows([[0, 2], [-1, 0]], [Fraction(1, 2), 1])


def test_mutate_B_rank2_negates():
    B = ExchangeMatrix.from_rows([[0, -1], [1, 0]])
    for k in (1, 2):
        assert mutate_B(B, (2, 1), k).rows == ((0, 1), (-1, 0))


def test_mutate_B_degree_weighted_entries():
    B = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    out = mutate_B(B, (1, 2, 1), 2)
    assert out.rows[0][2] == 2
    assert out.rows[2][0] == -2
    assert out.rows[0][1] == -1 and out.rows[1][0] == 1


def test_mutate_B_matches_enlargement_oracle():
    # oracle: enlarge, run the block of ordinary mutations, read back blocks
    rng = random.Random(12)
    from gencluster.verify import random_instance

    for _ in range(50):
        B, r = random_instance(rng)
        k = rng.randint(1, B.n)
        direct = mutate_B(B, r, k)
        big = enlarge(B, r)
        offs = block_offsets(r)
        size = sum(r)
        for l in range(r[k - 1]):
            big = mutate_B(big, (1,) * size, offs[k - 1] + l + 1)
        assert read_block_matrix(big, r).rows == direct.rows


def test_mutate_B_involution():
    rng = random.Random(4)
    from gencluster.verify import random_instance

    for _ in range(50):
        B, r = random_instance(rng)
        k = rng.randint(1, B.n)
        assert mutate_B(mutate_B(B, r, k), r, k).rows == B.rows


def fz_mutation(rows, r, k0):
    """Entrywise matrix mutation in the sign form of Fomin-Zelevinsky:
    b'_ij = -b_ij if i = k or j = k, else b_ij + sgn(b_ik) r_k [b_ik b_kj]+."""

    def entry(i, j, v):
        if k0 in (i, j):
            return -v
        b = rows[i][k0]
        return v + ((b > 0) - (b < 0)) * r[k0] * max(b * rows[k0][j], 0)

    return tuple(tuple(entry(i, j, v) for j, v in enumerate(row)) for i, row in enumerate(rows))


def test_mutate_B_extended_matrix_mutates_the_lower_rows():
    rng = random.Random(7)
    from gencluster.verify import random_instance

    for _ in range(50):
        B, r = random_instance(rng)
        n = B.n
        C = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        k = rng.randint(1, n)
        k0, rk = k - 1, r[k - 1]
        BC = ExchangeMatrix(B.rows + tuple(map(tuple, C)))
        out = mutate_B(BC, r, k).rows
        assert out[:n] == mutate_B(B, r, k).rows == fz_mutation(B.rows, r, k0)
        # the enlarged matrix repeats each row of a block; every one mutates
        big = enlarge(B, r)
        flat = block_offsets(r)[k0] + rng.randrange(rk)
        ones = (1,) * sum(r)
        assert mutate_B(big, ones, flat + 1).rows == fz_mutation(big.rows, ones, flat)
        b = B.rows
        for i, row in enumerate(C):
            want = tuple(
                -row[k0] if j == k0
                else row[j] + rk * (row[k0] * max(b[k0][j], 0) + max(-row[k0], 0) * b[k0][j])
                for j in range(n)
            )
            assert out[n + i] == want
        with pytest.raises(IndexError):
            mutate_B(BC, r, n + 1)


def test_case1_first_mutation_values():
    rz = case_realization(1)
    table = rz.table
    out = mutate_seed(rz.g_seed, 1)

    def mono(powers, coeff=1):
        return LaurentPolynomial.monomial(table, powers, coeff)

    # reconstructed independently from the invariant data at the first vertex:
    # exponent column (-1, 0), numerator 1 + z*y1*x2 + y1^2*x2^2 over 1 + z*y1 + y1^2
    num = mono({}) + mono({"z11": 1, "y1": 1, "x2": 1}) + mono({"y1": 2, "x2": 2})
    den = mono({"x1": 1}) * (mono({}) + mono({"z11": 1, "y1": 1}) + mono({"y1": 2}))
    assert out.x[0] == RationalFunction(num, den)
    assert out.x[1] == rz.g_seed.x[1]

    y1, y2 = rz.g_seed.y
    spec = rz.g_seed.Z[0].specialize(y1)
    assert sf_eq(out.y[0], sf_pow(y1, -1))
    assert sf_eq(out.y[1], sf_mul(y2, spec))
    assert out.Z[0] == rz.g_seed.Z[0].reciprocal()
    assert out.B.rows == ((0, 1), (-1, 0))


@pytest.mark.parametrize("case", [1, 2])
def test_mutation_involution_on_cases(case):
    rz = case_realization(case)
    for k in (1, 2):
        back = mutate_seed(mutate_seed(rz.g_seed, k), k)
        assert back.B.rows == rz.g_seed.B.rows
        assert all(a == b for a, b in zip(back.x, rz.g_seed.x))
        assert all(sf_eq(a, b) for a, b in zip(back.y, rz.g_seed.y))
        assert all(a == b for a, b in zip(back.Z, rz.g_seed.Z))


def test_degree_one_matches_ordinary_exchange():
    # inline degree-one oracle: x_k' = (prod_+ + prod_-) / x_k with split coefficients
    table = VariableTable(["x1", "x2", "y1", "y2"])
    kind = SemifieldKind.universal(table, ["y1", "y2"])
    binom = ExchangePolynomial.binomial(kind)
    seed = GeneralizedSeed(
        table=table,
        n=2,
        r=(1, 1),
        x=(FactoredFraction.variable(table, "x1"), FactoredFraction.variable(table, "x2")),
        y=(SemifieldElement.generator(kind, "y1"), SemifieldElement.generator(kind, "y2")),
        Z=(binom, binom),
        B=ExchangeMatrix.from_rows([[0, 1], [-1, 0]]),
    )
    out = mutate_seed(seed, 1)

    def mono(powers, coeff=1):
        return LaurentPolynomial.monomial(table, powers, coeff)

    expected = RationalFunction(
        mono({"x2": 1}) + mono({"y1": 1}),
        mono({"x1": 1}) * (mono({}) + mono({"y1": 1})),
    )
    assert out.x[0] == expected
    spec = seed.Z[0].specialize(seed.y[0])
    want_y2 = sf_mul(sf_mul(seed.y[1], seed.y[0]), sf_pow(spec, -1))
    assert sf_eq(out.y[1], want_y2)


def non_laurent_seed():
    """Rank 2, r = (2, 3), with exchange coefficients that are not Laurent.

    Z1 = 1 + 2 z11/(1 + y1) u + u^2 and
    Z2 = 1 + ((z21 + z22)/(1 + z22) + y2) u + z22^2/(1 + z21 y1) u^2 + u^3.
    """
    table = VariableTable(["x1", "x2", "y1", "y2", "z11", "z21", "z22"])
    kind = SemifieldKind.universal(table, ["y1", "y2", "z11", "z21", "z22"])

    def v(name, power=1):
        return LaurentPolynomial.variable(table, name, power)

    one = LaurentPolynomial.one(table)

    def c(*terms):
        def value(num, den):
            fraction = FactoredFraction.from_poly(num) / FactoredFraction.from_poly(den)
            return SemifieldElement.universal(kind, fraction)

        return GroupRingElement.from_terms(kind, [(m, value(num, den)) for m, num, den in terms])

    unit = GroupRingElement.one(kind)
    Z1 = ExchangePolynomial((unit, c((2, v("z11"), one + v("y1"))), unit))
    Z2 = ExchangePolynomial((
        unit,
        c((1, v("z21") + v("z22"), one + v("z22")), (1, v("y2"), one)),
        c((1, v("z22", 2), one + v("z21") * v("y1"))),
        unit,
    ))
    return GeneralizedSeed(
        table=table,
        n=2,
        r=(2, 3),
        x=(FactoredFraction.variable(table, "x1"), FactoredFraction.variable(table, "x2")),
        y=(SemifieldElement.generator(kind, "y1"), SemifieldElement.generator(kind, "y2")),
        Z=(Z1, Z2),
        B=ExchangeMatrix.from_rows([[0, 1], [-2, 0]], [2, 1]),
    )


def _exchange_reference(seed, k0):
    # x_k' = x_k^-1 prod_j x_j^(r_k [-b_jk]+) sum_l c_l yhat^l / Z_k|P(y_k),
    # with yhat = y_k prod_j x_j^(b_jk), each fraction a (numerator,
    # denominator) pair of polynomials, multiplied and summed by hand
    table = seed.table
    one = LaurentPolynomial.one(table)

    def pair(f):
        return f.as_factored(table).expand_parts()

    def times(f, g, k=1):
        # f * g^k
        gn, gd = g if k >= 0 else g[::-1]
        return f[0] * gn ** abs(k), f[1] * gd ** abs(k)

    rk = seed.r[k0]
    hat = pair(seed.y[k0])
    mult = (one, one)
    for j, row in enumerate(seed.B.rows):
        xj = seed.x[j].expand_parts()
        hat = times(hat, xj, row[k0])
        mult = times(mult, xj, rk * max(-row[k0], 0))
    total = (LaurentPolynomial.zero(table), one)
    for l, c in enumerate(seed.Z[k0].coeffs):
        if not c.is_zero():
            cn, cd = times(pair(c), hat, l)
            total = (total[0] * cd + cn * total[1], total[1] * cd)
    spec = pair(seed.Z[k0].specialize(seed.y[k0]))
    total = times(times(times(total, mult), seed.x[k0].expand_parts(), -1), spec, -1)
    return RationalFunction(*total)


def test_non_laurent_coefficients_one_step_matches_the_exchange_sum():
    seed = non_laurent_seed()
    validate_seed(seed)
    for k in (1, 2):
        got = mutate_seed(seed, k).x[k - 1]
        assert ff_eq(got, FactoredFraction.from_ratfn(_exchange_reference(seed, k - 1)))


def test_shared_coefficient_denominator_enters_once():
    # Z1 = 1 + z11/d u + z12/d u^2 + u^3 with d = 1 + y2: the exchange sum
    # over the common denominator d is divided by d once, and that d
    # cancels against the one in Z1|P(y1), so the new x1 has no factor d
    table = VariableTable(["x1", "x2", "y1", "y2", "z11", "z12"])
    kind = SemifieldKind.universal(table, ["y1", "y2", "z11", "z12"])
    d = LaurentPolynomial.one(table) + LaurentPolynomial.variable(table, "y2")

    def over_d(name):
        value = FactoredFraction.variable(table, name) / FactoredFraction.from_poly(d)
        return GroupRingElement.of(SemifieldElement.universal(kind, value))

    unit = GroupRingElement.one(kind)
    seed = GeneralizedSeed(
        table=table,
        n=2,
        r=(3, 1),
        x=(FactoredFraction.variable(table, "x1"), FactoredFraction.variable(table, "x2")),
        y=(SemifieldElement.generator(kind, "y1"), SemifieldElement.generator(kind, "y2")),
        Z=(ExchangePolynomial((unit, over_d("z11"), over_d("z12"), unit)),
           ExchangePolynomial((unit, unit))),
        B=ExchangeMatrix.from_rows([[0, 1], [-1, 0]]),
    )
    validate_seed(seed)
    got = mutate_seed(seed, 1).x[0]
    assert ff_eq(got, FactoredFraction.from_ratfn(_exchange_reference(seed, 0)))
    assert all(p != d for p, _ in got.factors.values())


def test_non_laurent_coefficients_round_trip():
    # A coefficient denominator folded into one unfactored fraction cannot
    # cancel on the way back, and these walks then run for minutes and
    # gigabytes.
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        sys.path[:0] = sys.argv[1:3]
        from test_pattern import non_laurent_seed
        from gencluster.pattern import walk
        from gencluster.semifield import sf_eq
        seed = non_laurent_seed()
        for there, back in (((1, 2), (2, 1)), ((2, 1), (1, 2))):
            end = walk(walk(seed, there), back)
            print(all(a == b for a, b in zip(end.x, seed.x)),
                  all(sf_eq(a, b) for a, b in zip(end.y, seed.y)))
    """)
    src = os.path.dirname(os.path.dirname(gencluster.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, src, os.path.dirname(__file__)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["True"] * 4


def test_walk_rejects_bad_words():
    rz = case_realization(1)
    assert walk(rz.g_seed, ()) is rz.g_seed
    with pytest.raises(ValueError, match="non-reduced word"):
        walk(rz.g_seed, (1, 1))
    with pytest.raises(ValueError, match="direction out of range"):
        walk(rz.g_seed, (3,))


def test_walk_y_matches_full_walk():
    rz = case_realization(2)
    for word in [(1,), (2, 1), (1, 2, 1)]:
        full = walk(rz.g_seed, word)
        fast = walk_y(rz.g_seed, word)
        assert all(sf_eq(a, b) for a, b in zip(full.y, fast.y))
        assert full.B.rows == fast.B.rows
        assert all(a == b for a, b in zip(full.Z, fast.Z))


def test_case1_walk_y_values_match_reference_data():
    # endpoint coefficients written out through the reference matrices and
    # polynomials for the three-step path
    rz = case_realization(1)
    end = walk(rz.g_seed, (1, 2, 1))
    table = rz.table
    kind = rz.base_kind

    def mono(powers):
        return SemifieldElement.universal(
            kind, FactoredFraction.from_poly(LaurentPolynomial.monomial(table, powers))
        )

    def poly(terms):
        out = LaurentPolynomial.zero(table)
        for coeff, powers in terms:
            out = out + LaurentPolynomial.monomial(table, powers, coeff)
        return SemifieldElement.universal(kind, FactoredFraction.from_poly(out))

    f1 = poly(
        [
            (1, {}),
            (2, {"y2": 1}),
            (1, {"y2": 2}),
            (1, {"z11": 1, "y1": 1, "y2": 1}),
            (1, {"z11": 1, "y1": 1, "y2": 2}),
            (1, {"y1": 2, "y2": 2}),
        ]
    )
    f2 = poly(
        [(1, {}), (1, {"y2": 1}), (1, {"z11": 1, "y1": 1, "y2": 1}), (1, {"y1": 2, "y2": 1})]
    )
    # c-columns at the endpoint: (1, 0) and (-2, -1); exchange matrix [[0,1],[-1,0]]
    want_y1 = sf_mul(mono({"y1": 1}), sf_pow(f2, -1))
    want_y2 = sf_mul(mono({"y1": -2, "y2": -1}), f1)
    assert sf_eq(end.y[0], want_y1)
    assert sf_eq(end.y[1], want_y2)


def test_random_seed_involution_mixed_kinds():
    rng = random.Random(2024)
    for _ in range(30):
        seed = random_generalized_seed(rng)
        k = rng.randint(1, seed.n)
        back = mutate_seed(mutate_seed(seed, k), k)
        assert back.B.rows == seed.B.rows
        assert all(sf_eq(a, b) for a, b in zip(back.y, seed.y))
        assert all(a == b for a, b in zip(back.x, seed.x))
        assert all(a == b for a, b in zip(back.Z, seed.Z))


def test_reduced_words_enumeration():
    words = reduced_words(2, 3)
    assert len(words) == 6
    assert (1, 2, 1) in words and (2, 1, 2) in words


def test_exchange_polynomial_render_and_reciprocal():
    rz = case_realization(2)
    Z2 = rz.g_seed.Z[1]
    assert Z2.render() == "1 + z21*u + z22*u^2 + u^3"
    rec = Z2.reciprocal()
    assert rec.render() == "1 + z22*u + z21*u^2 + u^3"
    assert rec.reciprocal() == Z2
