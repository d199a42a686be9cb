import random
from dataclasses import replace

import pytest

from gencluster.cases import case_realization
from gencluster.composite import (
    aggregates,
    block_offsets,
    build_realization,
    composite_mutate,
    composite_mutate_closed,
    composite_mutate_y,
    composite_walk,
    composite_walk_y,
    enlarge,
    read_block_matrix,
    sigma_of_word,
)
from gencluster.pattern import ExchangeMatrix, mutate_seed, reduced_words, walk, walk_y
from gencluster.polyring import FactoredFraction, RationalFunction, psi_hat_factored
from gencluster.semifield import psi, sf_eq, sf_inv, sf_mul, sf_pow
from gencluster.verify import random_realization


EXAMPLE_B = ExchangeMatrix.from_rows([[0, 1], [-2, 0]])


def test_enlargement_example():
    big = enlarge(EXAMPLE_B, (2, 3))
    assert big.rows == (
        (0, 0, 1, 1, 1),
        (0, 0, 1, 1, 1),
        (-2, -2, 0, 0, 0),
        (-2, -2, 0, 0, 0),
        (-2, -2, 0, 0, 0),
    )


def test_enlargement_degree_one_is_identity():
    B = ExchangeMatrix.from_rows([[0, -1], [1, 0]])
    assert enlarge(B, (1, 1)).rows == B.rows


def test_enlargement_of_zero():
    B = ExchangeMatrix.from_rows([[0, 0], [0, 0]])
    assert all(v == 0 for row in enlarge(B, (3, 2)).rows for v in row)


def test_sigma_of_word():
    assert sigma_of_word((), 2) == (1, 1)
    assert sigma_of_word((1, 2, 1), 2) == (1, -1)
    assert sigma_of_word((1,), 2) == (-1, 1)


def test_initial_composite_seed_case1():
    rz = case_realization(1)
    cs = rz.c_seed
    table = rz.table
    # split coefficients: s11*y1, s12*y1, s21*y2
    want = [
        {"s11": 1, "y1": 1},
        {"s12": 1, "y1": 1},
        {"s21": 1, "y2": 1},
    ]
    for flat, powers in enumerate(want):
        assert cs.ordinary.y[flat].as_factored(table) == RationalFunction.monomial(
            table, powers
        )
    assert cs.ordinary.B.rows == ((0, 0, -1), (0, 0, -1), (1, 1, 0))


def test_initial_composite_matrix_case2():
    rz = case_realization(2)
    assert rz.c_seed.ordinary.B.rows == enlarge(EXAMPLE_B, (2, 3)).rows


def test_composite_mutation_closed_form_and_order_independence():
    rng = random.Random(77)
    for _ in range(20):
        rz = random_realization(rng)
        k = rng.randint(1, rz.n)
        base = rz.c_seed
        canonical = composite_mutate(base, k)
        closed = composite_mutate_closed(base, k)
        assert canonical.ordinary.B.rows == closed.ordinary.B.rows
        assert all(a == b for a, b in zip(canonical.ordinary.x, closed.ordinary.x))
        assert all(
            sf_eq(a, b) for a, b in zip(canonical.ordinary.y, closed.ordinary.y)
        )
        order = list(range(rz.r[k - 1]))
        rng.shuffle(order)
        offs = block_offsets(rz.r)
        shuffled = base.ordinary
        for l in order:
            shuffled = mutate_seed(shuffled, offs[k - 1] + l + 1)
        assert all(a == b for a, b in zip(canonical.ordinary.x, shuffled.x))
        assert all(sf_eq(a, b) for a, b in zip(canonical.ordinary.y, shuffled.y))


def test_composite_mutation_involution():
    rz = case_realization(1)
    for k in (1, 2):
        back = composite_mutate(composite_mutate(rz.c_seed, k), k)
        assert back.ordinary.B.rows == rz.c_seed.ordinary.B.rows
        assert all(
            a == b for a, b in zip(back.ordinary.x, rz.c_seed.ordinary.x)
        )
        assert all(
            sf_eq(a, b) for a, b in zip(back.ordinary.y, rz.c_seed.ordinary.y)
        )


def test_composite_first_block_coefficients_case1():
    # oracle: compose the two degree-one coefficient mutations by hand;
    # the off-diagonal entry is -1, so only the one-plus factors appear
    rz = case_realization(1)
    cs = composite_mutate(rz.c_seed, 1)
    table = rz.table
    y11, y12, y21 = rz.c_seed.ordinary.y
    assert sf_eq(cs.y(0, 0), sf_inv(y11))
    assert sf_eq(cs.y(0, 1), sf_inv(y12))
    # y21 (1 + y11) (1 + y12), with 1 + n/d = (d + n)/d
    a, b, c = (y.as_factored(table).expand() for y in (y21, y11, y12))
    want = RationalFunction(
        a.num * (b.den + b.num) * (c.den + c.num), a.den * b.den * c.den
    )
    assert cs.y(1, 0).as_factored(table) == want


def test_block_matrix_stays_enlarged_along_walks():
    rz = case_realization(2)
    cs = composite_walk(rz.c_seed, (1, 2, 1))
    small = walk_y(rz.g_seed, (1, 2, 1))
    assert cs.ordinary.B.rows == enlarge(small.B, rz.r).rows
    assert read_block_matrix(cs.ordinary.B, rz.r).rows == small.B.rows


def test_aggregates_initial_and_depth_one():
    rz = case_realization(1)
    agg0 = aggregates(rz.c_seed, rz.g_seed)
    table = rz.table
    assert agg0.X[0] == RationalFunction.monomial(table, {"x11": 1, "x12": 1})
    assert agg0.X[1] == RationalFunction.monomial(table, {"x21": 1})

    g1 = walk(rz.g_seed, (1,))
    c1 = composite_walk(rz.c_seed, (1,))
    agg1 = aggregates(c1, g1)
    image = psi_hat_factored(agg1.X[0], rz.symbols)
    embed = rz.x_embedding()
    gx = g1.x[0].expand()
    want = RationalFunction(
        gx.num.substitute_monomials(embed), gx.den.substitute_monomials(embed)
    )
    assert image == want


def test_aggregates_reject_non_composite_vertex():
    rz = case_realization(1)
    from dataclasses import replace

    rows = [list(row) for row in rz.c_seed.ordinary.B.rows]
    rows[0][1] = 3
    rows[1][0] = -3
    bad = replace(
        rz.c_seed,
        ordinary=replace(
            rz.c_seed.ordinary,
            B=ExchangeMatrix(tuple(tuple(r) for r in rows)),
        ),
    )
    with pytest.raises(ValueError, match="block-constant"):
        aggregates(bad, rz.g_seed)


@pytest.mark.parametrize(
    "case,words",
    [
        (1, [(1,), (2, 1), (1, 2, 1), (2, 1, 2, 1)]),
        (2, [(1,), (2, 1), (1, 2, 1)]),
    ],
)
def test_split_coefficient_structure(case, words):
    # each split coefficient is its sign-twisted splitting variable times the
    # coarse coefficient times a slot-independent unit
    rz = case_realization(case)
    table = rz.table
    for word in words:
        cs = composite_walk_y(rz.c_seed, word)
        g = walk_y(rz.g_seed, word)
        sig = sigma_of_word(word, rz.n)
        for i in range(rz.n):
            units = []
            for l in range(rz.r[i]):
                s_name = table.names[rz.layout.s[i][l]]
                twist = FactoredFraction.variable(table, s_name, sig[i])
                quotient = cs.y(i, l).as_factored(table) * (
                    twist * g.y[i].as_factored(table)
                ).inverse()
                units.append(quotient)
                image = psi(
                    _wrap_ext(rz, quotient), rz.symbols, rz.base_kind
                )
                assert sf_eq(
                    image,
                    _one_of(rz.base_kind),
                )
            for other in units[1:]:
                assert other == units[0]


def _wrap_ext(rz, value):
    from gencluster.semifield import SemifieldElement

    return SemifieldElement(rz.ext_kind, value)


def _one_of(kind):
    from gencluster.semifield import SemifieldElement

    return SemifieldElement.one(kind)


@pytest.mark.parametrize("case", [1, 2])
def test_block_coefficient_product_realizes_power(case):
    rz = case_realization(case)
    for word in [(2,), (1, 2)]:
        cs = composite_walk_y(rz.c_seed, word)
        g = walk_y(rz.g_seed, word)
        for i in range(rz.n):
            prod = None
            for l in range(rz.r[i]):
                v = cs.y(i, l)
                prod = v if prod is None else sf_mul(prod, v)
            image = psi(prod, rz.symbols, rz.base_kind)
            assert sf_eq(image, sf_pow(g.y[i], rz.r[i]))


def test_degree_one_realization_forces_splits_to_one():
    # every block has one slot, so psi sends each splitting variable to 1
    rz = build_realization(2, (1, 1), [[0, 1], [-1, 0]])
    table = rz.table
    for i in range(2):
        split = rz.c_seed.y(i, 0).as_factored(table)
        assert split == RationalFunction.monomial(
            table, {f"s{i + 1}1": 1, f"y{i + 1}": 1}
        )
        image = psi(rz.c_seed.y(i, 0), rz.symbols, rz.base_kind)
        assert sf_eq(
            image,
            _generator(rz.base_kind, f"y{i + 1}"),
        )
    from gencluster.verify import check_x_realization, check_y_realization

    for word in [(1,), (2, 1)]:
        assert check_y_realization(rz, word).passed
        assert check_x_realization(rz, word).passed


def _generator(kind, name):
    from gencluster.semifield import SemifieldElement

    return SemifieldElement.generator(kind, name)


def test_aggregate_image_matches_hand_expansion_case1():
    # depth-one block product written out explicitly:
    # (1 + z*y1*x21 + y1^2*x21^2) / (x11*x12*(1 + z*y1 + y1^2))
    rz = case_realization(1)
    g1 = walk(rz.g_seed, (1,))
    c1 = composite_walk(rz.c_seed, (1,))
    agg = aggregates(c1, g1)
    table = rz.table
    from gencluster.polyring import LaurentPolynomial as LP

    def mono(powers, coeff=1):
        return LP.monomial(table, powers, coeff)

    num = (
        mono({})
        + mono({"z11": 1, "y1": 1, "x21": 1})
        + mono({"y1": 2, "x21": 2})
    )
    den = mono({"x11": 1, "x12": 1}) * (
        mono({}) + mono({"z11": 1, "y1": 1}) + mono({"y1": 2})
    )
    image = psi_hat_factored(agg.X[0], rz.symbols)
    assert image == RationalFunction(num, den)


def test_one_symbol_set_carries_the_group_ring_targets():
    # over a universal base with nonnegative multiplicities the projected
    # coefficients are the group-ring sums, so the semifield targets serve
    # the ring-level elimination of x-realization as well
    rz = build_realization(
        2,
        (2, 3),
        [[0, 1], [-2, 0]],
        (2, 1),
        generators=["y1", "y2", "a", "b"],
        y_values=[{"y1": 1}, {"y2": 1}],
        z_values=[
            [[(2, {"a": 1})]],
            [[(1, {"a": 1}), (1, {"b": 1})], [(3, {})]],
        ],
    )
    table = rz.table
    for block, Zi in zip(rz.symbols.blocks, rz.g_seed.Z):
        want = [zc.as_factored(table) for zc in Zi.coeffs[1:-1]]
        assert list(block.targets) == want + [FactoredFraction.one(table)]
    from gencluster.verify import check_x_realization, check_y_realization

    for word in reduced_words(rz.n, 2):
        assert check_y_realization(rz, word).passed
        assert check_x_realization(rz, word).passed


def test_tropical_y_realization_with_summed_coefficients():
    rz = build_realization(
        2,
        (2, 1),
        [[0, -1], [1, 0]],
        kind="tropical",
        generators=["u1", "u2"],
        y_values=[{"u1": 1}, {"u2": 1}],
        z_values=[[[(1, {"u1": 1}), (2, {"u2": 1})]], []],
    )
    from gencluster.verify import check_x_realization, check_y_realization

    for word in [(1,), (2, 1), (1, 2, 1)]:
        assert check_y_realization(rz, word).passed
    # the cluster-variable comparison is only defined over a universal base:
    # formal scalar sums collapse in the tropical representation
    with pytest.raises(ValueError, match="universal coefficients"):
        check_x_realization(rz, (1,))


def test_tropical_realization_small():
    rz = build_realization(
        2,
        (2, 1),
        [[0, -1], [1, 0]],
        kind="tropical",
        generators=["u1", "u2"],
        y_values=[{"u1": 1}, {"u2": 1}],
        z_values=[[[(1, {"u1": 1, "u2": -1})]], []],
    )
    for word in [(1,), (2, 1)]:
        cs = composite_walk_y(rz.c_seed, word)
        g = walk_y(rz.g_seed, word)
        for i in range(rz.n):
            prod = None
            for l in range(rz.r[i]):
                v = cs.y(i, l)
                prod = v if prod is None else sf_mul(prod, v)
            image = psi(prod, rz.symbols, rz.base_kind)
            assert sf_eq(image, sf_pow(g.y[i], rz.r[i]))


def test_diagonal_block_guard():
    rz = case_realization(1)
    broken = rz.c_seed.ordinary
    rows = [list(row) for row in broken.B.rows]
    rows[0][1] = 5
    rows[1][0] = -5
    from dataclasses import replace

    bad = replace(rz.c_seed, ordinary=replace(broken, B=ExchangeMatrix(tuple(tuple(r) for r in rows))))
    with pytest.raises(ValueError, match="not a composite vertex"):
        composite_mutate(bad, 1)


def test_coefficient_block_step_rejects_a_nonzero_diagonal_block():
    seed = case_realization(1).c_seed
    rows = [list(row) for row in seed.ordinary.B.rows]
    rows[0][1], rows[1][0] = 1, -1  # inside block 1, which has two slots
    ordinary = replace(seed.ordinary, B=ExchangeMatrix(tuple(map(tuple, rows))))
    with pytest.raises(ValueError, match="diagonal block is nonzero"):
        composite_mutate_y(replace(seed, ordinary=ordinary), 1)
