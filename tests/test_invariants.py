import random

import pytest

from gencluster.cases import case_realization
from gencluster.composite import (
    block_offsets,
    block_pairs,
    composite_walk,
    enlarge,
    sigma_of_word,
)
from gencluster.invariants import (
    CompositeInvariants,
    GeneralizedInvariants,
    c_matrix,
    f_polynomials,
    g_matrix,
    separation_reconstruct_composite,
    separation_reconstruct_generalized,
)
from gencluster.pattern import ExchangeMatrix, pos, reduced_words, walk
from gencluster.polyring import LaurentPolynomial
from gencluster.semifield import sf_eq
from gencluster.verify import random_instance, random_word


B1 = ExchangeMatrix.from_rows([[0, -1], [1, 0]], (1, 1))
R1 = (2, 1)
B2 = ExchangeMatrix.from_rows([[0, 1], [-2, 0]], (2, 1))
R2 = (2, 3)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError, match="unknown pattern"):
        c_matrix("bogus", B1, R1, ())


def test_identity_at_the_root():
    assert c_matrix("g", B2, R2, ()) == ((1, 0), (0, 1))
    assert g_matrix("c", B2, R2, ()) == tuple(
        tuple(1 if i == j else 0 for j in range(5)) for i in range(5)
    )
    table, polys = f_polynomials("g", B1, R1, ())
    assert all(p.is_one() for p in polys)


def test_case2_reference_matrices():
    assert c_matrix("g", B2, R2, (1, 2)) == ((11, -2), (6, -1))
    assert c_matrix("c", B2, R2, (1, 2)) == (
        (5, 6, -1, -1, -1),
        (6, 5, -1, -1, -1),
        (2, 2, -1, 0, 0),
        (2, 2, 0, -1, 0),
        (2, 2, 0, 0, -1),
    )
    assert g_matrix("g", B2, R2, (1, 2, 1)) == ((-11, -3), (40, 11))


def test_case1_reference_polynomials():
    table, polys = f_polynomials("g", B1, R1, (1,))
    z = LaurentPolynomial.variable(table, "z11")
    y1 = LaurentPolynomial.variable(table, "y1")
    one = LaurentPolynomial.one(table)
    assert polys[0] == one + z * y1 + y1 * y1
    assert polys[1].is_one()

    ctable, cpolys = f_polynomials("c", B1, R1, (1, 2, 1))
    y11 = LaurentPolynomial.variable(ctable, "y11")
    y12 = LaurentPolynomial.variable(ctable, "y12")
    y21 = LaurentPolynomial.variable(ctable, "y21")
    cone = LaurentPolynomial.one(ctable)
    assert cpolys[0] == cone + y21 + y12 * y21
    assert cpolys[1] == cone + y21 + y11 * y21
    assert cpolys[2] == cone + y21 + y11 * y21 + y12 * y21 + y11 * y12 * y21


def test_case1_g_matrices_reference():
    assert g_matrix("c", B1, R1, (1, 2, 1)) == ((1, 0, 0), (0, 1, 0), (-1, -1, -1))
    assert g_matrix("g", B1, R1, (1, 2, 1)) == ((1, 0), (-2, -1))


def test_tracked_polynomial_reversal():
    eng = GeneralizedInvariants(B2, R2)
    table = eng.table
    z21 = LaurentPolynomial.variable(table, "z21")
    z22 = LaurentPolynomial.variable(table, "z22")
    assert eng.zcoeff(1, 1) == z21 and eng.zcoeff(1, 2) == z22
    eng.step(2)
    assert eng.zcoeff(1, 1) == z22 and eng.zcoeff(1, 2) == z21
    eng.step(1)
    assert eng.zcoeff(1, 1) == z22  # direction 2 untouched by a step in 1
    eng.step(2)
    assert eng.zcoeff(1, 1) == z21


# Closed per-block forms, computed directly from block data: the redundant
# cross-check of the composite engine's block step.


def composite_c_step_closed(C, bcore, r, k0):
    """Whole-block C update computed directly from block data."""
    size = len(C)
    offs = block_offsets(r)
    pairs = block_pairs(r)
    out = [row[:] for row in C]
    for a in range(size):
        for b, (j, m) in enumerate(pairs):
            if j == k0:
                out[a][b] = -C[a][b]
            else:
                acc = C[a][b]
                for p in range(r[k0]):
                    cakp = C[a][offs[k0] + p]
                    acc += cakp * pos(bcore[k0][j]) + pos(-cakp) * bcore[k0][j]
                out[a][b] = acc
    return out


def composite_g_step_closed(G, C, bcore, b0core, r, k0):
    """Whole-block G update computed directly from block data."""
    size = len(G)
    offs = block_offsets(r)
    pairs = block_pairs(r)
    out = [row[:] for row in G]
    for a, (i, l) in enumerate(pairs):
        for m in range(r[k0]):
            b = offs[k0] + m
            acc = -G[a][b]
            for ap, (j, p) in enumerate(pairs):
                acc += G[a][ap] * pos(-bcore[j][k0]) - b0core[i][j] * pos(-C[ap][b])
            out[a][b] = acc
    return out


def composite_f_step_closed(F, C, bcore, r, k0, table):
    """Whole-block F update through the product closed form."""
    size = len(F)
    pairs = block_pairs(r)
    offs = block_offsets(r)
    out = list(F)
    for m in range(r[k0]):
        f = offs[k0] + m
        plus = LaurentPolynomial.one(table)
        minus = LaurentPolynomial.one(table)
        mono_p, mono_m = {}, {}
        for jm in range(size):
            c = C[jm][f]
            if c > 0:
                mono_p[jm] = c
            elif c < 0:
                mono_m[jm] = -c
        if mono_p:
            plus = plus * LaurentPolynomial.monomial(table, mono_p)
        if mono_m:
            minus = minus * LaurentPolynomial.monomial(table, mono_m)
        for jm, (j, _) in enumerate(pairs):
            b = bcore[j][k0]
            if b > 0:
                plus = plus * F[jm] ** b
            elif b < 0:
                minus = minus * F[jm] ** (-b)
        q = (plus + minus).exact_div(F[f])
        if q is None:
            raise ArithmeticError("closed-form polynomial step is not exactly divisible")
        out[f] = q
    return out


@pytest.mark.parametrize("word", [(1,), (2, 1), (1, 2, 1)])
def test_closed_block_forms_match_elementary_composition(word):
    eng = CompositeInvariants(B2, R2)
    for k in word[:-1]:
        eng.step(k)
    k = word[-1]
    bcore = eng.block_core().rows
    expected_c = composite_c_step_closed(eng.C, bcore, R2, k - 1)
    ge = GeneralizedInvariants(B2, R2, track_f=False)
    for kk in word[:-1]:
        ge.step(kk)
    b0core = tuple(tuple(row) for row in enumerate_rows(eng.B0, R2))
    expected_g = composite_g_step_closed(eng.G, eng.C, bcore, ge.B0, R2, k - 1)
    expected_f = composite_f_step_closed(eng.F, eng.C, bcore, R2, k - 1, eng.table)
    eng.step(k)
    assert eng.C == expected_c
    assert eng.G == expected_g
    assert eng.F == expected_f


def enumerate_rows(big_rows, r):
    from gencluster.composite import read_block_matrix

    return read_block_matrix(ExchangeMatrix(big_rows), r).rows


def test_composite_c_columns_sign_coherent():
    # all entries of one block column share a sign along walks
    for word in reduced_words(2, 4):
        eng = CompositeInvariants(B2, R2, track_f=False).walk(word)
        offs = block_offsets(R2)
        for i in range(2):
            for col in range(sum(R2)):
                signs = {
                    1 if eng.C[offs[i] + l][col] > 0 else -1
                    for l in range(R2[i])
                    if eng.C[offs[i] + l][col] != 0
                }
                assert len(signs) <= 1


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("word", [(), (1,), (2, 1), (1, 2, 1)])
def test_separation_matches_direct_generalized(case, word):
    rz = case_realization(case)
    end = walk(rz.g_seed, word)
    xs, ys = separation_reconstruct_generalized(rz.g_seed, word)
    for a, b in zip(xs, end.x):
        assert a == b
    for a, b in zip(ys, end.y):
        assert sf_eq(a, b)


def test_separation_first_step_coefficient_case1():
    rz = case_realization(1)
    _, ys = separation_reconstruct_generalized(rz.g_seed, (1,))
    spec = rz.g_seed.Z[0].specialize(rz.g_seed.y[0])
    from gencluster.semifield import sf_mul

    assert sf_eq(ys[1], sf_mul(rz.g_seed.y[1], spec))


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("word", [(), (2,), (1, 2)])
def test_separation_matches_direct_composite(case, word):
    rz = case_realization(case)
    end = composite_walk(rz.c_seed, word)
    xs, ys = separation_reconstruct_composite(rz, word)
    for a, b in zip(xs, end.ordinary.x):
        assert a == b
    for a, b in zip(ys, end.ordinary.y):
        assert a == b.as_ratfn(rz.table)


def test_random_instances_shifted_entries_are_block_constant():
    rng = random.Random(8)
    for _ in range(25):
        B, r = random_instance(rng)
        word = tuple()
        depth = rng.randint(1, 4)
        from gencluster.verify import random_word

        word = random_word(rng, B.n, depth)
        eng = CompositeInvariants(B, r, track_f=False).walk(word)
        sig = sigma_of_word(word, B.n)
        offs = block_offsets(r)
        for i in range(B.n):
            for j in range(B.n):
                tilde_c = {
                    eng.C[offs[i] + l][offs[j] + m]
                    - (sig[j] if (i, l) == (j, m) else 0)
                    for l in range(r[i])
                    for m in range(r[j])
                }
                tilde_g = {
                    eng.G[offs[i] + l][offs[j] + m]
                    - (sig[j] if (i, l) == (j, m) else 0)
                    for l in range(r[i])
                    for m in range(r[j])
                }
                assert len(tilde_c) == 1 and len(tilde_g) == 1


def _slot_word(word, r):
    """The flat pseudo-rank word that steps each block of `word` slot by slot."""
    offs = block_offsets(r)
    return tuple(offs[k - 1] + l + 1 for k in word for l in range(r[k - 1]))


def _assert_composite_is_degree_one_walk(B, r, word, track_f):
    ce = CompositeInvariants(B, r, track_f=track_f).walk(word)
    ordinary = GeneralizedInvariants(enlarge(B, r), (1,) * sum(r), track_f=track_f)
    ordinary.walk(_slot_word(word, r))
    assert ce.C == ordinary.C
    assert ce.G == ordinary.G
    assert ce.B == ordinary.B
    # the two tables name the same pseudo-rank variables differently
    for fc, fo in zip(ce.F, ordinary.F):
        assert dict(fc.terms.items()) == dict(fo.terms.items())


@pytest.mark.parametrize("B, r", [(B1, R1), (B2, R2)], ids=["case1", "case2"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_composite_engine_is_the_degree_one_engine_on_the_enlarged_matrix(B, r, depth):
    for word in reduced_words(B.n, depth):
        if len(word) == depth:
            _assert_composite_is_degree_one_walk(B, r, word, track_f=depth <= 2)


def test_composite_engine_is_degree_one_on_random_instances():
    rng = random.Random(17)
    for _ in range(20):
        B, r = random_instance(rng)
        depth = rng.randint(1, 3)
        word = random_word(rng, B.n, depth, exact=True)
        _assert_composite_is_degree_one_walk(B, r, word, track_f=depth <= 2)


def test_block_step_builds_the_off_block_product_once(monkeypatch):
    eng = CompositeInvariants(B2, R2).walk((1,))
    products = []
    mul = LaurentPolynomial.__mul__

    def counting_mul(a, b):
        if len(a) > 1 and len(b) > 1:
            products.append((len(a), len(b)))
        return mul(a, b)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counting_mul)
    eng.step(2)
    # all three slots of block 2 read F_11 * F_12 through the same column
    assert products == [(2, 2)]
