"""Splitting-variable elimination against independent oracles.

`elementary_reduce` is compared with sympy's `symmetrize(..., formal=True)`
and `psi_hat` with substituting the targets into sympy's e-form; a
hypothesis property checks that `psi_hat_factored` is multiplicative on
orbit-complete factored fractions and agrees with the expanded route.
"""

import itertools
import random
from functools import reduce
from operator import mul

import pytest

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
)

NAMES = ["s11", "s12", "s21", "s22", "s23", "e11", "e12", "e21", "e22", "e23", "y", "z"]
BLOCK1 = ((0, 1), (5, 6))
BLOCK2 = ((2, 3, 4), (7, 8, 9))
FREE = (10, 11)


def _symbols(table, blocks):
    y = RationalFunction.variable(table, "y")
    z = RationalFunction.variable(table, "z")
    one = RationalFunction.one(table)
    targets = {BLOCK1: (z + one, one), BLOCK2: (y, z * z, one)}
    return ElementarySymbols(
        table=table,
        blocks=tuple(SymbolBlock(s, e, targets[(s, e)]) for s, e in blocks),
    )


def _permuted(v, s_idx, perm):
    out = list(v)
    for i, j in zip(s_idx, perm):
        out[i] = v[j]
    return out


def _random_block_symmetric(rng, table, blocks):
    """Orbit sums of a few random monomials over the product of the blocks."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(table)
        for s_idx, _ in blocks:
            for i in s_idx:
                exps[i] = rng.randint(0, 3)
        for i in FREE:
            exps[i] = rng.randint(0, 2)
        coeff = rng.choice([-3, -1, 1, 2, 5])
        orbit = [exps]
        for s_idx, _ in blocks:
            orbit = [
                _permuted(v, s_idx, perm)
                for v in orbit
                for perm in itertools.permutations(s_idx)
            ]
        for v in orbit:
            terms[tuple(v)] = terms.get(tuple(v), 0) + coeff
    return LaurentPolynomial(table, terms)


def _to_sympy(p, syms):
    return sum(
        (c * reduce(mul, (s ** e for s, e in zip(syms, exps)), 1) for exps, c in p.terms.items()),
        0,
    )


@pytest.mark.parametrize(
    "blocks", [(BLOCK1,), (BLOCK2,), (BLOCK1, BLOCK2)], ids=["2", "3", "2+3"]
)
def test_elementary_reduce_matches_sympy_symmetrize(blocks):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    table = VariableTable(NAMES)
    syms = sympy.symbols(NAMES)
    symbols = _symbols(table, blocks)
    rng = random.Random(17 + len(blocks))
    for _ in range(12):
        p = _random_block_symmetric(rng, table, blocks)
        want = _to_sympy(p, syms)
        for s_idx, e_idx in blocks:
            want, rem, _ = symmetrize(
                want, [syms[i] for i in s_idx], formal=True,
                symbols=[syms[i] for i in e_idx],
            )
            assert rem == 0
        got = elementary_reduce(p, blocks)
        assert sympy.expand(_to_sympy(got, syms) - want) == 0
        # psi_hat is that e-form at the targets
        at = {
            syms[e]: _to_sympy(t.num, syms) / _to_sympy(t.den, syms)
            for b in symbols.blocks
            for e, t in zip(b.e_idx, b.targets)
        }
        image = psi_hat(RationalFunction.from_poly(p), symbols)
        assert sympy.cancel(
            _to_sympy(image.num, syms) / _to_sympy(image.den, syms) - want.subs(at)
        ) == 0


def _orbit_complete(table, blocks, spec):
    """Factored fraction from (block, terms, exponent) triples, each closed
    under its block's permutations with one exponent per orbit."""
    ff = FactoredFraction.one(table)
    for block, terms, exp in spec:
        s_idx = blocks[block][0]
        seen = set()
        for perm in itertools.permutations(s_idx):
            poly = {tuple([0] * len(table)): 1}
            for s_exps, y, z, c in terms:
                exps = [0] * len(table)
                for i, e in zip(perm, s_exps):
                    exps[i] = e
                exps[FREE[0]], exps[FREE[1]] = y, z
                poly[tuple(exps)] = poly.get(tuple(exps), 0) + c
            key = frozenset(poly.items())
            if key not in seen:
                seen.add(key)
                ff = ff * FactoredFraction.from_poly(LaurentPolynomial(table, poly), exp)
    return ff


def test_psi_hat_factored_is_multiplicative():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    table = VariableTable(NAMES)
    blocks = (BLOCK1, BLOCK2)
    symbols = _symbols(table, blocks)

    def factor(block):
        size = len(blocks[block][0])
        term = st.tuples(
            st.tuples(*[st.integers(0, 2)] * size),
            st.integers(0, 1),
            st.integers(0, 1),
            st.integers(1, 2),
        )
        return st.tuples(
            st.just(block), st.lists(term, min_size=1, max_size=2), st.sampled_from([-1, 1, 2])
        )

    fraction = st.lists(st.one_of(factor(0), factor(1)), min_size=1, max_size=2)

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(fraction, fraction)
    def check(spec1, spec2):
        ff1 = _orbit_complete(table, blocks, spec1)
        ff2 = _orbit_complete(table, blocks, spec2)
        assert psi_hat_factored(ff1 * ff2, symbols) == (
            psi_hat_factored(ff1, symbols) * psi_hat_factored(ff2, symbols)
        )
        # orbit by orbit agrees with the whole product at once
        for ff in (ff1, ff2):
            assert psi_hat_factored(ff, symbols) == FactoredFraction.from_ratfn(
                psi_hat(ff.expand(), symbols)
            )

    check()
