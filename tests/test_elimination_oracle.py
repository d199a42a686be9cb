"""Splitting-variable elimination against independent oracles.

`elementary_reduce` is compared with sympy's `symmetrize(..., formal=True)`
and `psi_hat` with substituting the targets into sympy's e-form; a
hypothesis property checks that `psi_hat_factored` is multiplicative on
orbit-complete factored fractions and agrees with the expanded route.
The orbit e-forms of one-slot members, taken as norms, are compared with
sympy's `resultant` and with the e-form of the expanded orbit product.
"""

import itertools
import random
from functools import reduce
from operator import mul

import pytest

from gencluster import polyring
from gencluster.cases import case_realization
from gencluster.pattern import reduced_words
from gencluster.polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    PsiDomainError,
    RationalFunction,
    SymbolBlock,
    VariableTable,
    elementary_reduce,
    psi_hat,
    psi_hat_factored,
)
from gencluster.verify import check_x_realization, check_y_realization

NAMES = ["s11", "s12", "s21", "s22", "s23", "e11", "e12", "e21", "e22", "e23", "y", "z"]
BLOCK1 = ((0, 1), (5, 6))
BLOCK2 = ((2, 3, 4), (7, 8, 9))
FREE = (10, 11)


def _symbols(table, blocks):
    y = LaurentPolynomial.variable(table, "y")
    z = LaurentPolynomial.variable(table, "z")
    one = LaurentPolynomial.one(table)
    targets = {BLOCK1: (z + one, one), BLOCK2: (y, z * z, one)}
    return ElementarySymbols(
        table=table,
        blocks=tuple(
            SymbolBlock(s, e, tuple(map(FactoredFraction.from_poly, targets[(s, e)])))
            for s, e in blocks
        ),
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
        at = {}
        for b in symbols.blocks:
            for e, t in zip(b.e_idx, b.targets):
                num, den = t.expand_parts()
                at[syms[e]] = _to_sympy(num, syms) / _to_sympy(den, syms)
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


def _symmetrized(table, terms, groups):
    """Sum of the orbits of the terms (exponent list, coefficient) under the
    permutations of each index group."""
    out = {}
    for exps, c in terms:
        orbit = {tuple(exps)}
        for g in groups:
            orbit = {
                tuple(_permuted(v, g, perm))
                for v in orbit
                for perm in itertools.permutations(g)
            }
        for v in orbit:
            out[v] = out.get(v, 0) + c
    return LaurentPolynomial(table, out)


def _orbit_members(poly, blocks):
    """The distinct images of poly under the permutations of every block."""
    images = [dict(poly.terms)]
    for s_idx, _ in blocks:
        images = [
            {tuple(_permuted(exps, s_idx, perm)): c for exps, c in img.items()}
            for img in images
            for perm in itertools.permutations(s_idx)
        ]
    distinct = {frozenset(img.items()): img for img in images}
    return [LaurentPolynomial(poly.table, img) for img in distinct.values()]


def _orbit_entry(poly, members, symbols, exp=1):
    remaining = {FactoredFraction._key(m): (m, exp) for m in members}
    return polyring._orbit_e_form(poly, exp, remaining, symbols)


def _expanded_e_form(members, symbols):
    """The expanded route: the e-form of the multiplied-out orbit product.

    Its s-content is cleared first, as the content maps to 1.
    """
    product = reduce(mul, members)
    content = product.monomial_content()
    s_idx = {i for b in symbols.blocks for i in b.s_idx}
    product = product.shift([-c if i in s_idx else 0 for i, c in enumerate(content)])
    return elementary_reduce(product, [(b.s_idx, b.e_idx) for b in symbols.blocks])


def _one_block_symbols(r):
    table = VariableTable(
        [f"s{i}" for i in range(1, r + 1)] + [f"e{i}" for i in range(1, r + 1)] + ["y", "z"]
    )
    block = SymbolBlock(
        tuple(range(r)), tuple(range(r, 2 * r)), (FactoredFraction.one(table),) * r
    )
    return table, ElementarySymbols(table, (block,))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_orbit_norm_matches_sympy_resultant(r):
    # a member symmetric in every slot but u = s2: its orbit product is the
    # resultant of U(u) = prod (u - s_i) and g(u), the member with its
    # other slots written in e'_j = e_j - u e'_(j-1), and the e-form of the
    # expanded product; r = 4 takes a 4 x 4 determinant
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize
    from sympy.polys.subresultants_qq_zz import sylvester

    table, symbols = _one_block_symbols(r)
    (block,) = symbols.blocks
    slot = 1
    sub = [i for i in block.s_idx if i != slot]
    syms = sympy.symbols(table.names)
    u = syms[slot]
    e = [1] + [syms[i] for i in block.e_idx]
    ep = sympy.symbols(f"p1:{r}")
    rng = random.Random(40 + r)
    checked = 0
    while checked < 3:
        terms = [([0] * len(table), rng.choice([-2, 1, 3]))]
        for _ in range(rng.randint(1, 3 if r < 4 else 2)):
            exps = [rng.randint(0, 2 if r < 4 else 1) for _ in block.s_idx]
            terms.append((exps + [0] * r + [rng.randint(0, 1), rng.randint(0, 1)],
                          rng.choice([-3, -1, 1, 2])))
        f = _symmetrized(table, terms, [sub])
        members = _orbit_members(f, [(block.s_idx, block.e_idx)])
        if len(members) != r:
            continue
        checked += 1
        form = _orbit_entry(f, members, symbols)[1]
        got = _to_sympy(form, syms)
        g, rem, _ = symmetrize(
            _to_sympy(f, syms), [syms[i] for i in sub], formal=True, symbols=ep
        )
        assert rem == 0
        g = sympy.expand(g.subs(
            {ep[j - 1]: sum((-u) ** k * e[j - k] for k in range(j + 1)) for j in range(1, r)},
            simultaneous=True,
        ))
        U = sum((-1) ** j * e[j] * u ** (r - j) for j in range(r + 1))
        # the resultant as the Sylvester determinant: sympy's `resultant`
        # (subresultant PRS) flips its sign for some degree pairs
        assert sympy.expand(sylvester(U, g, u).det() - got) == 0
        want, rem, _ = symmetrize(
            sympy.expand(reduce(mul, (_to_sympy(m, syms) for m in members))),
            [syms[i] for i in block.s_idx], formal=True, symbols=e[1:],
        )
        assert rem == 0
        assert sympy.expand(want - got) == 0


def test_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    table = VariableTable(["y"])
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(6):
            # zero entries make zero cofactors, which the expansion skips
            rows = [[rng.choice([0, 0, -2, -1, 1, 3]) for _ in range(n)] for _ in range(n)]
            got = polyring._det(
                [[LaurentPolynomial.constant(table, v) for v in row] for row in rows]
            )
            want = sympy.Matrix(rows).det()
            assert got == LaurentPolynomial.constant(table, int(want))


def test_one_slot_orbits_agree_with_the_expanded_route():
    # random members with one free slot in one block or in each of two,
    # negative coefficients and s-content: the norm route gives the
    # expanded route's e-form term for term, and the same signed flag
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    table = VariableTable(NAMES)
    blocks = (BLOCK1, BLOCK2)
    runs = {"norm": 0, "two blocks": 0}
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * 5),
        st.integers(0, 1),
        st.integers(-1, 1),
        st.sampled_from([-3, -2, -1, 1, 2]),
    )

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(
        st.sampled_from([(0,), (1,), (0, 1)]),
        st.tuples(st.integers(0, 1), st.integers(0, 2)),
        st.lists(term, min_size=1, max_size=2),
        st.tuples(*[st.integers(-1, 2)] * 4),
    )
    def check(free, positions, terms, content):
        # the s-content is one exponent per free slot and one per group of
        # slots the member is symmetric in, so it keeps the member's shape
        groups = []
        shift = [0] * len(table)
        for n, (s_idx, _) in enumerate(blocks):
            slot = s_idx[positions[n]] if n in free else None
            groups.append(tuple(i for i in s_idx if i != slot))
            for i in s_idx:
                shift[i] = content[2 + n] if i == slot else content[n]
        rows = []
        for s_exps, y, z, c in terms:
            exps = [0] * len(table)
            exps[:5] = s_exps
            exps[FREE[0]], exps[FREE[1]] = y, z
            rows.append((exps, c))
        f = _symmetrized(table, rows, groups)
        hypothesis.assume(f)
        f = f.shift(shift)
        members = _orbit_members(f, blocks)
        symbols = _symbols(table, blocks)
        slots = polyring._free_slots(f, symbols, len(members))
        _, form, signed = _orbit_entry(f, members, symbols)
        want = _expanded_e_form(members, _symbols(table, blocks))
        assert form == want
        assert signed == any(c < 0 for c in want.coefficients())
        if slots:
            runs["norm"] += 1
            runs["two blocks"] += len(slots) == 2

    check()
    assert runs["norm"] >= 20 and runs["two blocks"] >= 5


def test_case2_orbit_norms_match_the_expanded_route(monkeypatch):
    # every orbit x- and y-realization eliminate on case2 up to depth 3,
    # ring and scalar factors and both exponent signs: each cached e-form
    # equals the expanded route's, term for term
    rz = case_realization(2)
    orbit_e_form = polyring._orbit_e_form
    seen = {}

    def recorded(poly, exp, remaining, symbols):
        entry = orbit_e_form(poly, exp, remaining, symbols)
        seen[id(entry)] = (entry, [remaining[k][0] for k in entry[0]], exp)
        return entry

    monkeypatch.setattr(polyring, "_orbit_e_form", recorded)
    for depth in (1, 2, 3):
        for word in reduced_words(rz.n, depth):
            assert check_x_realization(rz, word).passed
            assert check_y_realization(rz, word).passed
    x_vars = {i for block in rz.layout.cx for i in block}
    kinds = set()
    symbols = ElementarySymbols(rz.table, rz.symbols.blocks)
    for entry, members, exp in seen.values():
        kinds.add((bool(members[0].support_vars() & x_vars), exp > 0))
        want = _expanded_e_form(members, symbols)
        assert entry[1] == want
        assert entry[2] == any(c < 0 for c in want.coefficients())
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert max(len(entry[0]) for entry, _, _ in seen.values()) == 3


def test_other_orbit_shapes_take_the_expanded_route(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    table = VariableTable(NAMES)
    syms = sympy.symbols(NAMES)
    symbols = _symbols(table, (BLOCK2,))
    s21, s22, s23 = (LaurentPolynomial.variable(table, n) for n in ("s21", "s22", "s23"))
    # stabilized by the 3-cycles: 2 members under S_3, no free slot
    f = s21 * s21 * s22 + s22 * s22 * s23 + s23 * s23 * s21 + LaurentPolynomial.one(table)
    members = _orbit_members(f, (BLOCK2,))
    assert len(members) == 2
    assert polyring._free_slots(f, symbols, len(members)) is None
    expanded = []
    orbit_norm = polyring._orbit_norm

    def counted(poly, slots, symbols):
        expanded.append((poly, slots))
        return orbit_norm(poly, slots, symbols)

    monkeypatch.setattr(polyring, "_orbit_norm", counted)
    form = _orbit_entry(f, members, symbols)[1]
    # one call, on the expanded product as an orbit of one
    assert expanded == [(reduce(mul, members), {})]
    want, rem, _ = symmetrize(
        sympy.expand(reduce(mul, (_to_sympy(m, syms) for m in members))),
        [syms[i] for i in BLOCK2[0]], formal=True, symbols=[syms[i] for i in BLOCK2[1]],
    )
    assert rem == 0
    assert sympy.expand(_to_sympy(form, syms) - want) == 0
    # a diagonal stabilizer: s11 s21 + s12 s22 has a free slot in each of two
    # 2-blocks but 2 members, not 4, so it is no iterated norm either
    table2 = VariableTable(["s11", "s12", "s21", "s22", "e11", "e12", "e21", "e22"])
    one = FactoredFraction.one(table2)
    blocks2 = (((0, 1), (4, 5)), ((2, 3), (6, 7)))
    symbols2 = ElementarySymbols(
        table2, tuple(SymbolBlock(s, e, (one, one)) for s, e in blocks2)
    )
    d = LaurentPolynomial(table2, {(1, 0, 1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 1, 0, 0, 0, 0): 1})
    members = _orbit_members(d, blocks2)
    assert len(members) == 2
    assert polyring._free_slots(d, symbols2, len(members)) is None
    assert _orbit_entry(d, members, symbols2)[1] == elementary_reduce(reduce(mul, members), blocks2)
    assert expanded[1] == (reduce(mul, members), {})
    # a member that is not symmetric in the slots its free slot leaves
    g = s21 * s21 * s22 + s23
    with pytest.raises(PsiDomainError):
        polyring._orbit_norm(g, {0: 0}, symbols)
    # a member that mentions a block's top e-symbol is refused on either route
    top = LaurentPolynomial.variable(table, "e23")
    h = s21 * top + LaurentPolynomial.one(table)
    with pytest.raises(ValueError, match="elementary symbol"):
        _orbit_entry(h, _orbit_members(h, (BLOCK2,)), symbols)
    # nor is a one-slot member without the rest of its orbit in psi_hat's domain
    with pytest.raises(PsiDomainError):
        psi_hat_factored(FactoredFraction.from_poly(s21 * s22 + s23 * s22 + s21), symbols)
