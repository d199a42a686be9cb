"""The Horner-built exchange numerator against the sum it stands for.

`exchange_sum` builds sum_l c_l P^l N^(rk-l) by Horner's rule in one of
P and N, and `step_numerator` calls it on the engine's F_j. The oracle
here writes the same sum out term by term: for each l, z_l times the
y-monomial times every F_j^((rk-l)[-b_j]+ + l[b_j]+), multiplied out
naively over exponent tuples. Engine states are drawn by
hypothesis (derandomized): the B-column, C and the F_j are set directly,
as `step_numerator` reads nothing else.
"""

import pytest

from gencluster.invariants import CompositeInvariants, GeneralizedInvariants
from gencluster.pattern import ExchangeMatrix
from gencluster.polyring import LaurentPolynomial, VariableTable, exchange_sum

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True)

B3 = ExchangeMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], (1, 1, 1))


def naive_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def oracle(eng, k0, zcoeff, fvals, width):
    """sum_l z_l y^(...) prod_j F_j^(...) for direction k0, term by term."""
    rk = eng.degrees[k0]
    total = {}
    for l in range(rk + 1):
        mono = [0] * width
        for j, row in enumerate(eng.C):
            mono[j] += (rk - l) * max(-row[k0], 0) + l * max(row[k0], 0)
        term = {tuple(mono): 1}
        if zcoeff is not None:
            term = naive_mul(term, dict(zcoeff(l).terms))
        for j, row in enumerate(eng.B):
            for _ in range((rk - l) * max(-row[k0], 0) + l * max(row[k0], 0)):
                term = naive_mul(term, dict(fvals[j].terms))
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def polynomial(table, spec, nvars):
    """F from drawn terms over the first nvars variables; None is F = 1."""
    if spec is None:
        return LaurentPolynomial.one(table)
    width = len(table)
    terms = {tuple(exps) + (0,) * (width - nvars): c for exps, c in spec.items()}
    terms[(0,) * width] = 1
    return LaurentPolynomial(table, terms)


f_specs = st.one_of(
    st.none(),
    st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), st.integers(1, 3), max_size=2),
)
entries = st.integers(-3, 3)
square = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
# both sides nontrivial at |b_j| = 3 and r_k = 3, and an F_j = 1 beside them
MIXED = dict(r=(3, 2, 1), k0=0, col=[0, 3, -2], C=[[1, 0, -1], [-2, 3, 0], [0, 1, 1]],
             reversed_=[True, False, False],
             specs=[None, {(1, 0, 0): 2}, {(0, 1, 1): 1, (1, 1, 0): 3}])
ONE_SIDED = dict(r=(1, 3, 2), k0=1, col=[-1, 0, 2], C=[[0, 0, 1], [1, -1, 0], [2, 0, 0]],
                 reversed_=[False, True, False],
                 specs=[None, None, {(1, 0, 0): 1}])


@SETTINGS
@hypothesis.example(**MIXED)
@hypothesis.example(**ONE_SIDED)
@hypothesis.given(
    r=st.tuples(*[st.integers(1, 3)] * 3),
    k0=st.integers(0, 2),
    col=st.lists(entries, min_size=3, max_size=3),
    C=square,
    reversed_=st.lists(st.booleans(), min_size=3, max_size=3),
    specs=st.lists(f_specs, min_size=3, max_size=3),
)
def test_generalized_numerator_matches_the_termwise_sum(r, k0, col, C, reversed_, specs):
    eng = GeneralizedInvariants(B3, r)
    col[k0] = 0
    eng.B = [[b if c == k0 else 0 for c in range(3)] for b in col]
    eng.C = C
    eng.reversed = reversed_
    eng.F = [polynomial(eng.table, s, 3) for s in specs]
    zcoeff = lambda l: eng.zcoeff(k0, l)  # noqa: E731
    got = eng.step_numerator(k0, zcoeff)
    assert dict(got.terms) == oracle(eng, k0, zcoeff, eng.F, len(eng.table))

    # the formal stand-in call of the stepwise relation checker
    table = VariableTable(list(eng.table.names) + ["phi1", "phi2", "phi3"])
    phis = [LaurentPolynomial.variable(table, f"phi{j + 1}") for j in range(3)]
    standin = lambda l: eng.zcoeff(k0, l).transplant(table)  # noqa: E731
    got = eng.step_numerator(k0, fvals=phis, table=table, zcoeff=standin)
    assert got.table is table
    assert dict(got.terms) == oracle(eng, k0, standin, phis, len(table))


@SETTINGS
@hypothesis.given(
    r=st.tuples(*[st.integers(1, 3)] * 3),
    word=st.lists(st.integers(1, 3), max_size=3),
    k=st.integers(1, 3),
    specs=st.lists(f_specs, min_size=9, max_size=9),
)
def test_composite_block_slots_share_their_column_products(r, word, k, specs):
    word = [d for i, d in enumerate(word) if i == 0 or d != word[i - 1]]
    eng = CompositeInvariants(B3, r, track_f=False).walk(word)
    eng.F = [polynomial(eng.table, s, 3) for s in specs[:eng.size]]
    block = [eng.flat(k - 1, m) for m in range(r[k - 1])]
    products = {}
    for f in block:
        got = eng.step_numerator(f, products=products, block=block)
        assert dict(got.terms) == oracle(eng, f, None, eng.F, len(eng.table))
    # the diagonal block of B is zero: every slot read one shared column entry
    assert len(products) == 1


# -- the shared routine ------------------------------------------------------

XY = VariableTable(["x", "y"])
small_polys = st.dictionaries(
    st.tuples(*[st.integers(-1, 2)] * 2), st.integers(-3, 3).filter(bool),
    min_size=1, max_size=3,
).map(lambda terms: LaurentPolynomial(XY, terms))
sides = st.lists(small_polys, max_size=2)


def termwise_exchange_sum(coeffs, plus, minus):
    """sum_l coeffs[l] prod(plus)^l prod(minus)^(r-l), one factor at a time."""
    r = len(coeffs) - 1
    total = {}
    for l, c in enumerate(coeffs):
        if c is None:
            continue
        term = dict(c.terms)
        for f in plus * l + minus * (r - l):
            term = naive_mul(term, dict(f.terms))
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    return {e: v for e, v in total.items() if v}


one_term = LaurentPolynomial.monomial(XY, {"x": 1})
wide = LaurentPolynomial(XY, {(0, 0): 1, (1, 0): 2, (0, 1): 1})


@SETTINGS
@hypothesis.example(ends=[wide, one_term], interior=[None, None], plus=[], minus=[])
@hypothesis.example(ends=[wide, wide], interior=[one_term], plus=[], minus=[one_term])
@hypothesis.example(ends=[one_term, wide], interior=[None], plus=[wide], minus=[])
@hypothesis.example(ends=[wide, one_term], interior=[wide, None], plus=[one_term], minus=[wide])
@hypothesis.example(ends=[one_term, one_term], interior=[], plus=[wide, wide], minus=[one_term])
@hypothesis.given(
    ends=st.lists(small_polys, min_size=2, max_size=2),
    interior=st.lists(st.one_of(st.none(), small_polys), max_size=2),
    plus=sides,
    minus=sides,
)
def test_exchange_sum_matches_the_termwise_sum(ends, interior, plus, minus):
    coeffs = [ends[0], *interior, ends[1]]
    before = [None if p is None else dict(p.terms) for p in coeffs + plus + minus]
    got = exchange_sum(coeffs, plus, minus)
    assert dict(got.terms) == termwise_exchange_sum(coeffs, plus, minus)
    # nothing passed in was added into, whichever side Horner's rule ran in
    assert [None if p is None else dict(p.terms) for p in coeffs + plus + minus] == before
