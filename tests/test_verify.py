import random
from dataclasses import replace

import pytest

from gencluster import polyring
from gencluster.cases import case_realization
from gencluster.invariants import CompositeInvariants
from gencluster.pattern import ExchangeMatrix, reduced_words
from gencluster.polyring import FactoredFraction, LaurentPolynomial
from gencluster.verify import (
    CheckReport,
    check_cg_relations,
    check_enlargement_commutes,
    check_f_relation,
    check_f_symmetry,
    check_laurent_positive,
    check_x_realization,
    check_y_realization,
    random_exchange_matrix,
    random_instance,
    random_word,
    relation_suite,
    suite_composite_order_independence,
    suite_laurent_positive,
    suite_mutation_involution,
    suite_separation_consistency,
    suite_skew_preservation,
)

B1 = ExchangeMatrix.from_rows([[0, -1], [1, 0]], (1, 1))
R1 = (2, 1)
B2 = ExchangeMatrix.from_rows([[0, 1], [-2, 0]], (2, 1))
R2 = (2, 3)


def test_enlargement_checker_on_case2():
    report = check_enlargement_commutes(B2, R2, (1, 2, 1))
    assert report.passed and report.tested == 3


def test_enlargement_checker_degree_one_trivial():
    B = ExchangeMatrix.from_rows([[0, 2], [-1, 0]])
    report = check_enlargement_commutes(B, (1, 1), (1, 2, 1, 2))
    assert report.passed and report.tested == 4


def test_enlargement_checker_randomized():
    rng = random.Random(7)
    for _ in range(30):
        B, r = random_instance(rng)
        word = random_word(rng, B.n, 6)
        assert check_enlargement_commutes(B, r, word).passed


@pytest.mark.parametrize("case", [1, 2])
def test_y_realization_shallow(case):
    rz = case_realization(case)
    for word in [(), (1,), (2, 1)]:
        report = check_y_realization(rz, word)
        assert report.passed and report.tested == rz.n


@pytest.mark.parametrize("case", [1, 2])
def test_x_realization_shallow(case):
    rz = case_realization(case)
    for word in [(), (1,), (1, 2)]:
        report = check_x_realization(rz, word)
        assert report.passed and report.tested == rz.n



def test_realization_checks_share_one_class_cache(monkeypatch):
    # y- and x-realization eliminate through the one symbol set; every
    # m_lambda is rewritten once for both, and nothing else is reduced
    rz = case_realization(2)
    calls = []
    reduce_one_block = polyring._reduce_one_block

    def counted(*args):
        calls.append(args)
        return reduce_one_block(*args)

    monkeypatch.setattr(polyring, "_reduce_one_block", counted)
    assert check_y_realization(rz, (1, 2)).passed
    assert check_x_realization(rz, (1, 2)).passed
    assert len(calls) == len(rz.symbols.cache) > 0


def test_realization_checks_eliminate_each_orbit_once(monkeypatch):
    # x- and y-realization share the symbols' orbit cache, so a second x-run
    # rewrites no orbit again; the norm route and the expanded route each
    # make one e-form rewrite per orbit
    rz = case_realization(2)
    calls = []
    e_form = polyring._e_form

    def counted(*args):
        calls.append(args)
        return e_form(*args)

    monkeypatch.setattr(polyring, "_e_form", counted)
    assert check_y_realization(rz, (1, 2, 1)).passed
    assert check_x_realization(rz, (1, 2, 1)).passed
    first = len(calls)
    assert check_x_realization(rz, (1, 2, 1)).passed
    assert len(calls) == first > 0
    # one e-form per orbit: each entry is shared by all of its members
    assert len({id(entry) for entry in rz.symbols.orbits.values()}) == first


# f-relation report sizes, (endpoint forced, default _ENDPOINT_LIMIT) per
# word; the default limit skips the case2 endpoint at 2,1,2 by its size
# estimate
F_RELATION_TESTED = {
    1: {(1,): (13, 13), (2,): (13, 13), (1, 2): (21, 21), (2, 1): (21, 21),
        (1, 2, 1): (29, 29), (2, 1, 2): (29, 29)},
    2: {(1,): (15, 15), (2,): (15, 15), (1, 2): (23, 23), (2, 1): (23, 23),
        (1, 2, 1): (31, 31), (2, 1, 2): (31, 24)},
}


@pytest.mark.parametrize("case", [1, 2])
def test_f_relation_endpoint_matches_the_expanded_route(case, monkeypatch):
    # every factored endpoint image equals psi_hat of the expanded product,
    # and every factor went through the orbit route, not the fallback
    from gencluster import verify

    B, R = (B1, R1) if case == 1 else (B2, R2)
    factored = polyring.psi_hat_factored
    images = []

    def oracle(ff, symbols, require_nonneg=False):
        out = factored(ff, symbols, require_nonneg)
        lay = ff.table.layout
        assert all((lay, key) in symbols.orbits for key in ff.factors)
        want = polyring.psi_hat(ff.expand(), symbols)
        assert polyring.ff_eq(out, polyring.FactoredFraction.from_ratfn(want))
        images.append(out)
        return out

    monkeypatch.setattr(verify, "psi_hat_factored", oracle)
    for word, (tested, auto) in F_RELATION_TESTED[case].items():
        before = len(images)
        with monkeypatch.context() as m:
            m.setattr(verify, "_ENDPOINT_LIMIT", 10 ** 18)
            report = check_f_relation(B, R, word)
        assert report.passed and report.tested == tested
        # the block product and one transposed form per slot, per direction
        assert len(images) - before == sum(1 + ri for ri in R)
        assert check_f_relation(B, R, word).tested == auto


def test_cg_relations_cases():
    for word in [(), (1, 2), (1, 2, 1)]:
        assert check_cg_relations(B1, R1, word).passed
        assert check_cg_relations(B2, R2, word).passed


def test_cg_relation_block_sums_match_reference():
    # the fine block-column sums rebuild the coarse entries
    report = check_cg_relations(B2, R2, (1, 2))
    assert report.passed
    from gencluster.invariants import CompositeInvariants

    eng = CompositeInvariants(B2, R2, track_f=False).walk((1, 2))
    assert eng.C[0][0] + eng.C[1][0] == 11
    eng2 = CompositeInvariants(B2, R2, track_f=False).walk((1, 2, 1))
    assert eng2.G[2][0] + eng2.G[2][1] == 40


def test_f_relation_modes_agree(monkeypatch):
    # _ENDPOINT_LIMIT picks the route: a huge limit always runs the
    # endpoint, 0 checks stepwise only
    from gencluster import verify

    for word in [(1,), (1, 2), (2, 1, 2)]:
        monkeypatch.setattr(verify, "_ENDPOINT_LIMIT", 10 ** 18)
        direct = check_f_relation(B2, R2, word)
        monkeypatch.setattr(verify, "_ENDPOINT_LIMIT", 0)
        stepped = check_f_relation(B2, R2, word)
        assert direct.passed and stepped.passed
        assert direct.tested - stepped.tested == sum(1 + ri for ri in R2)


def test_f_relation_auto_handles_deep_words():
    report = check_f_relation(B2, R2, (1, 2, 1, 2))
    assert report.passed and report.tested > 0


def test_f_symmetry_cases():
    for word in [(1,), (1, 2, 1)]:
        assert check_f_symmetry(B1, R1, word).passed
        assert check_f_symmetry(B2, R2, word).passed


def test_relation_suite_covers_all_words():
    reports = relation_suite(B1, R1, depth=3)
    words = {rep.word for rep in reports}
    assert words == set(reduced_words(2, 3))
    assert all(rep.passed for rep in reports)
    names = {rep.name for rep in reports}
    assert names == {"cg-relations", "f-relation", "f-symmetry"}


def test_laurent_positive_case1_depth5():
    rz = case_realization(1)
    for word in [(1, 2, 1, 2, 1), (2, 1, 2, 1, 2)]:
        assert check_laurent_positive(rz.g_seed, word).passed


@pytest.mark.parametrize("case", [1, 2])
def test_laurent_positive_cases(case):
    rz = case_realization(case)
    for word in [(), (1, 2, 1)]:
        report = check_laurent_positive(rz.g_seed, word)
        assert report.passed and report.tested == rz.n
    if case == 1:
        assert check_laurent_positive(rz.g_seed, (2, 1, 2, 1)).passed


@pytest.mark.parametrize("x1", ["1/x1", "x1*x2", "2*x1", "x2"])
def test_laurent_positive_needs_distinct_plain_initial_variables(x1):
    # the check reads the initial cluster as variables: anything else, or a
    # variable named twice, is outside its domain
    seed = case_realization(1).g_seed
    table = seed.table
    value = {
        "1/x1": FactoredFraction.variable(table, "x1", -1),
        "x1*x2": FactoredFraction.from_poly(LaurentPolynomial.monomial(table, {"x1": 1, "x2": 1})),
        "2*x1": FactoredFraction.from_poly(LaurentPolynomial.monomial(table, {"x1": 1}, 2)),
        "x2": FactoredFraction.variable(table, "x2"),
    }[x1]
    with pytest.raises(ValueError, match="must be plain variables"):
        check_laurent_positive(replace(seed, x=(value,) + seed.x[1:]), (1, 2))


def test_reports_never_pass_vacuously():
    reports = [
        check_enlargement_commutes(B1, R1, (1,)),
        check_cg_relations(B1, R1, (1,)),
        check_f_relation(B1, R1, (1,)),
        check_f_symmetry(B1, R1, (1,)),
    ]
    for rep in reports:
        assert rep.tested > 0


def test_report_line_format():
    rep = CheckReport(name="demo", word=(1, 2), passed=False, tested=3, witness="boom")
    line = rep.line()
    assert line.startswith("FAIL demo word=1,2")
    assert "boom" in line


def test_random_exchange_matrices_are_symmetrizable():
    rng = random.Random(13)
    for _ in range(200):
        B = random_exchange_matrix(rng, rng.randint(2, 3))
        d = B.symmetrizer()
        assert all(v > 0 for v in d)


def test_suites_small_runs():
    rng = random.Random(2)
    trials, failures = suite_mutation_involution(rng, 8)
    assert trials == 8 and not failures
    trials, failures = suite_composite_order_independence(rng, 5)
    assert trials == 5 and not failures
    trials, failures = suite_skew_preservation(rng, 10)
    assert trials == 10 and not failures
    realizations = [case_realization(1), case_realization(2)]
    trials, failures = suite_separation_consistency(rng, 6, realizations)
    assert trials == 6 and not failures
    seeds = [(realizations[0].g_seed, 4), (realizations[1].g_seed, 3)]
    trials, failures = suite_laurent_positive(rng, 6, seeds)
    assert trials == 6 and not failures


def test_cg_relations_report_both_families(monkeypatch):
    # +1 -1 / -1 +1 on a 2 x 2 corner of block (1,1) keeps every sum and
    # breaks only the constant shifted entries, once in C and once in G
    rz = case_realization(2)
    B, r = rz.g_seed.B, rz.r
    clean = check_cg_relations(B, r, (1, 2))
    walk = CompositeInvariants.walk

    def perturbed(self, word):
        out = walk(self, word)
        for M in (self.C, self.G):
            M[0][0] += 1
            M[0][1] -= 1
            M[1][0] -= 1
            M[1][1] += 1
        return out

    monkeypatch.setattr(CompositeInvariants, "walk", perturbed)
    report = check_cg_relations(B, r, (1, 2))
    assert clean.passed and clean.tested == 56
    assert not report.passed
    witnesses = report.witness.split("; ")
    assert any(w.startswith("C ") for w in witnesses)
    assert any(w.startswith("G ") for w in witnesses)
    # each broken block skips its shifted-form equality
    assert report.tested == 54
