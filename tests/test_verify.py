import random

import pytest

from gencluster import polyring
from gencluster.cases import case_realization
from gencluster.pattern import ExchangeMatrix, reduced_words
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
    # y- and x-realization eliminate through elem_sf and elem_ring; every
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
    assert rz.elem_ring.cache is rz.elem_sf.cache
    assert len(calls) == len(rz.elem_ring.cache) > 0

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


def test_f_relation_modes_agree():
    for word in [(1,), (1, 2), (2, 1, 2)]:
        direct = check_f_relation(B2, R2, word, mode="endpoint")
        stepped = check_f_relation(B2, R2, word, mode="stepwise")
        assert direct.passed and stepped.passed


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
