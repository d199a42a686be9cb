"""Acceptance criteria, one test per criterion, each printing a summary line.

Every tolerance here is exact arithmetic equality; the runtime bounds are
asserted against wall-clock measurements of the computation itself.
"""

import random
import time

from gencluster.cases import (
    CASE_WORD,
    EXAMPLE_ENLARGEMENT,
    KNOWN_DISCREPANCY,
    TABLE1_CC,
    case_realization,
    run_table_check,
)
from gencluster.composite import block_offsets, enlarge, sigma_of_word
from gencluster.invariants import GeneralizedInvariants
from gencluster.pattern import ExchangeMatrix, reduced_words
from gencluster.polyring import TermLimitError
from gencluster.verify import (
    check_enlargement_commutes,
    check_x_realization,
    check_y_realization,
    random_instance,
    random_word,
    relation_suite,
    suite_composite_order_independence,
    suite_laurent_positive,
    suite_mutation_involution,
    suite_separation_consistency,
    suite_skew_preservation,
)


def _announce(number, name, elapsed, limit, detail=""):
    tail = f" {detail}" if detail else ""
    print(
        f"ACCEPTANCE {number} {name}: PASS ({elapsed:.3f}s < {limit:.0f}s){tail}"
    )


def test_criterion_1_example_enlargement():
    B = ExchangeMatrix.from_rows(EXAMPLE_ENLARGEMENT["B"])
    started = time.perf_counter()
    got = enlarge(B, EXAMPLE_ENLARGEMENT["degree"]).rows
    elapsed = time.perf_counter() - started
    assert got == EXAMPLE_ENLARGEMENT["result"]
    assert elapsed < 0.001
    print(f"ACCEPTANCE 1 example-enlargement: PASS ({elapsed * 1000:.3f}ms < 1ms)")


def test_criterion_2_table_case2():
    started = time.perf_counter()
    result = run_table_check(2)
    elapsed = time.perf_counter() - started
    matrix_entries = [e for e in result.entries if e.label[0] in "CG"]
    assert len(matrix_entries) == 16
    assert all(e.status == "match" for e in matrix_entries)
    assert result.ok and result.flagged == 0
    assert elapsed < 1.0
    _announce(2, "table-case2", elapsed, 1, f"{len(matrix_entries)} matrices")


def test_criterion_3_table_case1_with_flagged_entry():
    started = time.perf_counter()
    result = run_table_check(1)
    elapsed = time.perf_counter() - started
    assert result.ok
    assert result.flagged == 1
    flagged = [e for e in result.entries if e.status == "known-discrepancy"]
    assert len(flagged) == 1 and flagged[0].label.startswith("C_g at t3")

    # recompute the disputed entry through the recursion
    eng = GeneralizedInvariants(
        ExchangeMatrix.from_rows([[0, -1], [1, 0]]), (2, 1)
    ).walk(CASE_WORD)
    recursion_value = eng.C[0][0]
    assert recursion_value == KNOWN_DISCREPANCY["recursion"] == 1
    assert KNOWN_DISCREPANCY["printed"] == -1

    # both block-relation forms applied to the transcribed fine matrix
    printed_cc = TABLE1_CC[3]
    offs = block_offsets((2, 1))
    form_sum = sum(printed_cc[offs[0] + l][offs[0]] for l in range(2))
    sig = sigma_of_word(CASE_WORD, 2)
    tilde = {
        printed_cc[offs[0] + l][offs[0] + m] - (sig[0] if l == m else 0)
        for l in range(2)
        for m in range(1)
    }
    assert len(tilde) == 1
    form_tilde = 2 * tilde.pop() + sig[0]
    assert form_sum == form_tilde == recursion_value == 1
    assert elapsed < 1.0
    _announce(
        3,
        "table-case1",
        elapsed,
        1,
        f"flagged entry: printed {KNOWN_DISCREPANCY['printed']}, recursion +1, "
        f"block-sum form {form_sum}, shifted form {form_tilde}",
    )


def test_criterion_4_enlargement_commutes_randomized():
    rng = random.Random(2024)
    started = time.perf_counter()
    for trial in range(100):
        B, r = random_instance(rng)
        word = random_word(rng, B.n, 6)
        report = check_enlargement_commutes(B, r, word)
        assert report.passed, f"trial {trial}: {report.witness}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _announce(4, "enlargement-commutes", elapsed, 10, "100 trials")


WORDS_DEPTH3 = reduced_words(2, 3)


def test_criterion_5_y_realization():
    started = time.perf_counter()
    runs = 0
    for case in (1, 2):
        rz = case_realization(case)
        for word in WORDS_DEPTH3:
            report = check_y_realization(rz, word)
            assert report.passed, f"case {case} word {word}: {report.witness}"
            runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 12
    assert elapsed < 30.0
    _announce(5, "y-realization", elapsed, 30, f"{runs} words")


def test_criterion_6_x_realization():
    started = time.perf_counter()
    runs = 0
    reductions = []
    for case in (1, 2):
        rz = case_realization(case)
        words = list(WORDS_DEPTH3)
        try:
            for word in words:
                report = check_x_realization(rz, word, term_limit=10 ** 6)
                assert report.passed, f"case {case} word {word}: {report.witness}"
                runs += 1
        except TermLimitError as exc:
            if case != 2:
                raise
            # fall back to the sanctioned shallower word set and report it
            reductions.append(str(exc))
            for word in reduced_words(2, 2):
                report = check_x_realization(rz, word, term_limit=10 ** 6)
                assert report.passed, f"case 2 word {word}: {report.witness}"
                runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    detail = f"{runs} words"
    if reductions:
        detail += f"; case 2 reduced to depth 2 ({reductions[0]})"
    _announce(6, "x-realization", elapsed, 120, detail)


def test_criterion_7_invariant_relations():
    started = time.perf_counter()
    total = 0
    for case, (B_rows, D, r) in {
        1: ([[0, -1], [1, 0]], (1, 1), (2, 1)),
        2: ([[0, 1], [-2, 0]], (2, 1), (2, 3)),
    }.items():
        B = ExchangeMatrix.from_rows(B_rows, D)
        reports = relation_suite(B, r, depth=4)
        words = {rep.word for rep in reports}
        assert words == set(reduced_words(2, 4))
        for rep in reports:
            assert rep.passed, f"case {case}: {rep.name} {rep.word}: {rep.witness}"
            assert rep.tested > 0
        total += len(reports)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(7, "invariant-relations", elapsed, 60, f"{total} reports")


def test_criterion_8_property_suites():
    started = time.perf_counter()
    lines = []

    rng = random.Random(101)
    trials, failures = suite_mutation_involution(rng, 60)
    assert not failures, failures[:3]
    lines.append(f"involution {trials}")

    rng = random.Random(202)
    trials, failures = suite_composite_order_independence(rng, 50)
    assert not failures, failures[:3]
    lines.append(f"order-independence {trials}")

    rng = random.Random(303)
    trials, failures = suite_skew_preservation(rng, 60)
    assert not failures, failures[:3]
    lines.append(f"skew-preservation {trials}")

    rng = random.Random(404)
    realizations = [case_realization(1), case_realization(2)]
    trials, failures = suite_separation_consistency(rng, 50, realizations)
    assert not failures, failures[:3]
    lines.append(f"separation {trials}")

    rng = random.Random(505)
    seeds = [(realizations[0].g_seed, 4), (realizations[1].g_seed, 3)]
    trials, failures = suite_laurent_positive(rng, 50, seeds)
    assert not failures, failures[:3]
    lines.append(f"laurent-positive {trials}")

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _announce(8, "property-suites", elapsed, 300, "; ".join(lines))
