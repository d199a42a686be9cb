"""Slot names of the composite variable families, and rank >= 10 realizations."""

from gencluster.composite import build_realization, slot_name
from gencluster.invariants import CompositeInvariants, GeneralizedInvariants
from gencluster.pattern import ExchangeMatrix
from gencluster.verify import (
    check_cg_relations,
    check_f_relation,
    check_f_symmetry,
    check_x_realization,
    check_y_realization,
)


def test_slot_names_below_rank_ten_are_unchanged():
    assert slot_name("x", 0, 0, 2) == "x11"
    assert slot_name("z", 1, 2, 9) == "z23"
    assert slot_name("s", 8, 8, 9) == "s99"
    assert slot_name("x", 0, 9, 3) == "x1_10"


def test_slot_names_are_injective_and_avoid_rank_names():
    for n in (1, 2, 9, 10, 11, 23):
        for rmax in (1, 3, 12):
            slots = [slot_name("x", i, l, n) for i in range(n) for l in range(rmax)]
            assert len(set(slots)) == len(slots)
            assert not set(slots) & {f"x{k + 1}" for k in range(n)}


def _chain(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
        rows[i + 1][i] = -1
    return rows


def test_rank_eleven_realization_builds():
    n = 11
    rz = build_realization(n, (1,) * n, [[0] * n for _ in range(n)])
    assert len(set(rz.table.names)) == len(rz.table)
    assert "x11" in rz.table and "x1_1" in rz.table


def test_rank_eleven_checks_pass():
    n = 11
    rows = _chain(n)
    r = (1,) * 9 + (2, 1)
    rz = build_realization(n, r, rows)
    B = ExchangeMatrix.from_rows(rows, [1] * n)
    reports = [
        check_y_realization(rz, (10,)),
        check_x_realization(rz, (10,)),
        check_cg_relations(B, r, (10, 11)),
        check_f_relation(B, r, (10, 11)),
        check_f_symmetry(B, r, (10, 11)),
    ]
    for rep in reports:
        assert rep.passed, (rep.name, rep.witness)
        assert rep.tested > 0
    ge = GeneralizedInvariants(B, r)
    ce = CompositeInvariants(B, r)
    assert "z10_1" in ge.table and "y10_2" in ce.table
