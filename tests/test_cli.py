import json

import pytest

from gencluster.cases import case_document
from gencluster import cli
from gencluster.cli import (
    SeedDocumentError,
    load_seed,
    main,
    parse_seed_document,
    render_seed_document,
)
from gencluster.polyring import TermLimitError
from gencluster.verify import ExpressionSwellError


def test_round_trip_is_identity():
    for case in (1, 2):
        doc = case_document(case)
        parsed = parse_seed_document(doc)
        again = parse_seed_document(render_seed_document(parsed))
        assert parsed == again


def test_parse_rejects_bad_documents():
    doc = case_document(1)
    doc["schema"] = "nope"
    with pytest.raises(SeedDocumentError, match="schema"):
        parse_seed_document(doc)
    doc = case_document(1)
    doc["Z"][0][0] = [{"multiplicity": 2, "monomial": {}}]
    with pytest.raises(SeedDocumentError, match="endpoint"):
        parse_seed_document(doc)
    doc = case_document(1)
    doc["y"][0] = {"nope": 1}
    with pytest.raises(SeedDocumentError, match="unknown generator"):
        parse_seed_document(doc)


def test_load_seed_from_file(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(case_document(1)))
    sd = load_seed(str(path))
    assert sd.rank == 2 and sd.degree == (2, 1)
    with pytest.raises(SeedDocumentError, match="cannot read"):
        load_seed(str(tmp_path / "missing.json"))


def test_mutate_empty_word_echoes_seed(capsys):
    assert main(["mutate", "--seed", "case1", "--word", ""]) == 0
    out = capsys.readouterr().out
    assert "B = [[0,-1],[1,0]]" in out
    assert "x[1] = x1" in out
    assert "Z[1] = 1 + z11*u + u^2" in out


def test_mutate_single_step_values(capsys):
    assert main(["mutate", "--seed", "case1", "--word", "1"]) == 0
    out = capsys.readouterr().out
    assert "y[1] = y1^-1" in out
    assert "B = [[0,1],[-1,0]]" in out


def test_mutate_rejects_non_reduced_word(capsys):
    assert main(["mutate", "--seed", "case1", "--word", "1,1"]) == 2
    assert "non-reduced word" in capsys.readouterr().err


def test_invariants_reference_output(capsys):
    assert main(
        ["invariants", "--seed", "case2", "--word", "1,2", "--pattern", "g", "--what", "c"]
    ) == 0
    assert "C_g = [[11,-2],[6,-1]]" in capsys.readouterr().out


def test_invariants_composite_polynomials(capsys):
    assert main(
        ["invariants", "--seed", "case1", "--word", "1,2,1", "--pattern", "c", "--what", "f"]
    ) == 0
    out = capsys.readouterr().out
    assert "F_c[1,1] = 1 + y21 + y12*y21" in out
    assert "F_c[2,1] = 1 + y21 + y11*y21 + y12*y21 + y11*y12*y21" in out


def test_verify_unknown_check(capsys):
    assert main(["verify", "--seed", "case1", "--check", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err and "enlargement" in err


def test_verify_bound_exceeded(capsys):
    assert main(["verify", "--seed", "case1", "--depth", "9"]) == 2
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--seed", "case2", "--depth", "0"],
    ["--seed", "case2", "--depth", "-2"],
    ["--random", "--trials", "0", "--rng-seed", "1"],
    ["--random", "--trials", "-3", "--rng-seed", "1"],
    ["--random", "--depth", "0", "--rng-seed", "1"],
])
def test_verify_rejects_empty_ranges(capsys, args):
    # no words or no trials would check nothing and pass vacuously
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "bounds" in captured.err


@pytest.mark.parametrize("error", [
    ArithmeticError("polynomial recursion step is not exactly divisible"),
    TermLimitError("expansion exceeds 10 terms"),
    ExpressionSwellError("equality residual exceeds 10 terms"),
])
def test_verify_stopped_computation_exits_three(capsys, monkeypatch, error):
    def raiser(*args):
        raise error

    monkeypatch.setitem(cli.CHECKS, "enlargement", raiser)
    assert main(["verify", "--seed", "case1", "--check", "enlargement", "--depth", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_verify_random_requires_rng_seed(capsys):
    assert main(["verify", "--random", "--check", "enlargement"]) == 2
    assert "--rng-seed is required" in capsys.readouterr().err


def test_verify_single_check_json_summary(capsys):
    code = main(
        ["verify", "--seed", "case1", "--check", "enlargement", "--depth", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["pass"] is True
    assert all(entry["tested"] > 0 for entry in summary["checks"])


def test_verify_random_is_reproducible(capsys):
    args = [
        "verify", "--random", "--check", "enlargement",
        "--trials", "5", "--rng-seed", "11", "--depth", "4",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_table_case2_all_match(capsys):
    assert main(["table", "--case", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 flagged" in out and "all reproduced" in out


def test_table_case1_flags_single_entry(capsys):
    assert main(["table", "--case", "1"]) == 0
    out = capsys.readouterr().out
    assert "KNOWN-DISCREPANCY" in out
    assert out.count("KNOWN-DISCREPANCY") == 1
    assert "recursion gives 1, transcription says -1" in out


def test_table_unknown_case(capsys):
    assert main(["table", "--case", "3"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_table_mismatch_exits_one(capsys, monkeypatch):
    from gencluster import cases

    doctored = list(cases.TABLE2_GG)
    doctored[3] = ((0, 0), (0, 0))
    monkeypatch.setattr(cases, "TABLE2_GG", tuple(doctored))
    assert main(["table", "--case", "2"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "MISMATCHES FOUND" in out


def test_usage_error_exit_code():
    assert main(["mutate"]) == 2
