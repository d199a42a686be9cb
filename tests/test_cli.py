import hashlib
import json
import os
import subprocess
import sys

import pytest

from gencluster.cases import case_document
from gencluster import cli
from gencluster.cli import (
    SeedDocumentError,
    load_seed,
    main,
    parse_seed_document,
)
from gencluster.polyring import TermLimitError


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


def _tropical_document(tmp_path):
    """Case 2 over the tropical semifield, with a two-term middle coefficient."""
    doc = case_document(2)
    doc["semifield"]["kind"] = "tropical"
    doc["y"] = [{"y1": 1, "y2": -1}, {"y2": 2}]
    doc["Z"][0][1] = [
        {"multiplicity": 2, "monomial": {"z11": 1}},
        {"multiplicity": 1, "monomial": {"y1": -1}},
    ]
    path = tmp_path / "tropical.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _trivial_document(tmp_path):
    """Case 2 over the trivial semifield: every coefficient is 1."""
    doc = case_document(2)
    doc["semifield"] = {"kind": "trivial", "generators": []}
    doc["y"] = [{}, {}]
    for row in doc["Z"]:
        for l in range(1, len(row) - 1):
            row[l] = [{"multiplicity": 1, "monomial": {}}]
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("seed, digest", [
    ("case1", "be857aff401f79497e73c5584fdb6ca6bb420c52b6c96a84d5fdb566535791bf"),
    ("case2", "1698f8d89551928b2a19e7d83de82aa933b5014faaa8d9ae76cd833cece47ea3"),
    ("tropical", "ec0565996afac1acb2bf5cd4919fb4462d8a806c09dd5314ad7f1614490350ed"),
    ("trivial", "d5c65faee4f7144566556f830f1d8f5806a2c82f5ca4013cd837fd35e1787b8a"),
])
def test_mutate_output_is_pinned(capsys, tmp_path, seed, digest):
    # sha256 of the whole default output of `mutate --word 1,2,1`
    if seed == "tropical":
        seed = _tropical_document(tmp_path)
    elif seed == "trivial":
        seed = _trivial_document(tmp_path)
    assert main(["mutate", "--seed", seed, "--word", "1,2,1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case, digest", [
    ("1", "f9f2bb85ca7c8ab4cd9caed8c9ba843c92f8e6a85b47c40af58f46ea92541ef2"),
    ("2", "9688ad31f3304e1670016c2419cee66d68e41494e9b276423042be9ab58a949a"),
])
def test_table_output_is_pinned(capsys, case, digest):
    # sha256 of the whole default output of `table --case N`; case 1
    # carries the known-discrepancy note
    assert main(["table", "--case", case]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, check, digest", [
    ("case2", "all", "41c8bf32c3b728beed9bbc185cffab64e561b477d7b160b3e7d8ede24aa29b04"),
    ("tropical", "y-realization",
     "ba7d647b98101aa60acb32ea797d938aaad5aad1179c59b833a94d078f44a2d7"),
])
def test_verify_output_is_pinned(capsys, tmp_path, seed, check, digest):
    # sha256 of the whole default output of `verify --check C --depth 3`;
    # both pass through the splitting-variable elimination
    if seed == "tropical":
        seed = _tropical_document(tmp_path)
    assert main(["verify", "--seed", seed, "--check", check, "--depth", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [_tropical_document, _trivial_document])
def test_verify_all_skips_x_realization_off_universal_bases(capsys, tmp_path, make):
    # `all` runs every check defined for the base and reports the skip;
    # x-realization alone is still refused
    seed = make(tmp_path)
    assert main(["verify", "--seed", seed, "--check", "all", "--depth", "2"]) == 0
    captured = capsys.readouterr()
    note, = captured.err.splitlines()
    assert note.startswith("note: skipped x-realization: it requires universal coefficients")
    summary = json.loads(captured.out.splitlines()[-1])
    assert summary["pass"] is True and summary["skipped"] == ["x-realization"]
    assert {c["name"] for c in summary["checks"]} == set(cli.CHECKS) - {"x-realization"}
    assert main(["verify", "--seed", seed, "--check", "x-realization", "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x-realization checking requires universal coefficients" in captured.err


def test_mutate_rejects_non_reduced_word(capsys):
    assert main(["mutate", "--seed", "case1", "--word", "1,1"]) == 2
    assert "non-reduced word" in capsys.readouterr().err


@pytest.mark.parametrize("field, put", [
    ("rank", lambda doc: doc.update(rank=True)),
    ("degree", lambda doc: doc["degree"].__setitem__(1, True)),
    ("B", lambda doc: doc["B"][0].__setitem__(1, True)),
    ("D", lambda doc: doc["D"].__setitem__(1, True)),
    ("y[0]", lambda doc: doc["y"][0].update(y1=True)),
    ("Z[0][1][0]", lambda doc: doc["Z"][0][1][0].update(multiplicity=True)),
    ("Z[0][1][0]", lambda doc: doc["Z"][0][1][0]["monomial"].update(z11=True)),
], ids=["rank", "degree", "B", "D", "y-exponent", "Z-multiplicity", "Z-exponent"])
def test_seed_documents_reject_booleans_for_integers(capsys, tmp_path, field, put):
    # JSON true reads as a Python bool, which is an int; the schema wants integers
    doc = case_document(2)
    put(doc)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    assert main(["mutate", "--seed", str(path), "--word", "1"]) == 2
    assert f"error: {field}" in capsys.readouterr().err


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


@pytest.mark.parametrize("what", ["", ",", " , "])
def test_invariants_rejects_empty_what(capsys, what):
    # no invariant named would print nothing and exit 0
    assert main(["invariants", "--seed", "case2", "--what", what]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--what" in captured.err


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


def test_closed_pipe_exits_three_without_a_traceback():
    # `mutate --seed case2 --word 1,2,1` writes about 270 kB, more than a
    # pipe holds, so the writer meets the closed pipe
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-m", "gencluster.cli", "mutate", "--seed", "case2", "--word", "1,2,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err and "Exception ignored" not in err, err
