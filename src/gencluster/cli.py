"""Batch command line: seed documents, walks, invariant dumps, verification.

Seed documents are JSON with structured entries only (never free-text
math). Schema, version "gencluster-seed/1":

    {
      "schema": "gencluster-seed/1",
      "rank": 2,
      "degree": [2, 1],
      "B": [[0, -1], [1, 0]],
      "D": [1, 1],                                  // optional
      "semifield": {"kind": "universal",            // universal | tropical | trivial
                     "generators": ["y1", "y2", "z11"]},
      "y": [{"y1": 1}, {"y2": 1}],                  // monomial per direction
      "Z": [ [ [{"multiplicity": 1, "monomial": {}}],          // constant term
              [{"multiplicity": 1, "monomial": {"z11": 1}}],   // u-coefficient
              [{"multiplicity": 1, "monomial": {}}] ],         // leading term
            [ ... ] ]
    }

Each exchange-polynomial row lists its coefficients from the constant to
the leading term; a coefficient is a list of {multiplicity, monomial}
group-ring terms and both endpoints must be exactly one. Exit codes:
0 all checks passed, 1 a check or golden comparison failed, 2 usage or
document errors, 3 the computation stopped without a verdict (an
arithmetic error such as an inexact recursion step, or a term budget
exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cases import case_document, run_table_check
from .composite import Realization, build_realization
from .invariants import CompositeInvariants, GeneralizedInvariants
from .pattern import check_word, render_matrix, walk
from .polyring import TermLimitError
from .verify import (
    CHECKS,
    ExpressionSwellError,
    check_enlargement_commutes,
    random_instance,
    random_realization,
    random_word,
)

SCHEMA = "gencluster-seed/1"

MAX_DEPTH = 6
MAX_TRIALS = 1000


class SeedDocumentError(ValueError):
    pass


@dataclass(frozen=True)
class SeedDocument:
    """Validated, normalized content of a seed file."""

    rank: int
    degree: tuple
    B: tuple
    D: tuple
    kind: str
    generators: tuple
    y: tuple
    Z: tuple

    def realization(self) -> Realization:
        z_values = []
        for i in range(self.rank):
            row = []
            for l in range(self.degree[i] - 1):
                row.append([(m, dict(mono)) for m, mono in self.Z[i][l + 1]])
            z_values.append(row)
        return build_realization(
            self.rank,
            self.degree,
            [list(row) for row in self.B],
            list(self.D) if self.D else None,
            kind=self.kind,
            generators=list(self.generators),
            y_values=[dict(m) for m in self.y],
            z_values=z_values,
        )


def _require(cond, message):
    if not cond:
        raise SeedDocumentError(message)


def _norm_monomial(obj, field):
    _require(isinstance(obj, dict), f"{field}: monomial must be an object")
    out = []
    for name, e in sorted(obj.items()):
        _require(isinstance(name, str) and name, f"{field}: bad generator name")
        _require(isinstance(e, int), f"{field}: exponents must be integers")
        if e:
            out.append((name, e))
    return tuple(out)


def parse_seed_document(doc: dict) -> SeedDocument:
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    n = doc.get("rank")
    _require(isinstance(n, int) and n >= 1, "rank: positive integer required")
    degree = doc.get("degree")
    _require(
        isinstance(degree, list) and len(degree) == n
        and all(isinstance(v, int) and v >= 1 for v in degree),
        "degree: list of positive integers, one per direction",
    )
    B = doc.get("B")
    _require(
        isinstance(B, list) and len(B) == n
        and all(isinstance(row, list) and len(row) == n for row in B)
        and all(isinstance(v, int) for row in B for v in row),
        "B: square integer matrix of size rank",
    )
    D = doc.get("D")
    if D is not None:
        _require(
            isinstance(D, list) and len(D) == n
            and all(isinstance(v, int) and v > 0 for v in D),
            "D: positive integer diagonal of size rank",
        )
    sf = doc.get("semifield")
    _require(isinstance(sf, dict), "semifield: object required")
    kind = sf.get("kind")
    _require(kind in ("universal", "tropical", "trivial"), "semifield.kind: unknown kind")
    gens = sf.get("generators", [])
    _require(
        isinstance(gens, list) and all(isinstance(g, str) and g for g in gens),
        "semifield.generators: list of names",
    )
    _require(len(set(gens)) == len(gens), "semifield.generators: names must be distinct")
    _require(kind != "trivial" or not gens, "semifield.generators: trivial kind has none")

    y = doc.get("y")
    _require(isinstance(y, list) and len(y) == n, "y: one monomial per direction")
    y_norm = tuple(_norm_monomial(v, f"y[{i}]") for i, v in enumerate(y))
    gen_set = set(gens)
    for i, mono in enumerate(y_norm):
        for name, _ in mono:
            _require(name in gen_set, f"y[{i}]: unknown generator {name!r}")

    Z = doc.get("Z")
    _require(isinstance(Z, list) and len(Z) == n, "Z: one coefficient list per direction")
    z_norm = []
    for i, row in enumerate(Z):
        _require(
            isinstance(row, list) and len(row) == degree[i] + 1,
            f"Z[{i}]: needs degree+1 coefficients, constant to leading",
        )
        row_norm = []
        for l, coeff in enumerate(row):
            _require(isinstance(coeff, list), f"Z[{i}][{l}]: list of terms required")
            terms = []
            for t, term in enumerate(coeff):
                _require(
                    isinstance(term, dict)
                    and isinstance(term.get("multiplicity"), int),
                    f"Z[{i}][{l}][{t}]: multiplicity/monomial object required",
                )
                mult = term["multiplicity"]
                _require(mult >= 0, f"Z[{i}][{l}][{t}]: multiplicity must be nonnegative")
                mono = _norm_monomial(term.get("monomial", {}), f"Z[{i}][{l}][{t}]")
                for name, _ in mono:
                    _require(name in gen_set, f"Z[{i}][{l}][{t}]: unknown generator {name!r}")
                if mult:
                    terms.append((mult, mono))
            if l in (0, degree[i]):
                _require(
                    terms == [(1, ())],
                    f"Z[{i}][{l}]: endpoint coefficients must be exactly 1",
                )
            row_norm.append(tuple(terms))
        z_norm.append(tuple(row_norm))
    return SeedDocument(
        rank=n,
        degree=tuple(degree),
        B=tuple(tuple(row) for row in B),
        D=tuple(D) if D else (),
        kind=kind,
        generators=tuple(gens),
        y=y_norm,
        Z=tuple(z_norm),
    )


def render_seed_document(sd: SeedDocument) -> dict:
    doc = {
        "schema": SCHEMA,
        "rank": sd.rank,
        "degree": list(sd.degree),
        "B": [list(row) for row in sd.B],
        "semifield": {"kind": sd.kind, "generators": list(sd.generators)},
        "y": [dict(mono) for mono in sd.y],
        "Z": [
            [
                [
                    {"multiplicity": mult, "monomial": dict(mono)}
                    for mult, mono in coeff
                ]
                for coeff in row
            ]
            for row in sd.Z
        ],
    }
    if sd.D:
        doc["D"] = list(sd.D)
    return doc


def load_seed(spec: str) -> SeedDocument:
    if spec == "case1":
        return parse_seed_document(case_document(1))
    if spec == "case2":
        return parse_seed_document(case_document(2))
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SeedDocumentError(f"cannot read seed file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SeedDocumentError(f"seed file is not valid JSON: {exc}") from None
    return parse_seed_document(doc)


def _parse_csv_word(text: str):
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SeedDocumentError(f"bad word {text!r}: comma-separated integers expected")


# -- subcommands -------------------------------------------------------------


def cmd_mutate(args) -> int:
    sd = load_seed(args.seed)
    word = _parse_csv_word(args.word)
    rz = sd.realization()
    check_word(word, rz.n)
    end = walk(rz.g_seed, word)
    word_text = ",".join(str(k) for k in word) or "-"
    print(f"seed after word {word_text}")
    print(f"B = {end.B.render()}")
    print(f"D = [{','.join(str(v) for v in end.B.symmetrizer())}]")
    for i in range(end.n):
        print(f"x[{i + 1}] = {end.x[i].expand().render()}")
    for i in range(end.n):
        print(f"y[{i + 1}] = {end.y[i].render()}")
    for i in range(end.n):
        print(f"Z[{i + 1}] = {end.Z[i].render()}")
    return 0


def cmd_invariants(args) -> int:
    sd = load_seed(args.seed)
    word = _parse_csv_word(args.word)
    pattern = args.pattern
    what = [w.strip() for w in args.what.split(",") if w.strip()]
    for w in what:
        if w not in ("c", "g", "f"):
            raise SeedDocumentError(f"unknown invariant {w!r}: expected c, g or f")
    rz = sd.realization()
    check_word(word, rz.n)
    B = rz.g_seed.B
    if pattern == "g":
        eng = GeneralizedInvariants(B, rz.r, track_f="f" in what).walk(word)
        suffix = "g"
    else:
        eng = CompositeInvariants(B, rz.r, track_f="f" in what).walk(word)
        suffix = "c"
    for w in what:
        if w == "c":
            print(f"C_{suffix} = {render_matrix(eng.c_rows())}")
        elif w == "g":
            print(f"G_{suffix} = {render_matrix(eng.g_rows())}")
        else:
            if pattern == "g":
                for i, f in enumerate(eng.F):
                    print(f"F_g[{i + 1}] = {f.render()}")
            else:
                for (i, l), f in zip(eng.pairs, eng.F):
                    print(f"F_c[{i + 1},{l + 1}] = {f.render()}")
    return 0


def cmd_verify(args) -> int:
    names = sorted(CHECKS) if args.check == "all" else [args.check]
    for name in names:
        if name not in CHECKS:
            known = ", ".join(sorted(CHECKS))
            raise SeedDocumentError(f"unknown check {args.check!r}: expected one of {known}")
    # an empty range of words or trials would make a vacuous pass
    if not 1 <= args.depth <= MAX_DEPTH:
        raise SeedDocumentError(
            f"depth {args.depth} is outside the supported bounds 1..{MAX_DEPTH}"
        )
    if not 1 <= args.trials <= MAX_TRIALS:
        raise SeedDocumentError(
            f"trials {args.trials} is outside the supported bounds 1..{MAX_TRIALS}"
        )

    import random

    reports = []
    if args.random:
        if args.rng_seed is None:
            raise SeedDocumentError("--rng-seed is required with --random")
        rng = random.Random(args.rng_seed)
        for name in names:
            for _ in range(args.trials):
                reports.extend(_run_random_check(name, rng, args.depth))
    else:
        sd = load_seed(args.seed)
        rz = sd.realization()
        from .pattern import reduced_words

        words = reduced_words(rz.n, args.depth)
        for name in names:
            for word in words:
                reports.append(_run_seed_check(name, rz, word))
    reports.sort(key=lambda rep: (rep.name, rep.word))
    for rep in reports:
        print(rep.line())
    passed = all(rep.passed for rep in reports)
    summary = {
        "command": "verify",
        "checks": [
            {
                "name": rep.name,
                "word": ",".join(str(k) for k in rep.word),
                "pass": rep.passed,
                "tested": rep.tested,
            }
            for rep in reports
        ],
        "pass": passed,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if passed else 1


def _run_seed_check(name, rz: Realization, word):
    check = CHECKS[name]
    if name in ("y-realization", "x-realization"):
        return check(rz, word)
    if name == "laurent-positive":
        return check(rz.g_seed, word)
    if name == "enlargement":
        return check(rz.g_seed.B, rz.r, word)
    return check(rz.g_seed.B, rz.r, word)


def _run_random_check(name, rng, depth):
    if name == "enlargement":
        B, r = random_instance(rng)
        word = random_word(rng, B.n, depth)
        return [check_enlargement_commutes(B, r, word)]
    rz = random_realization(rng)
    word = random_word(rng, rz.n, min(depth, 3))
    return [_run_seed_check(name, rz, word)]


def cmd_table(args) -> int:
    if args.case not in (1, 2):
        raise SeedDocumentError("unknown case")
    result = run_table_check(args.case)
    for entry in result.entries:
        print(entry.line())
    expected_flags = 1 if args.case == 1 else 0
    ok = result.ok and result.flagged == expected_flags
    print(
        f"case {args.case}: {len(result.entries)} entries, "
        f"{result.flagged} flagged discrepancies, "
        f"{'all reproduced' if ok else 'MISMATCHES FOUND'}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencluster",
        description="Exact generalized cluster patterns, composite realizations, and their checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="walk a seed and dump the endpoint")
    p.add_argument("--seed", required=True, help="seed file, or case1 / case2")
    p.add_argument("--word", default="", help="comma-separated directions, e.g. 1,2,1")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("invariants", help="print invariant matrices and polynomials")
    p.add_argument("--seed", required=True)
    p.add_argument("--word", default="")
    p.add_argument("--pattern", choices=("g", "c"), default="g")
    p.add_argument("--what", default="c,g,f", help="comma list from c,g,f")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="run one or all identity checkers")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed")
    group.add_argument("--random", action="store_true")
    p.add_argument("--check", default="all")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--rng-seed", type=int, default=None,
                   help="required with --random; pins the instance stream")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="recompute and diff an embedded reference table")
    p.add_argument("--case", type=int, required=True)
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SeedDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, TermLimitError, ExpressionSwellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
