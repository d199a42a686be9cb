"""The benchmark's parts: one full pass each, returning verdict records.

A benchmark workload runs one or more parts, each in its own process
(see run.py). A part returns a list of records and a dict of extra
observations. A
record is `[name, word, tested, attempted, failed]`: one check report,
one reconstruction or one randomized suite, with the number of
equalities it tested, the number of checks or trials it stands for, and
how many of those failed. The records and the extras together are the
part's fingerprint, which the output guard compares with the reference.
Why each part exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout

from gencluster import cli
from gencluster.cases import case_realization
from gencluster.composite import composite_walk
from gencluster.invariants import (
    CompositeInvariants,
    GeneralizedInvariants,
    separation_reconstruct_composite,
    separation_reconstruct_generalized,
)
from gencluster.pattern import mutate_y_seed, reduced_words, walk
from gencluster.semifield import sf_eq
from gencluster.verify import (
    check_cg_relations,
    check_enlargement_commutes,
    check_f_relation,
    check_f_symmetry,
    random_generalized_seed,
    random_instance,
    random_word,
    suite_composite_order_independence,
    suite_mutation_involution,
    suite_skew_preservation,
)

# The depth-4 chain of relations-case2. Its mirror 2,1,2,1 is left out:
# its composite deep step alone takes about 45 s (see README.md).
DEEP_WORD = (1, 2, 1, 2)

# mutate-random trial counts, pinned so that one pass takes about 7 s on a
# shared 2-core x86-64 machine under CPython 3.11. Changing them changes the
# workload, and the reference digests with it.
MUTATE_TRIALS = {
    "involution": 1500,
    "y-involution": 1500,
    "order": 600,
    "skew": 3000,
    "enlargement": 3000,
    "cg": 2500,
}


def _report_record(rep):
    return [rep.name, ",".join(map(str, rep.word)), rep.tested, 1, int(not rep.passed)]


class EngineSizes:
    """Records the F-polynomial term counts an engine holds at DEEP_WORD.

    Wraps the two engines' `step` from outside, in every run, so the
    output guard can compare the endpoint sizes of the deep f-relation
    check; the cost is a few dozen calls per pass.
    """

    def __init__(self):
        self.seen = []

    def install(self):
        for cls in (GeneralizedInvariants, CompositeInvariants):
            cls.step = self._observe(cls.__name__, cls.step)

    def _observe(self, label, step):
        seen = self.seen

        def observed(engine, k):
            out = step(engine, k)
            if engine.word == DEEP_WORD:
                seen.append([label, engine.track_f, [len(f) for f in engine.F]])
            return out

        return observed


def verify_case2(ctx):
    """The ROADMAP's end-to-end command, in-process with stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--seed", "case2", "--check", "all", "--depth", "3"])
    summary = json.loads(buf.getvalue().splitlines()[-1])
    records = [[c["name"], c["word"], c["tested"], 1, int(not c["pass"])]
               for c in summary["checks"]]
    records.append(["exit-code", "", code, 1, int(code != 0)])
    return records, {}


def relations_case2(ctx):
    """Invariant relations on case2 at depth <= 3 and on the chain 1,2,1,2."""
    rz = ctx["case2"]
    B, r = rz.g_seed.B, rz.r
    sizes = ctx["engine_sizes"]
    start = len(sizes.seen)
    records = []
    for word in reduced_words(B.n, 3) + [DEEP_WORD]:
        for check in (check_cg_relations, check_f_relation, check_f_symmetry):
            records.append(_report_record(check(B, r, word)))
    return records, {"deep_f_terms": sizes.seen[start:]}


def suite_y_involution(rng, trials):
    """Mutating the coefficient side twice in one direction restores it.

    The y-side counterpart of `suite_mutation_involution`, so that
    `mutate_y_seed` is loaded on random seeds too.
    """
    failures = []
    for t in range(trials):
        seed = random_generalized_seed(rng)
        k = rng.randint(1, seed.n)
        back = mutate_y_seed(mutate_y_seed(seed, k), k)
        ok = (
            back.B.rows == seed.B.rows
            and all(a == b for a, b in zip(back.Z, seed.Z))
            and all(sf_eq(a, b) for a, b in zip(back.y, seed.y))
        )
        if not ok:
            failures.append(f"trial {t}: direction {k}")
    return trials, failures


def mutate_random(ctx):
    """Many tiny mutations on random instances drawn from the workload seed."""
    seed = ctx["seed"]

    def rng(part):
        return random.Random(f"{seed}:{part}")

    records = []
    for part, suite in (
        ("involution", suite_mutation_involution),
        ("y-involution", suite_y_involution),
        ("order", suite_composite_order_independence),
        ("skew", suite_skew_preservation),
    ):
        trials, failures = suite(rng(part), MUTATE_TRIALS[part])
        records.append([part, "", trials, trials, len(failures)])
    for part, check, depth in (
        ("enlargement", check_enlargement_commutes, 6),
        ("cg", check_cg_relations, 3),
    ):
        draw = rng(part)
        for _ in range(MUTATE_TRIALS[part]):
            B, r = random_instance(draw)
            word = random_word(draw, B.n, depth)
            records.append(_report_record(check(B, r, word)))
    return records, {}


def separation_words():
    """(case, pattern, word) triples of separation-case2.

    Every word of depth <= 2 for both patterns and both cases, plus the
    generalized word 1,2,1 of case2. The case2 word 2,1,2 is left out: it
    adds about 27 s (see README.md).
    """
    out = []
    for case in (1, 2):
        for pattern in ("g", "c"):
            out.extend((case, pattern, w) for w in reduced_words(2, 2))
    out.append((2, "g", (1, 2, 1)))
    return out


def separation_case2(ctx):
    """Separation-formula reconstructions compared against direct walks."""
    records = []
    for case, pattern, word in separation_words():
        rz = ctx[f"case{case}"]
        if pattern == "g":
            end = walk(rz.g_seed, word)
            xs, ys = separation_reconstruct_generalized(rz.g_seed, word)
            equal = [a == b for a, b in zip(xs, end.x)]
            equal += [sf_eq(a, b) for a, b in zip(ys, end.y)]
        else:
            end = composite_walk(rz.c_seed, word)
            xs, ys = separation_reconstruct_composite(rz, word)
            equal = [a == b for a, b in zip(xs, end.ordinary.x)]
            equal += [a == b.payload for a, b in zip(ys, end.ordinary.y)]
        records.append([f"case{case}-{pattern}", ",".join(map(str, word)),
                        len(equal), 1, int(not all(equal))])
    return records, {}


PARTS = {
    "verify-case2": verify_case2,
    "relations-case2": relations_case2,
    "mutate-random": mutate_random,
    "separation-case2": separation_case2,
}


def setup():
    """What every part needs before its clock starts; this is setup_s."""
    ctx = {"case1": case_realization(1), "case2": case_realization(2)}
    ctx["documents"] = [cli.load_seed("case1"), cli.load_seed("case2")]
    return ctx
