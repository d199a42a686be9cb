"""Executable checkers for every structural identity in scope.

Each checker recomputes both sides of one asserted identity from
independent routes and returns a report carrying the number of individual
equalities tested, so no check can pass vacuously. The randomized suites
at the bottom drive the same checkers over pinned-seed instance streams
within fixed size bounds.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from math import gcd

from .polyring import (
    FactoredFraction,
    LaurentPolynomial,
    VariableTable,
    cross_evaluate,
    ff_eq,
    normalize_fraction,
    psi_hat_factored,
    split_terms,
    swap_variables,
)
from .pattern import (
    ExchangeMatrix,
    ExchangePolynomial,
    GeneralizedSeed,
    check_word,
    mutate_B,
    mutate_seed,
    pos,
    reduced_words,
    walk,
    walk_y,
)
from .composite import (
    Realization,
    block_offsets,
    block_pairs,
    build_realization,
    composite_mutate,
    composite_mutate_closed,
    composite_walk,
    composite_walk_y,
    coefficient_names,
    enlarge,
    sigma_of_word,
    slot_name,
    slot_names,
    splitting_symbols,
)
from .invariants import (
    CompositeInvariants,
    GeneralizedInvariants,
    separation_reconstruct_composite,
    separation_reconstruct_generalized,
)
from .semifield import (
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    psi,
    sf_eq,
    sf_mul,
    sf_pow,
)


@dataclass
class CheckReport:
    name: str
    word: tuple
    passed: bool
    tested: int
    witness: str = None
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        word = ",".join(str(k) for k in self.word) or "-"
        out = f"{status} {self.name} word={word} tested={self.tested}"
        if not self.passed and self.witness:
            out += f" witness: {self.witness}"
        return out


def _report(name, word, failures, tested, started) -> CheckReport:
    return CheckReport(
        name=name,
        word=tuple(word),
        passed=not failures,
        tested=tested,
        witness="; ".join(failures[:3]) if failures else None,
        seconds=time.perf_counter() - started,
    )


# -- individual checkers -----------------------------------------------------


def check_enlargement_commutes(B: ExchangeMatrix, r, word) -> CheckReport:
    """Enlarging then block-mutating equals mutating then enlarging, stepwise."""
    started = time.perf_counter()
    word = check_word(word, B.n)
    offs = block_offsets(r)
    size = sum(r)
    small = B
    big = enlarge(B, r)
    failures = []
    tested = 0
    for step, k in enumerate(word):
        small = mutate_B(small, r, k)
        for l in range(r[k - 1]):
            big = mutate_B(big, (1,) * size, offs[k - 1] + l + 1)
        tested += 1
        if big.rows != enlarge(small, r).rows:
            failures.append(f"step {step + 1} (direction {k}): blocks diverge")
            break
    return _report("enlargement", word, failures, tested, started)


def check_y_realization(rz: Realization, word) -> CheckReport:
    """Block products of split coefficients project onto degree powers."""
    started = time.perf_counter()
    g = walk_y(rz.g_seed, word)
    c = composite_walk_y(rz.c_seed, word)
    failures = []
    tested = 0
    for i in range(rz.n):
        prod = None
        for l in range(rz.r[i]):
            v = c.y(i, l)
            prod = v if prod is None else sf_mul(prod, v)
        image = psi(prod, rz.symbols, rz.base_kind)
        want = sf_pow(g.y[i], rz.r[i])
        tested += 1
        if not sf_eq(image, want):
            failures.append(
                f"direction {i + 1}: {image.render()} != {want.render()}"
            )
    return _report("y-realization", word, failures, tested, started)


def check_x_realization(rz: Realization, word, term_limit=None) -> CheckReport:
    """Splitting-variable elimination maps block products onto cluster variables.

    Only meaningful over a universal coefficient base: the composite
    ambient field has formal group-ring scalars, and for other bases a
    ring sum of coefficients and its semifield counterpart collapse to the
    same rational function whenever a hat-variable loses its cluster
    support, so the pointwise comparison is not well-defined there.
    """
    if rz.base_kind.kind != "universal":
        raise ValueError(
            "x-realization checking requires universal coefficients; "
            "formal scalar sums collapse in other representations"
        )
    started = time.perf_counter()
    g = walk(rz.g_seed, word)
    c = composite_walk(rz.c_seed, word)
    embed = rz.x_embedding()
    failures = []
    tested = 0
    for i in range(rz.n):
        X = None
        for l in range(rz.r[i]):
            v = c.x(i, l)
            X = v if X is None else X * v
        lhs = rz.psi_hat_image(X)
        rhs = FactoredFraction.one(rz.table)
        for p, e in g.x[i].factors.values():
            rhs = rhs * FactoredFraction.from_poly(p.substitute_monomials(embed), e)
        tested += 1
        if not ff_eq(lhs, rhs, term_limit=term_limit):
            failures.append(f"direction {i + 1}: block product image differs")
    return _report("x-realization", word, failures, tested, started)


def check_cg_relations(B: ExchangeMatrix, r, word) -> CheckReport:
    """Column/row sums and shifted entries tie the two invariant families."""
    started = time.perf_counter()
    word = check_word(word, B.n)
    ge = GeneralizedInvariants(B, r, track_f=False).walk(word)
    ce = CompositeInvariants(B, r, track_f=False).walk(word)
    sig = sigma_of_word(word, B.n)
    failures = []
    tested = block_relations("C", ce.C, ge.C, r, sig, failures)
    tested += block_relations("G", list(zip(*ce.G)), list(zip(*ge.G)), r, sig, failures)
    return _report("cg-relations", word, failures, tested, started)


def block_relations(label, fine, coarse, r, sig, failures) -> int:
    """The relations between a composite matrix and its generalized one.

    In block (i, j) of `fine` every column sums to coarse[i][j], every row
    to r_j / r_i times it, and the entries less sig_j on the block diagonal
    are one constant t with coarse[i][j] = r_i t (+ sig_j when i == j).
    These are the C-relations; the G-relations are the same on the
    transposed matrices, so a G witness names the transposed block.
    Returns the number of equalities tested.
    """
    offs = block_offsets(r)
    n = len(r)
    tested = 0
    for i in range(n):
        rows = fine[offs[i]:offs[i] + r[i]]
        for j in range(n):
            want = coarse[i][j]
            block = [row[offs[j]:offs[j] + r[j]] for row in rows]
            tested += r[j] + r[i] + 1
            for m0, s in enumerate(map(sum, zip(*block))):
                if s != want:
                    failures.append(f"{label} sum ({i + 1},{j + 1}) m0={m0 + 1}: {s} != {want}")
            for l0, row in enumerate(block):
                if r[j] * want != r[i] * sum(row):
                    failures.append(f"{label} rescaled sum ({i + 1},{j + 1}) l0={l0 + 1}")
            tilde = set().union(*block) if i != j else {
                v - sig[j] * (l == m) for l, row in enumerate(block) for m, v in enumerate(row)
            }
            if len(tilde) != 1:
                failures.append(f"{label} shifted entries not constant at ({i + 1},{j + 1})")
                continue
            tested += 1
            if want != r[i] * tilde.pop() + (sig[j] if i == j else 0):
                failures.append(f"{label} shifted form differs at ({i + 1},{j + 1})")
    return tested


def _relation_symbols(table, r):
    """Splitting symbols whose interior targets are the generators z_il."""
    z = [FactoredFraction.variable(table, nm) for nm in slot_names("z", r, interior=True)]
    return splitting_symbols(table, r, z)


def _f_relation_endpoint(ge, ce, table, symbols, failures, counter) -> None:
    """Direct endpoint comparison, both the block-product and swapped forms."""
    n, r = ge.n, ge.r
    pairs = block_pairs(r)
    offs = block_offsets(r)

    def split_assignment(swap=None):
        assign = {}
        for flat, (j, m) in enumerate(pairs):
            slot = m
            if swap and j == swap[0]:
                if m == swap[1]:
                    slot = swap[2]
                elif m == swap[2]:
                    slot = swap[1]
            assign[flat] = FactoredFraction.from_poly(LaurentPolynomial.monomial(
                table, {slot_name("s", j, slot, n): 1, f"y{j + 1}": 1}
            ))
        return assign

    # both forms stay factored, so equal factors merge and every orbit's
    # product is rewritten once, in the symbols' orbit cache
    base_assign = split_assignment()
    for i in range(n):
        rhs = FactoredFraction.from_poly(ge.F[i].transplant(table))
        prod = FactoredFraction.one(table)
        for l in range(r[i]):
            prod = prod * cross_evaluate(ce.F[offs[i] + l], base_assign, table)
        lhs = psi_hat_factored(prod, symbols)
        counter[0] += 1
        if not ff_eq(lhs, rhs):
            failures.append(f"direction {i + 1}: block product form differs")
        # transposition form: one slot's polynomial at all swapped arguments
        for l0 in range(r[i]):
            prod2 = FactoredFraction.one(table)
            for m in range(r[i]):
                swapped = split_assignment(swap=(i, l0, m))
                prod2 = prod2 * cross_evaluate(ce.F[offs[i] + l0], swapped, table)
            lhs2 = psi_hat_factored(prod2, symbols)
            counter[0] += 1
            if not ff_eq(lhs2, rhs):
                failures.append(
                    f"direction {i + 1}: transposed form differs at slot {l0 + 1}"
                )


def _stepwise_table(r):
    phi_names = [f"phi{i + 1}" for i in range(len(r))]
    return VariableTable(
        coefficient_names(r) + phi_names + slot_names("s", r) + slot_names("e", r) + ["qarg"]
    )


def _f_relation_step(ge, ce, k, table, symbols, failures, counter) -> None:
    """One-transition form of the relation, over block-product stand-ins.

    Verifies the block structure of the fine column, eliminates the
    splitting variables from the whole-block exchange factor, and compares
    against the coarse exchange numerator with each coarse polynomial
    replaced by a formal block-product symbol. Together with the endpoint
    comparisons at shallower vertices this extends the identity exactly one
    step at a time without expanding any large polynomial.
    """
    n = ge.n
    r = ge.r
    k0 = k - 1
    rk = r[k0]
    offs = block_offsets(r)
    pairs = block_pairs(r)
    sigma = -1 if ge.reversed[k0] else 1

    bcore = ce.block_core().rows
    counter[0] += 1
    if tuple(tuple(row) for row in bcore) != tuple(tuple(row) for row in ge.B):
        failures.append("exchange matrices of the two engines diverge")
        return

    C = ce.C
    cols = [offs[k0] + l for l in range(rk)]

    tilde = [None] * n
    ok = True
    for l, col in enumerate(cols):
        for flat, (j, m) in enumerate(pairs):
            value = C[flat][col] - (sigma if (j, m) == (k0, l) else 0)
            if tilde[j] is None:
                tilde[j] = value
            elif tilde[j] != value:
                ok = False
    counter[0] += 1
    if not ok:
        failures.append("fine column is not shifted-constant on blocks")
        return

    # negative parts of the fine columns, summed over the block slots
    E = [None] * n
    for j in range(n):
        per_m = set()
        for m in range(r[j]):
            flat = offs[j] + m
            per_m.add(sum(pos(-C[flat][col]) for col in cols))
        counter[0] += 1
        if len(per_m) != 1:
            failures.append("negative column parts differ inside a block")
            return
        E[j] = per_m.pop()

    gamma_y = [None] * n
    for j in range(n):
        per_l = {
            sum(C[offs[j] + m][col] for m in range(r[j])) for col in cols
        }
        counter[0] += 1
        if len(per_l) != 1:
            failures.append("column block sums differ across slots")
            return
        gamma_y[j] = per_l.pop()

    y_part = {f"y{j + 1}": r[j] * E[j] for j in range(n) if E[j]}
    phi_part = {
        f"phi{j + 1}": rk * pos(-bcore[j][k0]) for j in range(n) if pos(-bcore[j][k0])
    }
    prefix = LaurentPolynomial.monomial(table, {**y_part, **phi_part})

    qprod = LaurentPolynomial.one(table)
    for l in range(rk):
        factor = LaurentPolynomial.one(table) + LaurentPolynomial.monomial(
            table, {slot_name("s", k0, l, n): sigma, "qarg": 1}
        )
        qprod = qprod * factor
    qimage = psi_hat_factored(FactoredFraction.from_poly(qprod), symbols)
    qnum, qden = normalize_fraction(*qimage.expand_parts())
    counter[0] += 1
    if not qden.is_one():
        failures.append("whole-block exchange factor did not reduce cleanly")
        return
    gamma = {table.index("qarg"): _gamma_monomial(table, gamma_y, bcore, k0, n)}
    lhs = prefix * qnum.substitute_monomials(gamma)

    phi_vals = [
        LaurentPolynomial.variable(table, f"phi{j + 1}") for j in range(n)
    ]
    rhs = ge.step_numerator(
        k0,
        fvals=phi_vals,
        table=table,
        zcoeff=lambda l: ge.zcoeff(k0, l).transplant(table),
    )
    counter[0] += 1
    if lhs != rhs:
        failures.append(f"step form differs in direction {k}")


def _gamma_monomial(table, gamma_y, bcore, k0, n):
    exps = [0] * len(table)
    for j in range(n):
        if gamma_y[j]:
            exps[table.index(f"y{j + 1}")] = gamma_y[j]
        b = bcore[j][k0]
        if b:
            exps[table.index(f"phi{j + 1}")] = b
    return tuple(exps)


# Largest estimated endpoint product, in terms, that check_f_relation expands.
_ENDPOINT_LIMIT = 2_000_000


def check_f_relation(B: ExchangeMatrix, r, word) -> CheckReport:
    """Products of per-slot polynomials at split arguments collapse to the coarse ones.

    Every transition along the word is verified in the stepwise form; the
    endpoint comparison (including the transposed variants) runs whenever
    the estimated product size stays under `_ENDPOINT_LIMIT`.
    """
    started = time.perf_counter()
    n = B.n
    word = check_word(word, n)
    ge = GeneralizedInvariants(B, r)
    ce = CompositeInvariants(B, r)
    table = _stepwise_table(r)
    symbols = _relation_symbols(table, r)
    failures = []
    counter = [0]
    offs = block_offsets(r)
    for d, k in enumerate(word):
        _f_relation_step(ge, ce, k, table, symbols, failures, counter)
        if failures:
            break
        if d == len(word) - 1:
            # cost of materializing the final polynomials, bounded by the
            # term counts of the step products
            step_cost = 1
            for j, (jj, _) in enumerate(ce.pairs):
                b = abs(ce.B[j][offs[k - 1]])
                if b:
                    step_cost *= max(len(ce.F[j]), 1) ** b
            if step_cost > _ENDPOINT_LIMIT:
                ge.track_f = False
                ce.track_f = False
        ge.step(k)
        ce.step(k)
    if not failures and ge.track_f:
        estimate = max(
            math.prod(max(len(ce.F[offs[i] + l]), 1) for l in range(r[i]))
            for i in range(n)
        )
        if estimate <= _ENDPOINT_LIMIT:
            _f_relation_endpoint(ge, ce, table, symbols, failures, counter)
    return _report("f-relation", word, failures, counter[0], started)


def check_f_symmetry(B: ExchangeMatrix, r, word) -> CheckReport:
    """Block-preserving slot swaps permute the per-slot polynomials."""
    word = check_word(word, B.n)
    ce = CompositeInvariants(B, r).walk(word)
    return _f_symmetry_from_engine(ce, word)


def relation_suite(B: ExchangeMatrix, r, depth: int = 4):
    """All invariant-relation checks on every reduced word up to a depth.

    Each prefix is checked once. Only `f-symmetry` reads the chain's one
    composite engine walk; `check_cg_relations` and `check_f_relation`
    walk each prefix from the start. The per-word reports are identical to
    what the standalone checkers produce.
    """
    n = B.n
    reports = []
    seen = set()
    chains = [w for w in reduced_words(n, depth) if len(w) == depth]
    for chain in chains:
        fe = CompositeInvariants(B, r)
        for d in range(depth):
            prefix = chain[: d + 1]
            fe.step(chain[d])
            if prefix in seen:
                continue
            seen.add(prefix)
            reports.append(check_cg_relations(B, r, prefix))
            reports.append(check_f_relation(B, r, prefix))
            reports.append(_f_symmetry_from_engine(fe, prefix))
    reports.sort(key=lambda rep: (rep.name, rep.word))
    return reports


def _f_symmetry_from_engine(ce: CompositeInvariants, word) -> CheckReport:
    started = time.perf_counter()
    n = ce.n
    r = ce.r
    pairs = ce.pairs
    offs = ce.offsets
    failures = []
    tested = 0
    for j in range(n):
        for a in range(r[j]):
            for b in range(a + 1, r[j]):
                fa, fb = offs[j] + a, offs[j] + b

                def image(flat):
                    if flat == fa:
                        return fb
                    if flat == fb:
                        return fa
                    return flat

                for flat, (i, l) in enumerate(pairs):
                    swapped = swap_variables(ce.F[flat], fa, fb)
                    tested += 1
                    if swapped != ce.F[image(flat)]:
                        failures.append(
                            f"swap ({j + 1};{a + 1},{b + 1}) on slot ({i + 1},{l + 1})"
                        )
    return _report("f-symmetry", word, failures, tested, started)


def check_laurent_positive(seed0: GeneralizedSeed, word) -> CheckReport:
    """Endpoint cluster variables are Laurent with cone-positive coefficients.

    Works on the factored values: denominator factors mixing cluster
    variables must divide the numerator product exactly (that is the
    Laurent property); what remains is grouped by cluster monomials and
    every coefficient must be a quotient of cone-positive polynomials in
    the coefficient generators.
    """
    started = time.perf_counter()
    end = walk(seed0, word)
    main = set()
    for x in seed0.x:
        # one factor: a variable not named before, at exponent 1 with coefficient 1
        factors = list(x.factors.values())
        used = factors[0][0].support_vars() if len(factors) == 1 and factors[0][1] == 1 else set()
        if len(used) != 1 or used & main or factors[0][0] != LaurentPolynomial.variable(
                seed0.table, seed0.table.names[min(used)]):
            raise ValueError("initial cluster variables must be plain variables")
        main |= used
    failures = []
    tested = 0
    for i in range(seed0.n):
        tested += 1
        problem = _laurent_positive_one(end.x[i], main)
        if problem:
            failures.append(f"x[{i + 1}]: {problem}")
    return _report("laurent-positive", word, failures, tested, started)


def _laurent_positive_one(ff: FactoredFraction, main) -> str:
    table = ff.table
    num = LaurentPolynomial.one(table)
    den_gen = LaurentPolynomial.one(table)
    strip = []
    for p, e in ff.factors.values():
        if e > 0:
            num = num * p ** e
        elif p.support_vars() & main:
            strip.append((p, -e))
        else:
            den_gen = den_gen * p ** -e
    for p, m in strip:
        for _ in range(m):
            q = num.exact_div(p)
            if q is None:
                return "not Laurent in the initial cluster"
            num = q
    if not all(c > 0 for c in den_gen.coefficients()):
        return "coefficient denominator is not cone-positive"
    main = sorted(main)
    for mono, group in split_terms(num, main).items():
        if all(c > 0 for c in group.coefficients()):
            continue
        q = group.exact_div(den_gen)
        if q is None or not (
            all(c > 0 for c in q.coefficients())
            or all(c < 0 for c in q.coefficients())
        ):
            key = [0] * len(table)
            for v, e in zip(main, mono):
                key[v] = e
            return f"coefficient at {tuple(key)} not cone-positive"
    return ""


CHECKS = {
    "enlargement": check_enlargement_commutes,
    "y-realization": check_y_realization,
    "x-realization": check_x_realization,
    "cg-relations": check_cg_relations,
    "f-relation": check_f_relation,
    "f-symmetry": check_f_symmetry,
    "laurent-positive": check_laurent_positive,
}


# -- randomized instance generation ------------------------------------------

# Size bounds of every random instance: rank, degree, exchange entry.
_NMAX, _RMAX, _BMAX = 3, 3, 2


def random_exchange_matrix(rng: random.Random, n: int) -> ExchangeMatrix:
    """Random skew-symmetrizable matrix with entries bounded by _BMAX."""
    if rng.random() < 0.5:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-_BMAX, _BMAX)
                rows[i][j] = v
                rows[j][i] = -v
        return ExchangeMatrix.from_rows(rows, [1] * n)
    d = [rng.choice((1, 2)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u = rng.randint(-1, 1)
            l = d[i] * d[j] // gcd(d[i], d[j])
            rows[i][j] = u * (l // d[i])
            rows[j][i] = -u * (l // d[j])
    return ExchangeMatrix.from_rows(rows, d)


def random_instance(rng: random.Random):
    n = rng.randint(2, _NMAX)
    r = tuple(rng.randint(1, _RMAX) for _ in range(n))
    return random_exchange_matrix(rng, n), r


def random_word(rng: random.Random, n: int, depth: int) -> tuple:
    word = []
    for _ in range(rng.randint(1, depth)):
        choices = [k for k in range(1, n + 1) if not word or word[-1] != k]
        word.append(rng.choice(choices))
    return tuple(word)


def random_realization(rng: random.Random) -> Realization:
    B, r = random_instance(rng)
    return build_realization(B.n, r, B.rows, B.d)


def random_generalized_seed(rng: random.Random):
    """Standalone random seed over its own small table, mixing semifield kinds."""
    B, r = random_instance(rng)
    n = B.n
    kind_name = rng.choice(("universal", "tropical", "trivial"))
    if kind_name == "universal":
        gens = coefficient_names(r)
    elif kind_name == "tropical":
        gens = [f"u{i + 1}" for i in range(max(2, n))]
    else:
        gens = []
    table = VariableTable([f"x{i + 1}" for i in range(n)] + gens)

    if kind_name == "universal":
        kind = SemifieldKind.universal(table, gens)
        y = tuple(SemifieldElement.generator(kind, f"y{i + 1}") for i in range(n))
    elif kind_name == "tropical":
        kind = SemifieldKind.tropical(gens)
        y = tuple(
            SemifieldElement.tropical(
                kind, [rng.randint(-2, 2) for _ in gens]
            )
            for _ in range(n)
        )
    else:
        kind = SemifieldKind.trivial()
        y = tuple(SemifieldElement.one(kind) for _ in range(n))

    Z = []
    for i in range(n):
        one = GroupRingElement.one(kind)
        coeffs = [one]
        for l in range(r[i] - 1):
            if kind_name == "universal":
                coeffs.append(
                    GroupRingElement.of(
                        SemifieldElement.generator(kind, slot_name("z", i, l, n))
                    )
                )
            elif kind_name == "tropical":
                if rng.random() < 0.15:
                    coeffs.append(GroupRingElement.zero(kind))
                else:
                    elem = SemifieldElement.tropical(
                        kind, [rng.randint(-1, 1) for _ in gens]
                    )
                    coeffs.append(GroupRingElement.of(elem, rng.randint(1, 2)))
            else:
                coeffs.append(
                    GroupRingElement.zero(kind)
                    if rng.random() < 0.25
                    else GroupRingElement.one(kind)
                )
        coeffs.append(one)
        Z.append(ExchangePolynomial(tuple(coeffs)))

    seed = GeneralizedSeed(
        table=table,
        n=n,
        r=r,
        x=tuple(FactoredFraction.variable(table, f"x{i + 1}") for i in range(n)),
        y=y,
        Z=tuple(Z),
        B=B,
    )
    return seed


# -- randomized suites --------------------------------------------------------


def suite_mutation_involution(rng: random.Random, trials: int):
    """Mutating twice in one direction restores every seed component."""
    failures = []
    for t in range(trials):
        seed = random_generalized_seed(rng)
        k = rng.randint(1, seed.n)
        back = mutate_seed(mutate_seed(seed, k), k)
        ok = (
            back.B.rows == seed.B.rows
            and all(a == b for a, b in zip(back.Z, seed.Z))
            and all(sf_eq(a, b) for a, b in zip(back.y, seed.y))
            and all(a == b for a, b in zip(back.x, seed.x))
        )
        if not ok:
            failures.append(f"trial {t}: direction {k}")
    return trials, failures


def suite_composite_order_independence(rng: random.Random, trials: int):
    """Inner mutation order within a block never changes the outcome."""
    failures = []
    for t in range(trials):
        rz = random_realization(rng)
        k = rng.randint(1, rz.n)
        base = rz.c_seed
        if rng.random() < 0.3 and rz.n >= 2:
            pre = rng.choice([d for d in range(1, rz.n + 1) if d != k])
            base = composite_mutate(base, pre)
        canonical = composite_mutate(base, k)
        closed = composite_mutate_closed(base, k)
        offs = block_offsets(rz.r)
        order = list(range(rz.r[k - 1]))
        rng.shuffle(order)
        shuffled = base.ordinary
        for l in order:
            shuffled = mutate_seed(shuffled, offs[k - 1] + l + 1)
        ok = _same_ordinary(canonical.ordinary, shuffled) and _same_ordinary(
            canonical.ordinary, closed.ordinary
        )
        if not ok:
            failures.append(f"trial {t}: block {k} order {order}")
    return trials, failures


def _same_ordinary(a: GeneralizedSeed, b: GeneralizedSeed) -> bool:
    return (
        a.B.rows == b.B.rows
        and all(sf_eq(p, q) for p, q in zip(a.y, b.y))
        and all(p == q for p, q in zip(a.x, b.x))
    )


def suite_skew_preservation(rng: random.Random, trials: int):
    """One symmetrizer works along every walk."""
    failures = []
    for t in range(trials):
        B, r = random_instance(rng)
        d = B.symmetrizer()
        word = random_word(rng, B.n, 6)
        current = B
        ok = True
        for k in word:
            current = mutate_B(current, r, k)
            n = B.n
            ok = ok and all(
                d[i] * current.rows[i][j] == -d[j] * current.rows[j][i]
                for i in range(n)
                for j in range(n)
            )
        if not ok:
            failures.append(f"trial {t}: word {word}")
    return trials, failures


def suite_separation_consistency(rng: random.Random, trials: int, realizations):
    """Separation formulas agree with direct mutation, both patterns."""
    failures = []
    for t in range(trials):
        rz = rng.choice(realizations)
        pattern = rng.choice(("g", "c"))
        depth = 3 if pattern == "g" else 2
        word = random_word(rng, rz.n, depth)
        if pattern == "g":
            end = walk(rz.g_seed, word)
            xs, ys = separation_reconstruct_generalized(rz.g_seed, word)
            ok = all(a == b for a, b in zip(xs, end.x)) and all(
                sf_eq(a, b) for a, b in zip(ys, end.y)
            )
        else:
            end = composite_walk(rz.c_seed, word)
            xs, ys = separation_reconstruct_composite(rz, word)
            ok = all(a == b for a, b in zip(xs, end.ordinary.x)) and all(
                a == b.payload for a, b in zip(ys, end.ordinary.y)
            )
        if not ok:
            failures.append(f"trial {t}: pattern {pattern} word {word}")
    return trials, failures


def suite_laurent_positive(rng: random.Random, trials: int, seeds):
    """Laurent positivity spot checks over random endpoint words.

    `seeds` pairs each seed with its depth budget; steep exchange entries
    make deep endpoints exponentially large, so budgets differ per seed.
    """
    failures = []
    for t in range(trials):
        seed, depth = rng.choice(seeds)
        word = random_word(rng, seed.n, depth)
        report = check_laurent_positive(seed, word)
        if not report.passed:
            failures.append(f"trial {t}: word {word}: {report.witness}")
    return trials, failures
