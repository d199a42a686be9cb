"""C-matrices, G-matrices, F-polynomials and separation reconstruction.

The two walk engines below are purely combinatorial: they consume only an
initial exchange matrix and the degree vector, and fold the integer-matrix
and polynomial recursions along a reduced word. The generalized engine
tracks one polynomial per direction whose interior coefficients are formal
variables and reverse order whenever their direction moves; the composite
engine runs the degree-one recursions at pseudo-rank size, one whole block
per step. Initial seed data enters only in the separation formulas at the
end, which rebuild cluster variables and coefficients from the invariants.
"""

from __future__ import annotations

from .polyring import (
    FactoredFraction,
    LaurentPolynomial,
    VariableTable,
    cross_evaluate,
)
from .pattern import (
    ExchangeMatrix,
    GeneralizedSeed,
    check_word,
    mutate_B,
    pos,
)
from .composite import (
    Realization,
    block_offsets,
    block_pairs,
    enlarge,
    read_block_matrix,
    slot_name,
)
from .semifield import (
    SemifieldElement,
    evaluate_poly_semifield,
    project_np,
    sf_mul,
    sf_pow,
)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class GeneralizedInvariants:
    """Walk engine for the rank-n invariants with per-direction degrees."""

    def __init__(self, B: ExchangeMatrix, r, track_f: bool = True):
        self.n = B.n
        self.r = tuple(r)
        self.track_f = track_f
        names = [f"y{i + 1}" for i in range(self.n)]
        self.zpos = {}
        for i in range(self.n):
            for l in range(self.r[i] - 1):
                self.zpos[(i, l + 1)] = len(names)
                names.append(slot_name("z", i, l, self.n))
        self.table = VariableTable(names)
        self.yvar = tuple(range(self.n))
        self.B0 = B.rows
        self.B = B.rows
        self.C = _identity(self.n)
        self.G = _identity(self.n)
        self.F = [LaurentPolynomial.one(self.table) for _ in range(self.n)]
        self.reversed = [False] * self.n
        self.word = ()

    def zcoeff(self, i: int, l: int) -> LaurentPolynomial:
        """Coefficient of degree l in the tracked polynomial of direction i."""
        ri = self.r[i]
        if self.reversed[i]:
            l = ri - l
        if l in (0, ri):
            return LaurentPolynomial.one(self.table)
        return LaurentPolynomial.variable(self.table, self.table.names[self.zpos[(i, l)]])

    def step_numerator(self, k0: int, fvals=None, table=None,
                       zcoeff=None) -> LaurentPolynomial:
        """Exchange numerator of the polynomial step in direction k0.

        With `fvals`/`table`/`zcoeff` overridden this assembles the same
        expression over formal stand-ins, which is how the stepwise
        relation checker compares engines without expanding anything big.
        """
        n, rk = self.n, self.r[k0]
        table = table if table is not None else self.table
        fvals = fvals if fvals is not None else self.F
        zcoeff = zcoeff if zcoeff is not None else (lambda l: self.zcoeff(k0, l))
        colC = [self.C[j][k0] for j in range(n)]
        colB = [self.B[j][k0] for j in range(n)]
        pows = {}
        for j in range(n):
            needed = sorted(
                {
                    (rk - l) * pos(-colB[j]) + l * pos(colB[j])
                    for l in range(rk + 1)
                } - {0}
            )
            cur = LaurentPolynomial.one(table)
            cur_e = 0
            store = {}
            for e in needed:
                while cur_e < e:
                    cur = cur * fvals[j]
                    cur_e += 1
                store[e] = cur
            pows[j] = store
        num = LaurentPolynomial.zero(table)
        for l in range(rk + 1):
            term = zcoeff(l)
            mono = {}
            for j in range(n):
                ey = (rk - l) * pos(-colC[j]) + l * pos(colC[j])
                if ey:
                    mono[f"y{j + 1}"] = ey
            if mono:
                term = term * LaurentPolynomial.monomial(table, mono)
            for j in range(n):
                ef = (rk - l) * pos(-colB[j]) + l * pos(colB[j])
                if ef:
                    term = term * pows[j][ef]
            num = num + term
        return num

    def step(self, k: int) -> "GeneralizedInvariants":
        k0 = k - 1
        n, rk = self.n, self.r[k0]
        B, C, G = self.B, self.C, self.G

        colC = [C[j][k0] for j in range(n)]
        colB = [B[j][k0] for j in range(n)]

        new_Fk = None
        if self.track_f:
            num = self.step_numerator(k0)
            new_Fk = num.exact_div(self.F[k0])
            if new_Fk is None:
                raise ArithmeticError("polynomial recursion step is not exactly divisible")

        newC = [row[:] for row in C]
        for i in range(n):
            for j in range(n):
                if j == k0:
                    newC[i][j] = -C[i][k0]
                else:
                    newC[i][j] = C[i][j] + rk * (
                        C[i][k0] * pos(B[k0][j]) + pos(-C[i][k0]) * B[k0][j]
                    )
        newG = [row[:] for row in G]
        for i in range(n):
            acc = -G[i][k0]
            for a in range(n):
                acc += rk * (G[i][a] * pos(-B[a][k0]) - self.B0[i][a] * pos(-C[a][k0]))
            newG[i][k0] = acc

        if self.track_f:
            self.F[k0] = new_Fk
        self.C = newC
        self.G = newG
        self.B = mutate_B(ExchangeMatrix(self.B), self.r, k).rows
        self.reversed[k0] = not self.reversed[k0]
        self.word = self.word + (k,)
        return self

    def walk(self, word) -> "GeneralizedInvariants":
        for k in check_word(word, self.n):
            self.step(k)
        return self

    def c_rows(self):
        return tuple(tuple(row) for row in self.C)

    def g_rows(self):
        return tuple(tuple(row) for row in self.G)


class CompositeInvariants:
    """Walk engine for the pseudo-rank invariants, one block per step."""

    def __init__(self, B: ExchangeMatrix, r, track_f: bool = True):
        self.nblocks = B.n
        self.r = tuple(r)
        self.track_f = track_f
        self.pairs = block_pairs(self.r)
        self.offsets = block_offsets(self.r)
        self.size = sum(self.r)
        names = [slot_name("y", i, l, self.nblocks) for (i, l) in self.pairs]
        self.table = VariableTable(names)
        big = enlarge(B, self.r)
        self.B0 = big.rows
        self.B = big.rows
        self.C = _identity(self.size)
        self.G = _identity(self.size)
        self.F = [LaurentPolynomial.one(self.table) for _ in range(self.size)]
        self.word = ()

    def flat(self, i, l):
        return self.offsets[i] + l

    def _f_products(self, colB):
        """(prod F_j^b_j over b_j > 0, prod F_j^-b_j over b_j < 0) for a B-column."""
        plus = minus = None
        for j, b in enumerate(colB):
            if b > 0:
                power = self.F[j] ** b
                plus = power if plus is None else plus * power
            elif b < 0:
                power = self.F[j] ** (-b)
                minus = power if minus is None else minus * power
        one = LaurentPolynomial.one(self.table)
        return (one if plus is None else plus), (one if minus is None else minus)

    def step_elementary(self, f: int, block=(), products=None) -> "CompositeInvariants":
        """One ordinary step in flat direction f (0-based).

        `products` caches the F-products of B-columns that vanish on the
        flat directions `block`: stepping inside the block changes neither
        such a column nor the F_j it reads, so the slots of one block step
        share them.
        """
        size = self.size
        B, C, G = self.B, self.C, self.G
        colC = [C[j][f] for j in range(size)]
        colB = [B[j][f] for j in range(size)]

        new_Ff = None
        if self.track_f:
            if products is not None and not any(colB[g] for g in block):
                key = tuple(colB)
                if key not in products:
                    products[key] = self._f_products(colB)
                plus, minus = products[key]
            else:
                plus, minus = self._f_products(colB)
            mono_p, mono_m = {}, {}
            for j in range(size):
                if colC[j] > 0:
                    mono_p[j] = colC[j]
                elif colC[j] < 0:
                    mono_m[j] = -colC[j]
            if mono_p:
                plus = plus * LaurentPolynomial.monomial(self.table, mono_p)
            if mono_m:
                minus = minus * LaurentPolynomial.monomial(self.table, mono_m)
            new_Ff = (plus + minus).exact_div(self.F[f])
            if new_Ff is None:
                raise ArithmeticError("polynomial recursion step is not exactly divisible")

        newC = [row[:] for row in C]
        for i in range(size):
            for j in range(size):
                if j == f:
                    newC[i][j] = -C[i][f]
                else:
                    newC[i][j] = C[i][j] + C[i][f] * pos(B[f][j]) + pos(-C[i][f]) * B[f][j]
        newG = [row[:] for row in G]
        for i in range(size):
            acc = -G[i][f]
            for a in range(size):
                acc += G[i][a] * pos(-B[a][f]) - self.B0[i][a] * pos(-C[a][f])
            newG[i][f] = acc

        if self.track_f:
            self.F[f] = new_Ff
        self.C = newC
        self.G = newG
        self.B = mutate_B(ExchangeMatrix(self.B), (1,) * size, f + 1).rows
        return self

    def step(self, k: int) -> "CompositeInvariants":
        """One composite step in block direction k (1-based)."""
        k0 = k - 1
        block = [self.flat(k0, l) for l in range(self.r[k0])]
        # the diagonal block of B is zero, so every slot of the block sees
        # the same off-block column and the product over it is built once
        products = {}
        for f in block:
            self.step_elementary(f, block, products)
        self.word = self.word + (k,)
        return self

    def walk(self, word) -> "CompositeInvariants":
        for k in check_word(word, self.nblocks):
            self.step(k)
        return self

    def c_rows(self):
        return tuple(tuple(row) for row in self.C)

    def g_rows(self):
        return tuple(tuple(row) for row in self.G)

    def block_core(self) -> ExchangeMatrix:
        return read_block_matrix(ExchangeMatrix(self.B), self.r)


# -- public wrappers ---------------------------------------------------------


def _engine(pattern: str, B: ExchangeMatrix, r, word):
    if pattern in ("g", "generalized"):
        return GeneralizedInvariants(B, r).walk(word)
    if pattern in ("c", "composite"):
        return CompositeInvariants(B, r).walk(word)
    raise ValueError(f"unknown pattern {pattern!r}")


def c_matrix(pattern: str, B: ExchangeMatrix, r, word):
    return _engine(pattern, B, r, word).c_rows()


def g_matrix(pattern: str, B: ExchangeMatrix, r, word):
    return _engine(pattern, B, r, word).g_rows()


def f_polynomials(pattern: str, B: ExchangeMatrix, r, word):
    eng = _engine(pattern, B, r, word)
    return eng.table, list(eng.F)


# -- separation formulas -----------------------------------------------------


def separation_reconstruct_generalized(seed0: GeneralizedSeed, word):
    """Rebuild the cluster variables and coefficients at the end of a word.

    Uses only the initial seed data and the invariants; the result must
    agree with direct mutation along the same word.
    """
    eng = GeneralizedInvariants(seed0.B, seed0.r).walk(word)
    table = seed0.table
    n = seed0.n
    kind = seed0.y[0].kind

    hat = []
    for j in range(n):
        h = seed0.y[j].as_factored(table)
        for m in range(n):
            b = seed0.B.rows[m][j]
            if b:
                h = h * seed0.x[m] ** b
        hat.append(h.expand())

    ring_assign = {}
    sf_assign = {}
    for j in range(n):
        ring_assign[eng.yvar[j]] = hat[j]
        sf_assign[eng.yvar[j]] = seed0.y[j]
    for (i, l), idx in eng.zpos.items():
        zc = seed0.Z[i].coeffs[l]
        ring_assign[idx] = zc.as_ratfn(table)
        sf_assign[idx] = project_np(zc)

    fden = [evaluate_poly_semifield(eng.F[i], sf_assign, kind) for i in range(n)]

    xs = []
    for i in range(n):
        v = FactoredFraction.one(table)
        for j in range(n):
            g = eng.G[j][i]
            if g:
                v = v * seed0.x[j] ** g
        v = v * FactoredFraction.from_ratfn(cross_evaluate(eng.F[i], ring_assign, table))
        v = v * FactoredFraction.from_ratfn(fden[i].as_ratfn(table)).inverse()
        xs.append(v.expand())

    ys = []
    for i in range(n):
        acc = None
        for j in range(n):
            c = eng.C[j][i]
            if c:
                part = sf_pow(seed0.y[j], c)
                acc = part if acc is None else sf_mul(acc, part)
        for j in range(n):
            b = eng.B[j][i]
            if b:
                part = sf_pow(fden[j], b)
                acc = part if acc is None else sf_mul(acc, part)
        ys.append(acc if acc is not None else SemifieldElement.one(kind))
    return xs, ys


def separation_reconstruct_composite(rz: Realization, word):
    """Composite-side separation: rebuild all per-slot variables at a vertex."""
    eng = CompositeInvariants(rz.g_seed.B, rz.r).walk(word)
    table = rz.table
    seed0 = rz.c_seed.ordinary
    size = eng.size

    hat = []
    for jm in range(size):
        h = seed0.y[jm].as_factored(table)
        for ab in range(size):
            b = seed0.B.rows[ab][jm]
            if b:
                h = h * seed0.x[ab] ** b
        hat.append(h.expand())

    num_assign = {jm: hat[jm] for jm in range(size)}
    den_assign = {jm: seed0.y[jm].as_ratfn(table) for jm in range(size)}

    fden = [cross_evaluate(eng.F[jm], den_assign, table) for jm in range(size)]

    xs = []
    for il in range(size):
        v = FactoredFraction.one(table)
        for jm in range(size):
            g = eng.G[jm][il]
            if g:
                v = v * seed0.x[jm] ** g
        v = v * FactoredFraction.from_ratfn(cross_evaluate(eng.F[il], num_assign, table))
        v = v * FactoredFraction.from_ratfn(fden[il]).inverse()
        xs.append(v.expand())

    bcore = eng.block_core()
    pairs = eng.pairs
    ys = []
    for il, (i, l) in enumerate(pairs):
        v = FactoredFraction.one(table)
        for jm in range(size):
            c = eng.C[jm][il]
            if c:
                v = v * seed0.y[jm].as_factored(table) ** c
        for jm, (j, m) in enumerate(pairs):
            b = bcore.rows[j][i]
            if b:
                v = v * FactoredFraction.from_ratfn(fden[jm]) ** b
        ys.append(v.expand())
    return xs, ys
