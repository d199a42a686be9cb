"""C-matrices, G-matrices, F-polynomials and separation reconstruction.

The two walk engines below are purely combinatorial: they consume only an
initial exchange matrix and the degree vector, and fold the integer-matrix
and polynomial recursions along a reduced word. Both run one step routine.
The generalized engine tracks one polynomial per direction whose interior
coefficients are formal variables and reverse order whenever their
direction moves. The composite engine is the degree-one engine on the
enlarged matrix, at pseudo-rank size, driven one whole block per step.
Initial seed data enters only in the separation formulas at the end, which
rebuild cluster variables and coefficients from the invariants.
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


class _InvariantWalk:
    """The C-, G- and F-recursions and the matrix mutation of one step.

    Both engines run them: the generalized one in its n directions with
    their degrees and formal z-coefficients, the composite one in the
    pseudo-rank directions of the enlarged matrix, all of degree one with
    unit coefficients. Variable j of `table` is the y-variable of
    direction j. A subclass sets `r`, the degrees of the directions it
    walks in, and `step`, which walks one of them.
    """

    def __init__(self, B: ExchangeMatrix, degrees, names, track_f: bool):
        self.degrees = tuple(degrees)
        self.track_f = track_f
        self.table = VariableTable(names)
        self.B0 = B.rows
        self.B = B.rows
        self.C = _identity(B.n)
        self.G = _identity(B.n)
        self.F = [LaurentPolynomial.one(self.table) for _ in range(B.n)]
        self.word = ()

    def step_numerator(self, k0: int, zcoeff=None, fvals=None, table=None,
                       products=None, block=()) -> LaurentPolynomial:
        """Exchange numerator of the polynomial step in direction k0.

        The numerator is the sum over l of z_l times a y-monomial times
        the F-part, the product of F_j^((rk-l)[-b_j]+ + l[b_j]+). `zcoeff(l)`
        gives z_l; None means unit coefficients. With `fvals`/`table`
        overridden this assembles the same expression over formal
        stand-ins, which is how the stepwise relation checker compares
        engines without expanding anything big.

        `products` caches the F-parts of B-columns that vanish on the
        directions `block`: stepping inside the block changes neither such
        a column nor the F_j it reads, so the slots of one block step share
        them.
        """
        rk = self.degrees[k0]
        table = table if table is not None else self.table
        fvals = fvals if fvals is not None else self.F
        colB = tuple(row[k0] for row in self.B)
        if products is None or any(colB[g] for g in block):
            products = {}
        if colB not in products:
            products[colB] = _f_parts(colB, rk, fvals, table)
        num = None
        for l, part in enumerate(products[colB]):
            term = LaurentPolynomial.monomial(table, {
                j: (rk - l) * pos(-row[k0]) + l * pos(row[k0]) for j, row in enumerate(self.C)
            })
            # a product by 1 would still pass over every term of the other side
            z = LaurentPolynomial.one(table) if zcoeff is None else zcoeff(l)
            for factor in (z, part):
                if not factor.is_one():
                    term = factor if term.is_one() else factor * term
            num = term if num is None else num + term
        return num

    def _step(self, f: int, zcoeff=None, products=None, block=()) -> None:
        """One mutation in direction f (0-based) of degree `degrees[f]`."""
        n, rf = len(self.B), self.degrees[f]
        B, C, G = self.B, self.C, self.G

        new_Ff = None
        if self.track_f:
            num = self.step_numerator(f, zcoeff, products=products, block=block)
            new_Ff = num.exact_div(self.F[f])
            if new_Ff is None:
                raise ArithmeticError("polynomial recursion step is not exactly divisible")

        newC = [row[:] for row in C]
        for i in range(n):
            for j in range(n):
                if j == f:
                    newC[i][j] = -C[i][f]
                else:
                    newC[i][j] = C[i][j] + rf * (
                        C[i][f] * pos(B[f][j]) + pos(-C[i][f]) * B[f][j]
                    )
        newG = [row[:] for row in G]
        for i in range(n):
            acc = -G[i][f]
            for a in range(n):
                acc += rf * (G[i][a] * pos(-B[a][f]) - self.B0[i][a] * pos(-C[a][f]))
            newG[i][f] = acc

        if self.track_f:
            self.F[f] = new_Ff
        self.C = newC
        self.G = newG
        self.B = mutate_B(ExchangeMatrix(self.B), self.degrees, f + 1).rows

    def walk(self, word):
        for k in check_word(word, len(self.r)):
            self.step(k)
        return self

    def c_rows(self):
        return tuple(tuple(row) for row in self.C)

    def g_rows(self):
        return tuple(tuple(row) for row in self.G)


def _f_parts(colB, rk, fvals, table):
    """The F-part of each term l = 0..rk of a step numerator.

    Each F_j is raised along one chain of multiplications, F_j^(m|b_j|)
    for m = 1..rk, and the powers meet in j order.
    """
    parts = [LaurentPolynomial.one(table)] * (rk + 1)
    for j, b in enumerate(colB):
        if not b or fvals[j].is_one():
            continue
        power, e = fvals[j], 1
        for m in range(1, rk + 1):
            while e < m * abs(b):
                power = power * fvals[j]
                e += 1
            l = m if b > 0 else rk - m
            parts[l] = power if parts[l].is_one() else parts[l] * power
    return parts


class GeneralizedInvariants(_InvariantWalk):
    """Walk engine for the rank-n invariants with per-direction degrees."""

    def __init__(self, B: ExchangeMatrix, r, track_f: bool = True):
        self.n = B.n
        self.r = tuple(r)
        names = [f"y{i + 1}" for i in range(self.n)]
        self.zpos = {}
        for i in range(self.n):
            for l in range(self.r[i] - 1):
                self.zpos[(i, l + 1)] = len(names)
                names.append(slot_name("z", i, l, self.n))
        super().__init__(B, self.r, names, track_f)
        self.reversed = [False] * self.n

    def zcoeff(self, i: int, l: int) -> LaurentPolynomial:
        """Coefficient of degree l in the tracked polynomial of direction i."""
        ri = self.r[i]
        if self.reversed[i]:
            l = ri - l
        if l in (0, ri):
            return LaurentPolynomial.one(self.table)
        return LaurentPolynomial.variable(self.table, self.table.names[self.zpos[(i, l)]])

    def step(self, k: int) -> "GeneralizedInvariants":
        k0 = k - 1
        self._step(k0, lambda l: self.zcoeff(k0, l))
        self.reversed[k0] = not self.reversed[k0]
        self.word = self.word + (k,)
        return self


class CompositeInvariants(_InvariantWalk):
    """Walk engine for the pseudo-rank invariants, one block per step.

    The composite pattern is the ordinary, degree-one pattern on the
    enlarged matrix `enlarge(B, r)`: a block step is one elementary step
    per slot of the block, in slot order.
    """

    def __init__(self, B: ExchangeMatrix, r, track_f: bool = True):
        self.nblocks = B.n
        self.r = tuple(r)
        self.pairs = block_pairs(self.r)
        self.offsets = block_offsets(self.r)
        self.size = sum(self.r)
        names = [slot_name("y", i, l, self.nblocks) for (i, l) in self.pairs]
        super().__init__(enlarge(B, self.r), (1,) * self.size, names, track_f)

    def flat(self, i, l):
        return self.offsets[i] + l

    def step(self, k: int) -> "CompositeInvariants":
        """One composite step in block direction k (1-based)."""
        k0 = k - 1
        block = [self.flat(k0, l) for l in range(self.r[k0])]
        # the diagonal block of B is zero, so every slot of the block sees
        # the same off-block column and the product over it is built once
        products = {}
        for f in block:
            self._step(f, products=products, block=block)
        self.word = self.word + (k,)
        return self

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
        ring_assign[j] = hat[j]
        sf_assign[j] = seed0.y[j]
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
