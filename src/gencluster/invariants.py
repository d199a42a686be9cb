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

from functools import reduce
from operator import mul

from .polyring import (
    FactoredFraction,
    LaurentPolynomial,
    VariableTable,
    cross_evaluate,
    exchange_sum,
)
from .pattern import (
    ExchangeMatrix,
    GeneralizedSeed,
    fold_word,
    mutate_B,
    pos,
    y_hat,
)
from .composite import (
    Realization,
    block_offsets,
    block_pairs,
    coefficient_names,
    enlarge,
    read_block_matrix,
    slot_names,
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
    direction j. A subclass sets `n` and `r`, the number and degrees of
    the directions a word walks in, and `step`, which walks one of them.
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

        The numerator is the sum over l = 0..rk of c_l P^l N^(rk-l), where
        c_l is z_l times a y-monomial, and P and N are the products of
        F_j^|b_j| over the positive and negative entries b_j of the
        B-column: the `exchange_sum` of the stored F_j, one factor each
        time it is used. `zcoeff(l)` gives z_l; None means unit
        coefficients. With `fvals`/`table` overridden this assembles the
        same expression over formal stand-ins, which is how the stepwise
        relation checker compares engines without expanding anything big.

        `products` caches P and N of B-columns that vanish on the
        directions `block`: stepping inside the block changes neither such
        a column nor the F_j it reads, so the slots of one block step share
        them.
        """
        rk = self.degrees[k0]
        table = table if table is not None else self.table
        fvals = fvals if fvals is not None else self.F
        colB = tuple(row[k0] for row in self.B)
        sides = ([], [])
        for j, b in enumerate(colB):
            if b and not fvals[j].is_one():
                sides[b < 0].extend([fvals[j]] * abs(b))
        if products is not None and not any(colB[g] for g in block):
            if colB not in products:
                products[colB] = tuple([reduce(mul, s)] if s else [] for s in sides)
            sides = products[colB]
        coeffs = []
        for l in range(rk + 1):
            c = LaurentPolynomial.monomial(table, {
                j: (rk - l) * pos(-row[k0]) + l * pos(row[k0]) for j, row in enumerate(self.C)
            })
            z = None if zcoeff is None else zcoeff(l)
            coeffs.append(c if z is None or z.is_one() else z * c)
        return exchange_sum(coeffs, *sides)

    def _step(self, f: int, zcoeff=None, products=None, block=()) -> None:
        """One mutation in direction f (0-based) of degree `degrees[f]`."""
        n, rf = len(self.B), self.degrees[f]
        B, C, G = self.B, self.C, self.G

        new_Ff = None
        if self.track_f:
            num = self.step_numerator(f, zcoeff, products=products, block=block)
            new_Ff = num.exact_div(self.F[f], _owned=True)  # frees num once packed
            if new_Ff is None:
                raise ArithmeticError("polynomial recursion step is not exactly divisible")

        # g'_if = -g_if + r_f (sum_a g_ia [-b_af]+ - sum_a b0_ia [-c_af]+)
        negB = [-row[f] if row[f] < 0 else 0 for row in B]
        negC = [-row[f] if row[f] < 0 else 0 for row in C]
        newG = [row[:] for row in G]
        for row, b0 in zip(newG, self.B0):
            row[f] = rf * (sum(map(mul, row, negB)) - sum(map(mul, b0, negC))) - row[f]

        # C is the lower half of the extended exchange matrix [B; C]
        BC = mutate_B(ExchangeMatrix(tuple(B) + tuple(C)), self.degrees, f + 1).rows
        if self.track_f:
            self.F[f] = new_Ff
        self.B = BC[:n]
        self.C = [list(row) for row in BC[n:]]
        self.G = newG

    def walk(self, word):
        """`fold_word` with this engine's step, looked up on its class at call time."""
        return fold_word(self, word, type(self).step)

    def c_rows(self):
        return tuple(tuple(row) for row in self.C)

    def g_rows(self):
        return tuple(tuple(row) for row in self.G)


class GeneralizedInvariants(_InvariantWalk):
    """Walk engine for the rank-n invariants with per-direction degrees."""

    def __init__(self, B: ExchangeMatrix, r, track_f: bool = True):
        self.n = B.n
        self.r = tuple(r)
        interior = [(i, l + 1) for i in range(self.n) for l in range(self.r[i] - 1)]
        # variable n + t of the table is z_il for the t-th interior (i, l)
        self.zpos = {il: self.n + t for t, il in enumerate(interior)}
        super().__init__(B, self.r, coefficient_names(self.r), track_f)
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
        self.n = B.n
        self.r = tuple(r)
        self.pairs = block_pairs(self.r)
        self.offsets = block_offsets(self.r)
        self.size = sum(self.r)
        self.zpos = {}  # degree one: no interior exchange coefficients
        super().__init__(enlarge(B, self.r), (1,) * self.size, slot_names("y", self.r),
                         track_f)

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


# -- separation formulas -----------------------------------------------------


def _separate(seed0: GeneralizedSeed, eng: _InvariantWalk):
    """Cluster variables and coefficients at the end of an engine's walk.

    The separation formula (Fomin-Zelevinsky, Cluster algebras IV; Nakanishi
    for generalized patterns), from the initial seed data and the
    invariants alone:

        x_i = prod_j x_j^(g_ji) * F_i(y-hat, z) / F_i|_P(y, z)
        y_i = prod_j y_j^(c_ji) * prod_j F_j|_P(y, z)^(b_ji)

    where F_j|_P is F_j evaluated in the coefficient semifield.
    """
    table = seed0.table
    n = seed0.n
    kind = seed0.y[0].kind

    ring_assign = {j: y_hat(seed0, j) for j in range(n)}
    sf_assign = dict(enumerate(seed0.y))
    for (i, l), idx in eng.zpos.items():
        zc = seed0.Z[i].coeffs[l]
        ring_assign[idx] = zc.as_factored(table)
        sf_assign[idx] = project_np(zc)

    fden = [evaluate_poly_semifield(f, sf_assign, kind) for f in eng.F]

    xs = []
    for i in range(n):
        v = FactoredFraction.one(table)
        for j in range(n):
            g = eng.G[j][i]
            if g:
                v = v * seed0.x[j] ** g
        v = v * cross_evaluate(eng.F[i], ring_assign, table)
        # kept expanded: perfbench/spans.py times RationalFunction.__eq__
        # (layer polyring.ratfn_eq), which comparing these xs exercises
        xs.append((v / fden[i].as_factored(table)).expand())

    ys = []
    for i in range(n):
        acc = None
        for base, exps in ((seed0.y, eng.C), (fden, eng.B)):
            for j in range(n):
                e = exps[j][i]
                if e:
                    part = sf_pow(base[j], e)
                    acc = part if acc is None else sf_mul(acc, part)
        ys.append(acc if acc is not None else SemifieldElement.one(kind))
    return xs, ys


def separation_reconstruct_generalized(seed0: GeneralizedSeed, word):
    """Rebuild the cluster variables and coefficients at the end of a word.

    Uses only the initial seed data and the invariants; the result must
    agree with direct mutation along the same word.
    """
    return _separate(seed0, GeneralizedInvariants(seed0.B, seed0.r).walk(word))


def separation_reconstruct_composite(rz: Realization, word):
    """Composite-side separation: rebuild all per-slot variables at a vertex.

    The composite pattern is the degree-one pattern on the enlarged
    matrix, so this is the same formula on the composite seed. The
    cluster variables come back expanded, as `RationalFunction`s, and the
    coefficients as `FactoredFraction`s.
    """
    eng = CompositeInvariants(rz.g_seed.B, rz.r).walk(word)
    xs, ys = _separate(rz.c_seed.ordinary, eng)
    return xs, [y.as_factored(rz.table) for y in ys]
