"""Enlarged exchange matrices, composite seeds, and the splitting setup.

The enlargement inflates an n-by-n exchange matrix to pseudo-rank size
with constant blocks; a composite seed is an ordinary seed of that rank
whose directions are grouped into blocks, mutated one whole block at a
time. The realization context wires a generalized seed and its composite
counterpart onto one shared variable table, together with the one
elementary symbol substitution that maps one back onto the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .polyring import (
    ElementarySymbols,
    FactoredFraction,
    RationalFunction,
    SymbolBlock,
    VariableTable,
    ff_add,
    psi_hat_factored,
)
from .pattern import (
    ExchangeMatrix,
    ExchangePolynomial,
    GeneralizedSeed,
    check_word,
    fold_word,
    mutate_B,
    mutate_seed,
    mutate_y_seed,
    pos,
    validate_seed,
    y_hat,
)
from .semifield import (
    P0_ZERO,
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    project_np,
    sf_add,
    sf_inv,
    sf_mul,
    sf_pow,
)


def block_offsets(r) -> tuple:
    out = []
    acc = 0
    for ri in r:
        out.append(acc)
        acc += ri
    return tuple(out)


def block_pairs(r):
    """The composite index set as 0-based (block, slot) pairs, in flat order."""
    return [(i, l) for i, ri in enumerate(r) for l in range(ri)]


def enlarge(B: ExchangeMatrix, r) -> ExchangeMatrix:
    """Inflate B to pseudo-rank size: block (i,j) is constant b_ij."""
    if len(r) != B.n or any(v < 1 for v in r):
        raise ValueError("degree mismatch")
    rows = []
    for row, ri in zip(B.rows, r):
        rows.extend([tuple(chain.from_iterable(map(repeat, row, r)))] * ri)
    d = None if B.d is None else tuple(chain.from_iterable(map(repeat, B.d, r)))
    return ExchangeMatrix(tuple(rows), d)


def read_block_matrix(big: ExchangeMatrix, r) -> ExchangeMatrix:
    """Recover the block-constant core of an enlarged matrix.

    Each block's first entry is read; the core enlarges back to `big`
    unless some block is not constant, which only happens away from
    composite vertices, and then this raises.
    """
    offs = block_offsets(r)
    core = ExchangeMatrix(tuple(tuple(big.rows[i][j] for j in offs) for i in offs))
    if enlarge(core, r).rows != big.rows:
        raise ValueError("matrix is not block-constant")
    return core


def sigma_of_word(word, n: int) -> tuple:
    """Mutation-parity signs per direction for a reduced word."""
    word = check_word(word, n)
    out = [1] * n
    for k in word:
        out[k - 1] = -out[k - 1]
    return tuple(out)


@dataclass(frozen=True)
class CompositeSeed:
    """The degree-one seed on the enlarged matrix, grouped into blocks by r.

    `ordinary` is a seed of pseudo-rank size sum(r) over the extended
    coefficient semifield; block i holds its r_i consecutive directions,
    which mutate together, one whole block at a time.
    """

    ordinary: GeneralizedSeed
    r: tuple

    @property
    def n(self) -> int:
        return len(self.r)

    def flat(self, i: int, l: int) -> int:
        return block_offsets(self.r)[i] + l

    def x(self, i: int, l: int) -> FactoredFraction:
        return self.ordinary.x[self.flat(i, l)]

    def y(self, i: int, l: int) -> SemifieldElement:
        return self.ordinary.y[self.flat(i, l)]


def composite_mutate(seed: CompositeSeed, k: int) -> CompositeSeed:
    """Mutate every direction of block k (1-based), in slot order.

    The inner mutations commute because the diagonal block vanishes at
    composite vertices, which is asserted before touching anything.
    """
    return _block_step(seed, k, mutate_seed)


def _block_step(seed: CompositeSeed, k: int, mutate) -> CompositeSeed:
    """Apply the ordinary `mutate` to each slot of block k (1-based), in slot order."""
    if not 1 <= k <= seed.n:
        raise IndexError("direction out of range")
    k0 = k - 1
    offs = block_offsets(seed.r)
    big = seed.ordinary.B.rows
    for a in range(seed.r[k0]):
        for b in range(seed.r[k0]):
            if big[offs[k0] + a][offs[k0] + b] != 0:
                raise ValueError("diagonal block is nonzero; not a composite vertex")
    ordinary = seed.ordinary
    for l in range(seed.r[k0]):
        ordinary = mutate(ordinary, offs[k0] + l + 1)
    return CompositeSeed(ordinary, seed.r)


def composite_mutate_closed(seed: CompositeSeed, k: int) -> CompositeSeed:
    """Single-pass closed form of the block mutation, for cross-checking.

    Every new cluster variable and coefficient is computed from the data
    before the block step, so the result must agree with the composed
    elementary mutations whenever the diagonal block vanishes.
    """
    if not 1 <= k <= seed.n:
        raise IndexError("direction out of range")
    k0 = k - 1
    rk = seed.r[k0]
    offs = block_offsets(seed.r)
    ordinary = seed.ordinary
    table = ordinary.table
    pairs = block_pairs(seed.r)
    bcore = read_block_matrix(ordinary.B, seed.r)

    mult = FactoredFraction.one(table)
    for (j, m) in pairs:
        e = pos(-bcore.rows[j][k0])
        if e:
            mult = mult * ordinary.x[offs[j] + m] ** e

    one = FactoredFraction.one(table)
    new_x = list(ordinary.x)
    for l in range(rk):
        flat = offs[k0] + l
        new_x[flat] = (
            ordinary.x[flat].inverse()
            * mult
            * ff_add(one, y_hat(ordinary, flat))
            / ff_add(one, ordinary.y[flat].as_factored(table))
        )

    block_prod = None
    block_spec = None
    for l in range(rk):
        ykl = ordinary.y[offs[k0] + l]
        block_prod = ykl if block_prod is None else sf_mul(block_prod, ykl)
        one_plus = sf_add(SemifieldElement.one(ykl.kind), ykl)
        block_spec = one_plus if block_spec is None else sf_mul(block_spec, one_plus)

    new_y = list(ordinary.y)
    for (i, l) in pairs:
        flat = offs[i] + l
        if i == k0:
            new_y[flat] = sf_inv(ordinary.y[flat])
            continue
        bki = bcore.rows[k0][i]
        yil = ordinary.y[flat]
        if bki > 0:
            factor = sf_mul(sf_pow(block_prod, bki), sf_pow(block_spec, -bki))
            yil = sf_mul(yil, factor)
        elif bki < 0:
            yil = sf_mul(yil, sf_pow(block_spec, -bki))
        new_y[flat] = yil

    new_big = enlarge(mutate_B(bcore, seed.r, k), seed.r)
    new_ord = GeneralizedSeed(
        table=table,
        n=ordinary.n,
        r=ordinary.r,
        x=tuple(new_x),
        y=tuple(new_y),
        Z=ordinary.Z,
        B=ExchangeMatrix(new_big.rows, ordinary.B.d),
    )
    return CompositeSeed(new_ord, seed.r)


def composite_walk(seed: CompositeSeed, word) -> CompositeSeed:
    return fold_word(seed, word, composite_mutate)


def composite_mutate_y(seed: CompositeSeed, k: int) -> CompositeSeed:
    """Block mutation of the coefficient side only, at a composite vertex."""
    return _block_step(seed, k, mutate_y_seed)


def composite_walk_y(seed: CompositeSeed, word) -> CompositeSeed:
    return fold_word(seed, word, composite_mutate_y)


@dataclass(frozen=True)
class Aggregates:
    """Per-block products of composite cluster variables and their hat-pairs."""

    X: tuple
    Yhat: tuple


def aggregates(seed: CompositeSeed, g_seed: GeneralizedSeed) -> Aggregates:
    """Block products X_i and the coefficient-side hats at the same vertex.

    Also verifies the per-slot hat identity that glues the two seeds
    together; a violation means the two arguments are not at the same
    vertex.
    """
    table = seed.ordinary.table
    offs = block_offsets(seed.r)
    n = seed.n
    X = []
    for i in range(n):
        prod = FactoredFraction.one(table)
        for l in range(seed.r[i]):
            prod = prod * seed.ordinary.x[offs[i] + l]
        X.append(prod)
    bcore = read_block_matrix(seed.ordinary.B, seed.r)
    Yhat = []
    for i in range(n):
        xb = FactoredFraction.one(table)
        for j in range(n):
            b = bcore.rows[j][i]
            if b:
                xb = xb * X[j] ** b
        Yhat.append(g_seed.y[i].as_factored(table) * xb)
        for l in range(seed.r[i]):
            flat = offs[i] + l
            if seed.ordinary.y[flat].as_factored(table) * xb != y_hat(seed.ordinary, flat):
                raise ValueError("seeds are not at the same vertex")
    return Aggregates(X=tuple(X), Yhat=tuple(Yhat))


# -- realization context -----------------------------------------------------


def slot_name(prefix: str, i: int, l: int, n: int) -> str:
    """Variable name of slot (i, l), 0-based, in a family over n blocks.

    Below rank 10 a slot reads `x12`, or `x1_10` from the tenth slot of a
    block on. From rank 10 on every slot carries the underscore, so a slot
    name never equals a rank-n name such as `x11`, and no two slots share
    a name.
    """
    if n < 10 and l < 9:
        return f"{prefix}{i + 1}{l + 1}"
    return f"{prefix}{i + 1}_{l + 1}"


def slot_names(prefix: str, r, interior: bool = False) -> list:
    """The names of one slot family over the degrees r, in flat order.

    With `interior`, block i has r_i - 1 slots, one per interior exchange
    coefficient, as in the generators z_il.
    """
    n = len(r)
    return [slot_name(prefix, i, l, n) for i in range(n) for l in range(r[i] - interior)]


def splitting_symbols(table: VariableTable, r, interior) -> ElementarySymbols:
    """The symbol set that eliminates the s-slots of the degrees r.

    Each block's e-symbols of degree 1..r_i - 1 go to `interior` (None for
    0), in the flat order of `slot_names(prefix, r, interior=True)`; the
    top symbol of every block goes to 1.
    """
    n = len(r)
    interior = iter(interior)
    blocks = []
    for i in range(n):
        blocks.append(SymbolBlock(
            s_idx=tuple(table.index(slot_name("s", i, l, n)) for l in range(r[i])),
            e_idx=tuple(table.index(slot_name("e", i, l, n)) for l in range(r[i])),
            targets=tuple(next(interior) for _ in range(r[i] - 1)) + (FactoredFraction.one(table),),
        ))
    return ElementarySymbols(table, tuple(blocks))


def coefficient_names(r) -> list:
    """The generic coefficient generators y1..yn, then every z_il."""
    return [f"y{i + 1}" for i in range(len(r))] + slot_names("z", r, interior=True)


@dataclass(frozen=True)
class RealizationLayout:
    """Index bookkeeping for the shared variable table."""

    gx: tuple
    cx: tuple
    s: tuple


@dataclass(frozen=True)
class Realization:
    """A generalized seed and its composite counterpart on one table.

    `symbols` sends block i's e-symbols to `project_np` of Z_i's interior
    coefficients, which over a universal base are the group-ring sums
    themselves: one symbol set serves `psi` and the ring-level map alike.
    """

    table: VariableTable
    layout: RealizationLayout
    base_kind: SemifieldKind
    ext_kind: SemifieldKind
    g_seed: GeneralizedSeed
    c_seed: CompositeSeed
    symbols: ElementarySymbols

    @property
    def n(self) -> int:
        return self.g_seed.n

    @property
    def r(self) -> tuple:
        return self.g_seed.r

    def x_embedding(self) -> dict:
        """Exponent map sending each generalized cluster variable to its block product."""
        width = len(self.table)
        out = {}
        for i, gi in enumerate(self.layout.gx):
            exps = [0] * width
            for idx in self.layout.cx[i]:
                exps[idx] = 1
            out[gi] = tuple(exps)
        return out

    def psi_hat_image(self, ff: FactoredFraction) -> FactoredFraction:
        """Eliminate splitting variables from a composite-side value.

        Only defined over a universal base (see `check_x_realization`).
        Factors carrying composite cluster variables are ring-level objects
        and are mapped as they are; factors free of them are coefficient
        scalars of the extended semifield, whose e-forms are certified to
        stay in the cone, as `semifield.psi` requires. Both go through the
        one symbol set.
        """
        x_vars = {idx for block in self.layout.cx for idx in block}
        ring_part = {}
        scalar_part = {}
        for key, (p, e) in ff.factors.items():
            if p.support_vars() & x_vars:
                ring_part[key] = (p, e)
            else:
                scalar_part[key] = (p, e)
        image = psi_hat_factored(
            FactoredFraction(self.table, ring_part), self.symbols
        )
        if scalar_part:
            image = image * psi_hat_factored(
                FactoredFraction(self.table, scalar_part), self.symbols,
                require_nonneg=True,
            )
        return image


def build_realization(n, r, B_rows, D=None, kind="universal", generators=None,
                      y_values=None, z_values=None) -> Realization:
    """Assemble the shared table and both initial seeds.

    `generators` names the base semifield generators. `y_values` gives the
    initial coefficients as name->exponent monomial dicts (one per
    direction). `z_values[i][l]` is the group-ring data for the interior
    exchange coefficients, as a list of (multiplicity, monomial-dict)
    pairs; None selects the generic choice with one fresh generator per
    interior coefficient.
    """
    r = tuple(int(v) for v in r)
    if len(r) != n or any(v < 1 for v in r):
        raise ValueError("degree mismatch")

    generic = generators is None
    if generic:
        if kind != "universal":
            raise ValueError("generic coefficients require the universal semifield")
        generators = coefficient_names(r)
        y_values = [{f"y{i + 1}": 1} for i in range(n)]
        z_values = [
            [[(1, {slot_name("z", i, l, n): 1})] for l in range(r[i] - 1)]
            for i in range(n)
        ]
    generators = tuple(generators)

    gx_names = [f"x{i + 1}" for i in range(n)]
    cx_names = slot_names("x", r)
    s_names = slot_names("s", r)
    table = VariableTable(
        gx_names + cx_names + list(generators) + s_names + slot_names("e", r)
    )

    offs = block_offsets(r)

    def by_block(names):
        return tuple(
            tuple(table.index(nm) for nm in names[offs[i]:offs[i] + r[i]]) for i in range(n)
        )

    layout = RealizationLayout(gx=tuple(table.index(nm) for nm in gx_names),
                               cx=by_block(cx_names), s=by_block(s_names))

    if kind == "universal":
        base_kind = SemifieldKind.universal(table, generators)
    else:
        base_kind = SemifieldKind(kind, generators)
    ext_gen_names = tuple(generators) + tuple(s_names)
    ext_kind = SemifieldKind.universal(table, ext_gen_names)

    def base_element(mono: dict) -> SemifieldElement:
        if base_kind.kind == "universal":
            return SemifieldElement.universal(
                base_kind, RationalFunction.monomial(table, mono)
            )
        return SemifieldElement.tropical(base_kind, mono)

    y_elems = tuple(base_element(v) for v in y_values)

    Z = []
    for i in range(n):
        one = GroupRingElement.one(base_kind)
        coeffs = [one]
        for l in range(r[i] - 1):
            pairs = [
                (mult, base_element(mono)) for mult, mono in z_values[i][l]
            ]
            coeffs.append(GroupRingElement.from_terms(base_kind, pairs))
        coeffs.append(one)
        Z.append(ExchangePolynomial(tuple(coeffs)))
    Z = tuple(Z)

    B = ExchangeMatrix.from_rows(B_rows, D)
    g_seed = GeneralizedSeed(
        table=table,
        n=n,
        r=r,
        x=tuple(FactoredFraction.variable(table, nm) for nm in gx_names),
        y=y_elems,
        Z=Z,
        B=B,
    )
    validate_seed(g_seed)

    c_seed = initial_composite_seed(g_seed, layout, ext_kind)

    interior = []
    for i in range(n):
        for zc in Z[i].coeffs[1:-1]:
            z = project_np(zc)
            interior.append(None if z is P0_ZERO else z.as_factored(table))
    return Realization(
        table=table,
        layout=layout,
        base_kind=base_kind,
        ext_kind=ext_kind,
        g_seed=g_seed,
        c_seed=c_seed,
        symbols=splitting_symbols(table, r, interior),
    )


def initial_composite_seed(g: GeneralizedSeed, layout: RealizationLayout,
                           ext_kind: SemifieldKind) -> CompositeSeed:
    """Splitting initial seed: fresh per-slot variables and split coefficients."""
    table = g.table
    n = g.n
    r = g.r
    for blocks in (layout.cx, layout.s):
        if len(blocks) != n or any(len(b) != ri for b, ri in zip(blocks, r)):
            raise ValueError("variable-table mismatch")
    N = sum(r)
    xs = []
    ys = []
    for i in range(n):
        # y_i s_il: the slot's split variable shifts the numerator of y_i,
        # already checked subtraction-free on generators
        num, den = g.y[i].as_factored(table).expand_parts()
        den = FactoredFraction.from_poly(den, -1)
        for cx, s in zip(layout.cx[i], layout.s[i]):
            xs.append(FactoredFraction.variable(table, table.names[cx]))
            split = num.shift([int(v == s) for v in range(len(table))])
            ys.append(SemifieldElement(ext_kind, FactoredFraction.from_poly(split) * den))
    big = enlarge(g.B, r)
    binom = ExchangePolynomial.binomial(ext_kind)
    ordinary = GeneralizedSeed(
        table=table,
        n=N,
        r=(1,) * N,
        x=tuple(xs),
        y=tuple(ys),
        Z=(binom,) * N,
        B=big,
    )
    return CompositeSeed(ordinary, r)
