"""Enlarged exchange matrices, composite seeds, and the splitting setup.

The enlargement inflates an n-by-n exchange matrix to pseudo-rank size
with constant blocks; a composite seed is an ordinary seed of that rank
whose directions are grouped into blocks, mutated one whole block at a
time. The realization context wires a generalized seed and its composite
counterpart onto one shared variable table, together with the elementary
symbol substitution that maps one back onto the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import (
    ElementarySymbols,
    FactoredFraction,
    RationalFunction,
    SymbolBlock,
    VariableTable,
    psi_hat_factored,
)
from .pattern import (
    ExchangeMatrix,
    ExchangePolynomial,
    GeneralizedSeed,
    check_word,
    mutate_B,
    mutate_seed,
    mutate_y_seed,
    pos,
    validate_seed,
)
from .semifield import (
    P0_ZERO,
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    project_np,
    psi,
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


def pseudo_rank(r) -> int:
    return sum(r)


def block_pairs(r):
    """The composite index set as 0-based (block, slot) pairs, in flat order."""
    return [(i, l) for i, ri in enumerate(r) for l in range(ri)]


def enlarge(B: ExchangeMatrix, r) -> ExchangeMatrix:
    """Inflate B to pseudo-rank size: block (i,j) is constant b_ij."""
    if len(r) != B.n or any(v < 1 for v in r):
        raise ValueError("degree mismatch")
    rows = []
    for i, ri in enumerate(r):
        row = []
        for j, rj in enumerate(r):
            row.extend([B.rows[i][j]] * rj)
        rows.extend([tuple(row)] * ri)
    d = None
    if B.d is not None:
        d = tuple(B.d[i] for i, ri in enumerate(r) for _ in range(ri))
    return ExchangeMatrix(tuple(rows), d)


def read_block_matrix(big: ExchangeMatrix, r) -> ExchangeMatrix:
    """Recover the block-constant core of an enlarged matrix.

    Raises if any block is not constant, which only happens away from
    composite vertices.
    """
    offs = block_offsets(r)
    n = len(r)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            vals = {
                big.rows[offs[i] + a][offs[j] + b]
                for a in range(r[i])
                for b in range(r[j])
            }
            if len(vals) != 1:
                raise ValueError("matrix is not block-constant")
            row.append(vals.pop())
        rows.append(tuple(row))
    return ExchangeMatrix(tuple(rows))


def sigma_of_word(word, n: int) -> tuple:
    """Mutation-parity signs per direction for a reduced word."""
    word = check_word(word, n)
    out = [1] * n
    for k in word:
        out[k - 1] = -out[k - 1]
    return tuple(out)


@dataclass(frozen=True)
class CompositeSeed:
    """Ordinary seed of pseudo-rank size with block structure and sign tracking.

    `ordinary` is a degree-one seed over the extended coefficient
    semifield; `sigma` records mutation parity per block and `Zt` the
    correspondingly reversed exchange polynomials of the source seed.
    """

    ordinary: GeneralizedSeed
    r: tuple
    sigma: tuple
    Zt: tuple

    @property
    def n(self) -> int:
        return len(self.r)

    def flat(self, i: int, l: int) -> int:
        return block_offsets(self.r)[i] + l

    def x(self, i: int, l: int) -> RationalFunction:
        return self.ordinary.x[self.flat(i, l)]

    def y(self, i: int, l: int) -> SemifieldElement:
        return self.ordinary.y[self.flat(i, l)]

    @property
    def big_matrix(self) -> ExchangeMatrix:
        return self.ordinary.B


def composite_mutate(seed: CompositeSeed, k: int) -> CompositeSeed:
    """Mutate every direction of block k (1-based), in slot order.

    The inner mutations commute because the diagonal block vanishes at
    composite vertices, which is asserted before touching anything.
    """
    return _block_step(seed, k, mutate_seed)


def _block_step(seed: CompositeSeed, k: int, mutate) -> CompositeSeed:
    """Apply the ordinary `mutate` to each slot of block k (1-based), in slot order."""
    n = seed.n
    if not 1 <= k <= n:
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
    return _flip_block(seed, k0, ordinary)


def _flip_block(seed: CompositeSeed, k0: int, ordinary: GeneralizedSeed) -> CompositeSeed:
    """The composite seed over `ordinary` once block k0 (0-based) has moved.

    Block k0's sign flips and its exchange polynomial is reversed.
    """
    sigma = list(seed.sigma)
    sigma[k0] = -sigma[k0]
    Zt = list(seed.Zt)
    Zt[k0] = Zt[k0].reciprocal()
    return CompositeSeed(ordinary=ordinary, r=seed.r, sigma=tuple(sigma), Zt=tuple(Zt))


def composite_mutate_closed(seed: CompositeSeed, k: int) -> CompositeSeed:
    """Single-pass closed form of the block mutation, for cross-checking.

    Every new cluster variable and coefficient is computed from the data
    before the block step, so the result must agree with the composed
    elementary mutations whenever the diagonal block vanishes.
    """
    n = seed.n
    if not 1 <= k <= n:
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

    new_x = list(ordinary.x)
    for l in range(rk):
        flat = offs[k0] + l
        ykl = ordinary.y[flat]
        hat = ykl.as_factored(table)
        for (j, m) in pairs:
            b = ordinary.B.rows[offs[j] + m][flat]
            if b:
                hat = hat * ordinary.x[offs[j] + m] ** b
        hat_num, hat_den = hat.expand_parts()
        one_plus_hat = FactoredFraction.from_poly(hat_num + hat_den) * (
            hat.negative_part() ** -1
        )
        ykl_num, ykl_den = ykl.as_factored(table).expand_parts()
        one_plus_y = FactoredFraction.from_poly(ykl_num + ykl_den) * (
            ykl.as_factored(table).negative_part() ** -1
        )
        new_x[flat] = (
            ordinary.x[flat].inverse() * mult * one_plus_hat * one_plus_y.inverse()
        )

    block_prod = None
    block_spec = None
    for l in range(rk):
        ykl = ordinary.y[offs[k0] + l]
        block_prod = ykl if block_prod is None else sf_mul(block_prod, ykl)
        one_plus = _one_oplus(ykl)
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
    return _flip_block(seed, k0, new_ord)


def _one_oplus(y: SemifieldElement) -> SemifieldElement:
    return sf_add(SemifieldElement.one(y.kind), y)


def composite_walk(seed: CompositeSeed, word) -> CompositeSeed:
    word = check_word(word, seed.n)
    current = seed
    for k in word:
        current = composite_mutate(current, k)
    return current


def composite_mutate_y(seed: CompositeSeed, k: int) -> CompositeSeed:
    """Block mutation of the coefficient side only, at a composite vertex."""
    return _block_step(seed, k, mutate_y_seed)


def composite_walk_y(seed: CompositeSeed, word) -> CompositeSeed:
    word = check_word(word, seed.n)
    current = seed
    for k in word:
        current = composite_mutate_y(current, k)
    return current


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
        v = g_seed.y[i].as_factored(table)
        for j in range(n):
            b = bcore.rows[j][i]
            if b:
                v = v * X[j] ** b
        Yhat.append(v)
    for i in range(n):
        for l in range(seed.r[i]):
            flat = offs[i] + l
            hat = seed.ordinary.y[flat].as_factored(table)
            for j in range(n):
                b = bcore.rows[j][i]
                if b:
                    hat = hat * X[j] ** b
            direct = seed.ordinary.y[flat].as_factored(table)
            for (j, m) in block_pairs(seed.r):
                b = seed.ordinary.B.rows[offs[j] + m][flat]
                if b:
                    direct = direct * seed.ordinary.x[offs[j] + m] ** b
            if hat != direct:
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


@dataclass(frozen=True)
class RealizationLayout:
    """Index bookkeeping for the shared variable table."""

    gx: tuple
    cx: tuple
    s: tuple
    e: tuple
    gens: tuple


@dataclass(frozen=True)
class Realization:
    """A generalized seed and its composite counterpart on one table."""

    table: VariableTable
    layout: RealizationLayout
    base_kind: SemifieldKind
    ext_kind: SemifieldKind
    g_seed: GeneralizedSeed
    c_seed: CompositeSeed
    elem_ring: ElementarySymbols
    elem_sf: ElementarySymbols

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

        Factors carrying composite cluster variables are ring-level objects
        and substitute the group-ring exchange coefficients; factors free
        of them are coefficient scalars of the extended semifield and go
        through the semifield-level map, which then collapses into the
        base semifield. The two routes agree over a universal base but
        differ over a tropical one, where scalar sums collapse to minima.
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
            FactoredFraction(self.table, ring_part), self.elem_ring
        )
        if scalar_part:
            scalar = psi(
                SemifieldElement(
                    self.ext_kind, FactoredFraction(self.table, scalar_part)
                ),
                self.elem_sf,
                self.base_kind,
            )
            image = image * scalar.as_factored(self.table)
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
        generators = [f"y{i + 1}" for i in range(n)] + [
            slot_name("z", i, l, n) for i in range(n) for l in range(r[i] - 1)
        ]
        y_values = [{f"y{i + 1}": 1} for i in range(n)]
        z_values = [
            [[(1, {slot_name("z", i, l, n): 1})] for l in range(r[i] - 1)]
            for i in range(n)
        ]
    generators = tuple(generators)

    gx_names = [f"x{i + 1}" for i in range(n)]
    cx_names = [slot_name("x", i, l, n) for i in range(n) for l in range(r[i])]
    s_names = [slot_name("s", i, l, n) for i in range(n) for l in range(r[i])]
    e_names = [slot_name("e", i, l, n) for i in range(n) for l in range(r[i])]
    table = VariableTable(
        gx_names + cx_names + list(generators) + s_names + e_names
    )

    offs = block_offsets(r)
    gx = tuple(table.index(nm) for nm in gx_names)
    cx = tuple(
        tuple(table.index(slot_name("x", i, l, n)) for l in range(r[i])) for i in range(n)
    )
    s_idx = tuple(
        tuple(table.index(slot_name("s", i, l, n)) for l in range(r[i])) for i in range(n)
    )
    e_idx = tuple(
        tuple(table.index(slot_name("e", i, l, n)) for l in range(r[i])) for i in range(n)
    )
    layout = RealizationLayout(gx=gx, cx=cx, s=s_idx, e=e_idx,
                               gens=tuple(table.index(g) for g in generators))

    if kind == "universal":
        base_kind = SemifieldKind.universal(table, generators)
    elif kind == "tropical":
        base_kind = SemifieldKind.tropical(generators)
    elif kind == "trivial":
        base_kind = SemifieldKind.trivial()
    else:
        raise ValueError(f"unknown semifield kind {kind!r}")
    ext_gen_names = tuple(generators) + tuple(s_names)
    ext_kind = SemifieldKind.universal(table, ext_gen_names)

    def base_element(mono: dict) -> SemifieldElement:
        if base_kind.kind == "trivial":
            return SemifieldElement.one(base_kind)
        if base_kind.kind == "tropical":
            return SemifieldElement.tropical(base_kind, mono)
        return SemifieldElement.universal(
            base_kind, RationalFunction.monomial(table, mono)
        )

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

    ring_blocks = []
    sf_blocks = []
    for i in range(n):
        ring_targets = []
        sf_targets = []
        for l in range(r[i]):
            if l == r[i] - 1:
                ring_targets.append(RationalFunction.one(table))
                sf_targets.append(RationalFunction.one(table))
            else:
                zc = Z[i].coeffs[l + 1]
                ring_targets.append(zc.as_ratfn(table))
                z_sf = project_np(zc)
                sf_targets.append(
                    RationalFunction.zero(table)
                    if z_sf is P0_ZERO
                    else z_sf.as_ratfn(table)
                )
        ring_blocks.append(
            SymbolBlock(s_idx=s_idx[i], e_idx=e_idx[i], targets=tuple(ring_targets))
        )
        sf_blocks.append(
            SymbolBlock(s_idx=s_idx[i], e_idx=e_idx[i], targets=tuple(sf_targets))
        )

    # the class e-forms do not depend on the targets: one cache serves both
    cache = {}
    return Realization(
        table=table,
        layout=layout,
        base_kind=base_kind,
        ext_kind=ext_kind,
        g_seed=g_seed,
        c_seed=c_seed,
        elem_ring=ElementarySymbols(table, tuple(ring_blocks), cache),
        elem_sf=ElementarySymbols(table, tuple(sf_blocks), cache),
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
    N = pseudo_rank(r)
    xs = []
    ys = []
    for i in range(n):
        for l in range(r[i]):
            xs.append(
                FactoredFraction.variable(table, table.names[layout.cx[i][l]])
            )
            split = RationalFunction.variable(table, table.names[layout.s[i][l]])
            value = split * g.y[i].as_ratfn(table)
            ys.append(SemifieldElement.universal(ext_kind, value))
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
    return CompositeSeed(ordinary=ordinary, r=r, sigma=(1,) * n, Zt=g.Z)
