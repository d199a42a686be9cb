"""Generalized seeds, directional mutation, and walks on the regular tree.

A seed bundles cluster variables (rational functions in the initial
cluster), coefficients in a semifield, one exchange polynomial per
direction, and a skew-symmetrizable exchange matrix. Mutating in
direction k uses that direction's degree; degree-one everywhere recovers
the ordinary mutation. Seeds are immutable; every mutation returns a
fresh seed, so walks can be shared and explored concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import neg

from .polyring import (
    FactoredFraction,
    VariableTable,
    exchange_sum,
    over_common_denominator,
)
from .semifield import (
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    sf_inv,
    sf_mul,
    sf_pow,
    specialize_Z,
)


class NotSkewSymmetrizableError(ValueError):
    pass


def pos(v: int) -> int:
    return v if v > 0 else 0


@dataclass(frozen=True)
class ExchangePolynomial:
    """Monic, constant-term-one polynomial with group-ring coefficients.

    `coeffs` runs from the constant term to the leading term; the degree is
    the direction's mutation degree.
    """

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree mismatch")
        if not (self.coeffs[0].is_one() and self.coeffs[-1].is_one()):
            raise ValueError("non-monic exchange polynomial")

    @classmethod
    def binomial(cls, kind: SemifieldKind):
        one = GroupRingElement.one(kind)
        return cls((one, one))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def kind(self):
        return self.coeffs[0].kind

    def reciprocal(self) -> "ExchangePolynomial":
        return ExchangePolynomial(tuple(reversed(self.coeffs)))

    def specialize(self, y: SemifieldElement) -> SemifieldElement:
        return specialize_Z(self.coeffs, y)

    def __eq__(self, other):
        if not isinstance(other, ExchangePolynomial):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def render(self, var: str = "u") -> str:
        parts = []
        for l, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            body = c.render()
            if l == 0:
                parts.append(body)
                continue
            u = var if l == 1 else f"{var}^{l}"
            if body == "1":
                parts.append(u)
            elif " + " in body or "*" in body:
                parts.append(f"({body})*{u}")
            else:
                parts.append(f"{body}*{u}")
        return " + ".join(parts)


def find_symmetrizer(rows) -> tuple:
    """Minimal positive integer diagonal making D*B skew-symmetric.

    Propagates the ratio constraints over the connected components of the
    nonzero pattern and fails when any cycle or sign condition is
    inconsistent.
    """
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            raise NotSkewSymmetrizableError("not skew-symmetrizable")
        for j in range(n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotSkewSymmetrizableError("not skew-symmetrizable")
            if rows[i][j] * rows[j][i] > 0:
                raise NotSkewSymmetrizableError("not skew-symmetrizable")
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        component = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if rows[i][j] == 0:
                    continue
                ratio = d[i] * Fraction(abs(rows[i][j]), abs(rows[j][i]))
                if d[j] is None:
                    d[j] = ratio
                    component.append(j)
                    stack.append(j)
                elif d[j] != ratio:
                    raise NotSkewSymmetrizableError("not skew-symmetrizable")
        denoms = lcm(*(d[i].denominator for i in component))
        nums = gcd(*((d[i] * denoms).numerator for i in component))
        for i in component:
            d[i] = (d[i] * denoms).numerator // nums
    _check_skew(rows, d)
    return tuple(d)


def _check_skew(rows, d) -> None:
    """Raise unless D*B is skew-symmetric for the integer diagonal d."""
    n = len(rows)
    for i in range(n):
        for j in range(i, n):
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSkewSymmetrizableError("not skew-symmetrizable")


@dataclass(frozen=True)
class ExchangeMatrix:
    """Integer exchange matrix together with an optional integer skew-symmetrizer."""

    rows: tuple
    d: tuple = None

    @classmethod
    def from_rows(cls, rows, d=None):
        rows = tuple(tuple(map(int, row)) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
        if d is not None:
            if len(d) != n or any(v != int(v) or v <= 0 for v in d):
                raise ValueError("symmetrizer must be positive integers of matching size")
            d = tuple(map(int, d))
            _check_skew(rows, d)
        return cls(rows, d)

    @property
    def n(self) -> int:
        return len(self.rows)

    def symmetrizer(self) -> tuple:
        if self.d is not None:
            return self.d
        return find_symmetrizer(self.rows)

    def render(self) -> str:
        return render_matrix(self.rows)

    def __eq__(self, other):
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None


def render_matrix(rows) -> str:
    return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in rows) + "]"


def mutate_B(B: ExchangeMatrix, r, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based) with per-direction degrees.

    `B` may be an extended matrix: m >= n rows over n columns, the
    exchange matrix on top and further rows, such as a C-matrix, below.
    Every row mutates by the rule of Fomin-Zelevinsky (Cluster algebras
    IV), which reads only row k of the top block: row k changes sign; row
    i adds |b_ik| times the positive (b_ik > 0) or negative (b_ik < 0)
    part of r_k times row k, then negates its entry k; if b_ik = 0 it stays.
    """
    rows = B.rows
    n = len(rows[0])
    if not 1 <= k <= n:
        raise IndexError("direction out of range")
    k0 = k - 1
    rk = r[k0]
    top = rows[k0]
    plus = [rk * v if v > 0 else 0 for v in top]
    minus = [rk * v if v < 0 else 0 for v in top]
    out = []
    for row in rows:
        b = row[k0]
        if b:
            t = abs(b)
            row = [v + t * p for v, p in zip(row, plus if b > 0 else minus)]
            row[k0] = -b
        out.append(tuple(row))
    out[k0] = tuple(map(neg, top))
    return ExchangeMatrix(tuple(out), B.d)


@dataclass(frozen=True)
class GeneralizedSeed:
    """Cluster variables, coefficients, exchange polynomials, exchange matrix.

    Cluster variables are exact rational functions in the initial cluster,
    held in factored form so that walks cancel spent factors instead of
    multiplying them out.
    """

    table: VariableTable
    n: int
    r: tuple
    x: tuple
    y: tuple
    Z: tuple
    B: ExchangeMatrix


def validate_seed(seed: GeneralizedSeed) -> None:
    """Check the seed invariants; raises ValueError flavors on failure."""
    if not (len(seed.x) == len(seed.y) == len(seed.Z) == seed.B.n == seed.n):
        raise ValueError("degree mismatch")
    if len(seed.r) != seed.n or any(v < 1 for v in seed.r):
        raise ValueError("degree mismatch")
    for Zi, ri in zip(seed.Z, seed.r):
        if Zi.degree != ri:
            raise ValueError("degree mismatch")
    seed.B.symmetrizer()
    kind = seed.y[0].kind
    for yi in seed.y:
        if yi.kind != kind:
            raise ValueError("mixed semifield kinds in one seed")
    for xi in seed.x:
        if xi.table is not seed.table:
            raise ValueError("cluster variable on the wrong table")


def mutate_seed(seed: GeneralizedSeed, k: int) -> GeneralizedSeed:
    """Seed mutation in direction k (1-based)."""
    moved, spec = _mutate_coefficients(seed, k)
    k0 = k - 1
    new_x = list(seed.x)
    new_x[k0] = _mutated_variable(seed, k0, seed.r[k0], seed.Z[k0], spec)
    return replace(moved, x=tuple(new_x))


def _mutate_coefficients(seed: GeneralizedSeed, k: int):
    """The coefficient side of the mutation in direction k (1-based).

    Returns the seed with its coefficients, exchange polynomials and
    matrix mutated and its cluster variables kept, together with the
    specialization of Z_k at y_k, which the new cluster variable divides by.
    """
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError("direction out of range")
    k0 = k - 1
    rk = seed.r[k0]
    B = seed.B.rows
    Zk = seed.Z[k0]
    spec = Zk.specialize(seed.y[k0])
    new_y = []
    for i in range(n):
        if i == k0:
            new_y.append(sf_inv(seed.y[k0]))
            continue
        bki = B[k0][i]
        yi = seed.y[i]
        if bki > 0:
            # grouping the power with the specialization lets their shared
            # denominator cancel before it merges into anything else
            factor = sf_mul(sf_pow(seed.y[k0], rk * bki), sf_pow(spec, -bki))
            yi = sf_mul(yi, factor)
        elif bki < 0:
            yi = sf_mul(yi, sf_pow(spec, -bki))
        new_y.append(yi)
    new_Z = list(seed.Z)
    new_Z[k0] = Zk.reciprocal()
    return GeneralizedSeed(
        table=seed.table,
        n=n,
        r=seed.r,
        x=seed.x,
        y=tuple(new_y),
        Z=tuple(new_Z),
        B=mutate_B(seed.B, seed.r, k),
    ), spec


def y_hat(seed: GeneralizedSeed, k0: int) -> FactoredFraction:
    """The hat-variable y_k * prod_j x_j^(b_jk) of direction k0 (0-based), factored."""
    hat = seed.y[k0].as_factored(seed.table)
    for j, row in enumerate(seed.B.rows):
        if row[k0]:
            hat = hat * seed.x[j] ** row[k0]
    return hat


def _mutated_variable(seed: GeneralizedSeed, k0: int, rk: int,
                      Zk: ExchangePolynomial, spec) -> FactoredFraction:
    """New cluster variable in direction k, in factored form.

    With the exchange coefficients c_l = n_l / d over their common
    denominator d (`over_common_denominator`; d = 1 for Laurent
    coefficients) and the hat-variable A / Bq, the exchange sum is

        sum_l c_l (A / Bq)^l = exchange_sum(n, [A], [Bq]) / (d Bq^rk).

    Only that numerator is ever multiplied out; all remaining structure
    (the old variable, the monomial multiplier, d, the hat-variable
    denominator and the specialization) stays factored, so anything a later
    mutation divides away again cancels by exponent arithmetic.
    """
    table = seed.table
    hat = y_hat(seed, k0)
    mult = FactoredFraction.one(table)
    for j, row in enumerate(seed.B.rows):
        e = pos(-row[k0])
        if e:
            mult = mult * seed.x[j] ** e

    # the endpoint coefficients are 1 (ExchangePolynomial is monic)
    unit = FactoredFraction.one(table)
    nums, den = over_common_denominator(
        [unit if l in (0, rk) else None if c.is_zero() else c.as_factored(table)
         for l, c in enumerate(Zk.coeffs)], table)
    # the sides are the hat-variable's parts A and Bq; one equal to 1 is no
    # factor, as a product by 1 would still pass over every term of the other
    znum = exchange_sum(nums, *([] if p.is_one() else [p] for p in hat.expand_parts()))
    return (
        seed.x[k0].inverse()
        * mult ** rk
        * FactoredFraction.from_poly(znum)
        * hat.negative_part() ** -rk
        * spec.as_factored(table).inverse()
        / den
    )


def mutate_y_seed(seed: GeneralizedSeed, k: int) -> GeneralizedSeed:
    """Mutation restricted to the coefficient side; cluster variables are kept.

    The coefficient dynamics are self-contained, so walks that only need
    the y-side can skip the cluster-variable arithmetic entirely.
    """
    return _mutate_coefficients(seed, k)[0]


def check_word(word, n: int) -> tuple:
    """Validate a reduced tree word of 1-based directions."""
    word = tuple(map(int, word))
    for k in word:
        if not 1 <= k <= n:
            raise ValueError("direction out of range")
    for a, b in zip(word, word[1:]):
        if a == b:
            raise ValueError("non-reduced word")
    return word


def fold_word(seed, word, step):
    """Apply `step(seed, k)` along a reduced word, left to right.

    Every walk, generalized or composite, full or coefficient-side only,
    is this fold with its own step. Each walk names its step when called,
    never as a default argument, so a step rebound at module level (as
    tracing does) is the one that runs.
    """
    for k in check_word(word, seed.n):
        seed = step(seed, k)
    return seed


def walk(seed: GeneralizedSeed, word) -> GeneralizedSeed:
    """Mutate along a reduced word, left to right: the fold with `mutate_seed`."""
    return fold_word(seed, word, mutate_seed)


def walk_y(seed: GeneralizedSeed, word) -> GeneralizedSeed:
    return fold_word(seed, word, mutate_y_seed)


def reduced_words(n: int, max_depth: int):
    """All nonempty reduced words over n directions up to the given depth."""
    out = []
    frontier = [()]
    for _ in range(max_depth):
        nxt = []
        for w in frontier:
            for k in range(1, n + 1):
                if w and w[-1] == k:
                    continue
                nxt.append(w + (k,))
        out.extend(nxt)
        frontier = nxt
    return out
