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

from .polyring import (
    FactoredFraction,
    LaurentPolynomial,
    RationalFunction,
    VariableTable,
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
        denoms = lcm(*(d[i].denominator for i in component)) if component else 1
        nums = 0
        for i in component:
            nums = gcd(nums, (d[i] * denoms).numerator)
        for i in component:
            d[i] = Fraction((d[i] * denoms) / nums)
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSkewSymmetrizableError("not skew-symmetrizable")
    return tuple(d)


@dataclass(frozen=True)
class ExchangeMatrix:
    """Integer exchange matrix together with an optional skew-symmetrizer."""

    rows: tuple
    d: tuple = None

    @classmethod
    def from_rows(cls, rows, d=None):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
        if d is not None:
            d = tuple(Fraction(v) for v in d)
            if len(d) != n or any(v <= 0 for v in d):
                raise ValueError("symmetrizer must be positive of matching size")
            for i in range(n):
                for j in range(n):
                    if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                        raise NotSkewSymmetrizableError("not skew-symmetrizable")
        return cls(rows, d)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

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
    """Matrix mutation in direction k (1-based) with per-direction degrees."""
    n = B.n
    if not 1 <= k <= n:
        raise IndexError("direction out of range")
    k0 = k - 1
    rk = r[k0]
    rows = B.rows
    out = []
    for i in range(n):
        new_row = []
        for j in range(n):
            if i == k0 or j == k0:
                new_row.append(-rows[i][j])
            else:
                new_row.append(
                    rows[i][j]
                    + rk * (rows[i][k0] * pos(rows[k0][j]) + pos(-rows[i][k0]) * rows[k0][j])
                )
        out.append(tuple(new_row))
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
        if not (Zi.coeffs[0].is_one() and Zi.coeffs[-1].is_one()):
            raise ValueError("non-monic exchange polynomial")
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


def _mutated_variable(seed: GeneralizedSeed, k0: int, rk: int,
                      Zk: ExchangePolynomial, spec) -> FactoredFraction:
    """New cluster variable in direction k, in factored form.

    Only the exchange-sum numerator is ever multiplied out; all remaining
    structure (the old variable, the monomial multiplier, the hat-variable
    denominator and the specialization) stays factored, so anything a later
    mutation divides away again cancels by exponent arithmetic.
    """
    table = seed.table
    n = seed.n
    B = seed.B.rows

    hat = seed.y[k0].as_factored(table)
    mult = FactoredFraction.one(table)
    for j in range(n):
        if j == k0:
            continue
        b = B[j][k0]
        if b:
            hat = hat * seed.x[j] ** b
        e = pos(-b)
        if e:
            mult = mult * seed.x[j] ** e

    spec_ff = spec.as_factored(table)
    coeff_rfs = [None if c.is_zero() else c.as_ratfn(table) for c in Zk.coeffs]

    if all(c is None or c.den.is_one() for c in coeff_rfs):
        A, Bq = hat.expand_parts()
        a_pows = [LaurentPolynomial.one(table)]
        b_pows = [LaurentPolynomial.one(table)]
        for _ in range(rk):
            a_pows.append(a_pows[-1] * A)
            b_pows.append(b_pows[-1] * Bq)
        znum = LaurentPolynomial.zero(table)
        for l, c in enumerate(coeff_rfs):
            if c is None:
                continue
            term = a_pows[l] * b_pows[rk - l]
            if not c.num.is_one():
                term = term * c.num
            znum = znum + term
        return (
            seed.x[k0].inverse()
            * mult ** rk
            * FactoredFraction.from_poly(znum)
            * hat.negative_part() ** -rk
            * spec_ff.inverse()
        )

    # coefficients with genuine denominators: plain rational fallback
    hat_rf = hat.expand()
    total = RationalFunction.zero(table)
    hat_pow = RationalFunction.one(table)
    for l, c in enumerate(coeff_rfs):
        if l:
            hat_pow = hat_pow * hat_rf
        if c is None:
            continue
        total = total + c * hat_pow
    return (
        seed.x[k0].inverse()
        * mult ** rk
        * FactoredFraction.from_ratfn(total)
        * spec_ff.inverse()
    )


def mutate_y_seed(seed: GeneralizedSeed, k: int) -> GeneralizedSeed:
    """Mutation restricted to the coefficient side; cluster variables are kept.

    The coefficient dynamics are self-contained, so walks that only need
    the y-side can skip the cluster-variable arithmetic entirely.
    """
    return _mutate_coefficients(seed, k)[0]


def walk_y(seed: GeneralizedSeed, word) -> GeneralizedSeed:
    word = check_word(word, seed.n)
    current = seed
    for k in word:
        current = mutate_y_seed(current, k)
    return current


def check_word(word, n: int) -> tuple:
    """Validate a reduced tree word of 1-based directions."""
    word = tuple(int(k) for k in word)
    for k in word:
        if not 1 <= k <= n:
            raise ValueError("direction out of range")
    for a, b in zip(word, word[1:]):
        if a == b:
            raise ValueError("non-reduced word")
    return word


def walk(seed: GeneralizedSeed, word) -> GeneralizedSeed:
    """Fold mutations along a reduced word, left to right."""
    word = check_word(word, seed.n)
    current = seed
    for k in word:
        current = mutate_seed(current, k)
    return current


def reduced_words(n: int, max_depth: int, include_empty: bool = False):
    """All reduced words over n directions up to the given depth."""
    out = [()] if include_empty else []
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
