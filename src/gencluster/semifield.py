"""Coefficient semifields: universal and tropical (min convention).

A semifield value is immutable and takes one of two forms. Tropical
elements are integer exponent vectors over a fixed generator list, added
by componentwise minimum; the trivial semifield {1} is the tropical one
on no generators, whose single element is the empty vector. Universal
elements are subtraction-free rational functions supported on
designated generator variables of a shared table; each is stored in one
form, a `FactoredFraction`, so products, powers and inverses merge
factor exponents and nothing is multiplied out until a caller expands
what `as_factored` returns. The module also provides the group-ring
fragment used for exchange-polynomial coefficients (finite nonnegative
integer combinations of semifield values), its projection onto the
semifield-with-zero, and the specialization of an exchange polynomial
at a semifield point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    RationalFunction,
    VariableTable,
    cross_evaluate,
    ff_add,
    ff_eq,
    ff_sum,
    psi_hat_factored,
)


class SemifieldMismatchError(ValueError):
    pass


class _ProjectiveZero:
    """Marker for the absorbing zero adjoined at API boundaries."""

    __slots__ = ()

    def __repr__(self):
        return "0"


P0_ZERO = _ProjectiveZero()

TRIVIAL = "trivial"
TROPICAL = "tropical"
UNIVERSAL = "universal"


@dataclass(frozen=True)
class SemifieldKind:
    """Which semifield a value lives in, with its generator bookkeeping."""

    kind: str
    generators: tuple
    table: VariableTable = None
    gen_idx: tuple = None

    def __post_init__(self):
        if self.kind not in (TRIVIAL, TROPICAL, UNIVERSAL):
            raise ValueError(f"unknown semifield kind {self.kind!r}")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        for g in self.generators:
            if not g:
                raise ValueError("generator names must be nonempty")
        if self.kind == UNIVERSAL and self.table is None:
            raise ValueError("universal semifield needs a variable table")
        if self.kind == TRIVIAL and self.generators:
            raise ValueError("the trivial semifield has no generators")

    @classmethod
    def trivial(cls):
        """The semifield {1}: computed as tropical on no generators."""
        return cls(TRIVIAL, ())

    @classmethod
    def tropical(cls, generators):
        return cls(TROPICAL, tuple(generators))

    @classmethod
    def universal(cls, table: VariableTable, generators):
        generators = tuple(generators)
        idx = tuple(table.index(g) for g in generators)
        return cls(UNIVERSAL, generators, table, idx)

    def __eq__(self, other):
        if not isinstance(other, SemifieldKind):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.generators == other.generators
            and self.table is other.table
        )

    def __hash__(self):
        return hash((self.kind, self.generators, id(self.table)))


def _check_kind(a, b):
    if a.kind is not b.kind and a.kind != b.kind:
        raise SemifieldMismatchError("semifield mismatch")


def _generator_index(kind: SemifieldKind, name: str) -> int:
    if name not in kind.generators:
        raise ValueError(f"unknown generator {name!r}")
    return kind.generators.index(name)


class SemifieldElement:
    """A value of a universal or an exponent-vector (tropical) semifield."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: SemifieldKind, payload):
        self.kind = kind
        self.payload = payload

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, kind: SemifieldKind):
        if kind.kind == UNIVERSAL:
            return cls(kind, FactoredFraction.one(kind.table))
        return cls(kind, (0,) * len(kind.generators))

    @classmethod
    def tropical(cls, kind: SemifieldKind, exponents):
        if kind.kind == UNIVERSAL:
            raise SemifieldMismatchError("semifield mismatch")
        if isinstance(exponents, dict):
            vec = [0] * len(kind.generators)
            for name, e in exponents.items():
                vec[_generator_index(kind, name)] = int(e)
            exponents = vec
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(kind.generators):
            raise ValueError("tropical exponent vector has the wrong length")
        return cls(kind, exponents)

    @classmethod
    def universal(cls, kind: SemifieldKind, value: RationalFunction):
        if kind.kind != UNIVERSAL:
            raise SemifieldMismatchError("semifield mismatch")
        if value.table is not kind.table:
            raise SemifieldMismatchError("semifield mismatch")
        if value.is_zero():
            raise ValueError("zero is not a semifield element")
        if any(c < 0 for c in value.num.coefficients()) or any(
            c < 0 for c in value.den.coefficients()
        ):
            raise ValueError("universal elements must be subtraction-free")
        allowed = set(kind.gen_idx)
        if not (value.num.support_vars() <= allowed and value.den.support_vars() <= allowed):
            raise ValueError("universal element mentions a non-generator variable")
        return cls(kind, FactoredFraction.from_ratfn(value))

    @classmethod
    def generator(cls, kind: SemifieldKind, name: str, power: int = 1):
        if kind.kind == UNIVERSAL:
            _generator_index(kind, name)
            # a generator power is a subtraction-free one-factor fraction as it is
            return cls(kind, FactoredFraction.variable(kind.table, name, power))
        return cls.tropical(kind, {name: power})

    # -- conversions -------------------------------------------------------

    def as_factored(self, table: VariableTable) -> FactoredFraction:
        if self.kind.kind == UNIVERSAL:
            if self.payload.table is not table:
                raise SemifieldMismatchError("semifield mismatch")
            return self.payload
        powers = {
            name: e for name, e in zip(self.kind.generators, self.payload) if e
        }
        return FactoredFraction.from_poly(LaurentPolynomial.monomial(table, powers))

    def render(self) -> str:
        if self.kind.kind == UNIVERSAL:
            return self.payload.render()
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(self.kind.generators, self.payload)
            if e
        ]
        return "*".join(factors) if factors else "1"

    def __repr__(self):
        return f"<sf {self.render()}>"

    def __eq__(self, other):
        if not isinstance(other, SemifieldElement):
            return NotImplemented
        return sf_eq(self, other)

    __hash__ = None


def sf_eq(a: SemifieldElement, b: SemifieldElement) -> bool:
    _check_kind(a, b)
    if a.kind.kind == UNIVERSAL:
        return ff_eq(a.payload, b.payload)
    return a.payload == b.payload


def sf_add(a: SemifieldElement, b: SemifieldElement) -> SemifieldElement:
    """Semifield addition: min of exponents (tropical), ordinary + (universal)."""
    _check_kind(a, b)
    if a.kind.kind == UNIVERSAL:
        return SemifieldElement(a.kind, ff_add(a.payload, b.payload))
    return SemifieldElement(a.kind, tuple(map(min, a.payload, b.payload)))


def sf_mul(a: SemifieldElement, b: SemifieldElement) -> SemifieldElement:
    _check_kind(a, b)
    if a.kind.kind == UNIVERSAL:
        return SemifieldElement(a.kind, a.payload * b.payload)
    return SemifieldElement(a.kind, tuple(x + y for x, y in zip(a.payload, b.payload)))


def sf_inv(a: SemifieldElement) -> SemifieldElement:
    if a.kind.kind == UNIVERSAL:
        return SemifieldElement(a.kind, a.payload.inverse())
    return SemifieldElement(a.kind, tuple(-e for e in a.payload))


def sf_pow(a: SemifieldElement, n: int) -> SemifieldElement:
    if a.kind.kind == UNIVERSAL:
        return SemifieldElement(a.kind, a.payload ** n)
    return SemifieldElement(a.kind, tuple(n * e for e in a.payload))


def iterated_oplus(count: int, p: SemifieldElement) -> SemifieldElement:
    """Sum of `count` copies of p under the semifield addition."""
    if count <= 0:
        raise ValueError("iterated sum needs a positive count")
    if p.kind.kind != UNIVERSAL or count == 1:
        # one copy, or an idempotent addition: p + p = p
        return p
    count = LaurentPolynomial.constant(p.kind.table, count)
    return SemifieldElement(p.kind, p.payload * FactoredFraction.from_poly(count))


class GroupRingElement:
    """Finite integer combination of pairwise distinct semifield values."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: SemifieldKind, terms):
        self.kind = kind
        self.terms = terms

    @classmethod
    def from_terms(cls, kind: SemifieldKind, pairs):
        """Collapse duplicates and drop zero multiplicities."""
        merged = []
        for mult, elem in pairs:
            mult = int(mult)
            if elem.kind != kind:
                raise SemifieldMismatchError("semifield mismatch")
            for i, (m, e) in enumerate(merged):
                if sf_eq(e, elem):
                    merged[i] = (m + mult, e)
                    break
            else:
                merged.append((mult, elem))
        return cls(kind, tuple((m, e) for m, e in merged if m))

    @classmethod
    def zero(cls, kind):
        return cls(kind, ())

    @classmethod
    def one(cls, kind):
        return cls(kind, ((1, SemifieldElement.one(kind)),))

    @classmethod
    def of(cls, elem: SemifieldElement, mult: int = 1):
        return cls.from_terms(elem.kind, [(mult, elem)])

    def is_zero(self):
        return not self.terms

    def is_one(self):
        """At once for no factors or a zero vector; `ff_eq` only for factors left."""
        if len(self.terms) != 1 or self.terms[0][0] != 1:
            return False
        value = self.terms[0][1].payload
        if isinstance(value, tuple):
            return not any(value)
        return value.is_one() or ff_eq(value, FactoredFraction.one(value.table))

    def in_np(self) -> bool:
        return all(m >= 0 for m, _ in self.terms)

    def __add__(self, other):
        if self.kind != other.kind:
            raise SemifieldMismatchError("semifield mismatch")
        return GroupRingElement.from_terms(
            self.kind, list(self.terms) + list(other.terms)
        )

    def __mul__(self, other):
        if self.kind != other.kind:
            raise SemifieldMismatchError("semifield mismatch")
        pairs = [
            (ma * mb, sf_mul(ea, eb))
            for ma, ea in self.terms
            for mb, eb in other.terms
        ]
        return GroupRingElement.from_terms(self.kind, pairs)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.kind != other.kind or len(self.terms) != len(other.terms):
            return False
        remaining = list(other.terms)
        for m, e in self.terms:
            for i, (m2, e2) in enumerate(remaining):
                if m == m2 and sf_eq(e, e2):
                    del remaining[i]
                    break
            else:
                return False
        return True

    __hash__ = None

    def as_factored(self, table: VariableTable):
        """The sum of the terms as a FactoredFraction on the table (`ff_sum`), None for 0."""
        terms = []
        for mult, elem in self.terms:
            f = elem.as_factored(table)
            if mult != 1:
                f = f * FactoredFraction.from_poly(LaurentPolynomial.constant(table, mult))
            terms.append(f)
        return ff_sum(terms, table)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mult, elem in self.terms:
            body = elem.render()
            if body == "1":
                parts.append(str(mult))
            elif mult == 1:
                parts.append(body)
            else:
                parts.append(f"{mult}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<ring {self.render()}>"


def project_np(e: GroupRingElement):
    """Collapse a nonnegative group-ring element into the semifield-with-zero.

    Multiplicities act through the repeated semifield addition, then all
    terms are added with the semifield addition; the empty combination maps
    to the zero marker.
    """
    if not e.in_np():
        raise ValueError("not in NP")
    acc = None
    for mult, elem in e.terms:
        if mult == 0:
            continue
        v = iterated_oplus(mult, elem)
        acc = v if acc is None else sf_add(acc, v)
    return P0_ZERO if acc is None else acc


def specialize_Z(coeffs, y: SemifieldElement) -> SemifieldElement:
    """Specialize an exchange polynomial at a semifield point.

    `coeffs` lists the group-ring coefficients from the constant term to
    the leading term; both endpoints must be 1. Projected-to-zero middle
    coefficients simply drop out of the sum, so the result is always a
    genuine semifield element.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) < 2:
        raise ValueError("degree mismatch")
    if not (coeffs[0].is_one() and coeffs[-1].is_one()):
        raise ValueError("non-monic exchange polynomial")
    # the unit endpoints add 1 and the top power of y as they are
    acc = power = SemifieldElement.one(y.kind)
    for c in coeffs[1:-1]:
        power = sf_mul(power, y)
        if (z := project_np(c)) is not P0_ZERO:
            acc = sf_add(acc, sf_mul(z, power))
    return sf_add(acc, sf_mul(power, y))


def evaluate_poly_semifield(poly: LaurentPolynomial, assign: dict, kind: SemifieldKind):
    """Evaluate an integer polynomial inside the semifield-with-zero.

    `assign` maps variable indices to semifield elements or the zero
    marker; all coefficients must be nonnegative and every supported
    variable assigned. Returns a semifield element or the zero marker.
    The universal addition is the ordinary one, so there the whole sum is
    one `cross_evaluate` of the assigned fractions, with the zero marker
    sent to 0 (None).
    """
    if any(c < 0 for c in poly.coefficients()):
        raise ValueError("not in NP")
    if kind.kind == UNIVERSAL:
        table = kind.table
        values = {
            i: None if assign[i] is P0_ZERO else assign[i].as_factored(table)
            for i in poly.support_vars()
        }
        total = cross_evaluate(poly, values, table)
        return P0_ZERO if total is None else SemifieldElement(kind, total)
    acc = None
    for powers, c in poly.sparse_terms():
        value = None
        dead = False
        for i, e in powers:
            base = assign[i]
            if base is P0_ZERO:
                if e < 0:
                    raise ZeroDivisionError("negative power of zero")
                dead = True
                break
            factor = sf_pow(base, e)
            value = factor if value is None else sf_mul(value, factor)
        if dead:
            continue
        if value is None:
            value = SemifieldElement.one(kind)
        value = iterated_oplus(c, value)
        acc = value if acc is None else sf_add(acc, value)
    return P0_ZERO if acc is None else acc


def psi(element: SemifieldElement, symbols: ElementarySymbols,
        base_kind: SemifieldKind) -> SemifieldElement:
    """Semifield-level elimination of the splitting variables.

    The element must be universal over the extended generator set. Its
    factored payload goes through `psi_hat_factored` with
    the nonnegativity domain condition certified at every size (or
    PsiConeError), and the image is projected back into the base
    semifield.
    """
    if element.kind.kind != UNIVERSAL:
        raise SemifieldMismatchError("semifield mismatch")
    image = psi_hat_factored(element.payload, symbols, require_nonneg=True)
    if base_kind.kind == UNIVERSAL:
        return SemifieldElement(base_kind, image)
    return _tropicalize_factored(image, base_kind)


def _tropicalize_factored(ff: FactoredFraction, kind: SemifieldKind) -> SemifieldElement:
    """Factor-wise tropical projection: min-vectors scale with exponents.

    Every factor must be subtraction-free.
    """
    table = ff.table
    gen_pos = {table.index(g): i for i, g in enumerate(kind.generators)}
    vec = [0] * len(kind.generators)
    for p, e in ff.factors.values():
        if any(c < 0 for c in p.coefficients()):
            raise ValueError("cannot tropicalize a signed polynomial")
        if p.support_vars() - gen_pos.keys():
            raise ValueError("cannot tropicalize a non-generator variable")
        content = p.monomial_content()
        for i, g in gen_pos.items():
            vec[g] += e * content[i]
    return SemifieldElement.tropical(kind, vec)
