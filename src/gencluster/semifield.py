"""Coefficient semifields: trivial, tropical (min convention), universal.

A semifield value is immutable. Tropical elements are integer exponent
vectors over a fixed generator list, added by componentwise minimum;
universal elements are subtraction-free rational functions supported on
designated generator variables of a shared table; the trivial semifield
has the single element 1. The module also provides the group-ring
fragment used for exchange-polynomial coefficients (finite nonnegative
integer combinations of semifield values), its projection onto the
semifield-with-zero, and the specialization of an exchange polynomial at
a semifield point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import (
    ElementarySymbols,
    FactoredFraction,
    LaurentPolynomial,
    PsiDomainError,
    RationalFunction,
    VariableTable,
    ff_add,
    ff_eq,
    psi_hat_factored,
)


def _as_factored(payload) -> FactoredFraction:
    if isinstance(payload, FactoredFraction):
        return payload
    return FactoredFraction.from_ratfn(payload)


def _as_ratfn_payload(payload) -> RationalFunction:
    if isinstance(payload, FactoredFraction):
        return payload.expand()
    return payload


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

    @classmethod
    def trivial(cls):
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
    if a.kind != b.kind:
        raise SemifieldMismatchError("semifield mismatch")


class SemifieldElement:
    """A value of one of the three supported coefficient semifields."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: SemifieldKind, payload):
        self.kind = kind
        self.payload = payload

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, kind: SemifieldKind):
        if kind.kind == TRIVIAL:
            return cls(kind, None)
        if kind.kind == TROPICAL:
            return cls(kind, (0,) * len(kind.generators))
        return cls(kind, RationalFunction.one(kind.table))

    @classmethod
    def tropical(cls, kind: SemifieldKind, exponents):
        if kind.kind != TROPICAL:
            raise SemifieldMismatchError("semifield mismatch")
        if isinstance(exponents, dict):
            vec = [0] * len(kind.generators)
            pos = {g: i for i, g in enumerate(kind.generators)}
            for name, e in exponents.items():
                vec[pos[name]] = int(e)
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
        return cls(kind, value)

    @classmethod
    def generator(cls, kind: SemifieldKind, name: str, power: int = 1):
        if kind.kind == TROPICAL:
            return cls.tropical(kind, {name: power})
        if kind.kind == UNIVERSAL:
            return cls.universal(
                kind, RationalFunction.variable(kind.table, name, power)
            )
        raise ValueError("the trivial semifield has no generators")

    # -- conversions -------------------------------------------------------

    def as_ratfn(self, table: VariableTable) -> RationalFunction:
        """This value as a rational function on the given table."""
        if self.kind.kind == TRIVIAL:
            return RationalFunction.one(table)
        if self.kind.kind == TROPICAL:
            powers = {
                name: e for name, e in zip(self.kind.generators, self.payload) if e
            }
            return RationalFunction.monomial(table, powers)
        if self.payload.table is not table:
            raise SemifieldMismatchError("semifield mismatch")
        return _as_ratfn_payload(self.payload)

    def as_factored(self, table: VariableTable) -> FactoredFraction:
        if self.kind.kind == UNIVERSAL:
            if self.payload.table is not table:
                raise SemifieldMismatchError("semifield mismatch")
            return _as_factored(self.payload)
        return FactoredFraction.from_ratfn(self.as_ratfn(table))

    def render(self) -> str:
        if self.kind.kind == TRIVIAL:
            return "1"
        if self.kind.kind == TROPICAL:
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.kind.generators, self.payload)
                if e
            ]
            return "*".join(factors) if factors else "1"
        return self.payload.render()

    def __repr__(self):
        return f"<sf {self.render()}>"

    def __eq__(self, other):
        if not isinstance(other, SemifieldElement):
            return NotImplemented
        return sf_eq(self, other)

    __hash__ = None


def sf_eq(a: SemifieldElement, b: SemifieldElement) -> bool:
    _check_kind(a, b)
    if a.kind.kind == TRIVIAL:
        return True
    if a.kind.kind == TROPICAL:
        return a.payload == b.payload
    return ff_eq(_as_factored(a.payload), _as_factored(b.payload))


def sf_add(a: SemifieldElement, b: SemifieldElement) -> SemifieldElement:
    """Semifield addition: min of exponents (tropical), ordinary + (universal)."""
    _check_kind(a, b)
    k = a.kind.kind
    if k == TRIVIAL:
        return a
    if k == TROPICAL:
        return SemifieldElement(a.kind, tuple(map(min, a.payload, b.payload)))
    return SemifieldElement(a.kind, ff_add(_as_factored(a.payload), _as_factored(b.payload)))


def sf_mul(a: SemifieldElement, b: SemifieldElement) -> SemifieldElement:
    _check_kind(a, b)
    k = a.kind.kind
    if k == TRIVIAL:
        return a
    if k == TROPICAL:
        return SemifieldElement(a.kind, tuple(x + y for x, y in zip(a.payload, b.payload)))
    return SemifieldElement(a.kind, _as_factored(a.payload) * _as_factored(b.payload))


def sf_inv(a: SemifieldElement) -> SemifieldElement:
    k = a.kind.kind
    if k == TRIVIAL:
        return a
    if k == TROPICAL:
        return SemifieldElement(a.kind, tuple(-e for e in a.payload))
    return SemifieldElement(a.kind, _as_factored(a.payload).inverse())


def sf_pow(a: SemifieldElement, n: int) -> SemifieldElement:
    k = a.kind.kind
    if k == TRIVIAL:
        return a
    if k == TROPICAL:
        return SemifieldElement(a.kind, tuple(n * e for e in a.payload))
    return SemifieldElement(a.kind, _as_factored(a.payload) ** n)


def iterated_oplus(count: int, p: SemifieldElement) -> SemifieldElement:
    """Sum of `count` copies of p under the semifield addition."""
    if count <= 0:
        raise ValueError("iterated sum needs a positive count")
    k = p.kind.kind
    if k == UNIVERSAL:
        scaled = _as_factored(p.payload) * FactoredFraction.from_poly(
            LaurentPolynomial.constant(p.kind.table, count)
        )
        return SemifieldElement(p.kind, scaled)
    # idempotent addition: p + p = p
    return p


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
        return (
            len(self.terms) == 1
            and self.terms[0][0] == 1
            and sf_eq(self.terms[0][1], SemifieldElement.one(self.kind))
        )

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

    def as_ratfn(self, table: VariableTable) -> RationalFunction:
        total = RationalFunction.zero(table)
        for mult, elem in self.terms:
            total = total + elem.as_ratfn(table) * RationalFunction.constant(table, mult)
        return total

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
    coeffs = list(coeffs)
    if len(coeffs) < 2:
        raise ValueError("degree mismatch")
    if not (coeffs[0].is_one() and coeffs[-1].is_one()):
        raise ValueError("non-monic exchange polynomial")
    acc = None
    power = SemifieldElement.one(y.kind)
    for c in coeffs:
        z = project_np(c)
        if z is not P0_ZERO:
            term = sf_mul(z, power)
            acc = term if acc is None else sf_add(acc, term)
        power = sf_mul(power, y)
    return acc


def evaluate_poly_semifield(poly: LaurentPolynomial, assign: dict, kind: SemifieldKind):
    """Evaluate an integer polynomial inside the semifield-with-zero.

    `assign` maps variable indices to semifield elements or the zero
    marker; all coefficients must be nonnegative and every supported
    variable assigned. Returns a semifield element or the zero marker.
    """
    acc = None
    for powers, c in poly.sparse_terms():
        if c < 0:
            raise ValueError("not in NP")
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
    payload, as a factored fraction, goes through `psi_hat_factored` with
    the nonnegativity domain condition certified at every size (or
    PsiConeError), and the image is projected back into the base
    semifield.
    """
    if element.kind.kind != UNIVERSAL:
        raise SemifieldMismatchError("semifield mismatch")
    image = psi_hat_factored(_as_factored(element.payload), symbols, require_nonneg=True)
    if base_kind.kind == UNIVERSAL:
        return SemifieldElement(base_kind, image)
    if base_kind.kind == TROPICAL:
        return _tropicalize_factored(image, base_kind)
    for p, _ in image.factors.values():
        if p.support_vars():
            raise PsiDomainError("not in domain of psi_hat")
    return SemifieldElement.one(base_kind)


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
