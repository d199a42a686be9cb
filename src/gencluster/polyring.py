"""Sparse multivariate Laurent polynomials and fractions of them over ZZ.

All symbolic state in this package (cluster variables, coefficient
semifield values, invariant polynomials) is carried by the value types
defined here, over a shared ordered variable table. A polynomial is a
dictionary from packed monomial keys to nonzero integer coefficients: each
key is one int holding the whole exponent vector in bit fields laid out by
the table (`KeyLayout`), and `.terms` shows the same map with exponent
tuples as keys. Large products and exact quotients make one variable
dense and work on whole groups of coefficients packed into big ints
(`_mul_packed`, `_div_packed`); a quotient found that way is returned
only with a certificate of exactness, and otherwise the heap division
decides. Fractions compute as `FactoredFraction`s, products of
polynomial factors with integer exponents: products, powers and inverses
merge exponents, and every sum of fractions is one `ff_sum` over the
factor-wise common denominator, with only the numerator multiplied out;
the exchange sum of a seed mutation or an F-polynomial step is one
`exchange_sum`.
Values are also read in, eliminated and rendered as FactoredFractions.
A `RationalFunction` is only the expanded output form of the separation
formula's cluster variables and of `psi_hat`, kept because the
benchmark's spans (`perfbench/spans.py`) wrap its `__eq__` and read
`psi_hat`'s `.num` and `.den`; once they do not, it, `from_ratfn` and
`psi_hat` can go.
Every equality of fractions, in either operand order, is decided by
`ff_eq`: factor cancellation, then exact cofactor division or
cross-multiplication, never a canonical form, so no multivariate GCD is
needed anywhere.

The module also provides the block-symmetry test for the splitting
variables, the rewriting of a block-symmetric polynomial into elementary
symmetric symbols, and the substitution map that eliminates the splitting
variables in favor of exchange-polynomial coefficients.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from operator import ge, or_


class TableMismatchError(ValueError):
    pass


class NotBlockSymmetricError(ValueError):
    pass


class PsiDomainError(ValueError):
    pass


class PsiConeError(PsiDomainError):
    """Rewritten coefficients left the nonnegative cone."""


class PsiKernelError(ValueError):
    pass


class TermLimitError(RuntimeError):
    """An expansion exceeded the caller's term budget."""


class _FieldOverflow(ArithmeticError):
    """A packed exponent left its bit field; the table must widen."""


# Field width of a new table: exponents in [-2**14, 2**14) fit.
_START_BITS = 16


class KeyLayout:
    """Packing of exponent vectors into one int per monomial.

    Each variable owns a field of `bits` bits, variable 0 the most
    significant one. A field holds exponent + bias with bias =
    2**(bits - 2), so exponents in [-bias, bias) are representable and the
    top (guard) bit of every field stays clear. Keys then compare as ints
    exactly as their exponent tuples compare lexicographically, and the
    product of two monomials is `ka + kb - zero`.

    When the sum of two representable exponents leaves the range, the
    lowest bad field of the sum shows its guard bit (a borrow or carry
    never crosses more than one field), and such sums never collide with
    each other or with valid keys. One OR over the result keys therefore
    detects every overflow; the table then widens and the operation runs
    again.
    """

    __slots__ = ("n", "bits", "bias", "mask", "shifts", "units", "zero", "guard")

    def __init__(self, n: int, bits: int):
        self.n = n
        self.bits = bits
        self.bias = 1 << (bits - 2)
        self.mask = (1 << bits) - 1
        self.shifts = tuple(bits * (n - 1 - i) for i in range(n))
        self.units = tuple(1 << s for s in self.shifts)
        self.zero = self.bias * sum(self.units)
        self.guard = sum(self.units) << (bits - 1)

    def pack(self, exps) -> int:
        key = self.zero
        for e, unit in zip(exps, self.units):
            if e:
                key += e * unit
        return key

    def unpack(self, key: int) -> tuple:
        mask, bias = self.mask, self.bias
        return tuple(((key >> s) & mask) - bias for s in self.shifts)

    def exponent(self, key: int, i: int) -> int:
        return ((key >> self.shifts[i]) & self.mask) - self.bias

    def field_mask(self, idx) -> int:
        """Mask covering the fields of the variables `idx`."""
        return sum(self.mask << self.shifts[i] for i in idx)


class VariableTable:
    """Ordered list of distinct variable names.

    Tables are compared by identity: values from different tables never
    mix, and every operation checks for that explicitly. The table owns
    the key layout of its polynomials and widens it when an exponent no
    longer fits; polynomials encoded under an older layout are re-encoded
    when they next meet an operation.
    """

    __slots__ = ("names", "_index", "layout")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not name or not isinstance(name, str):
                raise ValueError("variable names must be nonempty strings")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self.layout = KeyLayout(len(names), _START_BITS)

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def widen(self, reach: int = 0) -> KeyLayout:
        """Switch to a layout at least twice as wide whose range covers `reach`."""
        bits = max(2 * self.layout.bits, reach.bit_length() + 2)
        self.layout = KeyLayout(len(self.names), bits)
        return self.layout

    def make_room(self, exps) -> KeyLayout:
        """Current layout, widened first if some exponent in `exps` does not fit."""
        reach = _reach(exps)
        if reach >= self.layout.bias:
            return self.widen(reach)
        return self.layout

    def __repr__(self):
        return f"VariableTable({list(self.names)!r})"


def _reach(exps) -> int:
    """Smallest r >= 0 with every exponent in [-r - 1, r]; they fit iff r < bias."""
    if not exps:
        return 0
    return max(max(exps), ~min(exps), 0)


def _check_table(a, b):
    if a.table is not b.table:
        raise TableMismatchError("values belong to different variable tables")


def _recode(d: dict, old: KeyLayout, new: KeyLayout) -> dict:
    return {new.pack(old.unpack(k)): c for k, c in d.items()}


def _sync(p: "LaurentPolynomial") -> KeyLayout:
    """Re-encode p in its table's current layout, in place; return that layout."""
    lay = p.table.layout
    if p._lay is not lay:
        p._d = _recode(p._d, p._lay, lay)
        p._lay = lay
    return lay


def _pair(a: "LaurentPolynomial", b: "LaurentPolynomial") -> KeyLayout:
    """Common current layout of two operands of one table."""
    _check_table(a, b)
    lay = a.table.layout
    if a._lay is not lay:
        _sync(a)
    if b._lay is not lay:
        _sync(b)
    return lay


def _add_into(d: dict, terms: dict) -> None:
    get = d.get
    for k, c in terms.items():
        v = get(k, 0) + c
        if v:
            d[k] = v
        else:
            del d[k]


def _sub_into(d: dict, terms: dict) -> None:
    get = d.get
    for k, c in terms.items():
        v = get(k, 0) - c
        if v:
            d[k] = v
        else:
            del d[k]


def _check_fields(out: dict, lay: KeyLayout) -> dict:
    if reduce(or_, out, 0) & lay.guard:
        raise _FieldOverflow
    return out


_new = object.__new__


def _poly(table, lay, d) -> "LaurentPolynomial":
    """Polynomial from a packed dict encoded in `lay`; no copying or checks."""
    p = _new(LaurentPolynomial)
    p.table = table
    p._d = d
    p._lay = lay
    return p


class LaurentPolynomial:
    """Finite map from integer exponent vectors to nonzero integer coefficients.

    Stored as packed int keys; `.terms` is the tuple-keyed view.
    """

    __slots__ = ("table", "_d", "_lay")

    def __init__(self, table: VariableTable, terms):
        width = len(table)
        items = [(exps, c) for exps, c in terms.items() if c]
        if any(len(exps) != width for exps, _ in items):
            raise ValueError("exponent vector length differs from the table")
        lay = table.make_room([e for exps, _ in items for e in exps])
        self.table = table
        self._lay = lay
        self._d = {lay.pack(exps): c for exps, c in items}

    @property
    def terms(self) -> "TermsView":
        """Read-only mapping from exponent tuples to coefficients."""
        return TermsView(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table):
        return _poly(table, table.layout, {})

    @classmethod
    def constant(cls, table, value: int):
        if value == 0:
            return _poly(table, table.layout, {})
        lay = table.layout
        return _poly(table, lay, {lay.zero: int(value)})

    @classmethod
    def one(cls, table):
        lay = table.layout
        return _poly(table, lay, {lay.zero: 1})

    @classmethod
    def monomial(cls, table, powers: dict, coeff: int = 1):
        """Monomial from a name-or-index -> exponent mapping."""
        if coeff == 0:
            return _poly(table, table.layout, {})
        exps = [0] * len(table)
        for key, e in powers.items():
            idx = key if isinstance(key, int) else table.index(key)
            exps[idx] += int(e)
        lay = table.make_room(exps)
        return _poly(table, lay, {lay.pack(exps): int(coeff)})

    @classmethod
    def variable(cls, table, name: str, power: int = 1):
        return cls.monomial(table, {name: power})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self._d

    def is_one(self):
        d = self._d
        return len(d) == 1 and d.get(self._lay.zero) == 1

    def support_vars(self):
        """Indices of variables appearing with a nonzero exponent."""
        lay = self._lay
        used = reduce(or_, map(lay.zero.__xor__, self._d), 0)
        out = set()
        # the highest field left in `used` first, then clear it and all above
        while used:
            i = lay.n - 1 - (used.bit_length() - 1) // lay.bits
            out.add(i)
            used &= lay.units[i] - 1
        return out

    def coefficients(self):
        """The nonzero coefficients, in term order."""
        return self._d.values()

    def sparse_terms(self):
        """Yield (((index, exponent), ...), coefficient) per term.

        Only the nonzero exponents are listed, in variable order.
        """
        lay = self._lay
        mask, bias = lay.mask, lay.bias
        fields = [(i, lay.shifts[i]) for i in sorted(self.support_vars())]
        for k, c in self._d.items():
            yield tuple(
                (i, e) for i, s in fields if (e := ((k >> s) & mask) - bias)
            ), c

    def __bool__(self):
        return bool(self._d)

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.table is not other.table:
            return False
        if self._lay is not other._lay:
            _sync(self)
            _sync(other)
        return self._d == other._d

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        lay = _pair(self, other)
        out = dict(self._d)
        _add_into(out, other._d)
        return _poly(self.table, lay, out)

    def __sub__(self, other):
        lay = _pair(self, other)
        out = dict(self._d)
        _sub_into(out, other._d)
        return _poly(self.table, lay, out)

    def __neg__(self):
        return _poly(self.table, self._lay, {k: -c for k, c in self._d.items()})

    def scale(self, k: int):
        if k == 0:
            return LaurentPolynomial.zero(self.table)
        if k == 1:
            return self
        return _poly(self.table, self._lay, {e: c * k for e, c in self._d.items()})

    def __mul__(self, other):
        while True:
            lay = _pair(self, other)
            try:
                return _poly(self.table, lay, _mul_terms(self._d, other._d, lay))
            except _FieldOverflow:
                self.table.widen()

    def __pow__(self, k: int):
        if k < 0:
            if len(self._d) != 1:
                raise ValueError("negative power of a non-monomial polynomial")
            (key, c), = self._d.items()
            if c not in (1, -1):
                raise ValueError("negative power needs a unit coefficient")
            exps = [k * e for e in self._lay.unpack(key)]
            lay = self.table.make_room(exps)
            return _poly(self.table, lay, {lay.pack(exps): c if k % 2 else 1})
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPolynomial.one(self.table) if result is None else result

    # -- content and shifts ------------------------------------------------

    def int_content(self) -> int:
        g = 0
        for c in self._d.values():
            g = gcd(g, c)
            if g == 1:
                break
        return g

    def monomial_content(self):
        """Componentwise minimum exponent vector over all terms."""
        d = self._d
        if not d:
            raise ValueError("zero polynomial has no monomial content")
        lay = self._lay
        if len(d) == 1:
            return lay.unpack(next(iter(d)))
        mask, bias = lay.mask, lay.bias
        mins = [0] * lay.n
        for i in self.support_vars():
            s = lay.shifts[i]
            mins[i] = min([(k >> s) & mask for k in d]) - bias
        return tuple(mins)

    def shift(self, exps):
        """Multiply by the monomial with the given exponent vector."""
        if not any(exps):
            return self
        table = self.table
        table.make_room(exps)
        while True:
            lay = _sync(self)
            delta = lay.pack(exps) - lay.zero
            try:
                out = _check_fields({k + delta: c for k, c in self._d.items()}, lay)
            except _FieldOverflow:
                table.widen()
                continue
            return _poly(table, lay, out)

    def divide_int(self, k: int):
        out = {}
        for e, c in self._d.items():
            q, rem = divmod(c, k)
            if rem:
                raise ValueError("integer content division is not exact")
            out[e] = q
        return _poly(self.table, self._lay, out)

    def lead_key(self):
        return self._lay.unpack(max(self._d))

    def lead_coeff(self) -> int:
        return self._d[max(self._d)]

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial", _owned: bool = False):
        """Exact quotient self / divisor, or None if the division fails.

        A one-term divisor is a key shift (and a divmod per term unless its
        coefficient is a unit). Large divisions (`_div` routes them) try
        the packed-coefficient quotient (`_div_packed`): one
        variable is made dense, each group of terms sharing the other
        exponents is one big int, and the division runs over groups. It
        returns a quotient only with its slot-bound certificate and
        otherwise defers to the heap division below, which alone answers
        "not divisible".

        The heap division (`_div_terms`) is single-divisor elimination
        against the divisor's lexicographically smallest term, with a lazy
        heap of packed keys tracking the working minimum, so quotient keys
        come out in increasing order. Lex order is translation-invariant,
        so an exact quotient's largest key is max(self) - max(divisor): the
        division fails as soon as a quotient key passes that bound, and at
        once when the bound is below min(self) - min(divisor), the smallest
        quotient key. A term cap stops what the bound cannot: once the
        quotient outgrows the dividend, the division fails when it has more
        terms than fit in the box of exponents an exact quotient spans.
        A key that leaves its bit field widens the table and reruns the
        division, unless that box fits the current fields: an exact
        division never leaves them then, so the heap division answers
        "not divisible" at once (`_out_of_field`).

        Neither operand is touched, unless the caller hands self over with
        `_owned` (the F-polynomial step's fresh numerator): a certified
        packed quotient then leaves self empty, and every other route
        leaves it whole.
        """
        _check_table(self, divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.table)
        while True:
            lay = _pair(self, divisor)
            try:
                out = _div(self._d, divisor._d, lay, _owned)
            except _FieldOverflow:
                self.table.widen()
                continue
            return None if out is None else _poly(self.table, lay, out)

    def _add_owned(self, other: "LaurentPolynomial") -> None:
        """self += other in place, for a fresh polynomial nothing else holds."""
        _pair(self, other)
        _add_into(self._d, other._d)

    # -- substitution ------------------------------------------------------

    def substitute_monomials(self, mapping: dict):
        """Replace variables by monomials of the same table.

        `mapping` sends variable indices to exponent vectors; every
        occurrence x_i^e becomes (monomial)^e. Unmapped variables stay.
        """
        if not mapping:
            return self
        return _remap(self, self.table, list(mapping.items()), keep=True)

    def transplant(self, target: VariableTable):
        """Re-express this polynomial on another table.

        Variables are matched by name, and must all exist in the target
        table.
        """
        names = self.table.names
        width = len(target)
        moves = []
        for i in sorted(self.support_vars()):
            unit = [0] * width
            unit[target.index(names[i])] = 1
            moves.append((i, unit))
        out = _remap(self, target, moves, keep=False)
        if len(out._d) != len(self._d):
            raise ValueError("transplant collapsed distinct monomials")
        return out

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        return render_poly(self)

    def __repr__(self):
        return f"<poly {self.render()}>"


class _TermItems(ItemsView):
    def __iter__(self):
        p = self._mapping._p
        unpack = p._lay.unpack
        for k, c in p._d.items():
            yield unpack(k), c


class TermsView(Mapping):
    """Tuple-keyed, read-only view of a polynomial's packed terms.

    `len` is O(1); iteration decodes keys on the fly, in term order.
    """

    __slots__ = ("_p",)

    def __init__(self, p: LaurentPolynomial):
        self._p = p

    def __len__(self):
        return len(self._p._d)

    def __iter__(self):
        p = self._p
        return map(p._lay.unpack, p._d)

    def __getitem__(self, exps):
        p = self._p
        lay = p._lay
        if len(exps) != lay.n or any(not -lay.bias <= e < lay.bias for e in exps):
            raise KeyError(exps)
        return p._d[lay.pack(exps)]

    def items(self):
        return _TermItems(self)

    def values(self):
        return self._p._d.values()

    def __repr__(self):
        return f"TermsView({dict(self.items())!r})"


# Term pairs from which a product of two multi-term operands tries the
# packed-coefficient route; below it the schoolbook loop is faster.
_PACKED_MIN_PAIRS = 4096
# Fewest terms of each factor of a packed product, or of q and b in a packed
# a / b = q: fewer pairs per term do not repay packing. On case2 (2-core
# x86-64, CPython 3.11) 9 x 906 takes 5.4 ms packed, 3.9 ms schoolbook.
_PACKED_MIN_TERMS = 16


def _mul_terms(a: dict, b: dict, lay: KeyLayout) -> dict:
    """Product of two packed term dicts.

    A one-term operand is a key shift; products of at least
    _PACKED_MIN_PAIRS term pairs and _PACKED_MIN_TERMS terms a side try
    `_mul_packed`, and everything else (and every product it declines) runs
    the schoolbook loop.
    Raises _FieldOverflow when some product exponent leaves its field.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ka, ca), = a.items()
        ka -= lay.zero
        if ca == 1:
            out = {kb + ka: cb for kb, cb in b.items()}
        else:
            out = {kb + ka: cb * ca for kb, cb in b.items()}
        return _check_fields(out, lay) if ka else out
    if len(a) * len(b) >= _PACKED_MIN_PAIRS and len(a) >= _PACKED_MIN_TERMS:
        out = _mul_packed(a, b, lay)
        if out is not None:
            return out
    return _mul_school(a, b, lay)


def _mul_school(a: dict, b: dict, lay: KeyLayout) -> dict:
    """Schoolbook product of two packed term dicts: one loop over the pairs."""
    zero = lay.zero
    out: dict = {}
    get = out.get
    for ka, ca in a.items():
        ka -= zero
        for kb, cb in b.items():
            key = ka + kb
            v = get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                del out[key]
    return _check_fields(out, lay)


def _mul_packed(a: dict, b: dict, lay: KeyLayout):
    """Product of two packed term dicts through packed coefficients, or None.

    One variable i is made dense (`_dense_field`; None when it declines).
    Masking field i out of every key splits each operand into groups of
    terms sharing their other exponents (`_pack_pair`). Each group becomes
    one int holding the coefficient of x_i^(lo + j*g) in its w-bit slot j,
    with lo the group's own lowest exponent of x_i, kept in the group's
    key, and g the stride that every exponent gap of x_i within a group of
    either operand is a multiple of. Multiplying two such ints multiplies
    the two univariate polynomials in x_i^g, and the products of every
    pair of groups with equal key sums are added into one int.

    Exactness: a slot of a summed int is a partial sum of one output
    coefficient, over term pairs of which each term of one operand is in
    at most one. So it is at most B = max|a| * max|b| * min(len a, len b)
    in size, and w = bit_length(B) + 1 keeps every slot inside
    (-2**(w-1), 2**(w-1)). An int's digits in base 2**w drawn from that
    range are unique, so decoding them recovers every coefficient exactly.
    Each decoded key is the same int the schoolbook loop forms for that
    monomial, so field overflow is detected as there.
    """
    shift = _dense_field(a, b, lay)
    if shift is None:
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    w = bound.bit_length() + 1
    ga, gb, step = _pack_pair(a, b, ~(lay.mask << shift), shift, w)
    pa = dict(ga.values())
    pb = list(gb.values())
    del ga, gb
    zero = lay.zero
    acc: dict = {}
    get = acc.get
    for ka, va in pa.items():
        ka -= zero
        for kb, vb in pb:
            key = ka + kb
            acc[key] = get(key, 0) + va * vb
    del pa, pb
    out: dict = {}
    while acc:
        key, v = acc.popitem()
        _decode_into(out, key, v, step, w)
    return _check_fields(out, lay)


def _dense_field(a: dict, b: dict, lay: KeyLayout):
    """Shift of the field to make dense in a packed a * b or a / b, or None.

    The chosen variable i has the fewest pairs of groups g = ga * gb (the
    first field on ties), where ga and gb count each operand's distinct
    keys with field i masked out. None (declined) when 4 * g > len(a) *
    len(b) for every field, as a pair of groups would then hold fewer than
    four term pairs on average. The smaller operand's groups are counted
    for every field first; the fields are then tried in increasing order
    of that count, and filling the larger operand's set stops as soon as
    the field can no longer beat the best one found.
    """
    if len(a) > len(b):
        a, b = b, a
    mask = lay.mask
    a0, b0 = next(iter(a)), next(iter(b))
    varies = reduce(or_, map(a0.__xor__, a), 0) | reduce(or_, map(b0.__xor__, b), 0)
    tries = []
    for idx, s in enumerate(lay.shifts):
        if (varies >> s) & mask:
            keep = ~(mask << s)
            tries.append((len(set(map(keep.__and__, a))), idx, keep, s))
    tries.sort()
    # (g, idx) of the best field so far; g must stay at most len(a)*len(b)/4
    best, shift = (len(a) * len(b) // 4 + 1, -1), None
    keys = list(b)
    for ga, idx, keep, s in tries:
        if (ga, idx) >= best:
            break
        seen: set = set()
        for start in range(0, len(keys), 256):
            seen.update(map(keep.__and__, keys[start:start + 256]))
            if (ga * len(seen), idx) >= best:
                break
        else:
            best, shift = (ga * len(seen), idx), s
    return shift


def _pack_pair(a: dict, b: dict, keep: int, shift: int, w: int):
    """Both operands grouped along the dense field, on one common stride.

    A group is a key with the dense field cleared (`k & keep`); its terms
    share all other exponents. Each operand becomes a dict group ->
    (lowest key, packed int). The stride g is the gcd of the dense
    exponent's gaps within groups, over both operands (1 if there are
    none), and slot j of a group's int, w bits wide, holds the coefficient
    of the term lying j * g above the group's lowest. Also returns the key
    step g << shift between slots. Two passes per operand, so no per-group
    term lists are built.
    """
    (la, gaps), (lb, more) = _lowest_keys(a, keep), _lowest_keys(b, keep)
    g = (gcd(*gaps, *more) >> shift) or 1
    packed = []
    for d, lows in ((a, la), (b, lb)):
        ints = dict.fromkeys(lows, 0)
        for k, c in d.items():
            ints[k & keep] += c << (w * (((k - lows[k & keep]) >> shift) // g))
        packed.append({r: (lows[r], v) for r, v in ints.items()})
    return packed[0], packed[1], g << shift


def _lowest_keys(d: dict, keep: int):
    """Group -> lowest key, and the gaps linking each term to one before it.

    Every term but the first of its group adds its distance to the group's
    lowest key so far, so the gaps generate all distances within groups.
    """
    lows: dict = {}
    gaps = set()
    get = lows.get
    for k in d:
        r = k & keep
        lo = get(r)
        if lo is None:
            lows[r] = k
        elif k < lo:
            lows[r] = k
            gaps.add(lo - k)
        else:
            gaps.add(k - lo)
    return lows, gaps


def _decode_into(out: dict, key: int, v: int, step: int, w: int) -> int:
    """Add the signed w-bit digits of v into out at key, key + step, ...

    Returns the key one past the last digit.
    """
    full = 1 << w
    half, low = full >> 1, full - 1
    get = out.get
    while v:
        c = v & low
        v >>= w
        if c >= half:
            c -= full
            v += 1
        if c:
            c += get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
        key += step
    return key


# Dividend-divisor term pairs from which a division tries the packed route.
# Measured on the case2 divisions (2-core x86-64, CPython 3.11), the heap
# is as fast or faster up to 5,414 / 5 (27k pairs: 11-15 against 15 ms with
# the field choice) and the packed route wins from 2,194 / 20 (44k pairs:
# 7 against 9 ms); 79,206 / 20 takes 0.2-0.25 s against 0.57-0.74 s.
# 3,483 / 906 (9 quotient terms) takes 16 ms packed, 4 ms on the heap.
_PACKED_DIV_MIN_PAIRS = 32768


def _div(a: dict, b: dict, lay: KeyLayout, owned: bool):
    """Exact quotient of packed term dicts, or None; see exact_div.

    A one-term divisor is a key shift. Divisions of at least
    _PACKED_DIV_MIN_PAIRS dividend-divisor term pairs, with _PACKED_MIN_TERMS
    terms in b and in q (at least len(a) // len(b)), try `_div_packed` on the
    field `_dense_field` picks; the heap division `_div_terms` serves the
    rest, every declined pair and every quotient `_div_packed` cannot
    certify. Raises _FieldOverflow when a quotient exponent leaves its field.
    With `owned`, a is the caller's to consume: `_div_packed` empties it
    once packed and refills it on every exit but a certified quotient, so
    a is intact whenever the heap division runs or the table widens.
    """
    if len(b) == 1:
        return _div_monomial(a, b, lay)
    if (len(a) * len(b) >= _PACKED_DIV_MIN_PAIRS
            and min(len(b), len(a) // len(b)) >= _PACKED_MIN_TERMS):
        shift = _dense_field(a, b, lay)
        if shift is not None:
            out = _div_packed(a, b, lay, shift, owned)
            if out is not None:
                return out
    return _div_terms(a, b, lay)


def _div_monomial(a: dict, b: dict, lay: KeyLayout):
    """a / (c * x^e) for the one term of b: a key shift, and a divmod per term if c != ±1."""
    (kb, cb), = b.items()
    delta = lay.zero - kb
    if cb in (1, -1):
        out = {k + delta: c * cb for k, c in a.items()}
    else:
        out = {}
        for k, c in a.items():
            q, rem = divmod(c, cb)
            if rem:
                return None
            out[k + delta] = q
    return _check_fields(out, lay) if delta else out


def _div_width(a: dict, b: dict) -> int:
    """Slot width of `_div_packed`: its certificate holds if max|q| <= max|a|.

    That is the case whenever a, b and the quotient have no negative
    coefficient: each quotient coefficient times each divisor coefficient
    then adds into a coefficient of a without cancellation.
    """
    amax = max(map(abs, a.values()))
    return (amax + amax * max(map(abs, b.values())) * len(b)).bit_length() + 1


def _div_packed(a: dict, b: dict, lay: KeyLayout, shift: int, owned: bool):
    """Exact quotient of packed term dicts through packed coefficients, or None.

    The field at `shift` is made dense, so a and b become groups of terms
    sharing their other exponents, each group one int of w-bit slots on a
    common stride g (`_pack_pair`), as in `_mul_packed`. The division runs
    over groups in increasing order of the other exponents: the lowest
    remaining group of the work dict is divided exactly (`divmod`) by the
    divisor's lowest group, the quotient group is decoded into the result
    at once, and its product with every other divisor group is subtracted,
    shifted to the work group's lowest slot. A group's int is the image of
    a polynomial in x_i^g (after dividing out its lowest power of x_i)
    under x_i^g -> 2**w, a ring homomorphism, so the work ints are the
    images of a - q * b exactly, at any width.

    So q is returned only with a certificate: every work group reduced to
    the int 0, and max|a| + max|q| * max|b| * min(len q, len b) <
    2**(w - 1). That bound puts every coefficient of a - q * b inside the
    balanced slot range, where only the zero polynomial has the image 0,
    so a = q * b. Anything else returns None, and the caller defers to
    `_div_terms`: a nonzero remainder, a product off its work group's
    stride, a quotient group past the lex bound of the other exponents,
    more quotient groups than a has terms, or a failed bound. None
    therefore never means "not divisible".

    With `owned` the caller hands a over: its terms are freed once they
    are packed, and decoded back from their groups before every exit but a
    certified quotient (None, or _FieldOverflow on the way to widening).
    """
    zero, guard = lay.zero, lay.guard
    keep = ~(lay.mask << shift)
    amax, cap = max(map(abs, a.values())), len(a)
    w = _div_width(a, b)
    ga, gb, step = _pack_pair(a, b, keep, shift, w)
    if owned:
        a.clear()
    # group -> [lowest field value, in place; packed int]
    work = {r: [k - r, v] for r, (k, v) in ga.items()}
    if not owned:
        del ga
    # group keys carry zero's other fields, field values its bias
    zr = zero & keep
    zf = zero - zr
    dr = min(gb)
    dk, dv = gb[dr]
    dlo = dk - dr
    rest = [(r - zr, k - r - zf, v) for r, (k, v) in gb.items() if r != dr]
    # As in _div_terms, an exact quotient's groups run from min(a) - min(b)
    # up to max(a) - max(b) in the order of the other exponents.
    top = max(work) - max(gb) + zr
    del gb
    certified = False
    try:
        if min(work) - dr + zr > top:
            return None
        heap = list(work)
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        get = work.get
        out: dict = {}
        half = 1 << (lay.bits - 1 + shift)
        while work:
            r = heappop(heap)
            entry = work.pop(r, None)
            if entry is None:
                continue
            lo, v = entry
            if not v:
                continue
            rq = r - dr + zr
            cap -= 1
            if rq > top or cap < 0:
                return None
            # strip the zero low slots so the quotient starts at its lowest term
            slots = ((v & -v).bit_length() - 1) // w
            if slots:
                v >>= w * slots
                lo += slots * step
            q, rem = divmod(v, dv)
            if rem:
                return None
            lq = lo - dlo + zf
            if rq & guard or lq < 0:
                raise _FieldOverflow
            if _decode_into(out, rq + lq, q, step, w) - rq - step >= half:
                raise _FieldOverflow
            for hr, hlo, hv in rest:
                pr = rq + hr
                plo = lq + hlo
                entry = get(pr)
                if entry is None:
                    if pr & guard:
                        raise _FieldOverflow
                    work[pr] = [plo, -q * hv]
                    heappush(heap, pr)
                    continue
                gap, off = divmod(plo - entry[0], step)
                if off:
                    return None
                if gap >= 0:
                    entry[1] -= q * hv << (w * gap)
                else:
                    entry[1] = (entry[1] << (w * -gap)) - q * hv
                    entry[0] = plo
        bmax = max(map(abs, b.values()))
        qmax = max(map(abs, out.values()), default=0)
        certified = amax + qmax * bmax * min(len(out), len(b)) < 1 << (w - 1)
        return out if certified else None
    finally:
        if owned and not certified:
            for lo, v in ga.values():
                _decode_into(a, lo, v, step, w)


def _div_terms(a: dict, b: dict, lay: KeyLayout):
    """Exact quotient of packed term dicts, or None; see exact_div."""
    zero, guard = lay.zero, lay.guard
    dmin = min(b)
    dcoeff = b[dmin]
    rest = [(k - zero, c) for k, c in b.items() if k != dmin]
    offset = zero - dmin
    # An exact quotient's keys run from min(a) - min(b) up to max(a) - max(b).
    # Each exponent of such a difference is below the field base in size, so
    # these keys compare as their exponent vectors do even outside the fields.
    top = max(a) - max(b) + zero
    if min(a) + offset > top:
        return None
    work = dict(a)
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    out: dict = {}
    # the dividend's size, then, once the quotient outgrows it, the box bound
    cap, boxed = len(a), False
    while work:
        while heap and heap[0] not in work:
            heappop(heap)
        if not heap:
            return None
        lead = heappop(heap)
        q, rem = divmod(work[lead], dcoeff)
        if rem:
            return None
        mono = lead + offset
        if mono > top:
            return None
        if mono & guard:
            return _out_of_field(a, b, lay)
        out[mono] = q
        if len(out) > cap:
            if boxed:
                return None
            cap, boxed = _quotient_box(a, b, lay), True
            if len(out) > cap:
                return None
        del work[lead]
        get = work.get
        for e, c in rest:
            key = mono + e
            old = get(key)
            if old is None:
                if key & guard:
                    return _out_of_field(a, b, lay)
                work[key] = -q * c
                heappush(heap, key)
            else:
                v = old - q * c
                if v:
                    work[key] = v
                else:
                    del work[key]
    return out


def _out_of_field(a: dict, b: dict, lay: KeyLayout):
    """The heap division reached a key outside the fields of `lay`.

    Returns None, "not divisible", when the box of an exact quotient fits
    the fields: per variable its exponents lie in [min a - min b,
    max a - max b], and every work term on the way to it in
    [min a, max a], which the dividend's fields hold. An exact division
    then never leaves the fields, so this one is not exact; widening would
    only let its would-be quotient series run on under a larger box with
    ever longer coefficients. Otherwise raises _FieldOverflow, and the
    table widens.
    """
    mask, bias = lay.mask, lay.bias
    for s in lay.shifts:
        fa = [(k >> s) & mask for k in a]
        fb = [(k >> s) & mask for k in b]
        if min(fa) - min(fb) < -bias or max(fa) - max(fb) >= bias:
            raise _FieldOverflow
    return None


def _quotient_box(a: dict, b: dict, lay: KeyLayout) -> int:
    """Most terms an exact quotient of packed term dicts a / b can have.

    Exponent spans add under products, so an exact quotient spans
    span(a) - span(b) in each variable: its terms fit in a box of
    span(a) - span(b) + 1 exponents per variable. 0 when a divisor span
    exceeds the dividend's, as then no exact quotient exists.
    """
    total = 1
    for sa, sb in zip(_spans(a, lay), _spans(b, lay)):
        if sa < sb:
            return 0
        total *= sa - sb + 1
    return total


def _remap_terms(d: dict, src: KeyLayout, dst: KeyLayout, moves, keep: bool):
    """Linear exponent remap of packed terms, or None if `dst` is too narrow.

    Each (i, target) in `moves` sends the exponent e of source variable i
    to e * target, a vector in `dst`'s table. With `keep` (same layout) the
    other fields stay and field i is cleared; otherwise every key starts
    from dst's zero. Colliding images are summed. A bound on the image
    exponents is checked before the loop and the guard bits after it.
    """
    mask, bias = src.mask, src.bias
    reach = [0] * dst.n
    plan = []
    for i, target in moves:
        s = src.shifts[i]
        fields = [(k >> s) & mask for k in d]
        if not fields:
            break
        amp = max(max(fields) - bias, bias - min(fields))
        for j, t in enumerate(target):
            if t:
                reach[j] += amp * abs(t)
        delta = dst.pack(target) - dst.zero
        if keep:
            delta -= src.units[i]
        plan.append((s, delta))
    if max(reach, default=0) > dst.bias:
        return None
    start = dst.zero
    out: dict = {}
    get = out.get
    for k, c in d.items():
        new = k if keep else start
        for s, delta in plan:
            e = ((k >> s) & mask) - bias
            if e:
                new += e * delta
        v = get(new, 0) + c
        if v:
            out[new] = v
        else:
            del out[new]
    if reduce(or_, out, 0) & dst.guard:
        return None
    return out


def _remap(p: "LaurentPolynomial", target: VariableTable, moves, keep: bool):
    """p under the exponent remap `moves` (see `_remap_terms`), on `target`.

    Widens `target` first for the move vectors, then again each time an
    image exponent does not fit.
    """
    target.make_room([t for _, vec in moves for t in vec])
    while True:
        src = _sync(p)
        dst = target.layout
        out = _remap_terms(p._d, src, dst, moves, keep)
        if out is not None:
            return _poly(target, dst, out)
        target.widen()


class _TermSum:
    """Running sum of polynomials of one table, as one packed dict."""

    __slots__ = ("table", "lay", "d")

    def __init__(self, table):
        self.table = table
        self.lay = table.layout
        self.d = {}

    def _align(self, p) -> dict:
        lay = _sync(p)
        if self.lay is not lay:
            self.d = _recode(self.d, self.lay, lay)
            self.lay = lay
        return self.d

    def add(self, p):
        _add_into(self._align(p), p._d)

    def sub(self, p):
        _sub_into(self._align(p), p._d)

    def poly(self) -> LaurentPolynomial:
        return _poly(self.table, self.lay, self.d)


def _as_unit_monomial(f: "FactoredFraction"):
    """Exponent vector if f is a product of coefficient-1 monomials, else None."""
    if f is None:
        return None
    out = [0] * len(f.table)
    for p, e in f.factors.values():
        if len(p._d) != 1 or 1 not in p._d.values():
            return None
        (k,) = p._d
        for i, v in enumerate(p._lay.unpack(k)):
            out[i] += e * v
    return tuple(out)


def render_poly(p: LaurentPolynomial) -> str:
    """Canonical text form: terms ascending by total degree, then exponents."""
    if not p:
        return "0"
    names = p.table.names
    parts = []
    items = sorted(
        p.terms.items(), key=lambda t: (sum(t[0]), tuple(-v for v in t[0]))
    )
    for exps, c in items:
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def swap_variables(p: LaurentPolynomial, i: int, j: int) -> LaurentPolynomial:
    """p with variables i and j exchanged, one field swap per key."""
    if i == j:
        return p
    lay = p._lay
    si, sj, mask = lay.shifts[i], lay.shifts[j], lay.mask
    diff = lay.units[i] - lay.units[j]
    return _poly(
        p.table,
        lay,
        {k + (((k >> sj) & mask) - ((k >> si) & mask)) * diff: c for k, c in p._d.items()},
    )


def split_terms(p: LaurentPolynomial, idx) -> dict:
    """Group the terms of p by their exponents at the variables `idx`.

    Returns a dict from exponent tuples over `idx` (in that order) to the
    polynomial in the remaining variables collected at that tuple.
    """
    lay = p._lay
    sel = lay.field_mask(idx)
    keep = ~sel
    base = lay.zero & sel
    groups: dict = {}
    for k, c in p._d.items():
        g = k & sel
        sub = groups.get(g)
        if sub is None:
            groups[g] = sub = {}
        sub[(k & keep) | base] = c
    mask, bias = lay.mask, lay.bias
    shifts = [lay.shifts[i] for i in idx]
    return {
        tuple(((g >> s) & mask) - bias for s in shifts): _poly(p.table, lay, sub)
        for g, sub in groups.items()
    }


def _spans(d: dict, lay: KeyLayout) -> list:
    """Each variable's exponent span, max - min over the packed terms d."""
    mask = lay.mask
    out = []
    for s in lay.shifts:
        fields = [(k >> s) & mask for k in d]
        out.append(max(fields) - min(fields))
    return out


def normalize_fraction(num: LaurentPolynomial, den: LaurentPolynomial):
    """The normal form of num/den, as a (num, den) pair.

    The denominator loses its monomial content and gets a positive
    leading coefficient (lex order), the parts lose their common integer
    content, and a zero or equal pair becomes 0/1 or 1/1. Nothing
    stronger is attempted.
    """
    _check_table(num, den)
    if den.is_one():
        return num, den
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    one = LaurentPolynomial.one(num.table)
    if num.is_zero():
        return num, one
    if num == den:
        return one, one
    neg = tuple(-e for e in den.monomial_content())
    if any(neg):
        num, den = num.shift(neg), den.shift(neg)
    g = gcd(num.int_content(), den.int_content())
    if den.lead_coeff() < 0:
        g = -g
    if g != 1:
        num, den = num.divide_int(g), den.divide_int(g)
    return num, den


def render_fraction(num: LaurentPolynomial, den: LaurentPolynomial) -> str:
    """num/den as text: the numerator alone over 1, multi-term parts in parentheses."""
    if den.is_one():
        return num.render()
    return "/".join(f"({p.render()})" if len(p) > 1 else p.render() for p in (num, den))


class RationalFunction:
    """Quotient of two Laurent polynomials over the same table, expanded.

    Only an output form (see the module docstring), with no arithmetic;
    its parts are in the normal form of `normalize_fraction`. Equality,
    with a RationalFunction or a FactoredFraction, is `ff_eq`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial):
        self.num, self.den = normalize_fraction(num, den)

    @property
    def table(self):
        return self.num.table

    def __eq__(self, other):
        if not isinstance(other, (RationalFunction, FactoredFraction)):
            return NotImplemented
        return _fraction_eq(self, other)

    __hash__ = None

    def render(self) -> str:
        return render_fraction(self.num, self.den)

    def __repr__(self):
        return f"<ratfn {self.render()}>"


def _fraction_eq(f, g) -> bool:
    """Both `__eq__` methods: zero equals only zero, all else is `ff_eq`."""
    _check_table(f, g)
    zero = [isinstance(h, RationalFunction) and h.num.is_zero() for h in (f, g)]
    if any(zero):
        return all(zero)
    f, g = (FactoredFraction.from_ratfn(h) if isinstance(h, RationalFunction) else h
            for h in (f, g))
    return ff_eq(f, g)


class FactoredFraction:
    """Nonzero fraction kept as a product of polynomial factors with exponents.

    Multiplicative operations merge factor exponents, so a factor
    introduced by one mutation cancels symbolically when a later mutation
    divides by it again; nothing is multiplied out until a caller asks for
    the expanded fraction. Factors are keyed by their packed term
    dictionaries, so equal polynomials share one slot no matter how they
    were built (as long as the table's layout has not widened in between;
    `ff_eq` re-keys, so equality never depends on it).
    """

    __slots__ = ("table", "factors")

    def __init__(self, table, factors):
        self.table = table
        self.factors = factors

    @staticmethod
    def _key(p: LaurentPolynomial):
        _sync(p)
        return frozenset(p._d.items())

    @classmethod
    def one(cls, table):
        return cls(table, {})

    @classmethod
    def from_poly(cls, p: LaurentPolynomial, exp: int = 1):
        if p.is_zero():
            raise ZeroDivisionError("factored fractions are nonzero")
        if exp == 0 or p.is_one():
            return cls(p.table, {})
        return cls(p.table, {cls._key(p): (p, exp)})

    @classmethod
    def from_ratfn(cls, f: "RationalFunction"):
        out = cls.from_poly(f.num)
        if not f.den.is_one():
            out = out * cls.from_poly(f.den, -1)
        return out

    @classmethod
    def variable(cls, table, name, power=1):
        return cls.from_poly(LaurentPolynomial.variable(table, name, power))

    def is_one(self):
        return not self.factors

    def __mul__(self, other: "FactoredFraction"):
        if self.table is not other.table:
            raise TableMismatchError("values belong to different variable tables")
        if not other.factors:
            return self
        if not self.factors:
            return other
        out = dict(self.factors)
        for key, (p, e) in other.factors.items():
            if key in out:
                merged = out[key][1] + e
                if merged:
                    out[key] = (p, merged)
                else:
                    del out[key]
            else:
                out[key] = (p, e)
        return FactoredFraction(self.table, out)

    def __pow__(self, k: int):
        if k == 0:
            return FactoredFraction(self.table, {})
        if k == 1:
            return self
        return FactoredFraction(
            self.table, {key: (p, e * k) for key, (p, e) in self.factors.items()}
        )

    def inverse(self):
        return self ** -1

    def __truediv__(self, other):
        return self * other.inverse()

    def negative_part(self) -> "FactoredFraction":
        """Denominator factors, with positive exponents."""
        return FactoredFraction(
            self.table,
            {k: (p, -e) for k, (p, e) in self.factors.items() if e < 0},
        )

    def expand_product(self) -> LaurentPolynomial:
        """Multiply out, requiring all exponents nonnegative."""
        out = None
        for p, e in self.factors.values():
            if e < 0:
                raise ValueError("negative exponent in a product expansion")
            out = p ** e if out is None else out * p ** e
        return LaurentPolynomial.one(self.table) if out is None else out

    def expand_parts(self, term_limit=None):
        """Multiplied-out numerator and denominator, factor by factor.

        Raises TermLimitError once either part exceeds `term_limit` terms.
        """
        parts = [None, None]
        for p, e in self.factors.values():
            side = e < 0
            for _ in range(abs(e)):
                q = parts[side]
                parts[side] = _bounded(p if q is None else q * p, term_limit)
        return tuple(LaurentPolynomial.one(self.table) if q is None else q for q in parts)

    def expand(self) -> "RationalFunction":
        num, den = self.expand_parts()
        return RationalFunction(num, den)

    def __eq__(self, other):
        # an expanded operand answers through its own, reflected __eq__
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return _fraction_eq(self, other)

    __hash__ = None

    def render(self) -> str:
        return render_fraction(*normalize_fraction(*self.expand_parts()))

    def __repr__(self):
        return f"<ff {len(self.factors)} factors>"


def ff_eq(a: FactoredFraction, b: FactoredFraction, term_limit=None) -> bool:
    """Exact equality of fractions; every comparison, either way round, ends here.

    1. Factors with equal keys and exponents of one sign cancel across a, b.
    2. The rest lose integer and monomial content and cancel again. The
       primitive parts multiply to primitive parts (Gauss), so a == b
       needs equal contents.
    3. Each side is multiplied out: a = A/B, b = C/D.
    4. If C = A*k exactly, a == b iff D == B*k; likewise A = C*k. Exponent
       spans add under multiplication, so a division whose dividend is
       narrower than its divisor in some variable, which might run to its
       term cap, is not started. Else A*D and C*B are compared.

    Every product formed raises TermLimitError past `term_limit` terms.
    """
    fa, fb = dict(a.factors), dict(b.factors)
    _cancel_same_sign(fa, fb)
    if not fa and not fb:
        return True
    fa, ca = _primitive_factors(a.table, fa)
    fb, cb = _primitive_factors(a.table, fb)
    if ca != cb:
        return False
    _cancel_same_sign(fa, fb)
    A, B = FactoredFraction(a.table, fa).expand_parts(term_limit)
    C, D = FactoredFraction(a.table, fb).expand_parts(term_limit)
    if A == C:
        return B == D
    if B == D:
        return False
    sa, sc = _spans(A._d, A._lay), _spans(C._d, C._lay)
    if len(C) >= len(A) and all(map(ge, sc, sa)):
        k = C.exact_div(A)
        if k is not None:
            return D == _bounded(B * k, term_limit)
    if len(A) >= len(C) and all(map(ge, sa, sc)):
        k = A.exact_div(C)
        if k is not None:
            return B == _bounded(D * k, term_limit)
    return _bounded(A * D, term_limit) == _bounded(C * B, term_limit)


def _cancel_same_sign(fa: dict, fb: dict) -> None:
    """Cancel, in place, the shared factors of fa and fb whose exponents agree in sign."""
    for key in [k for k in fa if k in fb]:
        (p, ea), (_, eb) = fa[key], fb[key]
        if (ea > 0) == (eb > 0):
            common = min(ea, eb) if ea > 0 else max(ea, eb)
            for side, e in ((fa, ea), (fb, eb)):
                if e == common:
                    del side[key]
                else:
                    side[key] = (p, e - common)


def _primitive_factors(table, factors: dict):
    """Factors without integer and monomial content, merged; and that content."""
    coeff = Fraction(1)
    mono = [0] * len(table)
    out: dict = {}
    for p, e in factors.values():
        mc = p.monomial_content()
        if any(mc):
            p = p.shift(tuple(-v for v in mc))
            for i, v in enumerate(mc):
                mono[i] += e * v
        ic = p.int_content()
        if p.lead_coeff() < 0:
            ic = -ic
        if ic != 1:
            p = p.divide_int(ic)
            coeff *= Fraction(ic) ** e
        if p.is_one():
            continue
        key = FactoredFraction._key(p)
        merged = out[key][1] + e if key in out else e
        if merged:
            out[key] = (p, merged)
        else:
            del out[key]
    return out, (coeff, mono)


def _bounded(p: LaurentPolynomial, term_limit) -> LaurentPolynomial:
    if term_limit is not None and len(p) > term_limit:
        raise TermLimitError(f"expansion exceeds {term_limit} terms")
    return p


def over_common_denominator(terms, table):
    """Numerators of `terms` over their factor-wise common denominator.

    `terms` are FactoredFractions on `table`, None for 0. Returns the list
    of each term times the denominator, multiplied out (None for None),
    and the denominator, factored: each factor at its largest negative
    exponent among the terms. A numerator may be its term's own factor:
    the caller reads it and never changes it in place.
    """
    common: dict = {}
    for f in terms:
        for key, (p, e) in (f.factors.items() if f is not None else ()):
            if e < 0 and (key not in common or common[key][1] < -e):
                common[key] = (p, -e)
    den = FactoredFraction(table, common)
    return [None if f is None else (f * den).expand_product() for f in terms], den


def ff_sum(terms, table) -> "FactoredFraction | None":
    """Every sum of fractions: sum(terms) factored, or None for 0.

    `terms` is a sequence of FactoredFractions on `table`, summed over
    their common denominator (`over_common_denominator`): only the
    numerator is multiplied out. An empty sum is 0.
    """
    nums, den = over_common_denominator(terms, table)
    num = _TermSum(table)
    for p in nums:
        num.add(p)
    num = num.poly()
    return FactoredFraction.from_poly(num) / den if num else None


def exchange_sum(coeffs, plus, minus) -> LaurentPolynomial:
    """The exchange sum of coeffs[l] P^l N^(r-l) over l = 0..r = len(coeffs) - 1.

    P and N are the products of the factor lists `plus` and `minus` (an
    empty list is 1). A coefficient None is 0; the first and last are
    nonzero. Horner's rule runs in the larger side by the product of its
    factors' term counts, say N: S <- S * N + coeffs[l] * P^l, with S and
    the running power P^l multiplied by one factor at a time and each term
    added in place into the fresh product, so no power of a big factor is
    alive beside S. Nothing passed in is changed.
    """
    grow, power = plus, minus
    order = range(len(coeffs) - 1, -1, -1)
    if prod(map(len, grow)) < prod(map(len, power)):
        grow, power, order = power, grow, range(len(coeffs))
    num = acc = None
    for l in order:
        c = coeffs[l]
        if num is None:
            num = c
            continue
        for f in grow:
            num = num * f
        for f in power:
            acc = f if acc is None else acc * f
        if c is None:
            continue
        if acc is not None:
            # a product by 1 would still pass over every term of the other side
            c = acc if c.is_one() else c * acc
        if grow:
            num._add_owned(c)
        else:
            num = num + c  # with no side to multiply by, num may be the caller's
    return num


def ff_add(a: FactoredFraction, b: FactoredFraction) -> FactoredFraction:
    """Sum of two factored fractions (`ff_sum`); a zero sum raises ZeroDivisionError."""
    total = ff_sum((a, b), a.table)
    if total is None:
        raise ZeroDivisionError("factored fractions are nonzero")
    return total


# -- block symmetry and elementary symmetric rewriting ----------------------


def block_symmetric(p: LaurentPolynomial, block) -> bool:
    """True iff p is invariant under every transposition inside the block.

    `block` is a sequence of variable indices; adjacent transpositions
    generate the full symmetric group on the block.
    """
    block = list(block)
    for a in range(len(block) - 1):
        if swap_variables(p, block[a], block[a + 1])._d != p._d:
            return False
    return True


def elementary_symmetric(table, block, degree: int) -> LaurentPolynomial:
    """Expanded elementary symmetric polynomial of the block variables."""
    if degree == 0:
        return LaurentPolynomial.one(table)
    lay = table.layout
    units = lay.units
    out = {lay.zero + sum(units[i] for i in combo): 1
           for combo in itertools.combinations(block, degree)}
    return _poly(table, lay, out)


def _e_monomial(table, s_idx: tuple, ms: tuple, expansions: dict) -> LaurentPolynomial:
    """Expanded e_1(s)^m_1 ... e_r(s)^m_r over one block, s_idx sorted.

    Kept in `expansions` under (s_idx, ms), and built as the cached product
    of the lower degrees times the power of the highest one.
    """
    out = expansions.get((s_idx, ms))
    if out is None:
        top = max(l for l, m in enumerate(ms) if m)
        rest = ms[:top] + (0,) * (len(ms) - top)
        out = elementary_symmetric(table, s_idx, top + 1) ** ms[top]
        if any(rest):
            out = _e_monomial(table, s_idx, rest, expansions) * out
        expansions[(s_idx, ms)] = out
    return out


def _reduce_one_block(p: LaurentPolynomial, s_idx, e_idx, expansions: dict) -> LaurentPolynomial:
    """e-form of a symmetric polynomial in one block's variables alone.

    Cancels the lexicographic leader c*s^b with c times the product of the
    elementary symmetric polynomials e_l(s)^(b_l - b_(l+1)) until nothing
    is left; those products come from `expansions` (`_e_monomial`). Only
    orbit polynomials m_lambda reach it (see `_class_e_form`), so every
    coefficient is an integer.
    """
    table = p.table
    # the lexicographic leader of a symmetric polynomial is the same
    # partition in any variable order, so the block is read in table
    # order: a key compares like the block's exponent tuple
    s_idx = tuple(sorted(s_idx))
    work = _TermSum(table)
    work.add(p)
    done = _TermSum(table)
    while work.d:
        lead = max(work.d)
        c = work.d[lead]
        bv = [work.lay.exponent(lead, i) for i in s_idx] + [0]
        ms = tuple(bv[l] - bv[l + 1] for l in range(len(s_idx)))
        done.add(LaurentPolynomial.monomial(
            table, {e_idx[l]: m for l, m in enumerate(ms) if m}, c
        ))
        work.sub(_e_monomial(table, s_idx, ms, expansions).scale(c))
    return done.poly()


def _class_e_form(table, s_idx, e_idx, lam: tuple, cache: dict,
                  expansions: dict) -> LaurentPolynomial:
    """e-form of m_lambda, the sum of the orbit of s^lambda in one block.

    It does not depend on the targets, so it is kept in `cache` under
    (s_idx, e_idx, lambda) and serves every symbol set sharing that cache.
    """
    key = (tuple(s_idx), tuple(e_idx), lam)
    form = cache.get(key)
    if form is None:
        orbit = {}
        for perm in set(itertools.permutations(lam)):
            exps = [0] * len(table)
            for idx, e in zip(s_idx, perm):
                exps[idx] = e
            orbit[tuple(exps)] = 1
        form = _reduce_one_block(LaurentPolynomial(table, orbit), s_idx, e_idx, expansions)
        cache[key] = form
    return form


def _e_form(p: LaurentPolynomial, blocks, cache: dict, expansions: dict) -> LaurentPolynomial:
    """Rewrite a block-symmetric polynomial in the e-symbols, class by class.

    The terms of p split into orbits under the block permutations. Each
    orbit is its block-free rest times one monomial-symmetric m_lambda per
    block, and its representative is the term whose exponents do not
    increase along any block. So the e-form is the sum, over
    representatives, of the rest times the product of the blocks' cached
    class e-forms (`_class_e_form`; lambda = 0 contributes 1).
    """
    if not p:
        return p
    content = p.monomial_content()
    support = p.support_vars()
    for s_idx, e_idx in blocks:
        if any(content[i] < 0 for i in s_idx):
            raise ValueError("not polynomial in the splitting variables")
        if support.intersection(e_idx):
            raise ValueError("input already mentions an elementary symbol")
        if not block_symmetric(p, s_idx):
            raise NotBlockSymmetricError("not block-symmetric")
    total = _TermSum(p.table)
    for exps, rest in split_terms(p, [i for s_idx, _ in blocks for i in s_idx]).items():
        form = None
        for s_idx, e_idx in blocks:
            lam, exps = exps[:len(s_idx)], exps[len(s_idx):]
            if any(a < b for a, b in zip(lam, lam[1:])):
                break
            if any(lam):
                f = _class_e_form(p.table, s_idx, e_idx, lam, cache, expansions)
                form = f if form is None else form * f
        else:
            total.add(rest if form is None else rest * form)
    return total.poly()


def elementary_reduce(p: LaurentPolynomial, blocks) -> LaurentPolynomial:
    """Rewrite a block-symmetric polynomial in elementary symmetric symbols.

    `blocks` is a sequence of (s_indices, e_indices) pairs, one per block;
    the result carries no block variable and is the unique representation
    of p as a polynomial in the e-symbols with block-free coefficients.
    Raises NotBlockSymmetricError when p fails the symmetry precondition,
    ValueError when p is not polynomial in the block variables or already
    mentions an e-symbol.
    """
    return _e_form(p, blocks, {}, {})


@dataclass(frozen=True)
class SymbolBlock:
    """One splitting block: its s-variables, e-symbol slots and e-targets.

    `targets` has one FactoredFraction per degree 1..r, None for 0; the
    top degree target is the constant 1 by construction of the substitution.
    """

    s_idx: tuple
    e_idx: tuple
    targets: tuple


@dataclass(frozen=True)
class ElementarySymbols:
    """Substitution data for eliminating all splitting variables.

    None of its caches depends on the targets, so symbol sets on one table
    with the same blocks may share them. `cache` holds the class e-forms
    (`_class_e_form`) and `expansions` the expanded e-monomials they are
    reduced with (`_e_monomial`). `orbits` holds the e-form of each orbit
    product `psi_hat_factored` has rewritten, under the table's layout and
    the packed key of every orbit member (`_orbit_e_form`).
    """

    table: VariableTable
    blocks: tuple
    cache: dict = field(default_factory=dict, compare=False, repr=False)
    orbits: dict = field(default_factory=dict, compare=False, repr=False)
    expansions: dict = field(default_factory=dict, compare=False, repr=False)

    def target_assignment(self):
        assign = {}
        for b in self.blocks:
            for e_i, value in zip(b.e_idx, b.targets):
                assign[e_i] = value
        return assign


def _free_slots(poly: LaurentPolynomial, symbols: ElementarySymbols, size: int):
    """Each block poly is not symmetric in, with its free slot, or None.

    Returns {block position: slot position} when in each such block b poly
    is symmetric in every slot but one and the orbit's `size` is the product
    of those r_b: its stabilizer is then the product of the S_(b - slot),
    so the orbit product is the iterated norm `_orbit_norm` computes. None
    for an orbit of any other shape.
    """
    slots = {}
    cosets = 1
    for n, b in enumerate(symbols.blocks):
        s_idx = b.s_idx
        if block_symmetric(poly, s_idx):
            continue
        for a in range(len(s_idx)):
            if block_symmetric(poly, s_idx[:a] + s_idx[a + 1:]):
                slots[n] = a
                cosets *= len(s_idx)
                break
        else:
            return None
    return slots if size == cosets else None


def _det(rows) -> LaurentPolynomial:
    """Determinant of a square matrix of polynomials, without fractions.

    The cofactor expansion along the first column: its products stay small
    (the 3 x 3 norm of case2's 181-term orbit took 11 ms by cofactors
    against 84 ms by Bareiss on a 2-core x86-64 machine under CPython 3.11).
    """
    if len(rows) == 1:
        return rows[0][0]
    total = _TermSum(rows[0][0].table)
    for i, row in enumerate(rows):
        if row[0]:
            term = row[0] * _det([r[1:] for k, r in enumerate(rows) if k != i])
            (total.sub if i % 2 else total.add)(term)
    return total.poly()


def _norm(g: LaurentPolynomial, u: int, e_idx) -> LaurentPolynomial:
    """The product of g(s_i) over the roots s_i of U(u) = prod (u - s_i).

    U = u^r - e_1 u^(r-1) + ... + (-1)^r e_r, with e_idx the e-symbols of
    the block, and g a polynomial in u (index `u`). The product is the
    determinant of multiplication by g on Q[e][u]/(U), whose columns are
    g u^k reduced mod U for k < r.
    """
    table = g.table
    r = len(e_idx)
    zero = LaurentPolynomial.zero(table)
    # u^r = e_1 u^(r-1) - e_2 u^(r-2) + ...: top[j] is the coefficient of u^(r-1-j)
    top = [LaurentPolynomial.monomial(table, {e: 1}, (-1) ** j) for j, e in enumerate(e_idx)]

    def reduced(col):
        for k in range(len(col) - 1, r - 1, -1):
            c = col.pop()
            if c:
                for j in range(r):
                    col[k - 1 - j] = col[k - 1 - j] + c * top[j]
        return col + [zero] * (r - len(col))

    parts = split_terms(g, [u])
    cols = [reduced([parts.get((k,), zero) for k in range(max(parts)[0] + 1)])]
    while len(cols) < r:
        cols.append(reduced([zero] + cols[-1]))
    return _det(cols)


def _orbit_norm(poly: LaurentPolynomial, slots: dict, symbols: ElementarySymbols) -> LaurentPolynomial:
    """e-form of the orbit product of poly, a norm per block with a free slot.

    poly, cleared of its content in each s-variable (which maps to 1),
    is rewritten in e-symbols over every block; a block b with a free
    slot u = s_d (`_free_slots`) counts as its sub-block b - d, with
    the first r_b - 1 e-symbols of b standing for the e'_j of b - d. One
    `cross_evaluate` substitutes e'_j = e_j - u e'_(j-1) for them, leaving
    g(u) over Q[e], and the orbit product over b is the norm of g
    (`_norm`), taken block by block. With no slots, poly is itself the
    orbit product and this is its e-form.
    """
    table = poly.table
    # the top symbols stay e-symbols of U, unseen by the sub-block e-form
    if poly.support_vars().intersection(symbols.blocks[n].e_idx[-1] for n in slots):
        raise ValueError("input already mentions an elementary symbol")
    content = poly.monomial_content()
    shift = [0] * len(table)
    blocks = []
    assign = {}
    for n, b in enumerate(symbols.blocks):
        for i in b.s_idx:
            shift[i] = -content[i]
        a = slots.get(n)
        if a is None:
            blocks.append((b.s_idx, b.e_idx))
            continue
        u = b.s_idx[a]
        blocks.append((b.s_idx[:a] + b.s_idx[a + 1:], b.e_idx[:-1]))
        # e'_j = (-u)^j + sum over k < j of (-u)^k e_(j-k)
        for j in range(1, len(b.e_idx)):
            value = LaurentPolynomial.monomial(table, {u: j}, (-1) ** j)
            for k in range(j):
                value = value + LaurentPolynomial.monomial(
                    table, {u: k, b.e_idx[j - k - 1]: 1}, (-1) ** k
                )
            assign[b.e_idx[j - 1]] = FactoredFraction.from_poly(value)
    if any(shift):
        poly = poly.shift(shift)
    try:
        form = _e_form(poly, blocks, symbols.cache, symbols.expansions)
    except NotBlockSymmetricError:
        raise PsiDomainError("not in domain of psi_hat") from None
    if assign:
        form = cross_evaluate(form, assign, table).expand_product()
    for n, a in slots.items():
        b = symbols.blocks[n]
        form = _norm(form, b.s_idx[a], b.e_idx)
    return form


def _orbit_e_form(poly: LaurentPolynomial, exp: int, remaining: dict,
                  symbols: ElementarySymbols):
    """The orbit of a factor under the block transpositions, and its product's e-form.

    Returns (member keys, e-form, signed), where `signed` tells whether the
    e-form has a negative coefficient; raises PsiDomainError when some
    member is missing from `remaining` or has an exponent other than `exp`.
    Every e-form is an `_orbit_norm`: of one member with its free slot per
    block (`_free_slots`; none for an orbit of one), without multiplying
    the members out, else of the expanded product. An entry is kept
    in `symbols.orbits` under the table's layout and the packed key of each
    member, so after the table widens a lookup misses instead of finding
    another polynomial's entry.
    """
    table = poly.table
    key = FactoredFraction._key(poly)
    lay = table.layout
    entry = symbols.orbits.get((lay, key))
    if entry is not None:
        members = entry[0]
    else:
        seen = {key: poly}
        frontier = [poly]
        while frontier:
            cur = frontier.pop()
            for b in symbols.blocks:
                s_idx = b.s_idx
                for a in range(len(s_idx) - 1):
                    img = swap_variables(cur, s_idx[a], s_idx[a + 1])
                    k = FactoredFraction._key(img)
                    if k not in seen:
                        seen[k] = img
                        frontier.append(img)
        members = tuple(seen)
    if any(k not in remaining or remaining[k][1] != exp for k in members):
        raise PsiDomainError("not in domain of psi_hat")
    if entry is None:
        slots = _free_slots(poly, symbols, len(members))
        if slots is None:
            slots = {}
            poly = LaurentPolynomial.one(table)
            for member in seen.values():
                poly = poly * member
        form = _orbit_norm(poly, slots, symbols)
        entry = (members, form, any(c < 0 for c in form.coefficients()))
        for k in members:
            symbols.orbits[(lay, k)] = entry
    return entry


def _orbit_images(ff: "FactoredFraction", symbols: ElementarySymbols,
                  require_nonneg: bool) -> "FactoredFraction":
    """`psi_hat_factored`'s loop; raises PsiDomainError where it falls back."""
    remaining = dict(ff.factors)
    out = FactoredFraction.one(ff.table)
    assign = symbols.target_assignment()
    while remaining:
        poly, exp = next(iter(remaining.values()))
        members, form, signed = _orbit_e_form(poly, exp, remaining, symbols)
        if require_nonneg and signed:
            raise PsiConeError("not in domain of psi_hat")
        for k in members:
            del remaining[k]
        value = cross_evaluate(form, assign, form.table)
        if value is None:
            raise PsiKernelError(
                "denominator in kernel of psi_hat"
                if exp < 0
                else "factor image vanishes under psi_hat"
            )
        out = out * value ** exp
    return out


def psi_hat_factored(ff: "FactoredFraction", symbols: ElementarySymbols,
                     require_nonneg: bool = False) -> "FactoredFraction":
    """Eliminate splitting variables from a factored fraction, orbit by orbit.

    The map is multiplicative, so it suffices to apply it to the product of
    each orbit of factors under the block transpositions; pattern-generated
    fractions always carry complete orbits with a uniform exponent. Each
    orbit's e-form is rewritten once per symbol cache (`_orbit_e_form`), as
    a norm when each member has one free slot per block, and evaluated at
    the targets on every call. With `require_nonneg` every
    orbit's e-form is certified, whatever its size; the cone is closed
    under products, so that certifies the fraction. An orbit that is not
    complete, or whose e-form leaves the cone, sends the whole fraction
    once more through the same loop as its normalized numerator and
    denominator (`normalize_fraction`), each an orbit of one: a part that is
    not block-symmetric raises PsiDomainError, a signed one PsiConeError.
    The result stays factored, one factor per orbit image.
    """
    try:
        return _orbit_images(ff, symbols, require_nonneg)
    except PsiDomainError:
        # an orbit can leave the cone while the whole fraction is in it
        num, den = normalize_fraction(*ff.expand_parts())
        whole = FactoredFraction.from_poly(num) * FactoredFraction.from_poly(den, -1)
        return _orbit_images(whole, symbols, require_nonneg)


def psi_hat(f: RationalFunction, symbols: ElementarySymbols,
            require_nonneg: bool = False) -> RationalFunction:
    """Eliminate splitting variables through the elementary-symbol targets.

    `psi_hat_factored` of f's numerator and denominator, multiplied out.
    `require_nonneg` certifies both e-forms nonnegative, the domain of the
    semifield-level map, or raises PsiConeError; a part that maps to 0
    raises PsiKernelError.
    """
    return psi_hat_factored(FactoredFraction.from_ratfn(f), symbols, require_nonneg).expand()


def cross_evaluate(poly: LaurentPolynomial, assign: dict,
                   target: VariableTable) -> "FactoredFraction":
    """Substitute factored fractions for variables of a polynomial.

    `assign` maps variable indices of poly's table to FactoredFraction
    values on `target`, or to None for 0. When `target` is poly's own
    table, unassigned variables stay; on another table, every variable the
    polynomial supports must be assigned. When every substituted value is
    a product of coefficient-1 monomials this is one exponent remap.
    Otherwise the terms that share their exponents at the substituted
    variables are substituted together, one factored product of powers
    per group, and the groups are summed by `ff_sum`. A zero value drops
    every group it divides and raises ZeroDivisionError if some group has
    it at a negative power. Returns the value factored, or None for 0.
    """
    keep = target is poly.table
    idx = sorted(i for i in poly.support_vars() if not keep or i in assign)
    unit = [_as_unit_monomial(assign[i]) for i in idx]
    if None not in unit:
        out = _remap(poly, target, list(zip(idx, unit)), keep)
        return FactoredFraction.from_poly(out) if out else None
    terms = []
    for exps, rest in split_terms(poly, idx).items():
        powers = [(assign[i], e) for i, e in zip(idx, exps) if e]
        if dead := [e for v, e in powers if v is None]:
            if min(dead) < 0:
                raise ZeroDivisionError("negative power of zero")
            continue
        value = FactoredFraction.from_poly(rest if keep else rest.transplant(target))
        for v, e in powers:
            value = value * v ** e
        terms.append(value)
    return ff_sum(terms, target)
