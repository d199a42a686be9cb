"""Sparse multivariate Laurent polynomials and rational functions over ZZ.

All symbolic state in this package (cluster variables, coefficient
semifield values, invariant polynomials) is carried by the two value types
defined here, over a shared ordered variable table. A polynomial is a
dictionary from packed monomial keys to nonzero integer coefficients: each
key is one int holding the whole exponent vector in bit fields laid out by
the table (`KeyLayout`), and `.terms` shows the same map with exponent
tuples as keys. A rational function is a pair of polynomials normalized
only by integer content, monomial content and denominator sign. Equality
of fractions is decided by exact cofactor division or cross-multiplication,
never by canonical form, so no multivariate GCD is needed anywhere.

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
from functools import reduce
from math import gcd
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
        self.zero = sum(self.bias << s for s in self.shifts)
        self.guard = sum(1 << (s + bits - 1) for s in self.shifts)

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

    def is_monomial(self):
        return len(self._d) == 1

    def support_vars(self):
        """Indices of variables appearing with a nonzero exponent."""
        lay = self._lay
        used = reduce(or_, map(lay.zero.__xor__, self._d), 0)
        mask = lay.mask
        return {i for i, s in enumerate(lay.shifts) if (used >> s) & mask}

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
            if not self.is_monomial():
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

    def exact_div(self, divisor: "LaurentPolynomial"):
        """Exact quotient self / divisor, or None if the division fails.

        Single-divisor elimination against the divisor's lexicographically
        smallest term, with a lazy heap of packed keys tracking the working
        minimum, so quotient keys come out in increasing order. Lex order
        is translation-invariant, so an exact quotient's largest key is
        max(self) - max(divisor): the division fails as soon as a quotient
        key passes that bound, and at once when the bound is below
        min(self) - min(divisor), the smallest quotient key. The term cap
        stops what the bound cannot; for nonnegative quotient and divisor
        the quotient has at most as many terms as the dividend, so the cap
        never fires on valid inputs.
        """
        _check_table(self, divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.table)
        while True:
            lay = _pair(self, divisor)
            try:
                out = _div_terms(self._d, divisor._d, lay)
            except _FieldOverflow:
                self.table.widen()
                continue
            return None if out is None else _poly(self.table, lay, out)

    # -- substitution ------------------------------------------------------

    def substitute_monomials(self, mapping: dict):
        """Replace variables by monomials of the same table.

        `mapping` sends variable indices to exponent vectors; every
        occurrence x_i^e becomes (monomial)^e. Unmapped variables stay.
        """
        if not mapping:
            return self
        table = self.table
        moves = list(mapping.items())
        table.make_room([t for _, target in moves for t in target])
        while True:
            lay = _sync(self)
            out = _remap_terms(self._d, lay, lay, moves, keep=True)
            if out is not None:
                return _poly(table, lay, out)
            table.widen()

    def transplant(self, target: VariableTable, name_map=None):
        """Re-express this polynomial on another table.

        Variables are matched by name (or through `name_map`), and must all
        exist in the target table.
        """
        src_names = self.table.names
        idx_map = {}
        for i in range(len(src_names)):
            name = src_names[i]
            if name_map and name in name_map:
                name = name_map[name]
            idx_map[i] = target.index(name)
        width = len(target)
        moves = []
        for i in sorted(self.support_vars()):
            unit = [0] * width
            unit[idx_map[i]] = 1
            moves.append((i, unit))
        while True:
            src = _sync(self)
            dst = target.layout
            out = _remap_terms(self._d, src, dst, moves, keep=False)
            if out is not None:
                break
            target.widen()
        if len(out) != len(self._d):
            raise ValueError("transplant collapsed distinct monomials")
        return _poly(target, dst, out)

    def evaluate(self, assign: dict) -> "RationalFunction":
        """Substitute rational functions for variables.

        `assign` maps variable indices to RationalFunction values on the
        same table. Falls back to a fast exponent remap when every value is
        a plain monomial with unit coefficients. Otherwise the terms that
        share their exponents at the assigned variables are substituted
        together, one product of powers per group.
        """
        if all(_as_unit_monomial(v) is not None for v in assign.values()):
            mapping = {i: _as_unit_monomial(v) for i, v in assign.items()}
            return RationalFunction.from_poly(self.substitute_monomials(mapping))
        idx = sorted(assign)
        total = RationalFunction.zero(self.table)
        for exps, rest in split_terms(self, idx).items():
            value = RationalFunction.from_poly(rest)
            for i, e in zip(idx, exps):
                if e:
                    value = value * assign[i] ** e
            total = total + value
        return total

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


def _mul_terms(a: dict, b: dict, lay: KeyLayout) -> dict:
    """Product of two packed term dicts.

    A one-term operand is a key shift; products of at least
    _PACKED_MIN_PAIRS term pairs try `_mul_packed`, and everything else
    (and every product it declines) runs the schoolbook loop.
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
    if len(a) * len(b) >= _PACKED_MIN_PAIRS:
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

    One variable i is made dense. Masking field i out of every key splits
    each operand into groups of terms sharing their other exponents; i is
    the variable with the fewest pairs of groups, ga * gb, and the product
    is declined (None) when 4 * ga * gb > len(a) * len(b), where a pair of
    groups would hold fewer than four term pairs on average. Each group
    becomes one int holding the coefficient of x_i^(lo + j) in its w-bit
    slot j, with lo the group's own lowest exponent of x_i, kept in the
    group's key. Multiplying two such ints multiplies the two univariate
    polynomials, and the products of every pair of groups with equal key
    sums are added into one int.

    Exactness: a slot of a summed int is a partial sum of one output
    coefficient, over term pairs of which each term of one operand is in
    at most one. So it is at most B = max|a| * max|b| * min(len a, len b)
    in size, and w = bit_length(B) + 1 keeps every slot inside
    (-2**(w-1), 2**(w-1)). An int's digits in base 2**w drawn from that
    range are unique, so decoding them recovers every coefficient exactly.
    Each decoded key is the same int the schoolbook loop forms for that
    monomial, so field overflow is detected as there.
    """
    la, lb = len(a), len(b)
    mask = lay.mask
    a0, b0 = next(iter(a)), next(iter(b))
    varies = reduce(or_, map(a0.__xor__, a), 0) | reduce(or_, map(b0.__xor__, b), 0)
    best, shift = la * lb, None
    for s in lay.shifts:
        if (varies >> s) & mask:
            keep = ~(mask << s)
            g = len({k & keep for k in a}) * len({k & keep for k in b})
            if g < best:
                best, shift = g, s
    if 4 * best > la * lb:
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(la, lb)
    w = bound.bit_length() + 1
    pa = _pack_groups(a, shift, mask, w)
    pb = list(_pack_groups(b, shift, mask, w).items())
    zero = lay.zero
    acc: dict = {}
    get = acc.get
    for ka, va in pa.items():
        ka -= zero
        for kb, vb in pb:
            key = ka + kb
            acc[key] = get(key, 0) + va * vb
    del pa, pb
    unit = 1 << shift
    full = 1 << w
    half, low = full >> 1, full - 1
    out: dict = {}
    get = out.get
    while acc:
        key, v = acc.popitem()
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
            key += unit
    return _check_fields(out, lay)


def _pack_groups(d: dict, shift: int, mask: int, w: int) -> dict:
    """Group key (field at `shift` set to the group's lowest value) -> packed int."""
    keep = ~(mask << shift)
    groups: dict = {}
    for k, c in d.items():
        r = k & keep
        item = ((k >> shift) & mask, c)
        g = groups.get(r)
        if g is None:
            groups[r] = [item]
        else:
            g.append(item)
    out = {}
    for r, items in groups.items():
        lo = min(items)[0]
        out[r | (lo << shift)] = sum(c << (w * (f - lo)) for f, c in items)
    return out


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
    cap = len(work) + 1000
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
            raise _FieldOverflow
        out[mono] = q
        if len(out) > cap:
            return None
        del work[lead]
        get = work.get
        for e, c in rest:
            key = mono + e
            old = get(key)
            if old is None:
                if key & guard:
                    raise _FieldOverflow
                work[key] = -q * c
                heappush(heap, key)
            else:
                v = old - q * c
                if v:
                    work[key] = v
                else:
                    del work[key]
    return out


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


def _as_unit_monomial(f: "RationalFunction"):
    """Exponent vector if f is a single monomial with coefficient 1, else None."""
    num, den = f.num, f.den
    if len(num._d) != 1 or len(den._d) != 1:
        return None
    (kn, cn), = num._d.items()
    (kd, cd), = den._d.items()
    if cn != 1 or cd != 1:
        return None
    return tuple(a - b for a, b in zip(num._lay.unpack(kn), den._lay.unpack(kd)))


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


def _spans(p: LaurentPolynomial) -> list:
    """Each variable's exponent span, max - min over the terms of nonzero p."""
    lay, d = p._lay, p._d
    mask = lay.mask
    out = []
    for s in lay.shifts:
        fields = [(k >> s) & mask for k in d]
        out.append(max(fields) - min(fields))
    return out


class RationalFunction:
    """Quotient of two Laurent polynomials over the same table.

    Normalization divides both parts by the denominator's monomial content
    (so the denominator has none), makes the coefficient of its
    lexicographically largest term positive, and cancels the common
    integer content of the two parts. Nothing stronger is attempted.
    `__eq__` decides a/b == c/d by dividing one numerator by the other:
    if c = a*k exactly, the fractions are equal iff d == b*k. A division
    is tried only when each variable's exponent span of the dividend is at
    least the divisor's. Only when neither numerator divides the other
    does it cross-multiply.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial, _raw=False):
        _check_table(num, den)
        if _raw:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = LaurentPolynomial.one(num.table)
            return
        if num == den:
            self.num = LaurentPolynomial.one(num.table)
            self.den = LaurentPolynomial.one(num.table)
            return
        mden = den.monomial_content()
        if any(mden):
            neg = tuple(-e for e in mden)
            num = num.shift(neg)
            den = den.shift(neg)
        g = gcd(num.int_content(), den.int_content())
        if den.lead_coeff() < 0:
            g = -g
        if g != 1:
            num = num.divide_int(g)
            den = den.divide_int(g)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPolynomial):
        return cls(p, LaurentPolynomial.one(p.table), _raw=True)

    @classmethod
    def zero(cls, table):
        return cls.from_poly(LaurentPolynomial.zero(table))

    @classmethod
    def one(cls, table):
        return cls.from_poly(LaurentPolynomial.one(table))

    @classmethod
    def constant(cls, table, v: int):
        return cls.from_poly(LaurentPolynomial.constant(table, v))

    @classmethod
    def variable(cls, table, name, power=1):
        return cls.from_poly(LaurentPolynomial.variable(table, name, power))

    @classmethod
    def monomial(cls, table, powers, coeff=1):
        return cls.from_poly(LaurentPolynomial.monomial(table, powers, coeff))

    @property
    def table(self):
        return self.num.table

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FactoredFraction):
            other = other.expand()
        if not isinstance(other, RationalFunction):
            return NotImplemented
        _check_table(self, other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a == c and b == d:
            return True
        if not a or not c:
            return not a and not c
        # a/b == c/d iff a*d == c*b. When c = a*k exactly, that holds iff
        # d == b*k (a is nonzero), so one division and a product by the
        # usually small cofactor k decide it; likewise the other way round.
        # Exponent spans add under multiplication, so c = a*k needs
        # span(c) >= span(a) in every variable; a division that cannot
        # succeed is not started, as its descent may run to the term cap.
        sa, sc = _spans(a), _spans(c)
        if len(c) >= len(a) and all(map(ge, sc, sa)):
            k = c.exact_div(a)
            if k is not None:
                return d == b * k
        if len(a) >= len(c) and all(map(ge, sa, sc)):
            k = a.exact_div(c)
            if k is not None:
                return b == d * k
        return a * d == c * b

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        _check_table(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _raw=True)

    def __mul__(self, other):
        _check_table(self, other)
        a_num, a_den = self.num, self.den
        b_num, b_den = other.num, other.den
        # cancel identical cross factors; this is what keeps mutation
        # formulas from accumulating repeated blocks of spent denominators
        if a_num and a_num == b_den:
            a_num = LaurentPolynomial.one(a_num.table)
            b_den = LaurentPolynomial.one(a_num.table)
        if b_num and b_num == a_den:
            b_num = LaurentPolynomial.one(a_num.table)
            a_den = LaurentPolynomial.one(a_num.table)
        return RationalFunction(a_num * b_num, a_den * b_den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = RationalFunction.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        num = self.num.render()
        den = self.den.render()
        if len(self.num) > 1:
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"<ratfn {self.render()}>"


def ratfn_eq(f: RationalFunction, g: RationalFunction) -> bool:
    """Exact equality of fractions: cofactor division, else cross-multiplication."""
    return f == g


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
        out = LaurentPolynomial.one(self.table)
        for p, e in self.factors.values():
            if e < 0:
                raise ValueError("negative exponent in a product expansion")
            out = out * p ** e
        return out

    def expand_parts(self, term_limit=None):
        num = LaurentPolynomial.one(self.table)
        den = LaurentPolynomial.one(self.table)
        for p, e in self.factors.values():
            for _ in range(abs(e)):
                if e > 0:
                    num = num * p
                    if term_limit is not None and len(num) > term_limit:
                        raise TermLimitError(f"expansion exceeds {term_limit} terms")
                else:
                    den = den * p
                    if term_limit is not None and len(den) > term_limit:
                        raise TermLimitError(f"expansion exceeds {term_limit} terms")
        return num, den

    def expand(self, term_limit=None) -> "RationalFunction":
        num, den = self.expand_parts(term_limit)
        return RationalFunction(num, den)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return ff_eq(self, FactoredFraction.from_ratfn(other))
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        if self.factors == other.factors:
            return True
        return ff_eq(self, other)

    __hash__ = None

    def render(self) -> str:
        return self.expand().render()

    def __repr__(self):
        return f"<ff {len(self.factors)} factors>"


def ff_eq(a: FactoredFraction, b: FactoredFraction, term_limit=None) -> bool:
    """Exact equality of factored fractions with factor-level cancellation.

    The quotient's factors are first stripped of integer and monomial
    content so that equal polynomials cancel even when built differently;
    only the remaining residual is multiplied out and cross-compared.
    `term_limit` bounds the residual expansion.
    """
    from fractions import Fraction

    q = a * b.inverse()
    if not q.factors:
        return True
    table = q.table
    width = len(table)
    coeff = Fraction(1)
    mono = [0] * width
    canon: dict = {}
    for p, e in q.factors.values():
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
        if key in canon:
            merged = canon[key][1] + e
            if merged:
                canon[key] = (p, merged)
            else:
                del canon[key]
        else:
            canon[key] = (p, e)
    num = LaurentPolynomial.monomial(
        table,
        {i: v for i, v in enumerate(mono) if v > 0},
        coeff.numerator,
    )
    den = LaurentPolynomial.monomial(
        table,
        {i: -v for i, v in enumerate(mono) if v < 0},
        coeff.denominator,
    )
    for p, e in canon.values():
        for _ in range(abs(e)):
            if e > 0:
                num = num * p
            else:
                den = den * p
            if term_limit is not None and max(len(num), len(den)) > term_limit:
                raise TermLimitError(f"equality residual exceeds {term_limit} terms")
    return num == den


def ff_add(a: FactoredFraction, b: FactoredFraction) -> FactoredFraction:
    """Sum of two factored fractions over the factor-wise common denominator."""
    if a.table is not b.table:
        raise TableMismatchError("values belong to different variable tables")
    da = a.negative_part()
    db = b.negative_part()
    common = dict(da.factors)
    for key, (p, e) in db.factors.items():
        if key in common:
            common[key] = (p, max(common[key][1], e))
        else:
            common[key] = (p, e)
    common_ff = FactoredFraction(a.table, common)
    na = (a * common_ff).expand_product()
    nb = (b * common_ff).expand_product()
    return FactoredFraction.from_poly(na + nb) * common_ff.inverse()


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


def _reduce_one_block(p: LaurentPolynomial, s_idx, e_idx) -> LaurentPolynomial:
    """e-form of a symmetric polynomial in one block's variables alone.

    Cancels the lexicographic leader c*s^b with c times the product of the
    elementary symmetric polynomials e_l(s)^(b_l - b_(l+1)) until nothing
    is left. Only orbit polynomials m_lambda reach it (see `_class_e_form`),
    so every coefficient is an integer.
    """
    table = p.table
    # the lexicographic leader of a symmetric polynomial is the same
    # partition in any variable order, so the block is read in table
    # order: a key compares like the block's exponent tuple
    s_idx = sorted(s_idx)
    elementary = [elementary_symmetric(table, s_idx, d + 1) for d in range(len(s_idx))]
    work = _TermSum(table)
    work.add(p)
    done = _TermSum(table)
    while work.d:
        lead = max(work.d)
        c = work.d[lead]
        bv = [work.lay.exponent(lead, i) for i in s_idx] + [0]
        powers = {}
        expansion = LaurentPolynomial.constant(table, c)
        for deg0, base in enumerate(elementary):
            m = bv[deg0] - bv[deg0 + 1]
            if m:
                powers[e_idx[deg0]] = m
                expansion = expansion * base ** m
        done.add(LaurentPolynomial.monomial(table, powers, c))
        work.sub(expansion)
    return done.poly()


def _class_e_form(table, s_idx, e_idx, lam: tuple, cache: dict) -> LaurentPolynomial:
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
        form = _reduce_one_block(LaurentPolynomial(table, orbit), s_idx, e_idx)
        cache[key] = form
    return form


def _e_form(p: LaurentPolynomial, blocks, cache: dict) -> LaurentPolynomial:
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
                f = _class_e_form(p.table, s_idx, e_idx, lam, cache)
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
    return _e_form(p, blocks, {})


@dataclass(frozen=True)
class SymbolBlock:
    """One splitting block: its s-variables, e-symbol slots and e-targets.

    `targets` has one rational function per degree 1..r; the top degree
    target is the constant 1 by construction of the substitution.
    """

    s_idx: tuple
    e_idx: tuple
    targets: tuple


@dataclass(frozen=True)
class ElementarySymbols:
    """Substitution data for eliminating all splitting variables.

    `cache` holds the class e-forms (`_class_e_form`). They do not depend on
    the targets, so symbol sets on one table with the same blocks may share
    one cache.
    """

    table: VariableTable
    blocks: tuple
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def reduce_blocks(self):
        return [(b.s_idx, b.e_idx) for b in self.blocks]

    def target_assignment(self):
        assign = {}
        for b in self.blocks:
            for e_i, value in zip(b.e_idx, b.targets):
                assign[e_i] = value
        return assign


def _split_s_content(p: LaurentPolynomial, symbols: ElementarySymbols):
    """Factor out the s-monomial content, requiring equal exponents per block.

    Returns the content-free part; the content itself maps to 1 under the
    substitution (each block contributes a power of the full block product).
    """
    content = p.monomial_content()
    shift = [0] * len(p.table)
    for b in symbols.blocks:
        exps = [content[i] for i in b.s_idx]
        if len(set(exps)) > 1:
            raise PsiDomainError("not in domain of psi_hat")
        if exps and exps[0]:
            for i in b.s_idx:
                shift[i] = -exps[0]
    if any(shift):
        p = p.shift(shift)
    return p


def symmetric_e_form(p: LaurentPolynomial, symbols: ElementarySymbols) -> LaurentPolynomial:
    """Content-cleared rewriting of p in the elementary symbols."""
    p = _split_s_content(p, symbols)
    try:
        return _e_form(p, symbols.reduce_blocks(), symbols.cache)
    except NotBlockSymmetricError:
        raise PsiDomainError("not in domain of psi_hat") from None


def _part_image(p: LaurentPolynomial, symbols: ElementarySymbols,
                require_nonneg: bool) -> RationalFunction:
    """Image of one fraction part: its e-form, certified if asked, at the targets."""
    form = symmetric_e_form(p, symbols)
    if require_nonneg and any(c < 0 for c in form.coefficients()):
        raise PsiConeError("not in domain of psi_hat")
    return form.evaluate(symbols.target_assignment())


def psi_hat_factored(ff: "FactoredFraction", symbols: ElementarySymbols,
                     require_nonneg: bool = False) -> "FactoredFraction":
    """Eliminate splitting variables from a factored fraction, orbit by orbit.

    The map is multiplicative, so it suffices to apply it to the product of
    each orbit of factors under the block transpositions; pattern-generated
    fractions always carry complete orbits with a uniform exponent. With
    `require_nonneg` every orbit's e-form is certified, whatever its size;
    the cone is closed under products, so that certifies the fraction. An
    orbit that is not complete, or whose e-form leaves the cone, sends the
    whole fraction down the expanded route `psi_hat(ff.expand(), ...)`,
    which certifies its numerator and denominator or raises PsiConeError.
    The result stays factored, one factor per orbit image.
    """
    table = ff.table
    swaps = []
    for b in symbols.blocks:
        for a in range(len(b.s_idx) - 1):
            swaps.append((b.s_idx[a], b.s_idx[a + 1]))

    def orbit_of(poly):
        seen = {FactoredFraction._key(poly): poly}
        frontier = [poly]
        while frontier:
            cur = frontier.pop()
            for i, j in swaps:
                img = swap_variables(cur, i, j)
                k = FactoredFraction._key(img)
                if k not in seen:
                    seen[k] = img
                    frontier.append(img)
        return seen

    remaining = dict(ff.factors)
    out = FactoredFraction.one(table)
    while remaining:
        key = next(iter(remaining))
        poly, exp = remaining[key]
        orbit = orbit_of(poly)
        if any(
            k not in remaining or remaining[k][1] != exp for k in orbit
        ):
            break
        product = LaurentPolynomial.one(table)
        for k in orbit:
            product = product * remaining.pop(k)[0]
        try:
            value = _part_image(product, symbols, require_nonneg)
        except PsiConeError:
            # an orbit can leave the cone while the whole fraction is in it
            break
        if value.is_zero():
            raise PsiKernelError(
                "denominator in kernel of psi_hat"
                if exp < 0
                else "factor image vanishes under psi_hat"
            )
        out = out * FactoredFraction.from_ratfn(value) ** exp
    else:
        return out
    return FactoredFraction.from_ratfn(psi_hat(ff.expand(), symbols, require_nonneg))


def psi_hat(f: RationalFunction, symbols: ElementarySymbols,
            require_nonneg: bool = False) -> RationalFunction:
    """Eliminate splitting variables through the elementary-symbol targets.

    Both parts of the fraction are cleared of s-monomial content, rewritten
    in the elementary symbols class by class, and evaluated at the block
    targets (top symbol to 1). `require_nonneg` additionally insists that
    both rewritten parts have nonnegative integer coefficients, the domain
    condition of the semifield-level map; it is checked at every size and
    raises PsiConeError when it fails.
    """
    num = _part_image(f.num, symbols, require_nonneg)
    den = _part_image(f.den, symbols, require_nonneg)
    if den.is_zero():
        raise PsiKernelError("denominator in kernel of psi_hat")
    return num / den


def cross_evaluate(poly: LaurentPolynomial, assign: dict,
                   target: VariableTable) -> "RationalFunction":
    """Evaluate a polynomial into another table.

    `assign` maps source variable indices to RationalFunction values on the
    target table; every variable supported by the polynomial must be
    assigned. Uses a plain exponent remap when all values are unit
    monomials.
    """
    unit = {}
    for idx, value in assign.items():
        mono = _as_unit_monomial(value)
        if mono is None:
            unit = None
            break
        unit[idx] = mono
    if unit is not None:
        moves = [(i, unit[i]) for i in sorted(poly.support_vars())]
        target.make_room([t for _, mono in moves for t in mono])
        while True:
            src = _sync(poly)
            dst = target.layout
            out = _remap_terms(poly._d, src, dst, moves, keep=False)
            if out is not None:
                return RationalFunction.from_poly(_poly(target, dst, out))
            target.widen()
    total = RationalFunction.zero(target)
    for powers, c in poly.sparse_terms():
        value = RationalFunction.constant(target, c)
        for i, e in powers:
            value = value * assign[i] ** e
        total = total + value
    return total
