"""Exact phase-space algebra.

Phase-space functions are Laurent polynomials in named generators with exact
rational coefficients (``int`` when integral, ``fractions.Fraction`` when
not; see ``kernel``): coordinates enter only through their exponentials
``u_j = e^{x_j}`` (the one generator kind allowed negative exponents), so
every identity we care about is decided by exact normalization.  A Poisson
bracket is declared on generator pairs and extended to arbitrary elements as
a biderivation; boundary parameters are central generators, so a verified
identity holds for every parameter value at once.

A small fraction field (``Fraction``) sits on top for ratio Hamiltonians.
Denominators are kept factored and reduced only by scalar content, never by
multivariate gcd; equality is decided by cross-multiplication.

Each operation has one implementation: ``RingElement._coerce`` is the one
coercion rule (``as_fraction`` uses it too), ``RingElement.__pow__`` the one
power (cached by ``PhaseRing._pow_terms``, used by ``Fraction.__pow__``),
``_push_den`` the one denominator normaliser (for ``reciprocal``,
``reflect`` and negative powers too), ``Fraction._init`` the one
constructor, ``dot`` the one sum of products (``substitute`` too; it shares
``_lcd``, the common-denominator step, with ``Fraction.__add__`` and
``__sub__``), ``Fraction.partials`` the one derivative and
``bracket_fraction`` the one bracket, which ``bracket`` runs through.  No
element or Fraction changes once built: each keeps its ``key()`` or its
partials.  Every Fraction is canonical, so negation keeps its factors.  The
model declares the bracket table (``toda_models.toda_structure``).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass

from .backend import QQ
from .backend import kernel as K
from .kernel import Packing, StructureError, canon, quo


class Kind(enum.Enum):
    COORD_EXP = "coord_exp"  # u_j = e^{x_j}; Laurent (negative powers allowed)
    MOMENTUM = "momentum"
    SL2_E = "sl2_e"
    SL2_F = "sl2_f"
    SL2_H = "sl2_h"
    PARAMETER = "parameter"
    SPECTRAL = "spectral"


FIELD_KINDS = frozenset(
    {Kind.COORD_EXP, Kind.MOMENTUM, Kind.SL2_E, Kind.SL2_F, Kind.SL2_H}
)

#: spectral slots appended to every ring (lam, mu for two-variable relations,
#: nu only for the Yang-Baxter check)
SPECTRAL_NAMES = ("lam", "mu", "nu")


@dataclass(frozen=True)
class Generator:
    name: str
    kind: Kind


def _qq(c):
    """Coerce to a canonical exact rational (``kernel.canon``); floats are
    rejected."""
    if isinstance(c, float):
        raise StructureError("floating point coefficient in exact ring: %r" % c)
    if isinstance(c, (int, QQ)):
        return canon(c)
    try:
        return canon(QQ(c))
    except TypeError:
        return canon(QQ(c.numerator, c.denominator))


class PhaseRing:
    """Ordered generator registry; all elements carry a reference to it, and
    only elements of the same ring object mix."""

    def __init__(self, generators):
        gens = list(generators)
        names = [g.name for g in gens]
        for s in SPECTRAL_NAMES:
            if s not in names:
                gens.append(Generator(s, Kind.SPECTRAL))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise StructureError("duplicate generator names: %r" % names)
        self.generators = tuple(gens)
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(names)}
        self.nvars = len(gens)
        #: per slot: may its exponent go negative (u_j = e^{x_j})
        self.laurent = tuple(g.kind is Kind.COORD_EXP for g in gens)
        #: exponent packing of this ring's term keys
        self.pk = Packing(self.laurent)
        #: key of the constant monomial
        self.zero_exp = self.pk.one
        self._nonparameter_slots = tuple(
            i
            for i, g in enumerate(gens)
            if g.kind in FIELD_KINDS or g.kind is Kind.SPECTRAL
        )
        #: field generator slots in ring order; simulate state i drives slot i
        self.field_slots = tuple(i for i, g in enumerate(gens) if g.kind in FIELD_KINDS)
        self._pow_cache: dict = {}
        self.zero = RingElement(self, {})
        self.one = RingElement(self, {self.zero_exp: 1})

    def __repr__(self):
        return "PhaseRing(%s)" % ", ".join(self.names)

    def slot(self, name: str) -> int:
        i = self.index.get(name)
        if i is None:
            raise StructureError("unknown generator %r" % name)
        return i

    def gen(self, name: str) -> "RingElement":
        i = self.slot(name)
        return RingElement(self, {self.zero_exp + (1 << self.pk.shifts[i]): 1})

    def kind_of(self, name: str) -> Kind:
        return self.generators[self.slot(name)].kind

    def gens_of_kind(self, kind: Kind):
        return tuple(g.name for g in self.generators if g.kind is kind)

    def const(self, c) -> "RingElement":
        c = _qq(c)
        return RingElement(self, {self.zero_exp: c} if c else {})

    def monomial(self, powers: dict, coeff=1) -> "RingElement":
        """Monomial from {generator name: exponent}; only u may be negative."""
        exp = [0] * self.nvars
        for name, e in powers.items():
            i = self.slot(name)
            if e < 0 and not self.laurent[i]:
                raise StructureError(
                    "negative exponent on non-Laurent generator %r" % name
                )
            exp[i] = e
        c = _qq(coeff)
        return RingElement(self, {self.pk.pack(exp): c} if c else {})

    def element(self, terms: dict) -> "RingElement":
        """Element from {exponent tuple: coefficient}."""
        out = {}
        for exps, c in terms.items():
            c = _qq(c)
            if c:
                out[self.pk.pack(exps)] = c
        return RingElement(self, out)

    def _pow_terms(self, el: "RingElement", p: int) -> dict:
        """The terms of el ** p, kept per (element, power).  Almost every
        lookup is at p = 1, but a hit still skips the dict copy and the
        ``finish`` of ``el ** 1``: without the cache, verify at N=3 and 5 ran
        2-14 % slower and dn N=2 simulate 10 % slower (2 vCPU)."""
        key = (el.key(), p)
        out = self._pow_cache.get(key)
        if out is None:
            out = self._pow_cache[key] = (el ** p).terms
        return out


class RingElement:
    """Exact Laurent polynomial over a :class:`PhaseRing`.

    ``terms`` maps packed exponent keys (``ring.pk``) to canonical
    coefficients, and is never changed; ``monomials()`` yields the exponent
    tuples.
    """

    __slots__ = ("ring", "terms", "_key")

    def __init__(self, ring: PhaseRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.ring.zero_exp in self.terms
        )

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant:
            raise StructureError("not a constant: %s" % self)
        return self.terms[self.ring.zero_exp]

    def is_parameter_constant(self) -> bool:
        """True when no field or spectral generator appears."""
        exponent = self.ring.pk.exponent
        slots = self.ring._nonparameter_slots
        return all(all(exponent(e, i) == 0 for i in slots) for e in self.terms)

    def involves(self, name: str) -> bool:
        i = self.ring.slot(name)
        exponent = self.ring.pk.exponent
        return any(exponent(e, i) for e in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise StructureError("elements from incompatible rings")
            return other
        if isinstance(other, Fraction):
            return None
        if isinstance(other, float):
            raise StructureError("floating point in exact ring")
        try:
            return self.ring.const(other)
        except (TypeError, AttributeError):
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, K.add(self.terms, o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, K.sub(self.terms, o.terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, K.sub(o.terms, self.terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, K.mul(self.terms, o.terms, self.ring.pk))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, K.neg(self.terms))

    def __pow__(self, p: int):
        if not isinstance(p, int):
            return NotImplemented
        pk = self.ring.pk
        if p < 0:
            if len(self.terms) != 1:
                raise StructureError("negative power of a non-monomial")
            factors: dict = {}
            terms = _push_den(self.ring, self.ring.one.terms, factors, self, -p)
            if factors:
                raise StructureError("negative power touches non-Laurent generator")
            return RingElement(self.ring, terms)
        out = {self.ring.zero_exp: 1}
        base = self.terms
        k = p
        while k:
            if k & 1:
                out = K.mul(out, base, pk)
            k >>= 1
            if k:
                base = K.mul(base, base, pk)
        return RingElement(self.ring, out)

    def __eq__(self, other):
        if isinstance(other, Fraction):
            return other.__eq__(self)
        try:
            o = self._coerce(other)
        except StructureError:  # a float, or an element of another ring
            return NotImplemented
        return NotImplemented if o is None else self.terms == o.terms

    __hash__ = None  # a dict of terms; use .key() when hashing is needed

    # -- calculus & structure -------------------------------------------

    def coeff_of(self, name: str, power: int) -> "RingElement":
        """Coefficient of name**power (the slot is zeroed in the result)."""
        i = self.ring.slot(name)
        exponent = self.ring.pk.exponent
        drop = power << self.ring.pk.shifts[i]
        out = {}
        for e, c in self.terms.items():
            if exponent(e, i) == power:
                out[e - drop] = c
        return RingElement(self.ring, out)

    def degree_in(self, name: str) -> int:
        i = self.ring.slot(name)
        exponent = self.ring.pk.exponent
        return max((exponent(e, i) for e in self.terms), default=0)

    def key(self):
        """Hashable canonical form (sorted term tuple); worked out on first
        use and kept."""
        try:
            return self._key
        except AttributeError:
            self._key = tuple(sorted(self.terms.items()))
            return self._key

    def monomials(self):
        """(exponent tuple, coefficient) for every term."""
        unpack = self.ring.pk.unpack
        for e, c in self.terms.items():
            yield unpack(e), c

    def substitute(self, mapping: dict) -> "Fraction":
        """Substitute generators by elements/fractions/rationals: one ``dot``
        of (term, power product) pairs, one pair per monomial.

        Negative powers of a substituted generator require the value to be
        invertible (handled at the Fraction level).
        """
        ring = self.ring
        exponent, shifts = ring.pk.exponent, ring.pk.shifts
        sub = {ring.slot(name): as_fraction(ring, val) for name, val in mapping.items()}
        one = Fraction(ring.one)
        pairs = []
        for key, c in self.terms.items():
            rest, fac = key, one
            for i, val in sub.items():
                e = exponent(key, i)
                if e:
                    rest -= e << shifts[i]
                    fac = val ** e if fac is one else fac * val ** e
            pairs.append((Fraction(RingElement(ring, {rest: c})), fac))
        return dot(pairs) if pairs else Fraction(self)

    # -- formatting ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        unpack = self.ring.pk.unpack
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            exps = unpack(key)
            mono = "*".join(
                names[i] if e == 1 else "%s^%d" % (names[i], e)
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return "<RingElement %s>" % self


def _factor_add(factors: dict, el: RingElement, power: int):
    key = el.key()
    if key in factors:
        old_el, old_p = factors[key]
        factors[key] = (old_el, old_p + power)
    else:
        factors[key] = (el, power)


def _push_den(ring: PhaseRing, num_terms: dict, factors: dict, el: RingElement, power: int) -> dict:
    """Fold el**power into the denominator; returns the adjusted numerator.

    Monomial factors reduce to per-variable atoms (Laurent variables fold
    straight into the numerator); other factors are made monic with respect
    to the term order, the scalar going into the numerator.
    """
    t = el.terms
    if not t:
        raise StructureError("zero denominator")
    pk = ring.pk
    if len(t) == 1:
        (key, c), = t.items()
        fold = [0] * ring.nvars
        for i, e in enumerate(pk.unpack(key)):
            if e:
                if ring.laurent[i]:
                    fold[i] = -e * power
                else:
                    _factor_add(factors, ring.gen(ring.names[i]), e * power)
        return K.mul_term(num_terms, pk.displacement(fold), quo(1, c ** power), pk)
    lc = t[max(t)]
    if lc != 1:
        inv = quo(1, lc)
        el = el * inv
        num_terms = K.scale(num_terms, canon(inv ** power))
    _factor_add(factors, el, power)
    return num_terms


def _cancel(ring: PhaseRing, num_terms: dict, factors: dict) -> tuple:
    """(numerator, factors) with single-variable atom factors cancelled."""
    if not num_terms or not factors:
        return num_terms, ()
    pk = ring.pk
    out = []
    for key, (el, p) in factors.items():
        if p == 0:
            continue
        if len(el.terms) == 1:
            (ekey, c), = el.terms.items()
            exp = pk.unpack(ekey)
            live = [i for i, e in enumerate(exp) if e]
            if c == 1 and len(live) == 1 and exp[live[0]] == 1:
                i = live[0]
                take = min(p, max(min(pk.exponent(e, i) for e in num_terms), 0))
                if take > 0:
                    shift = [0] * ring.nvars
                    shift[i] = -take
                    num_terms = K.mul_term(num_terms, pk.displacement(shift), 1, pk)
                    p -= take
                if p == 0:
                    continue
        out.append((key, el, p))
    out.sort(key=lambda kep: kep[0])
    return num_terms, tuple((el, p) for _, el, p in out)


class Fraction:
    """Quotient of ring elements with a factored, content-reduced denominator."""

    __slots__ = ("ring", "num", "_factors", "_den", "_partials")

    def __init__(self, num: RingElement, den: RingElement | None = None):
        if isinstance(num, Fraction):
            raise TypeError("already a Fraction; use as_fraction()")
        ring = num.ring
        factors: dict = {}
        terms = num.terms
        if den is not None and den.terms != ring.one.terms:
            if den.ring is not ring:
                raise StructureError("num/den from incompatible rings")
            terms = _push_den(ring, terms, factors, den, 1)
        self._init(ring, terms, factors)

    def _init(self, ring: PhaseRing, num_terms: dict, factors: dict):
        """Set the fields; factors are cancelled before num_terms is wrapped."""
        num_terms, self._factors = _cancel(ring, num_terms, factors)
        self.ring = ring
        self.num = RingElement(ring, num_terms)
        self._den = None

    @classmethod
    def _make(cls, ring: PhaseRing, num_terms: dict, factors: dict) -> "Fraction":
        self = object.__new__(cls)
        self._init(ring, num_terms, factors)
        return self

    # -- structure -------------------------------------------------------

    @property
    def den(self) -> RingElement:
        d = self._den
        if d is None:
            terms = {self.ring.zero_exp: 1}
            for el, p in self._factors:
                terms = K.mul(terms, self.ring._pow_terms(el, p), self.ring.pk)
            d = RingElement(self.ring, terms)
            self._den = d
        return d

    @property
    def den_factors(self):
        return self._factors

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def partials(self) -> dict:
        """{slot: den**2 * d(self)/d(slot)} over the ring's field slots,
        nonzero ones only: ``den*dnum - num*dden`` by the quotient rule, or
        ``dnum`` without denominator factors; worked out once and kept."""
        if hasattr(self, "_partials"):
            return self._partials
        pk, p, out = self.ring.pk, self.num.terms, {}
        q = self.den.terms if self._factors else None
        for i in self.ring.field_slots:
            d = K.diff(p, i, pk)
            if q is not None:
                if d:
                    d = K.mul(q, d, pk)
                dq = K.diff(q, i, pk)
                if dq:
                    d = K.sub(d, K.mul(p, dq, pk))
            if d:
                out[i] = d
        self._partials = out
        return out

    def is_parameter_constant(self) -> bool:
        return self.num.is_parameter_constant() and all(
            el.is_parameter_constant() for el, _ in self._factors
        )

    def _factor_dict(self) -> dict:
        return {el.key(): (el, p) for el, p in self._factors}

    # -- arithmetic ------------------------------------------------------

    def _combine(self, o: "Fraction", op) -> "Fraction":
        """``op`` (``K.add`` or ``K.sub``) of the numerators over the common
        denominator."""
        if self._factors == o._factors:
            terms = op(self.num.terms, o.num.terms)
            return Fraction._make(self.ring, terms, self._factor_dict())
        union, a, b = _lcd(
            self.ring, self._factor_dict(), self.num.terms, o._factor_dict(), o.num.terms
        )
        return Fraction._make(self.ring, op(a, b), union)

    def __add__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return self._combine(o, K.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return self._combine(o, K.sub)

    def __rsub__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return o._combine(self, K.sub)

    def __mul__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        factors = self._factor_dict()
        for el, p in o._factors:
            _factor_add(factors, el, p)
        return Fraction._make(
            self.ring, K.mul(self.num.terms, o.num.terms, self.ring.pk), factors
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.reciprocal())

    def __rtruediv__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.reciprocal())

    def __neg__(self):
        out = object.__new__(Fraction)
        out.ring, out._factors, out._den = self.ring, self._factors, self._den
        out.num = RingElement(self.ring, K.neg(self.num.terms))
        return out

    def reciprocal(self) -> "Fraction":
        if self.is_zero:
            raise StructureError("zero denominator (reciprocal of zero)")
        factors: dict = {}
        terms = _push_den(self.ring, self.den.terms, factors, self.num, 1)
        return Fraction._make(self.ring, terms, factors)

    def __pow__(self, p: int):
        if not isinstance(p, int):
            return NotImplemented
        if p < 0:
            return self.reciprocal() ** (-p)
        factors = {key: (el, q * p) for key, (el, q) in self._factor_dict().items()}
        return Fraction._make(self.ring, (self.num ** p).terms, factors)

    def reflect(self, name: str) -> "Fraction":
        """name -> -name, factored as a fresh build would be: odd-degree terms
        change sign, and ``_push_den`` normalises each reflected factor."""
        ring, i = self.ring, self.ring.slot(name)

        def odd(terms):
            return {e: -c if ring.pk.exponent(e, i) & 1 else c for e, c in terms.items()}

        num, factors = odd(self.num.terms), {}
        for el, p in self._factors:
            num = _push_den(ring, num, factors, RingElement(ring, odd(el.terms)), p)
        return Fraction._make(ring, num, factors)

    def __eq__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        if self._factors == o._factors:
            return self.num.terms == o.num.terms
        pk = self.ring.pk
        left = K.mul(self.num.terms, o.den.terms, pk)
        right = K.mul(o.num.terms, self.den.terms, pk)
        return left == right

    __hash__ = None

    # -- misc -------------------------------------------------------------

    def substitute(self, mapping: dict) -> "Fraction":
        out = self.num.substitute(mapping)
        for el, p in self._factors:
            out = out / (el.substitute(mapping) ** p)
        return out

    def __str__(self):
        if not self._factors:
            return str(self.num)
        dens = "*".join(
            "(%s)" % el if p == 1 else "(%s)^%d" % (el, p)
            for el, p in self._factors
        )
        return "(%s)/(%s)" % (self.num, dens)

    def __repr__(self):
        return "<Fraction %s>" % self


def _lcd(ring: PhaseRing, fa: dict, a: dict, fb: dict, b: dict) -> tuple:
    """(union, a', b'): the factor dicts fa and fb joined at the larger power
    of each factor, and the numerators a and b multiplied by the powers
    their own factors lack."""
    union = dict(fa)
    for key, (el, p) in fb.items():
        if p > union.get(key, (None, 0))[1]:
            union[key] = (el, p)
    pk = ring.pk
    for key, (el, p) in union.items():
        pa = p - fa.get(key, (None, 0))[1]
        pb = p - fb.get(key, (None, 0))[1]
        if pa:
            a = K.mul(a, ring._pow_terms(el, pa), pk)
        if pb:
            b = K.mul(b, ring._pow_terms(el, pb), pk)
    return union, a, b


def dot(pairs) -> Fraction:
    """x1*y1 + x2*y2 + ... for (x, y) pairs of Fractions of one ring.

    The result is the left-to-right sum of the products, representation
    and all, built without them: each product's numerator goes into one
    accumulator (``K.mul_acc``) over the running common denominator, which
    grows only when a product brings factors it lacks and restarts when the
    partial sum vanishes, as a vanishing ``+`` drops its factors.  Non-atom
    factors never cancel, so each ends at the same power either way, and
    ``_cancel`` then fixes the atom powers canonically.

    The accumulator is finished (``K.finish``) once at the end, and before
    a product with other factors rescales it; only there can a vanished
    partial sum change the result, so only there is the restart decided.
    """
    ring = None
    acc: dict = {}
    union: dict = {}
    for x, y in pairs:
        ring = x.ring
        if x.is_zero or y.is_zero:
            continue
        factors = x._factor_dict()
        for el, p in y._factors:
            _factor_add(factors, el, p)
        a = x.num.terms
        if factors != union:
            if acc and K.finish(acc, ring.pk):
                union, acc, a = _lcd(ring, union, acc, factors, a)
            else:
                union = factors
        K.mul_acc(acc, a, y.num.terms, ring.pk)
    if ring is None:
        raise StructureError("dot of no pairs")
    return Fraction._make(ring, K.finish(acc, ring.pk), union)


def as_fraction(ring: PhaseRing, value) -> Fraction | None:
    """Coerce to a Fraction over ring; None when the value is foreign."""
    if isinstance(value, Fraction):
        if value.ring is not ring:
            raise StructureError("fraction from incompatible ring")
        return value
    el = ring.zero._coerce(value)
    return None if el is None else Fraction(el)


class PoissonStructure:
    """Bracket table on the field generators, extended as a biderivation."""

    def __init__(self, ring: PhaseRing):
        self.ring = ring
        self._table: dict = {}

    def set_bracket(self, a: str, b: str, value: RingElement):
        ring = self.ring
        i, j = ring.slot(a), ring.slot(b)
        if i == j:
            raise StructureError("bracket of a generator with itself is zero")
        for name in (a, b):
            if ring.kind_of(name) not in FIELD_KINDS:
                raise StructureError("%r is central: it has no bracket" % name)
        if value.ring is not ring:
            raise StructureError("table entry from incompatible ring")
        if i < j:
            self._table[(i, j)] = value
        else:
            self._table[(j, i)] = -value

    def gen_bracket(self, a: str, b: str) -> RingElement:
        ring = self.ring
        i, j = ring.slot(a), ring.slot(b)
        if i < j:
            return self._table.get((i, j), ring.zero)
        if j < i:
            el = self._table.get((j, i))
            return -el if el is not None else ring.zero
        return ring.zero

    # -- brackets ----------------------------------------------------------

    def bracket(self, f: RingElement, g: RingElement) -> RingElement:
        """Exact Poisson bracket of two ring elements."""
        return self.bracket_fraction(f, g).num

    def bracket_fraction(self, f, g) -> Fraction:
        """Exact Poisson bracket on the fraction field: the table summed
        over the partials each operand keeps, so {p/q, s/t} is over (q t)^2."""
        ring = self.ring
        F, G = as_fraction(ring, f), as_fraction(ring, g)
        if F is None or G is None:
            raise StructureError("bracket_fraction on non-algebraic input")
        df, dg = F.partials(), G.partials()
        pk = ring.pk
        out: dict = {}
        for (i, j), el in self._table.items():
            dfi, dgj, dfj, dgi = df.get(i), dg.get(j), df.get(j), dg.get(i)
            s = K.mul(dfi, dgj, pk) if dfi and dgj else {}
            if dfj and dgi:
                s = K.sub(s, K.mul(dfj, dgi, pk))
            if s:
                K.mul_acc(out, s, el.terms, pk)
        factors: dict = {}
        for el, pw in F._factors + G._factors:
            _factor_add(factors, el, 2 * pw)
        return Fraction._make(ring, K.finish(out, pk), factors)

    # -- structure checks ---------------------------------------------------

    def jacobi_residual(self, f, g, h) -> RingElement:
        return (
            self.bracket(f, self.bracket(g, h))
            + self.bracket(g, self.bracket(h, f))
            + self.bracket(h, self.bracket(f, g))
        )

    def check_generator_jacobi(self):
        """Jacobi residuals on all generator triples; all must vanish."""
        bad = []
        gens = [
            self.ring.gen(g.name)
            for g in self.ring.generators
            if g.kind is not Kind.SPECTRAL
        ]
        for a, b, c in itertools.combinations(gens, 3):
            r = self.jacobi_residual(a, b, c)
            if not r.is_zero:
                bad.append((str(a), str(b), str(c), str(r)))
        return bad


def _degree_box(terms: dict, pk: Packing):
    """Per-slot (minimum, maximum) exponents of a nonzero term dict."""
    slots = list(zip(*map(pk.unpack, terms)))
    return [min(col) for col in slots], [max(col) for col in slots]


def exact_divide(num: RingElement, den: RingElement) -> RingElement | None:
    """Exact polynomial quotient num/den, or None when den does not divide.

    Laurent slots may go negative in the quotient; all other slots must stay
    non-negative.  Degrees add in an integral domain, so if den divides num
    every quotient exponent in slot i lies in the box
    ``[min_i(num) - min_i(den), max_i(num) - max_i(den)]``.  Each division
    step emits a quotient exponent strictly below the previous one in the
    term order, so the steps end within the box's size; a step outside the
    box proves that den does not divide.
    """
    ring = num.ring
    if den.is_zero:
        raise StructureError("division by zero element")
    if num.is_zero:
        return ring.zero
    pk = ring.pk
    nlo, nhi = _degree_box(num.terms, pk)
    dlo, dhi = _degree_box(den.terms, pk)
    box = [(a - b, c - d) for a, b, c, d in zip(nlo, dlo, nhi, dhi)]
    if any(lo < 0 and not lau for (lo, _), lau in zip(box, ring.laurent)):
        return None
    ed = max(den.terms)
    cd = den.terms[ed]
    d_exp = pk.unpack(ed)
    q: dict = {}
    r = dict(num.terms)
    # max-heap of remainder keys (negated), with lazy deletion: a key whose
    # term has cancelled stays in the heap and is skipped when it surfaces
    heap = [-e for e in r]
    heapq.heapify(heap)
    while r:
        er = -heapq.heappop(heap)
        if er not in r:
            continue
        qexp = [a - b for a, b in zip(pk.unpack(er), d_exp)]
        if not all(lo <= e <= hi for e, (lo, hi) in zip(qexp, box)):
            return None
        qc = quo(r[er], cd)
        qe = pk.pack(qexp)
        q[qe] = qc
        for e, c in K.mul_term(den.terms, qe - pk.one, qc, pk).items():
            c0 = r.get(e)
            if c0 is None:
                r[e] = -c
                heapq.heappush(heap, -e)
            else:
                c0 = c0 - c
                if c0:
                    r[e] = canon(c0)
                else:
                    del r[e]
    return RingElement(ring, q)


def casimir(ps: PoissonStructure) -> RingElement:
    """The sl(2) Casimir H^2 + E*F of the structure's ring."""
    ring = ps.ring
    e = ring.gens_of_kind(Kind.SL2_E)
    f = ring.gens_of_kind(Kind.SL2_F)
    h = ring.gens_of_kind(Kind.SL2_H)
    if not (e and f and h):
        raise StructureError("ring has no sl(2) generators")
    E, F, H = ring.gen(e[0]), ring.gen(f[0]), ring.gen(h[0])
    return H * H + E * F
