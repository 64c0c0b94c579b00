"""Exact phase-space algebra.

Phase-space functions are Laurent polynomials in named generators with exact
rational coefficients, held as ``int`` terms over one ``int`` denominator
(``RingElement.den``; see ``kernel``): coordinates enter only through their
exponentials ``u_j = e^{x_j}`` (the one generator kind allowed negative
exponents), so every identity we care about is decided by exact
normalization.  A Poisson bracket is declared on generator pairs and
extended to arbitrary elements as a biderivation; boundary parameters are
central generators, so a verified identity holds for every parameter value
at once.

A small fraction field (``Fraction``) sits on top for ratio Hamiltonians.
Denominators are kept factored and reduced only by scalar content, never by
multivariate gcd; equality is decided by cross-multiplication.

Each operation has one implementation: ``RingElement._coerce`` is the one
coercion rule (``as_fraction`` uses it too), ``RingElement.__pow__`` the one
power (used by ``Fraction.__pow__``), ``_push_den`` the one denominator
normaliser (for ``reciprocal``, ``reflect`` and negative powers too),
``Fraction._init`` the one constructor, ``dot`` the one sum of products
(``substitute`` too; it shares ``_lcd``, the one common denominator, with
``Fraction.__add__`` and ``__sub__``), ``Fraction.partials`` the one
derivative, ``bracket_fraction`` the one bracket, which ``bracket`` runs
through, and ``RingElement.by_degree`` the one reader of a generator's
coefficients; ``_reduced`` is the one place an element is made canonical.
No element or Fraction changes once built: each keeps its ``key()`` or its
partials.  Every Fraction is canonical, so negation keeps its factors.  The
model declares the bracket table (``toda_models.toda_structure``).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .backend import QQ
from .backend import kernel as K
from .kernel import Packing, StructureError


class Kind(enum.Enum):
    COORD_EXP = "coord_exp"  # u_j = e^{x_j}; Laurent (negative powers allowed)
    FIELD = "field"  # any other phase-space coordinate
    PARAMETER = "parameter"
    SPECTRAL = "spectral"


FIELD_KINDS = frozenset({Kind.COORD_EXP, Kind.FIELD})

#: spectral slots appended to every ring (lam, mu for two-variable relations,
#: nu only for the Yang-Baxter check)
SPECTRAL_NAMES = ("lam", "mu", "nu")


@dataclass(frozen=True)
class Generator:
    name: str
    kind: Kind


def _qq(c) -> tuple:
    """(numerator, positive denominator) of an exact rational in lowest
    terms; floats are rejected."""
    if type(c) is int:
        return c, 1
    if isinstance(c, float):
        raise StructureError("floating point coefficient in exact ring: %r" % c)
    if not isinstance(c, (int, QQ)):
        try:
            c = QQ(c)
        except TypeError:
            c = QQ(c.numerator, c.denominator)
    return int(c.numerator), int(c.denominator)  # numpy ints stay numpy in a QQ


def _rational(c: int, den: int):
    """c/den as a canonical rational: an ``int`` when integral."""
    q = QQ(c, den)
    return q.numerator if q.denominator == 1 else q


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
        self._nonparameter_slots = tuple(i for i, g in enumerate(gens) if g.kind is not Kind.PARAMETER)
        #: field generator slots in ring order; simulate state i drives slot i
        self.field_slots = tuple(i for i, g in enumerate(gens) if g.kind in FIELD_KINDS)
        self.zero = RingElement(self, {})
        self.one = RingElement(self, {self.pk.one: 1})

    def __repr__(self):
        return "PhaseRing(%s)" % ", ".join(self.names)

    def slot(self, name: str) -> int:
        i = self.index.get(name)
        if i is None:
            raise StructureError("unknown generator %r" % name)
        return i

    def gen(self, name: str) -> "RingElement":
        i = self.slot(name)
        return RingElement(self, {self.pk.one + (1 << self.pk.shifts[i]): 1})

    def kind_of(self, name: str) -> Kind:
        return self.generators[self.slot(name)].kind

    def gens_of_kind(self, kind: Kind):
        return tuple(g.name for g in self.generators if g.kind is kind)

    def const(self, c) -> "RingElement":
        c, d = _qq(c)
        return RingElement(self, {self.pk.one: c} if c else {}, d)

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
        c, d = _qq(coeff)
        return RingElement(self, {self.pk.pack(exp): c} if c else {}, d)

    def element(self, terms: dict) -> "RingElement":
        """Element from {exponent tuple: coefficient}, over the lcm of the
        coefficients' denominators: canonical, since each prime power of the
        lcm divides one denominator, and so not the numerator it scales."""
        ratios = [(exps, *_qq(c)) for exps, c in terms.items()]
        den = lcm(*(d for _, c, d in ratios if c))
        return RingElement(self, {self.pk.pack(exps): c * (den // d)
                                  for exps, c, d in ratios if c}, den)


class RingElement:
    """Exact Laurent polynomial over a :class:`PhaseRing`: ``terms / den``.

    ``terms`` maps packed exponent keys (``ring.pk``) to nonzero ``int``
    coefficients and is never changed; ``den`` is a positive ``int``, 1 when
    the element is integral.  An element is canonical: ``den`` is coprime
    to the gcd of the coefficients, so the zero has den 1.  ``monomials()``
    yields the exponent tuples with the rational coefficients.
    """

    __slots__ = ("ring", "terms", "den", "_key")

    def __init__(self, ring: PhaseRing, terms: dict, den: int = 1):
        self.ring = ring
        self.terms = terms
        self.den = den

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.ring.pk.one in self.terms
        )

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant:
            raise StructureError("not a constant: %s" % self)
        return _rational(self.terms[self.ring.pk.one], self.den)

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
        return _combine(self, o, K.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, K.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(o, self, K.sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.terms and o.terms):
            return self.ring.zero
        return _reduced(self.ring, K.mul(self.terms, o.terms, self.ring.pk),
                        self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, K.neg(self.terms), self.den)

    def __pow__(self, p: int):
        """self ** p; self itself at p = 1, as no element changes once built."""
        if not isinstance(p, int):
            return NotImplemented
        if p == 1:
            return self
        pk = self.ring.pk
        if p < 0:
            if len(self.terms) != 1:
                raise StructureError("negative power of a non-monomial")
            factors: dict = {}
            out = _push_den(self.ring, self.ring.one, factors, self, -p)
            if factors:
                raise StructureError("negative power touches non-Laurent generator")
            return out
        # canonical without a gcd: by Gauss's lemma the content of a
        # power is the power of the content, still coprime to den ** p
        out = {pk.one: 1}
        base = self.terms
        k = p
        while k:
            if k & 1:
                out = K.mul(out, base, pk)
            k >>= 1
            if k:
                base = K.mul(base, base, pk)
        return RingElement(self.ring, out, self.den ** p)

    def __eq__(self, other):
        if isinstance(other, Fraction):
            return other.__eq__(self)
        try:
            o = self._coerce(other)
        except StructureError:  # a float, or an element of another ring
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.terms == o.terms and self.den == o.den

    __hash__ = None  # a dict of terms; use .key() when hashing is needed

    # -- calculus & structure -------------------------------------------

    def by_degree(self, name: str) -> dict:
        """{p: coefficient of name**p}, p ascending (negative on a Laurent
        slot), from one pass over the terms: each coefficient keeps their
        order, has the slot zeroed and is reduced over its own den.  The
        zero element gives {}."""
        ring = self.ring
        i = ring.slot(name)
        exponent, shift = ring.pk.exponent, ring.pk.shifts[i]
        parts: dict = {}
        for e, c in self.terms.items():
            p = exponent(e, i)
            parts.setdefault(p, {})[e - (p << shift)] = c
        return {p: _reduced(ring, parts[p], self.den) for p in sorted(parts)}

    def _rationals(self):
        """(key, canonical rational coefficient) for every term, in order."""
        d = self.den
        return self.terms.items() if d == 1 else [
            (e, _rational(c, d)) for e, c in self.terms.items()]

    def key(self):
        """Hashable canonical form (sorted (key, rational) tuple); worked out
        on first use and kept."""
        try:
            return self._key
        except AttributeError:
            self._key = tuple(sorted(self._rationals()))
            return self._key

    def monomials(self):
        """(exponent tuple, rational coefficient) for every term."""
        unpack = self.ring.pk.unpack
        for e, c in self._rationals():
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
            pairs.append((Fraction(_reduced(ring, {rest: c}, self.den)), fac))
        return dot(ring, pairs)

    # -- formatting ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        unpack = self.ring.pk.unpack
        parts = []
        for key, c in sorted(self._rationals(), reverse=True):
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


def _reduced(ring: PhaseRing, terms: dict, den: int) -> RingElement:
    """The canonical element terms/den: both divided by the gcd of den and
    every coefficient (the zero gets den 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms, den = {e: c // g for e, c in terms.items()}, den // g
    return RingElement(ring, terms, den)


def _scaled(el: RingElement, den: int) -> dict:
    """el's terms over den, a multiple of el.den."""
    return el.terms if el.den == den else K.scale(el.terms, den // el.den)


def _combine(a: RingElement, b: RingElement, op) -> RingElement:
    """``op`` (``K.add`` or ``K.sub``) of two elements over the lcm of their
    dens.  A zero operand makes no kernel call: ``x op 0`` is x and
    ``0 op x`` is x or -x."""
    if not b.terms:
        return a
    if not a.terms:
        return -b if op is K.sub else b
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    return _reduced(a.ring, op(_scaled(a, den), _scaled(b, den)), den)


def _factor_add(factors: dict, el: RingElement, power: int):
    key = el.key()
    if key in factors:
        old_el, old_p = factors[key]
        factors[key] = (old_el, old_p + power)
    else:
        factors[key] = (el, power)


def _push_den(ring: PhaseRing, num: RingElement, factors: dict, el: RingElement,
              power: int) -> RingElement:
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
        c **= power  # num / (c/den)**power
        return _reduced(ring, K.mul_term(num.terms, pk.displacement(fold),
                                         el.den ** power * (1 if c > 0 else -1), pk),
                        num.den * abs(c))
    lc = t[max(t)]
    if lc != el.den:  # el / (lc/den) is monic: terms over lc
        num = _reduced(ring, K.scale(num.terms, (el.den if lc > 0 else -el.den) ** power),
                       num.den * abs(lc) ** power)
        el = _reduced(ring, t if lc > 0 else K.neg(t), abs(lc))
    _factor_add(factors, el, power)
    return num


def _cancel(ring: PhaseRing, num: RingElement, factors: dict) -> tuple:
    """(numerator, factors) with single-variable atom factors cancelled."""
    if not num.terms or not factors:
        return num, ()
    pk = ring.pk
    out = []
    for key, (el, p) in factors.items():
        if p == 0:
            continue
        if len(el.terms) == 1:
            (ekey, c), = el.terms.items()
            exp = pk.unpack(ekey)
            live = [i for i, e in enumerate(exp) if e]
            if c == 1 == el.den and len(live) == 1 and exp[live[0]] == 1:
                i = live[0]
                take = min(p, max(min(pk.exponent(e, i) for e in num.terms), 0))
                if take > 0:
                    shift = [0] * ring.nvars
                    shift[i] = -take
                    num = RingElement(ring, K.mul_term(num.terms, pk.displacement(shift),
                                                       1, pk), num.den)
                    p -= take
                if p == 0:
                    continue
        out.append((key, el, p))
    out.sort(key=lambda kep: kep[0])
    return num, tuple((el, p) for _, el, p in out)


class Fraction:
    """Quotient of ring elements with a factored, content-reduced denominator."""

    __slots__ = ("ring", "num", "_factors", "_partials")

    def __init__(self, num: RingElement, den: RingElement | None = None):
        if isinstance(num, Fraction):
            raise TypeError("already a Fraction; use as_fraction()")
        ring = num.ring
        factors: dict = {}
        if den is not None and den != ring.one:
            if den.ring is not ring:
                raise StructureError("num/den from incompatible rings")
            num = _push_den(ring, num, factors, den, 1)
        self._init(ring, num, factors)

    def _init(self, ring: PhaseRing, num: RingElement, factors: dict):
        """Set the fields; factors are cancelled against num first."""
        self.num, self._factors = _cancel(ring, num, factors)
        self.ring = ring

    @classmethod
    def _make(cls, ring: PhaseRing, num: RingElement, factors: dict) -> "Fraction":
        self = object.__new__(cls)
        self._init(ring, num, factors)
        return self

    # -- structure -------------------------------------------------------

    @property
    def den(self) -> RingElement:
        """The product of the factor powers, multiplied out on each read."""
        d = self.ring.one
        for el, p in self._factors:
            d = d * el ** p
        return d

    @property
    def den_factors(self):
        return self._factors

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def partials(self) -> tuple:
        """({slot: terms}, den): ``terms / den`` is den(self)**2 *
        d(self)/d(slot) over the ring's field slots, nonzero ones only, by
        the quotient rule ``den*dnum - num*dden``, or ``dnum`` without
        denominator factors.  One int den serves every slot; worked out once
        and kept."""
        if hasattr(self, "_partials"):
            return self._partials
        pk, p, out = self.ring.pk, self.num.terms, {}
        q = self.den if self._factors else self.ring.one
        for i in self.ring.field_slots:
            d = K.diff(p, i, pk)
            if self._factors:
                d = K.mul(q.terms, d, pk) if d else d
                dq = K.diff(q.terms, i, pk)
                if dq:
                    K.mul_acc(d, K.neg(p), dq, pk)
                    d = K.finish(d, pk)
            if d:
                out[i] = d
        self._partials = out, self.num.den * q.den
        return self._partials

    def _factor_dict(self) -> dict:
        return {el.key(): (el, p) for el, p in self._factors}

    # -- arithmetic ------------------------------------------------------

    def _combine(self, o: "Fraction", op) -> "Fraction":
        """``op`` (``K.add`` or ``K.sub``) of the numerators over ``_lcd``'s
        common denominator.  A zero operand is skipped: ``x op 0`` is x and
        ``0 op x`` is x or -x, the Fraction the general path rebuilds (a zero
        has no factors, and ``_cancel`` leaves a cancelled numerator as it is)."""
        if o.is_zero:
            return self
        if self.is_zero:
            return -o if op is K.sub else o
        union, a, b = _lcd(self._factor_dict(), self.num, o._factor_dict(), o.num)
        return Fraction._make(self.ring, _combine(a, b, op), union)

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
        """The product over the joined factors.  ``x * 0`` is the zero and
        ``x * 1`` (1 with no factors) is x, as the general path builds them:
        the kernel product by ``{one: 1}`` keeps x's key order."""
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        one = self.ring.one
        if o.is_zero or not self._factors and self.num == one:
            return o
        if self.is_zero or not o._factors and o.num == one:
            return self
        factors = self._factor_dict()
        for el, p in o._factors:
            _factor_add(factors, el, p)
        return Fraction._make(self.ring, self.num * o.num, factors)

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
        return Fraction._make(self.ring, -self.num, self._factor_dict())

    def reciprocal(self) -> "Fraction":
        if self.is_zero:
            raise StructureError("zero denominator (reciprocal of zero)")
        factors: dict = {}
        num = _push_den(self.ring, self.den, factors, self.num, 1)
        return Fraction._make(self.ring, num, factors)

    def __pow__(self, p: int):
        if not isinstance(p, int):
            return NotImplemented
        if p < 0:
            return self.reciprocal() ** (-p)
        factors = {key: (el, q * p) for key, (el, q) in self._factor_dict().items()}
        return Fraction._make(self.ring, self.num ** p, factors)

    def reflect(self, name: str) -> "Fraction":
        """name -> -name, factored as a fresh build would be: odd-degree terms
        change sign, and ``_push_den`` normalises each reflected factor."""
        ring, i = self.ring, self.ring.slot(name)

        def odd(el):
            return RingElement(ring, {e: -c if ring.pk.exponent(e, i) & 1 else c
                                      for e, c in el.terms.items()}, el.den)

        num, factors = odd(self.num), {}
        for el, p in self._factors:
            num = _push_den(ring, num, factors, odd(el), p)
        return Fraction._make(ring, num, factors)

    def __eq__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        if self._factors == o._factors:
            return self.num == o.num
        return self.num * o.den == o.num * self.den

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


def _lcd(fa: dict, a: RingElement, fb: dict, b: RingElement) -> tuple:
    """(union, a', b'): the factor dicts fa and fb joined at the larger power
    of each factor, and the numerators a and b multiplied by the powers
    their own factors lack."""
    union = dict(fa)
    for key, (el, p) in fb.items():
        if p > union.get(key, (None, 0))[1]:
            union[key] = (el, p)
    for key, (el, p) in union.items():
        pa = p - fa.get(key, (None, 0))[1]
        pb = p - fb.get(key, (None, 0))[1]
        if pa:
            a = a * el ** pa
        if pb:
            b = b * el ** pb
    return union, a, b


def dot(ring: PhaseRing, pairs) -> Fraction:
    """x1*y1 + x2*y2 + ... for (x, y) pairs of Fractions of ring.

    A pair with a zero factor adds nothing and is skipped, so no pairs, or
    zero pairs only, sum to the zero with no factors.  The result is the
    left-to-right sum of the products, representation and all, built
    without them: each product's numerator goes into one accumulator
    (``K.mul_acc``) over the running common denominator, which grows only
    when a product brings factors it lacks and restarts when the partial
    sum vanishes, as a vanishing ``+`` drops its factors.  Non-atom factors
    never cancel, so each ends at the same power either way, and ``_cancel``
    then fixes the atom powers canonically.

    The accumulator is finished (``K.finish``) once at the end, and before
    a product with other factors rescales it; only there can a vanished
    partial sum change the result, so only there is the restart decided.
    Its int terms are over a running den, rescaled only when a product
    brings a den that den lacks; the other products are scaled up to it.
    """
    acc: dict = {}
    den = 1
    union: dict = {}
    for x, y in pairs:
        if x.is_zero or y.is_zero:
            continue
        factors = x._factor_dict()
        for el, p in y._factors:
            _factor_add(factors, el, p)
        a, b = x.num, y.num
        if factors != union:
            acc = K.finish(acc, ring.pk) if acc else acc
            if acc:
                union, a_acc, a = _lcd(union, RingElement(ring, acc, den), factors, a)
                acc, den = a_acc.terms, a_acc.den
            else:
                union = factors
        pden = a.den * b.den
        if not acc:
            den = pden
        elif den % pden:
            new = lcm(den, pden)
            acc, den = K.scale(acc, new // den), new
        K.mul_acc(acc, a.terms if pden == den else K.scale(a.terms, den // pden),
                  b.terms, ring.pk)
    return Fraction._make(ring, _reduced(ring, K.finish(acc, ring.pk), den), union)


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

    # -- brackets ----------------------------------------------------------

    def bracket(self, f: RingElement, g: RingElement) -> RingElement:
        """Exact Poisson bracket of two ring elements."""
        return self.bracket_fraction(f, g).num

    def bracket_fraction(self, f, g) -> Fraction:
        """Exact Poisson bracket on the fraction field: the table summed
        over the partials each operand keeps, so {p/q, s/t} is over (q t)^2.
        It is the zero when either operand has no field partials."""
        ring = self.ring
        F, G = as_fraction(ring, f), as_fraction(ring, g)
        if F is None or G is None:
            raise StructureError("bracket_fraction on non-algebraic input")
        (df, fden), (dg, gden) = F.partials(), G.partials()
        if not (df and dg):
            return Fraction(ring.zero)
        pk = ring.pk
        tden = lcm(*(el.den for el in self._table.values()))
        out: dict = {}
        for (i, j), el in self._table.items():
            dfi, dgj, dfj, dgi = df.get(i), dg.get(j), df.get(j), dg.get(i)
            s = K.mul(dfi, dgj, pk) if dfi and dgj else {}
            if dfj and dgi:  # s -= dfj*dgi in place: no product or copy to hold
                K.mul_acc(s, K.neg(dfj), dgi, pk)
                s = K.finish(s, pk)
            if s:
                K.mul_acc(out, s, _scaled(el, tden), pk)
        factors: dict = {}
        for el, pw in F._factors + G._factors:
            _factor_add(factors, el, 2 * pw)
        num = _reduced(ring, K.finish(out, pk), fden * gden * tden)
        return Fraction._make(ring, num, factors)

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

    By Gauss's lemma den divides num over the rationals exactly when the
    primitive part of den's int terms divides that of num's over the ints,
    so the division runs on ints, and a step whose coefficient does not
    divide proves that den does not divide either.
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
    cn, cd = gcd(*num.terms.values()), gcd(*den.terms.values())
    d = {e: c // cd for e, c in den.terms.items()}
    ed = max(d)
    lc = d[ed]
    d_exp = pk.unpack(ed)
    q: dict = {}
    r = {e: c // cn for e, c in num.terms.items()}
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
        qc, rest = divmod(r[er], lc)
        if rest:
            return None
        qe = pk.pack(qexp)
        q[qe] = qc
        for e, c in K.mul_term(d, qe - pk.one, qc, pk).items():
            c0 = r.get(e)
            if c0 is None:
                r[e] = -c
                heapq.heappush(heap, -e)
            else:
                c0 = c0 - c
                if c0:
                    r[e] = c0
                else:
                    del r[e]
    return _reduced(ring, K.scale(q, cn * den.den), cd * num.den)
