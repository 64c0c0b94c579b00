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
power (cached by ``PhaseRing._pow_terms``, used by ``Fraction.__pow__``) and
``Fraction._init`` the one constructor.
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
    site: int | None = None


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
    """Ordered generator registry; all elements carry a reference to it."""

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
        self._laurent = tuple(g.kind is Kind.COORD_EXP for g in gens)
        #: exponent packing of this ring's term keys
        self.pk = Packing(self._laurent)
        #: key of the constant monomial
        self.zero_exp = self.pk.one
        self._nonparameter_slots = tuple(
            i
            for i, g in enumerate(gens)
            if g.kind in FIELD_KINDS or g.kind is Kind.SPECTRAL
        )
        self._pow_cache: dict = {}
        self.zero = RingElement(self, {})
        self.one = RingElement(self, {self.zero_exp: 1})

    def __repr__(self):
        return "PhaseRing(%s)" % ", ".join(self.names)

    def compatible(self, other) -> bool:
        return self is other or self.names == other.names

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
            if e < 0 and not self._laurent[i]:
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
        key = (el.key(), p)
        out = self._pow_cache.get(key)
        if out is None:
            out = self._pow_cache[key] = (el ** p).terms
        return out


class RingElement:
    """Exact Laurent polynomial over a :class:`PhaseRing`.

    ``terms`` maps packed exponent keys (``ring.pk``) to canonical
    coefficients; ``monomials()`` yields the exponent tuples.
    """

    __slots__ = ("ring", "terms")

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
            if not self.ring.compatible(other.ring):
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
            (key, c), = self.terms.items()
            exp = pk.unpack(key)
            for i, e in enumerate(exp):
                if e and not self.ring._laurent[i]:
                    raise StructureError(
                        "negative power touches non-Laurent generator"
                    )
            return RingElement(
                self.ring, {pk.pack([e * p for e in exp]): quo(1, c ** (-p))}
            )
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

    __hash__ = None  # mutable term dict; use .key() when hashing is needed

    # -- calculus & structure -------------------------------------------

    def diff(self, name: str) -> "RingElement":
        ring = self.ring
        return RingElement(ring, K.diff(self.terms, ring.slot(name), ring.pk))

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
        """Hashable canonical form (sorted term tuple)."""
        return tuple(sorted(self.terms.items()))

    def monomials(self):
        """(exponent tuple, coefficient) for every term."""
        unpack = self.ring.pk.unpack
        for e, c in self.terms.items():
            yield unpack(e), c

    def leading(self):
        """(exponent tuple, coefficient) of the lexicographically largest term."""
        e = max(self.terms)
        return self.ring.pk.unpack(e), self.terms[e]

    def substitute(self, mapping: dict) -> "Fraction":
        """Substitute generators by elements/fractions/rationals.

        Negative powers of a substituted generator require the value to be
        invertible (handled at the Fraction level).
        """
        ring = self.ring
        exponent, shifts = ring.pk.exponent, ring.pk.shifts
        sub = {}
        for name, val in mapping.items():
            sub[ring.slot(name)] = as_fraction(ring, val)
        out = Fraction(ring.zero)
        powcache: dict = {}
        for key, c in self.terms.items():
            rest = key
            fac = None
            for i, val in sub.items():
                e = exponent(key, i)
                if e:
                    rest -= e << shifts[i]
                    p = powcache.get((i, e))
                    if p is None:
                        p = val ** e
                        powcache[(i, e)] = p
                    fac = p if fac is None else fac * p
            term = Fraction(RingElement(ring, {rest: c}))
            out = out + (term if fac is None else term * fac)
        return out

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
                if ring._laurent[i]:
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
    """Drop factors cancelled by the numerator (single-variable atoms only)."""
    if not num_terms:
        return ()
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
                m = min(pk.exponent(e, i) for e in num_terms)
                take = p if ring._laurent[i] else min(p, max(m, 0))
                if take > 0:
                    shift = [0] * ring.nvars
                    shift[i] = -take
                    num_terms_new = K.mul_term(
                        num_terms, pk.displacement(shift), 1, pk
                    )
                    num_terms.clear()
                    num_terms.update(num_terms_new)
                    p -= take
                if p == 0:
                    continue
        out.append((key, el, p))
    out.sort(key=lambda kep: kep[0])
    return tuple((el, p) for _, el, p in out)


class Fraction:
    """Quotient of ring elements with a factored, content-reduced denominator."""

    __slots__ = ("ring", "num", "_factors", "_den")

    def __init__(self, num: RingElement, den: RingElement | None = None):
        if isinstance(num, Fraction):
            raise TypeError("already a Fraction; use as_fraction()")
        ring = num.ring
        factors: dict = {}
        terms = num.terms
        if den is not None and den.terms != ring.one.terms:
            if not ring.compatible(den.ring):
                raise StructureError("num/den from incompatible rings")
            terms = _push_den(ring, terms, factors, den, 1)
        self._init(ring, dict(terms), factors)

    def _init(self, ring: PhaseRing, num_terms: dict, factors: dict):
        """Set the fields from a numerator (consumed) and a factor dict."""
        self.ring = ring
        self.num = RingElement(ring, num_terms)
        self._factors = _cancel(ring, num_terms, factors)
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

    def as_ring_element(self) -> RingElement:
        if self._factors:
            raise StructureError("fraction has a nontrivial denominator")
        return self.num

    def is_parameter_constant(self) -> bool:
        return self.num.is_parameter_constant() and all(
            el.is_parameter_constant() for el, _ in self._factors
        )

    def _factor_dict(self) -> dict:
        return {el.key(): (el, p) for el, p in self._factors}

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        if self._factors == o._factors:
            terms = K.add(self.num.terms, o.num.terms)
            return Fraction._make(self.ring, terms, self._factor_dict())
        fs, fo = self._factor_dict(), o._factor_dict()
        union: dict = dict(fs)
        for key, (el, p) in fo.items():
            if key in union:
                union[key] = (el, max(union[key][1], p))
            else:
                union[key] = (el, p)
        a = self.num.terms
        b = o.num.terms
        pk = self.ring.pk
        for key, (el, p) in union.items():
            ps = p - fs.get(key, (None, 0))[1]
            po = p - fo.get(key, (None, 0))[1]
            if ps:
                a = K.mul(a, self.ring._pow_terms(el, ps), pk)
            if po:
                b = K.mul(b, self.ring._pow_terms(el, po), pk)
        return Fraction._make(self.ring, K.add(a, b), union)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = as_fraction(self.ring, other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

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
        return Fraction._make(
            self.ring, K.neg(self.num.terms), self._factor_dict()
        )

    def reciprocal(self) -> "Fraction":
        if self.is_zero:
            raise StructureError("zero denominator (reciprocal of zero)")
        factors: dict = {}
        terms = _push_den(self.ring, dict(self.den.terms), factors, self.num, 1)
        return Fraction._make(self.ring, terms, factors)

    def __pow__(self, p: int):
        if not isinstance(p, int):
            return NotImplemented
        if p < 0:
            return self.reciprocal() ** (-p)
        factors = {key: (el, q * p) for key, (el, q) in self._factor_dict().items()}
        return Fraction._make(self.ring, (self.num ** p).terms, factors)

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


def as_fraction(ring: PhaseRing, value) -> Fraction | None:
    """Coerce to a Fraction over ring; None when the value is foreign."""
    if isinstance(value, Fraction):
        if not ring.compatible(value.ring):
            raise StructureError("fraction from incompatible ring")
        return value
    el = ring.zero._coerce(value)
    return None if el is None else Fraction(el)


class PoissonStructure:
    """Antisymmetric bracket table on generators, extended as a biderivation."""

    def __init__(self, ring: PhaseRing, table: dict | None = None):
        self.ring = ring
        self._table: dict = {}
        if table:
            for (a, b), el in table.items():
                self.set_bracket(a, b, el)

    def set_bracket(self, a: str, b: str, value: RingElement):
        ring = self.ring
        i, j = ring.slot(a), ring.slot(b)
        if i == j:
            raise StructureError("bracket of a generator with itself is zero")
        if not ring.compatible(value.ring):
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

    @classmethod
    def standard(cls, ring: PhaseRing) -> "PoissonStructure":
        """Canonical pairs {X_j, u_j} = u_j plus the sl(2) triple.

        Parameters and spectral variables are central; sl(2) commutes with
        the canonical pairs.
        """
        ps = cls(ring)
        by_site = {}
        for g in ring.generators:
            if g.kind is Kind.COORD_EXP:
                by_site.setdefault(g.site, {})["u"] = g.name
            elif g.kind is Kind.MOMENTUM:
                by_site.setdefault(g.site, {})["X"] = g.name
        for site, pair in sorted(by_site.items(), key=lambda kv: str(kv[0])):
            if "u" in pair and "X" in pair:
                ps.set_bracket(pair["X"], pair["u"], ring.gen(pair["u"]))
        e = ring.gens_of_kind(Kind.SL2_E)
        f = ring.gens_of_kind(Kind.SL2_F)
        h = ring.gens_of_kind(Kind.SL2_H)
        if e and f and h:
            E, F, H = e[0], f[0], h[0]
            ps.set_bracket(H, E, ring.gen(E))
            ps.set_bracket(H, F, -ring.gen(F))
            ps.set_bracket(E, F, 2 * ring.gen(H))
        return ps

    # -- brackets ----------------------------------------------------------

    def bracket(self, f: RingElement, g: RingElement) -> RingElement:
        """Exact Poisson bracket: bilinear, antisymmetric, Leibniz in both."""
        ring = self.ring
        if not (ring.compatible(f.ring) and ring.compatible(g.ring)):
            raise StructureError("bracket arguments from incompatible rings")
        ft, gt = f.terms, g.terms
        if not ft or not gt:
            return ring.zero
        pk = ring.pk
        out: dict = {}
        for (i, j), el in self._table.items():
            dfi = K.diff(ft, i, pk)
            dgj = K.diff(gt, j, pk) if dfi else {}
            dfj = K.diff(ft, j, pk)
            dgi = K.diff(gt, i, pk) if dfj else {}
            s = K.mul(dfi, dgj, pk) if dfi and dgj else {}
            if dfj and dgi:
                s = K.sub(s, K.mul(dfj, dgi, pk))
            if s:
                K.mul_acc(out, s, el.terms, pk)
        return RingElement(ring, out)

    def bracket_fraction(self, f, g) -> Fraction:
        """Bracket on the fraction field via the quotient rule."""
        ring = self.ring
        F = as_fraction(ring, f)
        G = as_fraction(ring, g)
        if F is None or G is None:
            raise StructureError("bracket_fraction on non-algebraic input")
        if not F._factors and not G._factors:
            return Fraction(self.bracket(F.num, G.num))
        p, s = F.num, G.num
        q, t = F.den, G.den
        num = (
            q * t * self.bracket(p, s)
            - q * s * self.bracket(p, t)
            - p * t * self.bracket(q, s)
            + p * s * self.bracket(q, t)
        )
        factors: dict = {}
        for el, pw in F._factors + G._factors:
            _factor_add(factors, el, 2 * pw)
        return Fraction._make(ring, num.terms, factors)

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
    if any(lo < 0 and not lau for (lo, _), lau in zip(box, ring._laurent)):
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
