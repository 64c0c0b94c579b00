"""The exact term kernel: sparse Laurent polynomials as dicts.

A polynomial is a dict from a packed exponent key to a nonzero ``int``
coefficient.

* Coefficients are ints only: a rational polynomial is an int dict over one
  positive int denominator, which ``phase_ring.RingElement`` keeps next to
  it, so no ``fractions.Fraction`` reaches a term product.  No ``/`` is
  ever applied to coefficients.
* A key packs one exponent vector into one int (see ``Packing``): a
  monomial product is one integer addition, and integer order is the
  lexicographic order of the exponent tuples.

Inputs are never mutated unless the name says so; zero coefficients are
never stored, with one exception: ``mul_acc`` accumulates a sum of products
into a dict and leaves it unfinished (zero coefficients, unchecked keys),
and the owner of the sum calls ``finish`` on it before anything reads it,
normally once, after its last product.  The
packed layout follows Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (2007), whose packed-term
products keep integer coefficients too (J. Symb. Comp. 46, 2011).
"""

from functools import reduce
from operator import or_

FIELD_BITS = 16
_FIELD_MASK = (1 << FIELD_BITS) - 1
#: bias of a Laurent slot; other slots have bias 0
LAURENT_BIAS = 1 << (FIELD_BITS - 2)


class StructureError(ValueError):
    """Malformed algebraic input: unknown generator, zero denominator, ..."""


class Packing:
    """Layout of exponent vectors packed into one int.

    Slot i holds ``e_i + bias_i`` in a ``FIELD_BITS``-wide field; slot 0 is
    the most significant field, so comparing keys compares exponent tuples
    lexicographically.  Laurent slots are biased by ``LAURENT_BIAS`` and hold
    exponents in ``[-2**14, 2**14)``; other slots have bias 0 and hold
    ``[0, 2**15)``.  The top bit of each field is a guard bit, clear in every
    valid key.

    Adding to a valid key a displacement whose slots each lie strictly
    between ``-2**15`` and ``2**15`` cannot carry a field past its width,
    and the least significant field that leaves its range keeps its guard
    bit set whatever the fields above it borrow; so ``check`` (``key &
    guard``) detects overflow, and negative exponents on non-Laurent slots,
    after the fact.  A key is the integer sum of ``(e_i + bias_i) <<
    shift_i``, carries and all; in a product of valid keys each ``e_i +
    bias_i`` lies in ``[-bias_i, 2**16 - 1 - bias_i)``, narrower than a
    field, so distinct exponent vectors never share a key, in one product
    or across the products summed into one accumulator.  A key whose
    coefficient cancels is then no monomial of the result, and only the
    keys left after zeros are dropped need the check.
    """

    def __init__(self, laurent):
        n = self.nvars = len(laurent)
        self.shifts = tuple((n - 1 - i) * FIELD_BITS for i in range(n))
        self.biases = tuple(LAURENT_BIAS if lau else 0 for lau in laurent)
        #: key of the zero exponent vector
        self.one = sum(b << s for b, s in zip(self.biases, self.shifts))
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        top = 1 << (FIELD_BITS - 1)
        self._ranges = tuple((-b, top - b) for b in self.biases)

    def pack(self, exps) -> int:
        """Key of an exponent tuple; StructureError when a slot is out of range."""
        if len(exps) != self.nvars:
            raise StructureError("exponent vector of length %d, ring has %d slots"
                                 % (len(exps), self.nvars))
        key = 0
        for e, (lo, hi), b, s in zip(exps, self._ranges, self.biases, self.shifts):
            if not lo <= e < hi:
                if e < 0 and not b:
                    raise StructureError("negative exponent on a non-Laurent slot")
                raise StructureError("exponent %d overflows its %d-bit field"
                                     % (e, FIELD_BITS))
            key |= (e + b) << s
        return key

    def unpack(self, key) -> tuple:
        """Exponent tuple of a key."""
        return tuple(((key >> s) & _FIELD_MASK) - b
                     for b, s in zip(self.biases, self.shifts))

    def exponent(self, key, i) -> int:
        """Exponent of slot i in a key."""
        return ((key >> self.shifts[i]) & _FIELD_MASK) - self.biases[i]

    def displacement(self, exps) -> int:
        """Signed offset that adds ``exps`` to a key (for ``mul_term``)."""
        top = 1 << (FIELD_BITS - 1)
        if not all(-top < e < top for e in exps):
            raise StructureError("exponent shift overflows its %d-bit field" % FIELD_BITS)
        return sum(e << s for e, s in zip(exps, self.shifts))

    def check(self, terms):
        """Raise StructureError when a key left its fields' ranges.

        ``(k1 | k2 | ...) & guard`` is nonzero exactly when some ``k & guard``
        is: ``&`` distributes over ``|`` bit by bit, for negative keys too."""
        if reduce(or_, terms, 0) & self.guard:
            raise StructureError(
                "exponent overflow: a slot left its %d-bit field or a "
                "non-Laurent exponent went negative" % FIELD_BITS)


def finish(out, pk):
    """Finish ``out``: drop zeros and check the keys.  Returns ``out``
    itself, or a fresh ``{}`` when every key cancelled, so that an empty
    sum does not keep the table its accumulator grew."""
    if 0 in out.values():
        for e in [e for e, c in out.items() if not c]:
            del out[e]
        if not out:
            return {}
    pk.check(out)
    return out


def mul(a, b, pk):
    """Product of two term dicts."""
    out = {}
    _mul_into(out, a, b, pk)
    return finish(out, pk)


def mul_acc(out, a, b, pk):
    """In-place ``out += a*b`` of finished operands, left unfinished: the
    owner of ``out`` calls ``finish`` before anything reads it."""
    _mul_into(out, a, b, pk)


def _mul_into(out, a, b, pk):
    # shared by mul and mul_acc so that neither calls the other: each is
    # timed on its own when the benchmark traces the kernel
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    get = out.get
    one = pk.one
    rows = iter(b.items())
    if not out:
        eb, cb = next(rows)
        d = eb - one
        out.update({ea + d: ca * cb for ea, ca in a.items()})
    for eb, cb in rows:
        d = eb - one
        for ea, ca in a.items():
            e = ea + d
            out[e] = get(e, 0) + ca * cb


def add(a, b):
    """Sum of two term dicts."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        c0 = get(e)
        if c0 is None:
            out[e] = c
        else:
            c = c0 + c
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def sub(a, b):
    """Difference of two term dicts."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        c0 = get(e)
        if c0 is None:
            out[e] = -c
        else:
            c = c0 - c
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def neg(a):
    """Negation of a term dict."""
    return {e: -c for e, c in a.items()}


def scale(a, c):
    """Multiply every coefficient by the int ``c``."""
    return {e: c * v for e, v in a.items()} if c else {}


def mul_term(a, shift, c, pk):
    """Multiply by the single monomial ``c * x^exps``, where ``shift`` is
    ``pk.displacement(exps)``."""
    if not c:
        return {}
    out = {e + shift: c * v for e, v in a.items()}
    return finish(out, pk)


def diff(a, i, pk):
    """Partial derivative with respect to variable slot ``i``."""
    s, b = pk.shifts[i], pk.biases[i]
    step = 1 << s
    out = {}
    for e, c in a.items():
        k = ((e >> s) & _FIELD_MASK) - b
        if k:
            out[e - step] = c * k
    return finish(out, pk)
