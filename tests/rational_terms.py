"""Rational term dicts for the test oracles.

The package keeps a polynomial as int terms over one positive int ``den``
(``RingElement.terms``, ``RingElement.den``).  The oracles compute on
{key: rational} dicts instead, passing them through the term kernel, whose
sums and products take any exact numbers: ``rational`` reads an element as
such a dict, and ``element`` makes the canonical element of one.  Neither
shares code with the package's own reduction.
"""

from fractions import Fraction as PyFraction
from math import lcm

from bilax.phase_ring import RingElement


def canon(c):
    """An exact rational as an int when integral."""
    c = PyFraction(c)
    return c.numerator if c.denominator == 1 else c


def quo(a, b):
    """The exact quotient a/b, canonical."""
    return canon(PyFraction(a, b))


def rational(el: RingElement) -> dict:
    """{key: canonical rational coefficient} of el, in el's order."""
    return {e: quo(c, el.den) for e, c in el.terms.items()}


def element(ring, terms: dict) -> RingElement:
    """The canonical element of {key: rational}, in the dict's order, zero
    coefficients dropped: the int terms over the lcm of the denominators,
    which no prime divides more often than some denominator it scales."""
    terms = {e: PyFraction(c) for e, c in terms.items() if c}
    den = lcm(*(c.denominator for c in terms.values()))
    return RingElement(ring, {e: int(c * den) for e, c in terms.items()}, den)
