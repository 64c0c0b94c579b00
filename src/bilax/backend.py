"""The exact term kernel and the rational type.

There is one of each: ``kernel`` (int coefficients, packed exponent keys;
a rational polynomial is its int terms over one int denominator) and
``fractions.Fraction`` as ``QQ`` for rationals outside the kernel: scalars,
and the coefficients ``RingElement.monomials()`` yields.  The two names below are recorded
in reports so that a result can be traced to the arithmetic that made it.
"""

from fractions import Fraction as QQ

from . import kernel

KERNEL_BACKEND = "packed"
RATIONAL_BACKEND = "fractions"

__all__ = ["KERNEL_BACKEND", "QQ", "RATIONAL_BACKEND", "kernel"]
