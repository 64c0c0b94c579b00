"""The exact term kernel and the rational type.

There is one of each: ``kernel`` (int or ``fractions.Fraction``
coefficients, packed exponent keys) and ``fractions.Fraction`` as ``QQ``
for rationals built outside the kernel.  The two names below are recorded
in reports so that a result can be traced to the arithmetic that made it.
"""

from fractions import Fraction as QQ

from . import kernel

KERNEL_BACKEND = "packed"
RATIONAL_BACKEND = "fractions"

__all__ = ["KERNEL_BACKEND", "QQ", "RATIONAL_BACKEND", "kernel"]
