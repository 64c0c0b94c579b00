"""Reference exact operations, used only as test oracles.

``partial_trace_a`` sums the diagonal a-blocks of a 4x4 matrix entry by
entry, and ``swap_legs`` conjugates by the permutation matrix with two 4x4
Fraction products.  These are the constructions the package used before
both became index maps: ``trace_a`` with identity factors, and the leg swap
(i,k) <-> (k,i).  ``fraction_power`` is the Fraction power by repeated
squaring of Fraction products, which the package replaced by the power of
the numerator over scaled denominator exponents.  The differential tests
require the package's results to be ``==``, ``str``- and
``den_factors``-equal to these.
"""

from bilax.phase_ring import Fraction, StructureError
from bilax.spectral_matrix import SpectralMatrix, permutation


def partial_trace_a(m):
    """Trace over the first tensor factor of a 4x4 matrix."""
    if m.dim != 4:
        raise StructureError("partial_trace_a expects a 4x4 matrix")
    ring = m.ring
    out = []
    for k in range(2):
        row = []
        for l in range(2):
            s = Fraction(ring.zero)
            for i in range(2):
                s = s + m.rows[2 * i + k][2 * i + l]
            row.append(s)
        out.append(row)
    return SpectralMatrix(ring, out)


def swap_legs(m):
    """Conjugation by P: maps r_ab to r_ba."""
    p = permutation(m.ring)
    return p @ m @ p


def fraction_power(f, p):
    """f ** p for an int p by repeated squaring of Fraction products."""
    if p < 0:
        return fraction_power(Fraction(f.den, f.num), -p)
    out = Fraction(f.ring.one)
    base = f
    while p:
        if p & 1:
            out = out * base
        p >>= 1
        if p:
            base = base * base
    return out
