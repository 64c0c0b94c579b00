"""Reference source emitter, used only as a test oracle.

These are the column compilers the package used before its shared
emitter: one term per monomial, written out as ``c*s0**e0*s1*...`` with
the coefficient first (``1.0*`` and ``-1.0*`` included), summed left to
right, every power and product recomputed where it appears.  The
differential tests require the package's compiled functions to return
``tobytes()``-equal results, and ``integrator_oracle`` integrates with
them.
"""

import numpy as np

from bilax.dynamics import DEN_EPS, SingularityError
from bilax.phase_ring import Fraction, RingElement


def poly_source(el: RingElement, slots) -> str:
    """Python source of ``el``; ``slots[i]`` is the text of ring slot i."""
    if not el.terms:
        return "0.0"
    parts = []
    for exps, c in sorted(el.monomials(), reverse=True):
        factors = [repr(float(c))]
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(slots[i])
            elif e:
                factors.append("%s**%d" % (slots[i], e))
        parts.append("*".join(factors))
    return " + ".join(parts)


def _vector_slots(el) -> list:
    return ["v[%d]" % i for i in range(el.ring.nvars)]


def compile_element(el: RingElement):
    src = "def _f(v):\n    return %s\n" % poly_source(el, _vector_slots(el))
    ns: dict = {}
    exec(src, ns)
    return ns["_f"]


def compile_fraction(fr: Fraction):
    if not fr.den_factors:
        return compile_element(fr.num)
    slots = _vector_slots(fr.num)
    src = (
        "def _f(v):\n"
        "    d = %s\n"
        "    if np.any(np.abs(d) < %g):\n"
        "        raise SingularityError('denominator below threshold')\n"
        "    return (%s)/d\n"
        % (poly_source(fr.den, slots), DEN_EPS, poly_source(fr.num, slots))
    )
    ns = {"SingularityError": SingularityError, "np": np}
    exec(src, ns)
    return ns["_f"]


def compile_any(value):
    if isinstance(value, Fraction):
        return compile_fraction(value)
    return compile_element(value)
