"""Reference term kernel on exponent tuples, used only as a test oracle.

This is the tuple-keyed, ``Fraction``-coefficient kernel the package used
before its packed-int kernel; the differential tests run both on the same
inputs and compare.  Polynomials are dicts mapping exponent tuples (ints,
possibly negative) to exact rational coefficients; inputs are never mutated
unless the name says so; zero coefficients are never stored.
"""

from operator import add as _add


def mul(a, b):
    """Product of two term dicts."""
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(_add, ea, eb))
            c0 = out.get(e)
            if c0 is None:
                out[e] = ca * cb
            else:
                c = c0 + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def mul_acc(out, a, b):
    """In-place ``out += a*b``."""
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(_add, ea, eb))
            c0 = out.get(e)
            if c0 is None:
                out[e] = ca * cb
            else:
                c = c0 + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]


def add(a, b):
    """Sum of two term dicts."""
    out = dict(a)
    for e, c in b.items():
        c0 = out.get(e)
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
    for e, c in b.items():
        c0 = out.get(e)
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
    return {e: -c for e, c in a.items()}


def scale(a, c):
    """Multiply every coefficient by the rational ``c``."""
    if not c:
        return {}
    return {e: c * v for e, v in a.items()}


def mul_term(a, exp, c):
    """Multiply by the single monomial ``c * x^exp``."""
    if not c:
        return {}
    return {tuple(map(_add, e, exp)): c * v for e, v in a.items()}


def diff(a, i):
    """Partial derivative with respect to variable slot ``i``."""
    out = {}
    for e, c in a.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
    return out
