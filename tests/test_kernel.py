"""The packed-int term kernel against two independent oracles.

* ``tuple_kernel`` is the earlier tuple-keyed kernel with ``Fraction``
  coefficients; every kernel function is run on the same random Laurent
  inputs through both and the results must agree term for term.  The
  packed kernel takes int coefficients only, so its inputs are the rational
  ones times a common denominator, and its results are read back over it.
* sympy's ``expand`` recomputes products, derivatives and Poisson brackets
  of the same elements as symbolic expressions, and sympy's ``cancel``
  decides ``bracket_fraction`` of quotients that sympy differentiates
  itself, over denominators with and without field generators.

Also checked: coefficients come out as nonzero ints, a sum of ``mul_acc``
products is exact once ``finish`` ends it (a sum that cancels is a fresh
``{}``), and an exponent that leaves its packed
field raises instead of aliasing another monomial (``Packing.check`` raises
exactly when some key has a guard bit set).
"""

import functools
import operator
import sys
from fractions import Fraction as PyFraction
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuple_kernel as T
from bilax.backend import kernel as K
from bilax.phase_ring import Fraction, StructureError
from bilax.toda_models import toda_ring, toda_structure
from rational_terms import element, quo
from sympy_oracle import same, sympy_bracket, to_sympy

RING = toda_ring(2, dynamical=True)
PK = RING.pk
PS = toda_structure(RING)
#: slots the random inputs use (the rest stay 0): two Laurent, four not
LIVE = tuple(RING.slot(n) for n in ("u1", "u2", "X1", "E", "H", "lam"))

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.builds(
    PyFraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 1, 2, 3))
)


@st.composite
def exponents(draw):
    exp = [0] * RING.nvars
    for i in LIVE:
        lo = -2 if RING.laurent[i] else 0
        exp[i] = draw(st.integers(lo, 2))
    return tuple(exp)


tuple_dicts = st.dictionaries(exponents(), coefficients, max_size=6)


def den_of(*dicts):
    """The lcm of the denominators of the rational dicts' coefficients."""
    return lcm(*(PyFraction(c).denominator for d in dicts for c in d.values()))


def packed(d, den=1):
    """The int terms of den * d, den a multiple of d's denominators."""
    out = {PK.pack(e): c * den for e, c in d.items()}
    assert all(PyFraction(c).denominator == 1 for c in out.values())
    return {e: int(c) for e, c in out.items()}


def as_tuples(terms, den=1):
    """The tuple dict of terms / den; every stored coefficient must be a
    nonzero int."""
    for c in terms.values():
        assert type(c) is int and c, c
    return {PK.unpack(e): quo(c, den) for e, c in terms.items()}


@bounded
@given(tuple_dicts, tuple_dicts)
def test_mul_add_sub_match_tuple_kernel(a, b):
    d = den_of(a, b)
    pa, pb = packed(a, d), packed(b, d)
    assert as_tuples(K.mul(pa, pb, PK), d * d) == T.mul(a, b)
    assert as_tuples(K.add(pa, pb), d) == T.add(a, b)
    assert as_tuples(K.sub(pa, pb), d) == T.sub(a, b)
    assert as_tuples(K.neg(pa), d) == T.neg(a)
    assert as_tuples(K.sub(pa, pa)) == {}


@st.composite
def product_lists(draw):
    """(a, b) pairs whose products are summed.  The head pairs may be
    followed by their negations, so that the sum cancels (wholly or up to
    the tail), or by themselves, so that coefficients with denominator 2
    sum to ints."""
    pairs = st.lists(st.tuples(tuple_dicts, tuple_dicts), max_size=3)
    head, tail = draw(pairs), draw(pairs)
    then = draw(st.sampled_from(("none", "negated", "repeated")))
    if then == "negated":
        head += [(T.neg(a), b) for a, b in head]
    elif then == "repeated":
        head += head
    return head + tail


@bounded
@given(tuple_dicts, product_lists())
def test_mul_acc_matches_tuple_kernel(out, pairs):
    """Several mul_acc calls and one finish give the tuple kernel's sum."""
    want = dict(out)
    d = den_of(out, *(x for pair in pairs for x in pair))
    got = packed(out, d * d)
    for a, b in pairs:
        T.mul_acc(want, a, b)
        K.mul_acc(got, packed(a, d), packed(b, d), PK)
    finished = K.finish(got, PK)
    if want:
        assert finished is got
    else:  # a cancelled sum does not keep its accumulator's table
        assert finished == {} and sys.getsizeof(finished) == sys.getsizeof({})
    assert as_tuples(finished, d * d) == want


@bounded
@given(tuple_dicts, st.sampled_from(LIVE))
def test_diff_matches_tuple_kernel(a, i):
    d = den_of(a)
    assert as_tuples(K.diff(packed(a, d), i, PK), d) == T.diff(a, i)


@bounded
@given(tuple_dicts, coefficients | st.just(PyFraction(0)) | st.just(PyFraction(2)),
       exponents())
def test_scale_and_mul_term_match_tuple_kernel(a, c, exp):
    d = den_of(a)
    pa, n, den = packed(a, d), c.numerator, d * c.denominator
    assert as_tuples(K.scale(pa, n), den) == T.scale(a, c)
    shift = PK.displacement(exp)
    assert as_tuples(K.mul_term(pa, shift, n, PK), den) == T.mul_term(a, exp, c)


def test_finish_of_a_cancelled_sum_is_a_fresh_empty_dict():
    x = {PK.pack((0,) * 11 + (k,)): 1 for k in range(40)}
    acc = {}
    K.mul_acc(acc, x, {PK.one: 1}, PK)
    K.mul_acc(acc, x, {PK.one: -1}, PK)
    assert len(acc) == 40 and sys.getsizeof(acc) > sys.getsizeof({})
    got = K.finish(acc, PK)
    assert got == {} and got is not acc and sys.getsizeof(got) == sys.getsizeof({})


def test_key_order_is_tuple_order():
    keys = [PK.pack(e) for e in [(1,) + (0,) * 11, (0, 2) + (0,) * 10,
                                 (0, -1) + (0,) * 10, (-1,) + (0,) * 11,
                                 (0,) * 11 + (3,), (0,) * 12]]
    assert sorted(keys) == sorted(keys, key=PK.unpack)
    assert [PK.unpack(k) for k in sorted(keys)] == sorted(PK.unpack(k) for k in keys)


# ---------------------------------------------------------------------------
# sympy


SYMBOLS = sympy.symbols(RING.names)
U1, U2, X1, X2, E, F, H, C0, _, LAM, MU, _ = map(RING.gen, RING.names)


small_elements = st.dictionaries(exponents(), coefficients, max_size=3).map(RING.element)


@settings(bounded, max_examples=25)
@given(small_elements, small_elements, st.sampled_from(LIVE))
@example(X1 * E * PyFraction(1, 2), U1 * F * PyFraction(2, 3), RING.slot("X1"))
def test_mul_diff_bracket_match_sympy(f, g, i):
    sf, sg = to_sympy(f), to_sympy(g)
    assert same(to_sympy(f * g), sf * sg)
    df = element(RING, {e: PyFraction(c, f.den) for e, c in K.diff(f.terms, i, PK).items()})
    assert same(to_sympy(df), sympy.diff(sf, SYMBOLS[i]))
    assert same(to_sympy(PS.bracket(f, g)), sympy_bracket(sf, sg, PS))


#: field-free denominators (no partials of their own) and field ones
DENOMINATORS = (C0, LAM - MU, F - U1, E + 2)


def assert_bracket_fraction_matches_sympy(f, g):
    # sympy differentiates the quotients itself: no bilax quotient rule
    r = PS.bracket_fraction(f, g)
    sf = to_sympy(f.num) / to_sympy(f.den)
    sg = to_sympy(g.num) / to_sympy(g.den)
    want = sympy_bracket(sf, sg, PS)
    assert sympy.cancel(to_sympy(r.num) / to_sympy(r.den) - want) == 0


# a denominator without field generators still enters the quotient rule:
# {X1*E/c0, u1} is over c0, not c0^2
@pytest.mark.parametrize("f,g", [
    (Fraction(X1 * E, C0), Fraction(U1)),
    (Fraction(X1 * E, LAM - MU), Fraction(H, C0)),
    (Fraction(E * U1 + X1, F - U1), Fraction(H + X2 * U2, E + 2)),
    (Fraction(X1, F - U1), Fraction(E * X1, C0)),
    (Fraction(H, E + 2), Fraction(F, E + 2)),
], ids=["c0-1", "lam-mu-c0", "F-u1-E+2", "F-u1-c0", "E+2-E+2"])
def test_bracket_fraction_matches_sympy_explicit(f, g):
    assert not PS.bracket_fraction(f, g).is_zero
    assert_bracket_fraction_matches_sympy(f, g)


small_fractions = st.builds(
    lambda num, dens: Fraction(num, functools.reduce(operator.mul, dens, RING.one)),
    small_elements, st.lists(st.sampled_from(DENOMINATORS), max_size=2),
)


@settings(bounded, max_examples=25)
@given(small_fractions, small_fractions)
# rational coefficients over a field-free and a field denominator: a wrong
# den fails here at once, before any search or shrinking
@example(Fraction(X1 * E * PyFraction(3, 2), C0), Fraction(U1 + F, E + 2))
def test_bracket_fraction_matches_sympy(f, g):
    assert_bracket_fraction_matches_sympy(f, g)


# ---------------------------------------------------------------------------
# packed-field overflow


def test_exponent_overflow_raises():
    top = 1 << (K.FIELD_BITS - 1)
    u1, x1 = RING.gen("u1"), RING.gen("X1")
    with pytest.raises(StructureError):
        RING.monomial({"X1": top})
    with pytest.raises(StructureError):
        RING.monomial({"u1": top // 2})
    big = x1 ** (top // 2)  # the largest power of two that fits
    assert list(big.by_degree("X1")) == [top // 2]
    with pytest.raises(StructureError):
        big * big
    low = u1 ** -(top // 2)  # the lowest Laurent exponent that fits
    assert RING.pk.unpack(max(low.terms))[0] == -(top // 2)
    with pytest.raises(StructureError):
        low * u1 ** -1
    with pytest.raises(StructureError):
        K.diff(low.terms, RING.slot("u1"), PK)
    with pytest.raises(StructureError):
        low ** 2


@st.composite
def keys(draw):
    """A key whose fields are drawn in range, then guard bits set in random
    fields; or any int of the key's width, of either sign."""
    if draw(st.booleans()):
        return draw(st.integers(-(1 << 16 * RING.nvars), 1 << 16 * RING.nvars))
    key = 0
    for s in PK.shifts:
        key |= draw(st.integers(0, (1 << K.FIELD_BITS - 1) - 1)) << s
    for s in draw(st.lists(st.sampled_from(PK.shifts), max_size=2)):
        key |= 1 << s + K.FIELD_BITS - 1
    return key


@bounded
@given(st.lists(keys(), max_size=8))
def test_check_raises_exactly_when_a_key_has_a_guard_bit(ks):
    flagged = any(k & PK.guard for k in ks)
    try:
        PK.check(dict.fromkeys(ks, 1))
    except StructureError:
        assert flagged
    else:
        assert not flagged


def test_negative_exponent_on_non_laurent_slot_raises():
    exp = [0] * RING.nvars
    exp[RING.slot("X1")] = -1
    with pytest.raises(StructureError):
        RING.element({tuple(exp): 1})
    with pytest.raises(StructureError):
        K.mul_term(RING.gen("u1").terms, PK.displacement(exp), 1, PK)
