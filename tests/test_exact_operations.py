"""Each exact operation has one implementation; these pin what it computes.

* The leg operations: ``partial_trace_a`` and ``swap_legs`` must give
  entries that are ``==``, ``str``- and ``den_factors``-equal to the
  reference constructions of ``tests/exact_oracle.py`` (the block-sum
  loop and ``P @ m @ P``).  Inputs: the rational r at lam -+ mu, criterion
  10's sign-flipped r mutants, and random 4x4 matrices whose entries have
  factored denominators.
* The Fraction power: ``f ** p`` must equal, in the same three ways, the
  repeated squaring of Fraction products in ``tests/exact_oracle.py``.
* The coercion rule of ``RingElement`` and ``as_fraction``: for each kind of
  operand the result type, or the exception, is pinned, and an exact result
  must equal the one built from ``ring.const`` of the operand's value.
"""

from fractions import Fraction as QQ

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle as oracle
from bilax.phase_ring import Fraction, Kind, RingElement, StructureError, as_fraction
from bilax.spectral_matrix import (
    lam,
    matrix,
    mu,
    partial_trace_a,
    rational_r_builder,
    swap_legs,
)
from bilax.structure_checks import flip_entry, nonzero_positions
from bilax.toda_models import build_bcn

RING = build_bcn(1).ring
LAM, MU = lam(RING), mu(RING)
RB = rational_r_builder(RING)

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_same_fraction(got, want):
    assert got == want
    assert str(got) == str(want)
    assert got.den_factors == want.den_factors


def assert_same(got, want):
    assert got.dim == want.dim
    for row_g, row_w in zip(got.rows, want.rows):
        for g, w in zip(row_g, row_w):
            assert_same_fraction(g, w)


def assert_leg_operations_match(m):
    assert_same(partial_trace_a(m), oracle.partial_trace_a(m))
    assert_same(swap_legs(m), oracle.swap_legs(m))


# ---------------------------------------------------------------------------
# leg operations against the reference constructions


def test_leg_operations_on_the_rational_r():
    for arg in (LAM - MU, LAM + MU):
        assert_leg_operations_match(RB(arg))


def test_leg_operations_on_criterion_10_r_mutants():
    positions = nonzero_positions(RB(LAM))
    assert len(positions) == 4
    for i, j in positions:
        mutant = flip_entry(RB, i, j)
        for arg in (LAM - MU, LAM + MU):
            assert_leg_operations_match(mutant(arg))


GENS = ("u1", "X1", "th1", "a1", "lam", "mu")
DEN_FACTORS = (
    LAM - MU,
    LAM + MU,
    LAM,
    2 * LAM + 1,
    RING.gen("th1"),  # a parameter atom, cancelled against the numerator
    RING.gen("u1"),  # Laurent: folds into the numerator
    RING.gen("X1") + LAM,
)


@st.composite
def monomials(draw):
    powers = {}
    for name in draw(st.lists(st.sampled_from(GENS), max_size=3, unique=True)):
        e = draw(st.integers(-2, 2))
        powers[name] = e if RING.kind_of(name) is Kind.COORD_EXP else abs(e)
    coeff = QQ(draw(st.integers(-4, 4).filter(bool)), draw(st.sampled_from((1, 1, 2, 3))))
    return RING.monomial(powers, coeff)


@st.composite
def entries(draw):
    num = sum(draw(st.lists(monomials(), max_size=3)), RING.zero)
    den = RING.one
    for f in draw(st.lists(st.sampled_from(DEN_FACTORS), max_size=3)):
        den = den * f
    return Fraction(num, den)


matrices4 = st.lists(entries(), min_size=16, max_size=16).map(
    lambda es: matrix(RING, [es[4 * i:4 * i + 4] for i in range(4)])
)


@bounded
@given(matrices4)
def test_leg_operations_on_random_factored_matrices(m):
    assert_leg_operations_match(m)


@bounded
@given(entries(), st.integers(-2, 3))
def test_fraction_power_matches_repeated_products(f, p):
    if p < 0 and f.is_zero:
        with pytest.raises(StructureError):
            f ** p
        return
    assert_same_fraction(f ** p, oracle.fraction_power(f, p))


def test_leg_operations_by_hand():
    # entry ((i,k),(j,l)) of m holds 8i + 4k + 2j + l
    m = matrix(RING, [[RING.const(4 * r + c) for c in range(4)] for r in range(4)])
    assert [[str(e) for e in row] for row in partial_trace_a(m).rows] == [
        ["10", "12"], ["18", "20"]
    ]
    # the swap reads entry ((k,i),(l,j)): rows and columns 1 and 2 exchange
    assert [[str(e) for e in row] for row in swap_legs(m).rows] == [
        ["0", "2", "1", "3"],
        ["8", "10", "9", "11"],
        ["4", "6", "5", "7"],
        ["12", "14", "13", "15"],
    ]


# ---------------------------------------------------------------------------
# the coercion table


class Foreign:
    def __repr__(self):
        return "Foreign()"


OPERANDS = (
    ("int", 2),
    ("bool", True),
    ("fractions.Fraction", QQ(1, 2)),
    ("numpy.int64", np.int64(2)),
    ("float", 2.0),
    ("numpy.float64", np.float64(2.0)),
    ("foreign", Foreign()),
    ("other ring", build_bcn(2).ring.gen("X1")),
)
#: the exact value of each operand that coerces
EXACT = {"int": 2, "bool": 1, "fractions.Fraction": QQ(1, 2), "numpy.int64": 2}

OPS = {
    "el*x": lambda el, x: el * x,
    "x*el": lambda el, x: x * el,
    "el+x": lambda el, x: el + x,
    "as_fraction": lambda el, x: as_fraction(el.ring, x),
}
R, F, S, T = RingElement, Fraction, StructureError, TypeError
#: result type or exception, in OPERANDS order
TABLE = {
    "el*x": (R, R, R, R, S, S, T, S),
    "x*el": (R, R, R, R, S, S, T, S),
    "el+x": (R, R, R, R, S, S, T, S),
    "as_fraction": (F, F, F, F, S, S, type(None), S),
}
#: el == x, in OPERANDS order
EQUALS = {
    "X1 + 2": (False,) * 8,
    "2": (True, False, False, True, False, False, False, False),
}
ELEMENTS = {"X1 + 2": RING.gen("X1") + 2, "2": RING.const(2)}


def canonical(value):
    el = value.num if isinstance(value, Fraction) else value
    return all(
        type(c) is int or (type(c) is QQ and c.denominator != 1)
        for c in el.terms.values()
    )


@pytest.mark.parametrize("el_name", sorted(ELEMENTS))
@pytest.mark.parametrize("op", sorted(OPS))
def test_coercion_table(op, el_name):
    el = ELEMENTS[el_name]
    for (name, x), want in zip(OPERANDS, TABLE[op]):
        if isinstance(want, type) and issubclass(want, Exception):
            with pytest.raises(want):
                OPS[op](el, x)
            continue
        got = OPS[op](el, x)
        assert type(got) is want, (op, name)
        if got is None:
            continue
        ref = OPS[op](el, RING.const(EXACT[name]))
        assert str(got) == str(ref), (op, name)
        assert canonical(got), (op, name)


@pytest.mark.parametrize("el_name", sorted(ELEMENTS))
def test_equality_table(el_name):
    el = ELEMENTS[el_name]
    for (name, x), want in zip(OPERANDS, EQUALS[el_name]):
        got = el == x
        assert type(got) is bool and got is want, name
        assert (el != x) is (not want), name
