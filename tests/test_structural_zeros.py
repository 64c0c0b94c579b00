"""Structural zeros and units are skipped in the matrix and ring layers.

* Differential: ``@`` hands ``dot`` only the pairs of nonzero entries, and
  ``contract`` hands it every pair, which ``dot`` skips where a factor is
  zero; an entry with no nonzero pair is the zero.  Each must give entries
  that are ``==``, ``str``-, ``den_factors``- and key-order-equal to the
  former one ``dot`` over every pair (``exact_oracle.dot_matmul`` and
  ``dot_contract``), and ``==``,
  ``str``- and ``den_factors``-equal to the left-to-right ``+`` loop and
  the embedded-product partial trace.  Inputs: random zero patterns,
  all-zero rows and columns, identity legs and the 8x8 CYBE operands.
  ``x + 0``, ``0 + x``, ``x - 0``, ``0 - x``, ``x * 0``, ``0 * x``,
  ``x * 1`` and ``1 * x`` must equal the former general path in the same
  four ways, and so must the ring product with a zero operand.
  ``bracket_fraction`` of an operand without field partials must equal the
  per-pair quotient-rule oracle.
* Structural: while ``_verify_reports`` runs for bcn N=2 and dn N=2, no
  ``kernel.mul``, ``mul_acc``, ``add`` or ``sub`` call gets an empty
  operand, from ``dot`` or elsewhere.  ``dot`` of no pairs, or of zero
  pairs only, is the zero with no factors.  Products of all-zero matrices,
  and ``contract`` with an all-zero operand, return the zero.
"""

import sys
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle as oracle
from exact_oracle import assert_same, assert_same_fraction
from bilax import phase_ring
from bilax.backend import kernel as K
from bilax.cli import _verify_reports
from bilax.phase_ring import Fraction, Kind, dot
from bilax.spectral_matrix import (
    SpectralMatrix,
    contract,
    det_2x2,
    identity,
    inverse_2x2,
    kron,
    lam,
    mu,
    nu,
    permute_legs,
    rational_r_builder,
    zeros,
)
from bilax.structure_checks import flip_entry
from bilax.toda_models import build_bcn, build_dn
from mutations import nonzero_positions

MODEL = build_bcn(1)
RING, PS = MODEL.ring, MODEL.ps
LAM, MU, NU = lam(RING), mu(RING), nu(RING)
RB = rational_r_builder(RING)
ZERO, ONE = Fraction(RING.zero), Fraction(RING.one)
OVER = Fraction(RING.one, LAM - MU)

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)
few = settings(max_examples=20, deadline=None, derandomize=True, database=None)


GENS = ("u1", "X1", "th1", "a1", "lam", "mu")
CENTRAL = ("th1", "a1", "lam", "mu")
CENTRAL_FACTORS = (LAM - MU, LAM + MU, LAM, RING.gen("th1"))
DEN_FACTORS = CENTRAL_FACTORS + (RING.gen("u1"), RING.gen("X1") + LAM)


@st.composite
def monomials(draw, gens=GENS):
    powers = {}
    for name in draw(st.lists(st.sampled_from(gens), max_size=3, unique=True)):
        e = draw(st.integers(-2, 2))
        powers[name] = e if RING.kind_of(name) is Kind.COORD_EXP else abs(e)
    coeff = QQ(draw(st.integers(-4, 4).filter(bool)), draw(st.sampled_from((1, 1, 2, 3))))
    return RING.monomial(powers, coeff)


@st.composite
def entries(draw, gens=GENS, factors=DEN_FACTORS):
    num = sum(draw(st.lists(monomials(gens), min_size=1, max_size=3)), RING.zero)
    den = RING.one
    for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
        den = den * f
    return Fraction(num, den)


#: half of the entries are zero, and some are the unit
sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ONE), entries(), entries())


@st.composite
def sparse_square(draw, n):
    """An n x n matrix with a random zero pattern, and maybe one all-zero
    row and one all-zero column."""
    rows = [[draw(sparse_entries) for _ in range(n)] for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        rows[i] = [ZERO] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        for row in rows:
            row[j] = ZERO
    return SpectralMatrix(RING, rows)


def assert_product_matches(a, b):
    got = a @ b
    assert_same(got, oracle.dot_matmul(a, b), key_order=True)
    assert_same(got, oracle.matmul(a, b))


# ---------------------------------------------------------------------------
# the matrix layer against the former one-dot path


@few
@given(st.sampled_from((2, 4)).flatmap(lambda n: st.tuples(sparse_square(n), sparse_square(n))))
def test_matmul_of_sparse_matrices_matches_the_dot_over_all_pairs(ab):
    assert_product_matches(*ab)


@few
@given(sparse_square(2), sparse_square(4))
def test_matmul_with_identity_legs_matches_the_dot_over_all_pairs(a, m):
    one = identity(RING, 2)
    assert_product_matches(kron(a, one), m)
    assert_product_matches(m, kron(one, a))
    assert_product_matches(kron(one, a), kron(a, one))


def cybe_operands(r_builder):
    """r_ab, r_ac and r_bc as ``check_cybe`` builds them."""
    one = identity(RING, 2)
    return (kron(r_builder(LAM - MU), one),
            permute_legs(kron(r_builder(LAM - NU), one), (0, 2, 1)),
            kron(one, r_builder(MU - NU)))


@pytest.mark.parametrize("flip", [None] + nonzero_positions(RB(LAM)), ids=str)
def test_matmul_of_the_cybe_operands_matches_the_dot_over_all_pairs(flip):
    builder = RB if flip is None else flip_entry(RB, *flip)
    r_ab, r_ac, r_bc = cybe_operands(builder)
    for a, b in ((r_ab, r_ac), (r_ac, r_ab), (r_ab, r_bc), (r_bc, r_ab), (r_ac, r_bc), (r_bc, r_ac)):
        assert_product_matches(a, b)


@few
@given(sparse_square(4), sparse_square(2), sparse_square(4), sparse_square(2))
def test_contract_of_sparse_matrices_matches_the_dot_over_all_pairs(r1, c1, r2, c2):
    assert_same(contract(r1, c1), oracle.dot_contract(r1, c1), key_order=True)
    assert_same(contract(r1, c1), oracle.contract(r1, c1))
    assert_same(contract(r1, c1, r2, c2), oracle.dot_contract(r1, c1, r2, c2), key_order=True)


def test_contract_of_the_rational_r_matches_the_dot_over_all_pairs():
    c = SpectralMatrix(RING, [[Fraction(RING.gen("X1")), ZERO], [ONE, Fraction(RING.gen("u1"), LAM)]])
    for r in (RB(LAM - MU), RB(LAM + MU), kron(c, c)):
        assert_same(contract(r, c), oracle.dot_contract(r, c), key_order=True)
        assert_same(contract(r, c), oracle.contract(r, c))
        assert_same(contract(r, c, RB(LAM), c), oracle.dot_contract(r, c, RB(LAM), c),
                    key_order=True)


# ---------------------------------------------------------------------------
# the ring layer against the former general paths


@bounded
@given(st.one_of(entries(), st.just(ZERO), st.just(ONE)))
def test_zero_and_unit_operands_match_the_general_path(x):
    add, sub = K.add, K.sub
    assert_same_fraction(x + ZERO, oracle.fraction_combine(x, ZERO, add), key_order=True)
    assert_same_fraction(ZERO + x, oracle.fraction_combine(ZERO, x, add), key_order=True)
    assert_same_fraction(x - ZERO, oracle.fraction_combine(x, ZERO, sub), key_order=True)
    assert_same_fraction(ZERO - x, oracle.fraction_combine(ZERO, x, sub), key_order=True)
    assert_same_fraction(x * ZERO, oracle.fraction_product(x, ZERO), key_order=True)
    assert_same_fraction(ZERO * x, oracle.fraction_product(ZERO, x), key_order=True)
    assert_same_fraction(x * ONE, oracle.fraction_product(x, ONE), key_order=True)
    assert_same_fraction(ONE * x, oracle.fraction_product(ONE, x), key_order=True)
    # a unit numerator over a factor is no unit
    assert_same_fraction(x * OVER, oracle.fraction_product(x, OVER), key_order=True)
    assert_same_fraction(OVER * x, oracle.fraction_product(OVER, x), key_order=True)
    # the one-pair dot is a third build of x
    for got in (x + ZERO, ZERO + x, x - ZERO, x * ONE, ONE * x):
        assert_same_fraction(got, dot(RING, [(x, ONE)]), key_order=True)
    assert_same_fraction(ZERO - x, dot(RING, [(-x, ONE)]), key_order=True)
    n = x.num
    for a, b in ((n, RING.zero), (RING.zero, n)):
        got, want = a * b, oracle.ring_product(a, b)
        assert got == want and str(got) == str(want) and list(got.terms) == list(want.terms)


@bounded
@given(st.one_of(entries(CENTRAL, CENTRAL_FACTORS), st.just(ZERO)),
       st.one_of(entries(), entries(CENTRAL, CENTRAL_FACTORS)))
def test_bracket_fraction_of_an_operand_without_partials_is_the_zero(f, g):
    assert not f.partials()[0]
    for a, b in ((f, g), (g, f)):
        got = PS.bracket_fraction(a, b)
        assert got.is_zero
        assert_same_fraction(got, oracle.bracket_fraction(PS, a, b), key_order=True)


# ---------------------------------------------------------------------------
# no zero operand reaches the kernel or dot while verify runs


@pytest.mark.parametrize("build", [build_bcn, build_dn], ids=["bcn2", "dn2"])
def test_verify_hands_no_zero_operand_to_the_kernel_or_dot(monkeypatch, build):
    calls, sums, empty = [0], [0], []
    mul, mul_acc, add, sub = K.mul, K.mul_acc, K.add, K.sub

    def counted(f):
        # the two factors come just before pk in mul and in mul_acc
        def wrapper(*args):
            calls[0] += 1
            if not (args[-3] and args[-2]):
                empty.append(f.__name__)
            return f(*args)
        return wrapper

    def summed(f):
        # x + 0, 0 + x, x - 0 and 0 - x return without a kernel sum
        def wrapper(a, b):
            sums[0] += 1
            if not (a and b):
                empty.append(f.__name__)
            return f(a, b)
        return wrapper

    def dot_spy(ring, pairs):
        # counted only: dot skips a pair with a zero factor, so one that
        # reached the kernel would show as an empty operand above
        calls[0] += 1
        return dot(ring, pairs)

    monkeypatch.setattr(K, "mul", counted(mul))
    monkeypatch.setattr(K, "mul_acc", counted(mul_acc))
    monkeypatch.setattr(K, "add", summed(add))
    monkeypatch.setattr(K, "sub", summed(sub))
    bound = [m for name, m in sys.modules.items()
             if name.startswith("bilax.") and getattr(m, "dot", None) is dot]
    assert phase_ring in bound
    for module in bound:
        monkeypatch.setattr(module, "dot", dot_spy)
    _verify_reports(build(2))
    assert calls[0] > 1000 and sums[0] > 100
    assert empty == []


def test_dot_of_no_pairs_or_of_zero_pairs_only_is_the_zero():
    x = Fraction(RING.gen("X1"), LAM - MU)
    for pairs in ([], [(ZERO, x)], [(x, ZERO), (ZERO, ZERO)], iter([(ZERO, x)])):
        got = dot(RING, pairs)
        assert got.is_zero and got.ring is RING
        assert str(got) == "0" and got.den_factors == ()


@pytest.mark.parametrize("n", [2, 4, 8])
def test_products_of_zero_matrices_are_the_zero(n):
    z = zeros(RING, n)
    for got in (z @ z, z @ identity(RING, n), identity(RING, n) @ z):
        assert got.is_zero
        assert all(str(e) == "0" and e.den_factors == () for row in got for e in row)


def test_contract_with_an_all_zero_operand_is_the_zero():
    c = SpectralMatrix(RING, [[ONE, Fraction(RING.gen("X1"))], [ZERO, Fraction(RING.one, LAM)]])
    for r, y in ((zeros(RING, 4), c), (RB(LAM - MU), zeros(RING, 2)), (zeros(RING, 4), zeros(RING, 2))):
        got = contract(r, y)
        assert got.is_zero
        assert all(e.den_factors == () for row in got for e in row)
    assert det_2x2(zeros(RING, 2)).is_zero
    with pytest.raises(phase_ring.StructureError, match="identically zero determinant"):
        inverse_2x2(zeros(RING, 2))
