"""lam-series coefficients by long division in 1/lam, against two oracles.

* ``double_row_oracle.lambda_series_coefficient`` is the extraction the
  package used before: a binomial series per pole factor, convolved in the
  kernel.  Both must give ``==``, ``str``- and ``den_factors``-equal
  results on every entry of ``Derivation.M(j, +-1)`` at each power the
  model's recipe reads (and at lam^-1, one step into the tail), for bcn
  N=1..5, dn N=2..5, a shifted ``boundary_M(..., lam + 1, 3*mu)`` and the
  four r-matrix sign-flip derivations at N=2.
* sympy shares no bilax arithmetic: for N/(D*G) with pole factors
  (lam +- a*mu + b)^e and lam^e in D and one lam-free factor G, the lam^p
  coefficient (p >= 0) is that of the quotient of ``sympy.div(N, D, lam)``,
  divided by G.
"""

from fractions import Fraction as PyFraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import double_row_oracle
from bilax.double_row import (
    Derivation,
    RatioRecipe,
    boundary_M,
    lambda_series_coefficient,
)
from bilax.phase_ring import Fraction
from bilax.spectral_matrix import lam, mu, rational_r_builder
from bilax.structure_checks import flip_entry
from bilax.toda_models import build_bcn, build_dn
from mutations import nonzero_positions


def recipe_powers(recipe):
    if isinstance(recipe, RatioRecipe):
        return (recipe.num_power, recipe.den_power)
    return (recipe.power,)


def assert_matches_oracle(matrix, powers):
    for row in matrix.rows:
        for e in row:
            for p in (*powers, -1):
                got = lambda_series_coefficient(e, p)
                want = double_row_oracle.lambda_series_coefficient(e, p)
                assert got == want
                assert str(got) == str(want)
                assert got.den_factors == want.den_factors


def build(name, n):
    return build_bcn(n) if name == "bcn" else build_dn(n)


MODELS = [("bcn", n) for n in range(1, 6)] + [("dn", n) for n in range(2, 6)]


@pytest.mark.parametrize("name,n", MODELS, ids=str)
def test_generating_matrix_coefficients_match_oracle(name, n):
    model = build(name, n)
    d = model.derivation
    for j in range(1, n + 2):
        for s in (1, -1):
            assert_matches_oracle(d.M(j, s), recipe_powers(model.recipe))


@pytest.mark.parametrize("name", ("bcn", "dn"))
def test_shifted_generating_matrix_coefficients_match_oracle(name):
    model = build(name, 2)
    ring = model.ring
    for j in range(1, 4):
        gen = boundary_M(model.lax, model.km, model.kp, 2, j, lam(ring) + 1, 3 * mu(ring))
        assert_matches_oracle(gen, recipe_powers(model.recipe))


@pytest.mark.parametrize("name", ("bcn", "dn"))
def test_r_flip_coefficients_match_oracle(name):
    model = build(name, 2)
    l_ = lam(model.ring)
    rb = rational_r_builder(model.ring)
    flips = nonzero_positions(rb(l_))
    assert len(flips) == 4
    for i, j in flips:
        d = Derivation(model.lax, model.km, model.kp, 2, l_, flip_entry(rb, i, j), model.recipe)
        for site in range(1, 4):
            for s in (1, -1):
                assert_matches_oracle(d.M(site, s), recipe_powers(model.recipe))


# ---------------------------------------------------------------------------
# random quotients against sympy.div

RING = build_dn(2).ring
LAM, MU = lam(RING), mu(RING)
SYMBOLS = sympy.symbols(RING.names)
S_LAM = SYMBOLS[RING.slot("lam")]
#: b of a pole factor: 0, constants, and elements whose leading term is not
#: lam's, so that the monic factor has lam coefficient other than 1
OFFSETS = (
    RING.zero, RING.one, RING.const(-3), RING.gen("c0") * 2,
    RING.gen("X1") * PyFraction(1, 2) - 1, RING.gen("u1"),
)
#: the lam-free factor G
SIDE = (RING.one, RING.gen("u1") - RING.gen("F"), MU + 3, RING.gen("c0") * 2 + RING.gen("X1"))


def to_sympy(el):
    out = sympy.Integer(0)
    for exps, c in el.monomials():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(SYMBOLS, exps):
            term *= s ** e
        out += term
    return out


def fraction_to_sympy(f):
    return to_sympy(f.num) / to_sympy(f.den)


@st.composite
def numerators(draw):
    out = RING.zero
    for _ in range(draw(st.integers(1, 4))):
        powers = {
            "lam": draw(st.integers(0, 6)),
            "mu": draw(st.integers(0, 2)),
            "u1": draw(st.integers(-1, 1)),
            draw(st.sampled_from(("X1", "E", "c0"))): draw(st.integers(0, 1)),
        }
        coeff = PyFraction(draw(st.integers(-5, 5).filter(bool)), draw(st.sampled_from((1, 1, 2, 3))))
        out = out + RING.monomial(powers, coeff)
    return out


pole_factors = st.lists(
    st.tuples(
        st.sampled_from((1, -1)),
        st.sampled_from((0, 1, 2, PyFraction(1, 2))),
        st.sampled_from(OFFSETS),
        st.integers(1, 2),
    ),
    max_size=3,
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(numerators(), pole_factors, st.integers(0, 2), st.sampled_from(SIDE), st.integers(0, 4))
def test_series_coefficient_matches_sympy_division(num, poles, lam_power, side, p):
    factors = [(LAM + s * a * MU + b, e) for s, a, b, e in poles] + [(LAM, lam_power)]
    value = Fraction(num) / Fraction(side)
    den = RING.one
    for el, e in factors:
        value = value * Fraction(el).reciprocal() ** e
        den = den * el ** e
    got = lambda_series_coefficient(value, p)
    quotient, _ = sympy.div(to_sympy(num), to_sympy(den), S_LAM)
    want = sympy.expand(quotient).coeff(S_LAM, p) / to_sympy(side)
    assert sympy.cancel(fraction_to_sympy(got) - want) == 0
