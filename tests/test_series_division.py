"""lam-series coefficients by long division in 1/lam, against two oracles.

* ``double_row_oracle.lambda_series_coefficient`` is the extraction the
  package used before: a binomial series per pole factor, convolved in the
  kernel.  Both must give ``==``, ``str``- and ``den_factors``-equal
  results on every entry of ``Derivation.M(j, +-1)`` at each power the
  model's recipe reads (and at lam^-1, one step into the tail, all from
  one division per entry), for bcn
  N=1..5, dn N=2..5, a shifted ``boundary_M(..., lam + 1, 3*mu)`` and the
  four r-matrix sign-flip derivations at N=2.
* sympy shares no bilax arithmetic: for N/(D*G) with pole factors
  (lam +- a*mu + b)^e and lam^e in D and one lam-free factor G, the lam^p
  coefficient (p >= 0) is that of the quotient of ``sympy.div(N, D, lam)``,
  divided by G; lam^p and lam^0 come from one division.
* ``_verify_reports`` divides each flow-matrix entry once, at every power
  the recipe reads: 12 divisions at dn N=2, 16 at dn N=3 and bcn N=3.
"""

from fractions import Fraction as PyFraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import double_row_oracle
from bilax import double_row
from bilax.cli import _verify_reports
from bilax.double_row import Derivation, boundary_M, lambda_series_coefficient
from bilax.phase_ring import Fraction
from bilax.spectral_matrix import lam, mu, rational_r_builder
from bilax.structure_checks import flip_entry
from bilax.toda_models import build_bcn, build_dn
from mutations import nonzero_positions
from sympy_oracle import LAM as S_LAM, to_sympy


def assert_matches_oracle(matrix, powers):
    for row in matrix.rows:
        for e in row:
            series = lambda_series_coefficient(e, (*powers, -1))
            assert list(series) == [*powers, -1]
            for p, got in series.items():
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
            assert_matches_oracle(d.M(j, s), model.recipe.powers)


@pytest.mark.parametrize("name", ("bcn", "dn"))
def test_shifted_generating_matrix_coefficients_match_oracle(name):
    model = build(name, 2)
    ring = model.ring
    for j in range(1, 4):
        args = (model.lax, model.km, model.kp, 2, j, lam(ring) + 1, 3 * mu(ring))
        gen, want = boundary_M(*args), double_row_oracle.boundary_M(*args)
        assert gen == want and str(gen) == str(want)
        assert_matches_oracle(gen, model.recipe.powers)


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
                assert_matches_oracle(d.M(site, s), model.recipe.powers)


# ---------------------------------------------------------------------------
# random quotients against sympy.div

RING = build_dn(2).ring
LAM, MU = lam(RING), mu(RING)
#: b of a pole factor: 0, constants, and elements whose leading term is not
#: lam's, so that the monic factor has lam coefficient other than 1
OFFSETS = (
    RING.zero, RING.one, RING.const(-3), RING.gen("c0") * 2,
    RING.gen("X1") * PyFraction(1, 2) - 1, RING.gen("u1"),
)
#: the lam-free factor G
SIDE = (RING.one, RING.gen("u1") - RING.gen("F"), MU + 3, RING.gen("c0") * 2 + RING.gen("X1"))


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
    # lam^0 is the deepest power: the division runs past lam^p to reach it
    series = lambda_series_coefficient(value, (p, 0))
    quotient, _ = sympy.div(to_sympy(num), to_sympy(den), S_LAM)
    for q, got in series.items():
        want = sympy.expand(quotient).coeff(S_LAM, q) / to_sympy(side)
        assert sympy.cancel(to_sympy(got) - want) == 0


# ---------------------------------------------------------------------------
# one division per flow-matrix entry


@pytest.mark.parametrize("name,n,calls", [("dn", 2, 12), ("dn", 3, 16), ("bcn", 3, 16)])
def test_verify_divides_each_flow_entry_once(name, n, calls, monkeypatch):
    # verify extracts flow(j, 1) for j = 1..N+1 and reflects flow(j, -1):
    # 4 entries per site index, one division each, at the recipe's powers
    asked = []
    real = double_row.lambda_series_coefficient

    def spy(value, powers):
        asked.append(tuple(powers))
        return real(value, powers)

    monkeypatch.setattr(double_row, "lambda_series_coefficient", spy)
    model = build(name, n)
    _verify_reports(model)
    assert len(asked) == calls == 4 * (n + 1)
    assert set(asked) == {model.recipe.powers}
