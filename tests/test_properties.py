"""Property tests of the exact ring on random dn-ring elements.

These check laws rather than values: the Poisson bracket is antisymmetric,
a derivation in each argument and satisfies Jacobi; fraction equality does
not depend on how a quotient is written; stored coefficients are canonical.
Example counts are bounded and the search is derandomized, so every run
checks the same cases.
"""

from fractions import Fraction as PyFraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bilax.phase_ring import Fraction, Kind, RingElement
from bilax.toda_models import toda_ring, toda_structure

RING = toda_ring(2, dynamical=True)
PS = toda_structure(RING)
GENS = ("u1", "u2", "X1", "X2", "E", "F", "H", "c0")

bounded = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def monomials(draw):
    powers = {}
    for name in draw(st.lists(st.sampled_from(GENS), max_size=3, unique=True)):
        e = draw(st.integers(-2, 2))
        powers[name] = e if RING.kind_of(name) is Kind.COORD_EXP else abs(e)
    num = draw(st.integers(-4, 4).filter(bool))
    den = draw(st.sampled_from((1, 1, 2, 3)))
    return RING.monomial(powers, PyFraction(num, den))


elements = st.lists(monomials(), max_size=4).map(lambda ms: sum(ms, RING.zero))
nonzero = elements.filter(lambda el: not el.is_zero)


@bounded
@given(elements, elements)
def test_bracket_antisymmetric(f, g):
    assert PS.bracket(f, g) == -PS.bracket(g, f)


@bounded
@given(elements, elements, elements)
def test_bracket_leibniz(f, g, h):
    assert PS.bracket(f, g * h) == PS.bracket(f, g) * h + g * PS.bracket(f, h)
    assert PS.bracket(g * h, f) == PS.bracket(g, f) * h + g * PS.bracket(h, f)


@settings(bounded, max_examples=25)
@given(elements, elements, elements)
def test_bracket_jacobi(f, g, h):
    assert PS.jacobi_residual(f, g, h).is_zero


@bounded
@given(elements, nonzero, nonzero, elements, nonzero)
def test_fraction_eq_invariant_under_common_scaling(p, q, s, r, t):
    a = Fraction(p, q)
    scaled = Fraction(p * s, q * s)
    assert a == scaled
    other = Fraction(r, t)
    assert (a == other) == (scaled == other)


def _canonical(el):
    for c in el.terms.values():
        if type(c) is int:
            assert c != 0
        else:
            assert type(c) is PyFraction, type(c)
            assert c != 0 and c.denominator != 1, c


@bounded
@given(elements, elements, nonzero, st.integers(-4, 4).filter(bool), st.integers(-3, 3))
def test_stored_coefficients_are_canonical(f, g, m, c, k):
    for el in (f, g, f + g, f - g, f * g, -f, f * PyFraction(2, 3),
               f * PyFraction(3, 1), f ** 2, PS.bracket(f, g), f.coeff_of("u1", 1),
               *[RingElement(RING, d) for d in Fraction(f).partials().values()]):
        _canonical(el)
    _canonical(RING.monomial({"u1": 1, "u2": -2}, PyFraction(c, 2)) ** k)
    fr = Fraction(f, m) + Fraction(g, m * m)
    _canonical(fr.num)
    _canonical(fr.den)
