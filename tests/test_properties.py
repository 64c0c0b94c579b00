"""Property tests of the exact ring on random dn-ring elements.

These check laws rather than values: the Poisson bracket is antisymmetric,
a derivation in each argument and satisfies Jacobi; fraction equality does
not depend on how a quotient is written; stored coefficients are canonical;
``by_degree`` splits an element as a reader over its exponent tuples does.
Example counts are bounded and the search is derandomized, so every run
checks the same cases.
"""

from fractions import Fraction as PyFraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from bilax.phase_ring import Fraction, Kind
from bilax.toda_models import toda_ring, toda_structure

RING = toda_ring(2, dynamical=True)
PS = toda_structure(RING)
GENS = ("u1", "u2", "X1", "X2", "E", "F", "H", "c0")
#: with the spectral slots, which ``by_degree`` reads most
SPLIT_GENS = GENS + ("lam", "mu")

bounded = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def monomials(draw, gens=GENS):
    powers = {}
    for name in draw(st.lists(st.sampled_from(gens), max_size=3, unique=True)):
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
    """Nonzero int terms over a positive int den coprime to their gcd, read
    as canonical rationals."""
    assert type(el.den) is int and el.den > 0
    for c in el.terms.values():
        assert type(c) is int and c != 0, c
    assert gcd(el.den, *el.terms.values()) == 1
    for _, c in el.monomials():
        assert type(c) is int or (type(c) is PyFraction and c.denominator != 1), c


@bounded
@given(elements, elements, nonzero, st.integers(-4, 4).filter(bool), st.integers(-3, 3))
def test_stored_coefficients_are_canonical(f, g, m, c, k):
    for el in (f, g, f + g, f - g, f * g, -f, f * PyFraction(2, 3),
               f * PyFraction(3, 1), f ** 2, PS.bracket(f, g), *f.by_degree("u1").values()):
        _canonical(el)
    partials, den = Fraction(f).partials()
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for d in partials.values() for c in d.values())
    _canonical(RING.monomial({"u1": 1, "u2": -2}, PyFraction(c, 2)) ** k)
    fr = Fraction(f, m) + Fraction(g, m * m)
    _canonical(fr.num)
    _canonical(fr.den)


def read_by_degree(el, name):
    """{p: {exponent tuple with name's slot zeroed: coefficient}}, powers
    ascending and terms in el's order, read from ``monomials()``."""
    i = RING.slot(name)
    out = {}
    for exps, c in el.monomials():
        out.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
    return dict(sorted(out.items()))


@bounded
@given(st.lists(monomials(SPLIT_GENS), max_size=5).map(lambda ms: sum(ms, RING.zero)),
       st.sampled_from(("u1", "u2", "X1", "H", "c0", "lam", "mu")))
def test_by_degree_matches_a_reader_over_monomials(el, name):
    got = el.by_degree(name)
    want = read_by_degree(el, name)
    assert list(got) == list(want)
    for p, c in got.items():
        assert list(c.monomials()) == list(want[p].items())
        assert not c.is_zero and not c.involves(name)
        _canonical(c)
    assert sum((c * RING.monomial({name: p}) for p, c in got.items()), RING.zero) == el
    assert RING.zero.by_degree(name) == {}
