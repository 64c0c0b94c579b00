"""The ring's one coefficient representation: int terms over one den.

A ``RingElement`` is ``terms / den`` with nonzero ``int`` coefficients and a
positive ``int`` den coprime to their gcd, so only ints reach the term
kernel.  Checked here:

* Differential, on random rational Laurent polynomials (denominators up to
  6, negative coefficients, Laurent slots): ``+ - * **``, ``by_degree``,
  ``monomials``, ``str``, ``==`` and ``key()`` against the tuple-keyed
  ``Fraction`` kernel of ``tuple_kernel``, with ``str`` and ``key()`` as
  they read when coefficients were canonical rationals; ``+ - * **``,
  ``exact_divide`` and ``bracket_fraction`` (also over a bracket table
  with rational entries) against sympy; ``dot`` against
  the left-to-right sum of its products.  Every result is canonical.
* Structural: every coefficient that reaches ``kernel.mul``, ``mul_acc``,
  ``add`` or ``sub`` is an ``int``, while ``_verify_reports`` runs for bcn
  and dn at N=2 and 3 and while the dn N=2 simulate sets up its channels.
* A bracket whose sum cancels holds a fresh ``{}``, not the table its
  accumulator grew.
"""

import functools
import operator
import sys
from fractions import Fraction as PyFraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuple_kernel as T
from bilax.backend import kernel as K
from bilax.cli import _verify_reports, build_parser
from bilax.phase_ring import Fraction, dot, exact_divide
from bilax.toda_models import casimir, model_from_config, toda_ring, toda_structure
from rational_terms import canon
from sympy_oracle import same, sympy_bracket, to_sympy

RING = toda_ring(2, dynamical=True)
PK = RING.pk
PS = toda_structure(RING)
#: slots the random inputs use (the rest stay 0): two Laurent, four not
LIVE = tuple(RING.slot(n) for n in ("u1", "u2", "X1", "E", "H", "lam"))
ONE = (0,) * RING.nvars

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)
few = settings(bounded, max_examples=25)

coefficients = st.builds(
    PyFraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 2, 3, 4, 6))
)


@st.composite
def exponents(draw):
    exp = [0] * RING.nvars
    for i in LIVE:
        exp[i] = draw(st.integers(-2 if RING.laurent[i] else 0, 2))
    return tuple(exp)


tuple_dicts = st.dictionaries(exponents(), coefficients, max_size=5)
nonzero_dicts = st.dictionaries(exponents(), coefficients, min_size=1, max_size=3)


def assert_canonical(el):
    assert type(el.den) is int and el.den > 0
    assert all(type(c) is int and c for c in el.terms.values())
    assert gcd(el.den, *el.terms.values()) == 1


def reference_str(d):
    """``str`` of the tuple dict d, term by term in descending key order."""
    if not d:
        return "0"
    parts = []
    for exps in sorted(d, key=PK.pack, reverse=True):
        c = canon(d[exps])
        mono = "*".join(n if e == 1 else "%s^%d" % (n, e)
                        for n, e in zip(RING.names, exps) if e)
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(mono if c == 1 else "-" + mono)
        else:
            parts.append("%s*%s" % (c, mono))
    return " + ".join(parts).replace("+ -", "- ")


def from_monomials(d):
    """The element of the tuple dict d as a sum of monomials."""
    return sum((RING.monomial({n: e for n, e in zip(RING.names, exps) if e}, c)
                for exps, c in d.items()), RING.zero)


def assert_is(el, want):
    """el is the element of the tuple dict want, read every way."""
    assert_canonical(el)
    got = dict(el.monomials())
    assert got == want
    assert all(type(c) is int or (type(c) is PyFraction and c.denominator != 1)
               for c in got.values())
    key = el.key()
    assert key == tuple(sorted((PK.pack(e), canon(c)) for e, c in want.items()))
    assert [type(c) for _, c in key] == [type(canon(want[PK.unpack(e)])) for e, _ in key]
    assert str(el) == reference_str(want)
    assert el == from_monomials(want)
    assert not el == from_monomials(T.add(want, {ONE: PyFraction(1, 2)}))


def power(a, p):
    out = {ONE: 1}
    for _ in range(p):
        out = T.mul(out, a)
    return out


@bounded
@given(tuple_dicts, tuple_dicts, st.integers(0, 3))
def test_ring_operations_match_the_tuple_kernel(a, b, p):
    f, g = RING.element(a), RING.element(b)
    assert_is(f, {e: c for e, c in a.items()})
    assert_is(f + g, T.add(a, b))
    assert_is(f - g, T.sub(a, b))
    assert_is(g - f, T.sub(b, a))
    assert_is(f * g, T.mul(a, b))
    assert_is(-f, T.neg(a))
    assert_is(f ** p, power(a, p))
    assert_is(f * PyFraction(-3, 4), T.scale(a, PyFraction(-3, 4)))
    assert_is(f - f, {})


@bounded
@given(tuple_dicts, st.sampled_from(("u1", "u2", "X1", "E", "lam")))
def test_by_degree_matches_the_tuple_kernel(a, name):
    i = RING.slot(name)
    want = {}
    for exps, c in a.items():
        want.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
    got = RING.element(a).by_degree(name)
    assert list(got) == sorted(want)
    for p, part in got.items():
        assert_is(part, want[p])


SYMBOLS = sympy.symbols(RING.names)
LAURENT = [s for s, lau in zip(SYMBOLS, RING.laurent) if lau]


@few
@given(tuple_dicts, tuple_dicts, st.integers(0, 3))
def test_ring_operations_match_sympy(a, b, p):
    f, g = RING.element(a), RING.element(b)
    sf, sg = to_sympy(f), to_sympy(g)
    assert same(to_sympy(f + g), sf + sg)
    assert same(to_sympy(f - g), sf - sg)
    assert same(to_sympy(f * g), sf * sg)
    assert same(to_sympy(f ** p), sf ** p)


def sympy_divides(num, den):
    """True when den divides num in the ring: the cancelled quotient's
    denominator is a constant times a power product of Laurent slots."""
    _, rest = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    return rest.free_symbols <= set(LAURENT) and sympy.Poly(rest, *SYMBOLS).is_monomial


@few
@given(tuple_dicts, nonzero_dicts, tuple_dicts)
def test_exact_divide_matches_sympy(q, d, r):
    Q, D = RING.element(q), RING.element(d)
    got = exact_divide(Q * D, D)
    assert_is(got, dict(Q.monomials()))
    for num in (Q * D + RING.element(r), RING.element(r)):
        got = exact_divide(num, D)
        assert (got is not None) == sympy_divides(num, D)
        if got is not None:
            assert_canonical(got)
            assert same(to_sympy(got) * to_sympy(D), to_sympy(num))


def test_exact_divide_stops_at_a_quotient_coefficient_that_does_not_divide():
    # the primitive parts run over ints: the first step's 1/2 proves that
    # den does not divide, and every later step stays inside the degree box
    num = 2 * U1 ** 2 * X1 ** 2 * E - 2 * U1 * X1 ** 2 * E ** 2 - 2 * U1 * X1 * E ** 2
    den = 2 * U1 * X1 ** 2 + U1 * X1
    assert exact_divide(num, den) is None
    assert not sympy_divides(num, den)


U1, U2, X1, X2, E, F, H, C0, _, LAM, MU, _ = map(RING.gen, RING.names)
#: the same table with rational entries, over dens 2 and 3
PS_RATIONAL = toda_structure(RING)
PS_RATIONAL.set_bracket("E", "F", H * PyFraction(1, 2))
PS_RATIONAL.set_bracket("X1", "u1", U1 * PyFraction(-2, 3))
#: field-free denominators and field ones, one with a rational coefficient
DENOMINATORS = (C0, LAM - MU, F - U1, E + 2, E + PyFraction(1, 2), 3 * H - PyFraction(2, 3))

small_fractions = st.builds(
    lambda num, dens: Fraction(RING.element(num), functools.reduce(operator.mul, dens, RING.one)),
    st.dictionaries(exponents(), coefficients, max_size=3),
    st.lists(st.sampled_from(DENOMINATORS), max_size=2),
)


@few
@given(small_fractions, small_fractions, st.sampled_from((PS, PS_RATIONAL)))
@example(Fraction(3 * X1 * E, C0), Fraction(U1 + F, E + PyFraction(1, 2)), PS_RATIONAL)
# rational coefficients over a field-free and a field denominator: a wrong
# den fails here at once, before any search or shrinking
@example(Fraction(X1 * E * PyFraction(3, 2), C0), Fraction(U1 + F, E + 2), PS)
def test_bracket_fraction_matches_sympy(f, g, ps):
    # sympy differentiates the quotients itself: no bilax quotient rule
    r = ps.bracket_fraction(f, g)
    assert_canonical(r.num)
    sf = to_sympy(f.num) / to_sympy(f.den)
    sg = to_sympy(g.num) / to_sympy(g.den)
    assert sympy.cancel(to_sympy(r.num) / to_sympy(r.den) - sympy_bracket(sf, sg, ps)) == 0


@bounded
@given(st.lists(st.tuples(small_fractions, small_fractions), max_size=4))
def test_dot_matches_the_left_to_right_sum(pairs):
    got = dot(RING, pairs)
    want = functools.reduce(operator.add, [x * y for x, y in pairs], Fraction(RING.zero))
    assert_canonical(got.num)
    assert got == want and str(got) == str(want) and got.den_factors == want.den_factors


# ---------------------------------------------------------------------------
# only ints reach the kernel


def spy_on_kernel(monkeypatch):
    """Wrap the kernel's products and sums; returns (call count, list of
    the names of calls that got a coefficient other than an int)."""
    calls, bad = [0], []

    def spied(name):
        real = getattr(K, name)

        def wrapper(*args):
            calls[0] += 1
            if any(type(c) is not int for a in args if isinstance(a, dict)
                   for c in a.values()):
                bad.append(name)
            return real(*args)
        monkeypatch.setattr(K, name, wrapper)

    for name in ("mul", "mul_acc", "add", "sub"):
        spied(name)
    return calls, bad


@pytest.mark.parametrize("name,n", [("bcn", 2), ("bcn", 3), ("dn", 2), ("dn", 3)])
def test_only_ints_reach_the_kernel_while_verify_runs(monkeypatch, name, n):
    calls, bad = spy_on_kernel(monkeypatch)
    _verify_reports(model_from_config({"model": name, "N": n}))
    assert calls[0] > 1000 and bad == []


def test_only_ints_reach_the_kernel_while_simulate_sets_up(monkeypatch):
    # the set-up of the dn N=2 simulate: the vector field, then one pass of
    # every diagnostic channel over a 2-step trajectory
    np = pytest.importorskip("numpy")
    from bilax import dynamics

    calls, bad = spy_on_kernel(monkeypatch)
    model = model_from_config({"model": "dn", "N": 2})
    args = build_parser().parse_args(["simulate", "--model", "dn", "--N", "2"])
    dynamics.vector_field(model)
    point = dynamics.random_phase_point(model, np.random.default_rng(1), amplitude=args.amplitude)
    traj = dynamics.integrate(model, point, args.dt, 2)
    dynamics.conserved_channels(model, traj)
    dynamics.zero_curvature_residual(model, traj, [float(x) for x in args.mu_samples.split(",")])
    dynamics.dn_x0_relation_residual(model, traj)
    assert calls[0] > 100 and bad == []


# ---------------------------------------------------------------------------
# a cancelled bracket


@pytest.mark.parametrize("scale", [1, PyFraction(1, 2)], ids=["int", "half"])
def test_a_bracket_that_cancels_keeps_no_table(scale):
    # the Casimir is central in sl(2), and u1 commutes with sl(2), but each
    # table entry of sl(2) contributes terms that cancel only in the sum
    f = casimir(PS.ring) ** 3 * U1 * scale
    g = E ** 2 + H * F
    got = PS.bracket_fraction(f, g)
    assert got.is_zero and got.num.den == 1
    assert sys.getsizeof(got.num.terms) == sys.getsizeof({})
