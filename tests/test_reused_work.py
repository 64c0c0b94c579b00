"""Reused work against the rebuilt work it replaces.

* Reflection: ``Fraction.reflect("mu")`` must be ``==``, ``str``- and
  ``den_factors``-equal to the substitution mu -> -mu, and every
  ``Derivation.M(j, -1)`` and ``flow(j, -1)`` at the boundary sites, which
  the derivation reflects from +mu, to the fresh 4x4 build of
  ``double_row_oracle.generating_matrix`` (90 matrices: bcn N=1..5 and dn
  N=2..5, j = 1 and N+1, the rational r and its four sign-flip mutants).
* Site steps: the products C0(j), C1(j), C2(j) that the derivation's two
  walks make, each conjugated one site from those of j - 1, must equal the
  products B A of the whole-monodromy factors of ``double_row_oracle``.
* Kept partial derivatives: each Fraction p/q works out its quotient-rule
  partials once (``Fraction.partials``) and keeps them, int terms over one
  den; they must equal the numerators ``q*dp - p*dq`` built afresh from
  ``kernel.diff`` on rational term dicts in every field slot, also after
  the Fraction has been an operand.  Every bracket
  sums the table over them; the results must equal, in the same three ways,
  the per-pair brackets of ``exact_oracle``, for Laurent exponents,
  rational coefficients, constant operands, field-free and field
  denominators and operands repeated across a batch of brackets.  A second
  zero-curvature, corollary, involution or sts check differentiates
  nothing, and a second corollary or involution check never multiplies by
  the Hamiltonian's denominator.
"""

from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import double_row_oracle
import exact_oracle
from exact_oracle import assert_same, assert_same_fraction
from bilax import kernel
from bilax.double_row import (
    Derivation,
    check_involution,
    check_sts_identity,
    check_theorem_zc,
    extract_M,
    transfer_commutator,
    verify_corollary,
)
from bilax.phase_ring import FIELD_KINDS, Fraction, Kind
from bilax.spectral_matrix import (
    SpectralMatrix,
    bracket_scalar_matrix,
    lam,
    mu,
    rational_r_builder,
    tensor_bracket,
)
from bilax.structure_checks import flip_entry
from bilax.toda_models import build_bcn, build_dn, derived_eom, hamiltonian
from mutations import nonzero_positions
from rational_terms import element, rational

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# random fractions over the dn N=2 ring: two Laurent sites, the sl(2)
# triple, a central parameter and both spectral variables

DN2 = build_dn(2)
RING, PS = DN2.ring, DN2.ps
LAM, MU = lam(RING), mu(RING)
GENS = ("u1", "u2", "X1", "X2", "E", "F", "H", "c0", "lam", "mu")
DEN_FACTORS = (
    LAM - MU,
    LAM + MU,
    MU,
    RING.gen("F") - RING.gen("u1"),  # the dn ratio recipe's denominator
    RING.gen("X1") + LAM,
    RING.gen("E") + 2,
    RING.gen("c0"),  # a central parameter atom
    RING.gen("u2"),  # Laurent: folds into the numerator
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
def fractions(draw):
    """Mostly polynomials over up to three factors; a quarter constants."""
    if draw(st.integers(0, 3)) == 0:
        num = RING.const(QQ(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2)))))
    else:
        num = sum(draw(st.lists(monomials(), min_size=1, max_size=3)), RING.zero)
    den = RING.one
    for f in draw(st.lists(st.sampled_from(DEN_FACTORS), max_size=3)):
        den = den * f
    return Fraction(num, den)


@bounded
@given(fractions())
def test_reflect_is_the_mu_substitution(f):
    assert_same_fraction(f.reflect("mu"), f.substitute({"mu": -MU}))


@bounded
@given(
    st.lists(fractions(), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8),
)
def test_batched_brackets_match_per_pair_brackets(drawn, pairs):
    # a constant operand in every batch; indices repeat operands, and
    # (i, i) brackets an operand with itself
    ops = drawn + [Fraction(RING.const(QQ(3, 2)))]
    for i, j in pairs:
        f, g = ops[i % len(ops)], ops[j % len(ops)]
        assert_same_fraction(
            PS.bracket_fraction(f, g), exact_oracle.bracket_fraction(PS, f, g)
        )
        got = PS.bracket(f.num, g.num)
        assert got == exact_oracle.bracket(PS, f.num, g.num)


FIELD_SLOTS = [RING.slot(g.name) for g in RING.generators if g.kind in FIELD_KINDS]
C0 = RING.gen("c0")


def assert_partials_are_derivatives(f):
    # d(p/q)/d(slot) = (q dp - p dq) / q^2, which is dp when q = 1; the
    # kept int terms are over one den, and the fresh ones rational
    kept, den = f.partials()
    assert set(kept) <= set(FIELD_SLOTS)
    assert type(den) is int and den > 0
    p, q, pk = rational(f.num), rational(f.den), RING.pk
    for i in FIELD_SLOTS:
        want = kernel.sub(
            kernel.mul(q, kernel.diff(p, i, pk), pk),
            kernel.mul(p, kernel.diff(q, i, pk), pk),
        )
        got = kept.get(i, {})
        assert all(type(c) is int and c for c in got.values())
        assert element(RING, {e: QQ(c, den) for e, c in got.items()}) == element(RING, want)


@bounded
@given(fractions(), fractions(), st.integers(0, 3))
def test_kept_partials_are_fresh_derivatives(f, g, p):
    # the operands keep their partials from before they were operands
    num, factors, kept = dict(f.num.terms), f.den_factors, f.partials()
    g.partials()
    results = [
        f + g, f * g, f ** p, -f, f.reflect("mu"),
        Fraction(f.num, g.den),
        Fraction(f.num * C0, C0 * (LAM - MU)),  # the c0 atom cancels
    ]
    assert f.num.terms == num and f.den_factors == factors
    assert f.partials() is kept
    for h in [f, g] + results:
        assert_partials_are_derivatives(h)


def _zero_curvature(model):
    return check_theorem_zc(model.ps, model.derivation)


def _corollary_and_involution(model):
    ps, d = model.ps, model.derivation
    return verify_corollary(ps, d) + [check_involution(ps, d)]


@pytest.mark.parametrize("name,check", [
    pytest.param("bcn", _zero_curvature, id="bcn"),
    pytest.param("dn", _zero_curvature, id="dn"),
    pytest.param("dn", _corollary_and_involution, id="dn-corollary"),
])
def test_second_zero_curvature_check_differentiates_nothing(name, check, monkeypatch):
    # b, H, the layout's X(mu), the M(j, +-mu) and their flows are kept by
    # the derivation, and each of their entries keeps its partials
    model = build_bcn(3) if name == "bcn" else build_dn(3)
    den = hamiltonian(model).den.terms
    assert all(r.holds for r in check(model))
    calls, by_den = [], []
    real_diff, real_mul = kernel.diff, kernel.mul

    def mul(a, b, pk):
        if a is den or b is den:
            by_den.append((a, b))
        return real_mul(a, b, pk)

    monkeypatch.setattr(kernel, "diff", lambda *a: calls.append(a) or real_diff(*a))
    monkeypatch.setattr(kernel, "mul", mul)
    assert all(r.holds for r in check(model))
    assert calls == [] and by_den == []
    Fraction(model.ring.gen("X1")).partials()  # a fresh element does call it
    assert calls


@pytest.mark.parametrize("name", ["bcn", "dn"])
def test_second_sts_identity_check_differentiates_nothing(name, monkeypatch):
    # t(lam), the layout's l(j, mu) and the single-row matrices are kept
    model = build_bcn(3) if name == "bcn" else build_dn(3)
    ps, d = model.ps, model.derivation
    assert check_sts_identity(ps, d).holds
    calls = []
    real = kernel.diff
    monkeypatch.setattr(kernel, "diff", lambda *a: calls.append(a) or real(*a))
    assert check_sts_identity(ps, d).holds
    assert calls == []


@bounded
@given(st.lists(fractions(), min_size=5, max_size=5))
def test_matrix_brackets_match_per_entry_brackets(es):
    # the first entry appears twice in each matrix
    a = SpectralMatrix(RING, [[es[0], es[1]], [es[2], es[0]]])
    b = SpectralMatrix(RING, [[es[3], es[0]], [es[4], es[3]]])
    tb = tensor_bracket(PS, a, b)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    want = exact_oracle.bracket_fraction(PS, a[i, j], b[k, l])
                    assert_same_fraction(tb[2 * i + k, 2 * j + l], want)
    sm = bracket_scalar_matrix(PS, es[4], a)
    assert_same(sm, a.map_entries(lambda e: exact_oracle.bracket_fraction(PS, es[4], e)))


@pytest.mark.parametrize("name,n", [("bcn", 3), ("dn", 3)], ids=str)
def test_derivation_brackets_match_per_pair_brackets(name, n):
    model = build_bcn(n) if name == "bcn" else build_dn(n)
    ps, d = model.ps, model.derivation
    exp, ham = d.expansion, d.hamiltonian
    assert check_involution(ps, d).holds
    for c in exp.values():
        assert exact_oracle.bracket_fraction(ps, ham, c).is_zero
    assert transfer_commutator(ps, exp).is_zero
    coeffs = list(exp.values())
    for i, sp in enumerate(coeffs):
        for sq in coeffs[i + 1:]:
            assert exact_oracle.bracket_fraction(ps, sp, sq).is_zero
    eom = derived_eom(model)
    for label, value in eom.items():
        gen = model.ring.gen(("u" + label[1:]) if label[0] == "x" else label)
        want = exact_oracle.bracket_fraction(ps, ham, Fraction(gen))
        if label[0] == "x":
            want = want / Fraction(gen)
        assert_same_fraction(value, want)


# ---------------------------------------------------------------------------
# M(j, -mu) by reflection and the factors by site steps, against fresh builds

REFLECTION_MODELS = [("bcn", n) for n in range(1, 6)] + [("dn", n) for n in range(2, 6)]


def r_builders(ring):
    """The rational r and its four single-entry sign-flip mutants."""
    rb = rational_r_builder(ring)
    return [rb] + [flip_entry(rb, i, j) for i, j in nonzero_positions(rb(lam(ring)))]


@pytest.mark.parametrize("name,n", REFLECTION_MODELS, ids=str)
def test_minus_mu_matrices_match_a_fresh_build(name, n):
    model = build_bcn(n) if name == "bcn" else build_dn(n)
    l_, m_ = lam(model.ring), mu(model.ring)
    builders = r_builders(model.ring)
    assert len(builders) == 5
    for rb in builders:
        d = Derivation(model.lax, model.km, model.kp, n, l_, rb, model.recipe)
        for j in (1, n + 1):
            fresh = double_row_oracle.generating_matrix(d, j, -m_)
            assert_same(d.M(j, -1), fresh)
            assert_same(d.flow(j, -1), extract_M(fresh, d.expansion, d.recipe))


@pytest.mark.parametrize("name,n", REFLECTION_MODELS, ids=str)
def test_site_step_factors_match_monodromy_products(name, n):
    # every product that the M walk (C1(j), C2(j)) and the single-row walk
    # (C0(j)) make while the derivation builds M and the single-row matrices
    model = build_bcn(n) if name == "bcn" else build_dn(n)
    d = model.derivation
    made, walk = {}, d._walk

    def spy(products, signs):
        for j, ps in walk(products, signs):
            made.setdefault(len(ps), []).append((j, ps))
            yield j, ps

    d._walk = spy
    d.M(1, 1), d.sts(1)
    sites = [j for j, _ in made[2]]
    assert sites == [j for j, _ in made[1]]
    for (j, (c0,)), (_, (c1, c2)) in zip(made[1], made[2]):
        for got, want in zip((c0, c1, c2), double_row_oracle.chain(d, j)):
            assert_same(got, want)
    assert sites == list(range(1, n + 2))
