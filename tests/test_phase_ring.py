"""Exact ring arithmetic and the generator-table Poisson bracket.

The bracket implementation extends the table as a biderivation; the oracle
here extends it by recursive single-step Leibniz reduction instead, so the
two routes are independent.
"""

import random

import pytest

from bilax.backend import QQ
from bilax.backend import kernel as K
from bilax.phase_ring import (
    Fraction,
    Generator,
    Kind,
    PhaseRing,
    PoissonStructure,
    StructureError,
    _degree_box,
    exact_divide,
)
from bilax.spectral_matrix import SpectralMatrix
from bilax.toda_models import casimir, toda_ring, toda_structure
from rational_terms import element, quo, rational


def make_ring(sl2=True):
    gens = [
        Generator("u1", Kind.COORD_EXP),
        Generator("u2", Kind.COORD_EXP),
        Generator("X1", Kind.FIELD),
        Generator("X2", Kind.FIELD),
    ]
    if sl2:
        gens += [
            Generator("E", Kind.FIELD),
            Generator("F", Kind.FIELD),
            Generator("H", Kind.FIELD),
        ]
    gens += [Generator("th", Kind.PARAMETER), Generator("al", Kind.PARAMETER)]
    return PhaseRing(gens)


@pytest.fixture(scope="module")
def ring():
    return make_ring()


@pytest.fixture(scope="module")
def ps(ring):
    return toda_structure(ring)


# ---------------------------------------------------------------------------
# independent oracle: single-step Leibniz reduction


def _gen_gen(ps, i, si, j, sj):
    ring = ps.ring
    t = ps.bracket(ring.gen(ring.names[i]), ring.gen(ring.names[j]))
    if si == -1:
        t = -(ring.gen(ring.names[i]) ** -2) * t
    if sj == -1:
        t = -(ring.gen(ring.names[j]) ** -2) * t
    return t


def _gen_mono(ps, i, si, eg):
    ring = ps.ring
    j = next((k for k, e in enumerate(eg) if e), None)
    if j is None:
        return ring.zero
    sj = 1 if eg[j] > 0 else -1
    rest = list(eg)
    rest[j] -= sj
    gj = ring.gen(ring.names[j]) ** sj
    rest_m = ring.element({tuple(rest): QQ(1)})
    return gj * _gen_mono(ps, i, si, tuple(rest)) + _gen_gen(ps, i, si, j, sj) * rest_m


def _mono_mono(ps, ef, eg):
    ring = ps.ring
    i = next((k for k, e in enumerate(ef) if e), None)
    if i is None:
        return ring.zero
    si = 1 if ef[i] > 0 else -1
    rest = list(ef)
    rest[i] -= si
    gi = ring.gen(ring.names[i]) ** si
    rest_m = ring.element({tuple(rest): QQ(1)})
    return gi * _mono_mono(ps, tuple(rest), eg) + _gen_mono(ps, i, si, eg) * rest_m


def leibniz_bracket(ps, f, g):
    out = ps.ring.zero
    for ef, cf in f.monomials():
        for eg, cg in g.monomials():
            out = out + _mono_mono(ps, ef, eg) * (cf * cg)
    return out


def random_monomial(ring, rng, names=None):
    names = names or ring.names[:4]
    powers = {}
    for name in names:
        if rng.random() < 0.6:
            lo = -2 if ring.kind_of(name) is Kind.COORD_EXP else 0
            powers[name] = rng.randint(lo, 3)
    coeff = QQ(rng.randint(-6, 6) or 1, rng.randint(1, 5))
    return ring.monomial(powers, coeff)


# ---------------------------------------------------------------------------
# bracket basics


def test_canonical_pairs(ring, ps):
    u1, X1 = ring.gen("u1"), ring.gen("X1")
    assert ps.bracket(X1, u1) == u1
    assert ps.bracket(X1, ring.gen("u2")).is_zero
    assert ps.bracket(ring.gen("X2"), u1).is_zero


def test_sl2_table(ring, ps):
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
    assert ps.bracket(H, E) == E
    assert ps.bracket(H, F) == -F
    assert ps.bracket(E, F) == 2 * H


def test_antisymmetry_on_self(ring, ps):
    f = ring.gen("u1") * ring.gen("X1") + ring.gen("E") ** 2
    assert ps.bracket(f, f).is_zero


def test_leibniz_on_square(ring, ps):
    # {X1, u1^2} = 2 u1^2, via the independent oracle and frozen value
    u1, X1 = ring.gen("u1"), ring.gen("X1")
    expect = leibniz_bracket(ps, X1, u1 * u1)
    assert expect == 2 * u1 * u1
    assert ps.bracket(X1, u1 * u1) == expect


def test_parameters_central(ring, ps):
    th = ring.gen("th")
    f = ring.gen("u1") * ring.gen("X1") + ring.gen("H")
    assert ps.bracket(th, f).is_zero
    assert ps.bracket_fraction(Fraction(th), Fraction(f)).is_zero


def test_bracket_matches_leibniz_oracle(ring, ps):
    rng = random.Random(11)
    names = ("u1", "X1", "E", "H")
    for _ in range(40):
        f = random_monomial(ring, rng, names)
        g = random_monomial(ring, rng, names)
        assert ps.bracket(f, g) == leibniz_bracket(ps, f, g)


def test_jacobi_identity_random(ring, ps):
    rng = random.Random(7)
    names = ("u1", "X1", "E", "F")
    for _ in range(25):
        f = random_monomial(ring, rng, names)
        g = random_monomial(ring, rng, names)
        h = random_monomial(ring, rng, names)
        assert ps.jacobi_residual(f, g, h).is_zero


def test_jacobi_on_generators(ps):
    assert ps.check_generator_jacobi() == []


def test_leibniz_property_random(ring, ps):
    rng = random.Random(23)
    for _ in range(25):
        f = random_monomial(ring, rng)
        g = random_monomial(ring, rng)
        h = random_monomial(ring, rng)
        assert ps.bracket(f, g * h) == ps.bracket(f, g) * h + g * ps.bracket(f, h)


@pytest.mark.parametrize("central", ["th", "lam", "mu"])
def test_set_bracket_rejects_central_generators(ring, central):
    # parameters and spectral variables are central by design
    ps = PoissonStructure(ring)
    with pytest.raises(StructureError, match="central"):
        ps.set_bracket(central, "X1", ring.gen("u1"))
    with pytest.raises(StructureError, match="central"):
        ps.set_bracket("u1", central, ring.one)
    assert ps._table == {}


def test_unknown_generator_rejected(ring, ps):
    other = PhaseRing([Generator("q", Kind.FIELD)])
    with pytest.raises(StructureError):
        ps.bracket(other.gen("q"), ring.gen("u1"))


def test_rings_with_equal_names_do_not_mix():
    # a ring is its own object: equal generator names are not enough
    a, b = toda_ring(2), toda_ring(2)
    assert a.names == b.names
    x, y, ps = a.gen("u1"), b.gen("X1"), toda_structure(a)
    for mix in (lambda: x + y, lambda: x * y, lambda: ps.bracket(x, y),
                lambda: ps.bracket_fraction(x, y), lambda: Fraction(x, y),
                lambda: SpectralMatrix(a, [[x, Fraction(y)], [x, x]])):
        with pytest.raises(StructureError):
            mix()


# ---------------------------------------------------------------------------
# ring laws


def test_ring_laws_random(ring):
    rng = random.Random(3)
    for _ in range(20):
        a = random_monomial(ring, rng) + random_monomial(ring, rng)
        b = random_monomial(ring, rng)
        c = random_monomial(ring, rng)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def test_no_floats_allowed(ring):
    with pytest.raises(StructureError):
        ring.const(0.5)
    with pytest.raises(StructureError):
        ring.gen("u1") * 0.5


def test_exactness_fraction_coefficients(ring):
    third = ring.const(QQ(1, 3))
    assert third + third + third == 1


def test_laurent_exponent_rules(ring):
    u1, X1 = ring.gen("u1"), ring.gen("X1")
    assert u1 ** -2 * u1 ** 2 == 1
    with pytest.raises(StructureError):
        X1 ** -1
    with pytest.raises(StructureError):
        ring.monomial({"X1": -1})


def test_zero_terms_never_stored(ring):
    u1 = ring.gen("u1")
    z = u1 - u1
    assert z.terms == {}
    assert (u1 * 0).terms == {}


# ---------------------------------------------------------------------------
# fractions


def test_fraction_roundtrip(ring):
    u1 = ring.gen("u1")
    fr = Fraction(u1 + 1)
    assert fr.num == u1 + 1 and fr.den_factors == ()
    assert (Fraction(u1) / Fraction(u1 + 1)).den_factors


def test_fraction_zero_denominator(ring):
    with pytest.raises(StructureError):
        Fraction(ring.one, ring.zero)
    with pytest.raises(StructureError):
        Fraction(ring.one) / Fraction(ring.zero)


def test_fraction_equality_cross_multiplied(ring):
    u1, X1 = ring.gen("u1"), ring.gen("X1")
    a = Fraction(X1, u1 + 1)
    b = Fraction(X1 * (u1 + 2), (u1 + 1) * (u1 + 2))
    assert a == b
    assert not (a == Fraction(X1, u1 + 2))


def test_fraction_arithmetic(ring):
    u1, X1, F = ring.gen("u1"), ring.gen("X1"), ring.gen("F")
    a = Fraction(X1, F - u1)
    b = Fraction(u1, F + 1)
    lhs = (a + b) * Fraction(F - u1) * Fraction(F + 1)
    rhs = Fraction(X1 * (F + 1) + u1 * (F - u1))
    assert lhs == rhs
    assert (a / a) == Fraction(ring.one)


def test_fraction_monomial_cancellation(ring):
    u1 = ring.gen("u1")
    fr = Fraction(u1 ** 2, u1)
    assert fr.num == u1 and fr.den_factors == ()


def test_bracket_fraction_embeds_ring_case(ring, ps):
    f = ring.gen("u1") * ring.gen("X1")
    g = ring.gen("X1") + ring.gen("u1")
    assert ps.bracket_fraction(Fraction(f), Fraction(g)) == Fraction(
        ps.bracket(f, g)
    )


def test_bracket_fraction_quotient_rule(ring, ps):
    # {E/F, F}: clear denominators and compare against ring brackets
    E, F = ring.gen("E"), ring.gen("F")
    got = ps.bracket_fraction(Fraction(E, F), Fraction(F))
    oracle = Fraction(ps.bracket(E, F) * F - E * ps.bracket(F, F), F * F)
    assert got == oracle


def test_bracket_fraction_random_quotient_oracle(ring, ps):
    rng = random.Random(17)
    for _ in range(15):
        p = random_monomial(ring, rng) + 1
        q = random_monomial(ring, rng) + 2
        s = random_monomial(ring, rng)
        got = ps.bracket_fraction(Fraction(p, q), Fraction(s))
        oracle = Fraction(
            ps.bracket(p, s) * q - p * ps.bracket(q, s), q * q
        )
        assert got == oracle


# ---------------------------------------------------------------------------
# casimir


def test_casimir_value(ring, ps):
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
    C = casimir(ring)
    assert C == H * H + E * F


def test_casimir_central_by_expansion(ring, ps):
    # direct expansion oracle: {H^2+EF, E} = 2H*E + E*(-2H) = 0, etc.
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
    C = casimir(ring)
    assert 2 * H * E + E * (-2 * H) == 0
    for g in (E, F, H):
        assert ps.bracket(C, g).is_zero
        assert leibniz_bracket(ps, C, g).is_zero


def test_casimir_vanishes_at_origin(ring, ps):
    C = casimir(ring)
    assert C.substitute({"E": 0, "F": 0, "H": 0}) == Fraction(ps.ring.zero)


def test_kind_is_the_four_categories_the_ring_reads():
    assert [k.name for k in Kind] == ["COORD_EXP", "FIELD", "PARAMETER", "SPECTRAL"]


def test_casimir_requires_sl2():
    ring = make_ring(sl2=False)
    with pytest.raises(StructureError):
        casimir(ring)


# ---------------------------------------------------------------------------
# division helper


def test_exact_divide(ring):
    u1, X1 = ring.gen("u1"), ring.gen("X1")
    num = (X1 + u1) * (X1 ** 2 + 3)
    assert exact_divide(num, X1 ** 2 + 3) == X1 + u1
    assert exact_divide(num, X1 + 2) is None
    assert exact_divide(u1 ** 3, u1 ** 5) == u1 ** -2


def test_exact_divide_large_quotient(ring):
    # 1287 quotient terms: more division steps than any fixed small cap
    q = (1 + ring.gen("u1") + ring.gen("X1") + ring.gen("X2") + ring.gen("E")
         + ring.gen("th")) ** 8
    assert len(q.terms) > 1000
    den = ring.gen("u2") - ring.gen("H") + 2
    assert exact_divide(q * den, den) == q
    assert exact_divide(q * den + 1, den) is None


def test_exact_divide_laurent_non_multiple_terminates(ring):
    # 1/(1 - u1) descends through u1^-1, u1^-2, ... without end; the degree
    # box of the quotient is empty, so this is a non-multiple at once
    u1 = ring.gen("u1")
    assert exact_divide(ring.one, 1 - u1) is None
    assert exact_divide(u1 ** 3 - 1, u1 - 1) == u1 ** 2 + u1 + 1
    assert exact_divide(u1 ** -3 - 1, u1 ** -1 - 1) == u1 ** -2 + u1 ** -1 + 1


def _max_scan_divide(num, den):
    """The division loop before its heap, on rational term dicts: each step
    scans the whole remainder with max() for the leading term."""
    ring, pk = num.ring, num.ring.pk
    if num.is_zero:
        return ring.zero
    nlo, nhi = _degree_box(num.terms, pk)
    dlo, dhi = _degree_box(den.terms, pk)
    box = [(a - b, c - d) for a, b, c, d in zip(nlo, dlo, nhi, dhi)]
    if any(lo < 0 and not lau for (lo, _), lau in zip(box, ring.laurent)):
        return None
    dt = rational(den)
    ed = max(dt)
    cd = dt[ed]
    d_exp = pk.unpack(ed)
    q, r = {}, rational(num)
    while r:
        er = max(r)
        qexp = [a - b for a, b in zip(pk.unpack(er), d_exp)]
        if not all(lo <= e <= hi for e, (lo, hi) in zip(qexp, box)):
            return None
        qc = quo(r[er], cd)
        qe = pk.pack(qexp)
        q[qe] = qc
        for e, c in K.mul_term(dt, qe - pk.one, qc, pk).items():
            c0 = r.get(e)
            if c0 is None:
                r[e] = -c
            else:
                c0 = c0 - c
                if c0:
                    r[e] = c0
                else:
                    del r[e]
    return element(ring, q)


def test_exact_divide_matches_max_scan(ring):
    u1, u2, X1, X2 = (ring.gen(g) for g in ("u1", "u2", "X1", "X2"))
    E, F, H, th = (ring.gen(g) for g in ("E", "F", "H", "th"))
    q5 = (1 + u1 + X1 + X2 + E + th) ** 8
    q6 = (1 + u1 + X1 + X2 + E + th + H) ** 8
    assert (len(q5.terms), len(q6.terms)) == (1287, 3003)
    d2 = u2 - H + 2
    d3 = 3 * u2 - F * X2 + QQ(1, 2)
    cases = [
        (q5 * d2, d2),
        (q6 * d3, d3),
        (q6 * d3 + X1, d3),  # non-divisible
        (q5 * d2 - u2 ** 3, d2),  # non-divisible, fails late
        (ring.one, 1 - u1),  # Laurent non-multiple
        (u1 ** -3 - 1, u1 ** -1 - 1),  # Laurent quotient
        ((u1 ** -2 + X1 * u2) * (u1 - X2 * u1 ** -1), u1 - X2 * u1 ** -1),
    ]
    for num, den in cases:
        got, want = exact_divide(num, den), _max_scan_divide(num, den)
        if want is None:
            assert got is None
        else:
            assert got == want
            assert list(got.terms.items()) == list(want.terms.items())
    assert exact_divide(q6 * d3, d3) == q6
