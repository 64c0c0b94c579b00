"""Monodromies, transfer scalars, Hamiltonian/flow extraction, theorem."""

import pytest

from bilax.backend import QQ
from bilax.double_row import (
    check_involution,
    check_single_row_commutation,
    check_sts_identity,
    check_theorem_zc,
    check_transfer_commutation,
    double_row_transfer,
    expand,
    lambda_series_coefficient,
    Recipe,
    monodromy,
    transfer_expansion,
)
from bilax.phase_ring import Fraction, StructureError
from bilax.spectral_matrix import SpectralMatrix, identity, inverse_2x2, lam, mu
from bilax.toda_models import expansion, hamiltonian
from exact_oracle import coefficient, degree


# ---------------------------------------------------------------------------
# monodromy conventions


def test_monodromy_empty_range_is_identity(bcn2):
    ring = bcn2.ring
    assert monodromy(bcn2.lax, 0, 1, lam(ring)) == identity(ring, 2)
    assert monodromy(bcn2.lax, 2, 3, lam(ring)) == identity(ring, 2)


def test_monodromy_single_site(bcn2):
    ring = bcn2.ring
    assert monodromy(bcn2.lax, 1, 1, lam(ring)) == bcn2.lax(1, lam(ring))


def test_monodromy_descending_order(bcn2):
    ring = bcn2.ring
    l_ = lam(ring)
    assert monodromy(bcn2.lax, 2, 1, l_) == bcn2.lax(2, l_) @ bcn2.lax(1, l_)


def test_monodromy_out_of_range(bcn2):
    with pytest.raises(StructureError):
        monodromy(bcn2.lax, 0, 2, lam(bcn2.ring))


# ---------------------------------------------------------------------------
# transfer scalars


def test_single_row_transfer_n1(bcn1):
    ring = bcn1.ring
    t = bcn1.derivation.t
    assert t == Fraction(lam(ring) + ring.gen("X1"))
    assert t is bcn1.derivation.t


def test_single_row_commutes(bcn2):
    assert check_single_row_commutation(bcn2.ps, bcn2.derivation).holds


def test_single_row_constant_lax_field_free(bcn2):
    ring = bcn2.ring

    def const_lax(j, arg):
        return SpectralMatrix(ring, [[arg, ring.one], [ring.one, arg]])

    t = monodromy(const_lax, 2, 1, lam(ring)).trace()
    assert not any(
        t.num.involves(g) for g in ("u1", "u2", "X1", "X2")
    )


def test_double_row_identity_k_specialization(bcn2):
    ring = bcn2.ring
    l_ = lam(ring)
    k1 = lambda arg: identity(ring, 2)
    b = double_row_transfer(bcn2.lax, k1, k1, 2, l_)
    L = monodromy(bcn2.lax, 2, 1, l_)
    L_inv = inverse_2x2(monodromy(bcn2.lax, 2, 1, -l_))
    assert b == (L @ L_inv).trace()


def test_transfer_commutation(bcn1, bcn2, dn2):
    for m in (bcn1, bcn2, dn2):
        assert check_transfer_commutation(m.ps, m.derivation).holds


def test_expansion_degree_bounds(bcn1, bcn2, dn2, dn3):
    # degree <= 2N+2 for constant boundaries, <= 2N+1 for the dynamical pair
    for m in (bcn1, bcn2):
        assert max(expansion(m)) <= 2 * m.N + 2
    for m in (dn2, dn3):
        assert max(expansion(m)) <= 2 * m.N + 1


def test_expansion_top_coefficients_field_free(bcn1, bcn2):
    # observed, not claimed: lam^{2N+2} and lam^{2N+1} carry no fields
    for m in (bcn1, bcn2):
        exp = expansion(m)
        for p in (2 * m.N + 1, 2 * m.N + 2):
            c = exp.get(p)
            assert c is None or (c.num.is_parameter_constant() and not c.den_factors)


def test_expansion_rejects_lam_denominator(bcn1):
    ring = bcn1.ring
    bad = Fraction(ring.one, lam(ring))
    with pytest.raises(StructureError):
        expand(bad)


# ---------------------------------------------------------------------------
# Hamiltonian extraction


def test_extract_missing_power_errors(bcn1):
    exp = expansion(bcn1)
    with pytest.raises(StructureError):
        Recipe(3, QQ(1)).hamiltonian(exp)


def test_ratio_recipe_missing_denominator_power_errors(bcn1):
    # expand leaves out the zero lam^1 coefficient, so a ratio over lam^1
    # has no denominator coefficient to divide by
    ring = bcn1.ring
    exp = expand(Fraction(ring.gen("X1") + lam(ring) ** 2))
    assert list(exp) == [0, 2]
    with pytest.raises(StructureError, match=r"no lam\^1 coefficient"):
        Recipe(0, QQ(-1, 2), den_power=1).hamiltonian(exp)


def test_bcn1_hamiltonian_value(bcn1):
    # frozen closed form at one site (boundary wells from both ends)
    ring = bcn1.ring
    u1, x1 = ring.gen("u1"), ring.gen("X1")
    th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
    thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")
    want = (
        x1 * x1 * QQ(1, 2)
        + a1 * u1
        + b1 * QQ(1, 2) * u1 ** 2
        + th1 * x1 * u1
        + an * u1 ** -1
        + bn * QQ(1, 2) * u1 ** -2
        + thn * x1 * u1 ** -1
    )
    diff = hamiltonian(bcn1) - Fraction(want)
    assert diff.num.is_parameter_constant() and not diff.den_factors


def test_bcn2_hamiltonian_has_coupling(bcn2):
    ring = bcn2.ring
    h = hamiltonian(bcn2)
    coupling = ring.gen("u2") * ring.gen("u1") ** -1
    zero_params = {p: 0 for p in ("th1", "a1", "b1", "thN", "aN", "bN")}
    reduced = h.substitute(zero_params)
    x1, x2 = ring.gen("X1"), ring.gen("X2")
    want = Fraction(x1 * x1 * QQ(1, 2) + x2 * x2 * QQ(1, 2) + coupling)
    diff = reduced - want
    assert diff.num.is_parameter_constant() and not diff.den_factors


def test_dn2_hamiltonian_denominator(dn2):
    # the boundary term carries the 2(F - e^{x1}) denominator
    h = hamiltonian(dn2)
    assert len(h.den_factors) == 1
    el, p = h.den_factors[0]
    assert p == 1 and el.involves("F") and el.involves("u1")


def test_involution(bcn2, dn2):
    for m in (bcn2, dn2):
        assert check_involution(m.ps, m.derivation).holds


# ---------------------------------------------------------------------------
# single-row time part


def test_sts_n1_shape(bcn1):
    # tr_a(r_ab) contributes l(1,lam)/(lam-mu) at a single site
    ring = bcn1.ring
    l_, m_ = lam(ring), mu(ring)
    got = bcn1.derivation.sts(1)
    want = bcn1.lax(1, l_) * Fraction(ring.one, l_ - m_)
    assert got == want


def test_sts_identity_n2(bcn2):
    assert check_sts_identity(bcn2.ps, bcn2.derivation).holds


def test_sts_field_free_lax(bcn2):
    ring = bcn2.ring

    def const_lax(j, arg):
        return SpectralMatrix(ring, [[ring.const(2), ring.zero], [ring.zero, ring.const(3)]])

    t = monodromy(const_lax, 2, 1, lam(ring)).trace()
    lhs = bcn2.ps.bracket_fraction(t, Fraction(ring.gen("u1")))
    assert lhs.is_zero


def test_sts_index_range(bcn2):
    with pytest.raises(StructureError):
        bcn2.derivation.sts(4)


# ---------------------------------------------------------------------------
# lam-series extraction


def series_polynomial_part(value, ring):
    deg = degree(value.num, "lam")
    out = Fraction(ring.zero)
    for p, c in lambda_series_coefficient(value, range(deg + 1)).items():
        out = out + c * Fraction(lam(ring)) ** p
    return out


def test_series_coefficient_polynomial_case(bcn1):
    ring = bcn1.ring
    l_ = lam(ring)
    f = Fraction((l_ + ring.gen("X1")) ** 3)
    assert lambda_series_coefficient(f, range(4)) == {
        p: Fraction(coefficient(f.num, "lam", p)) for p in range(4)
    }


def test_series_coefficient_exactness_oracle(bcn1):
    # num - den * (polynomial part of the expansion) must have lam-degree
    # below deg(den): everything else sits in the 1/lam tail
    ring = bcn1.ring
    l_, m_ = lam(ring), mu(ring)
    u1, x1 = ring.gen("u1"), ring.gen("X1")
    num = (l_ ** 4) * x1 + l_ ** 2 * u1 + l_ * m_ * u1 ** -1 + ring.one * 7
    value = (
        Fraction(num) / Fraction(l_ - m_) / Fraction(l_ + m_) / Fraction(l_)
    )
    s = series_polynomial_part(value, ring)
    den = value.den
    r = Fraction(num) - Fraction(den) * s
    assert degree(r.num, "lam") < degree(den, "lam")


def test_series_respects_lam_free_factors(dn2):
    ring = dn2.ring
    l_ = lam(ring)
    f = Fraction(l_ ** 2 * ring.gen("u2"), (ring.gen("F") - ring.gen("u1")))
    c = lambda_series_coefficient(f, (2,))[2]
    assert c == Fraction(ring.gen("u2"), ring.gen("F") - ring.gen("u1"))


def test_series_rejects_nonlinear_pole(bcn1):
    ring = bcn1.ring
    l_ = lam(ring)
    f = Fraction(ring.one, l_ * l_ - ring.gen("u1"))
    with pytest.raises(StructureError):
        lambda_series_coefficient(f, (0,))


# ---------------------------------------------------------------------------
# theorem (spot checks; the N=2 suite is in the acceptance module)


def test_theorem_zc_n1(bcn1):
    reports = check_theorem_zc(bcn1.ps, bcn1.derivation)
    assert all(r.holds for r in reports)


def test_boundary_m_index_range(bcn2):
    from bilax.double_row import boundary_M

    ring = bcn2.ring
    with pytest.raises(StructureError):
        boundary_M(bcn2.lax, bcn2.km, bcn2.kp, 2, 0, lam(ring), mu(ring))
    with pytest.raises(StructureError):
        boundary_M(bcn2.lax, bcn2.km, bcn2.kp, 2, 4, lam(ring), mu(ring))


def test_transfer_expansion_function(bcn1):
    exp = transfer_expansion(bcn1.lax, bcn1.km, bcn1.kp, 1, bcn1.ring)
    assert list(exp) == list(expansion(bcn1))
    assert exp == expansion(bcn1)
