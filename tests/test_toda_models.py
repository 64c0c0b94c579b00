"""Model builders, closed forms, canonical maps, boundary elimination."""

import pytest

from bilax.backend import QQ
from bilax.double_row import check_theorem_zc, check_transfer_commutation
from bilax.phase_ring import Fraction, StructureError
from bilax.spectral_matrix import (
    bracket_scalar_matrix,
    identity,
    mu,
    rational_r_builder,
)
from bilax.structure_checks import (
    check_reflection_minus,
    check_reflection_plus,
    check_rll,
)
from bilax.toda_models import (
    build_bcn,
    build_dn,
    canonical_map_bcn,
    casimir,
    derived_eom,
    displayed_flow_indices,
    displayed_flow_matrix,
    displayed_hamiltonian,
    dn_boundary_elimination,
    dn_xtilde_velocity,
    hamiltonian,
    ks_convention_matrix,
    model_flow_matrix,
    model_from_config,
    closed_form_eom,
    parameter_constant_difference,
    state_names,
    theta_absorbed_hamiltonian,
)


@pytest.fixture(scope="module")
def chains(bcn1, bcn2, bcn3, dn2, dn3):
    """bcn N=1..5, then dn N=2..5."""
    return [bcn1, bcn2, bcn3, build_bcn(4), build_bcn(5), dn2, dn3, build_dn(4), build_dn(5)]


# ---------------------------------------------------------------------------
# builders and config


def test_build_validation():
    with pytest.raises(StructureError):
        build_bcn(0)
    with pytest.raises(StructureError):
        build_dn(1)


def test_model_from_config_roundtrip():
    m = model_from_config({"model": "bcn", "N": 2, "params": {"th1": 1}})
    assert m.name == "bcn" and m.N == 2 and m.params["th1"] == 1.0
    with pytest.raises(StructureError):
        model_from_config({"model": "dst", "N": 2})
    with pytest.raises(StructureError):
        model_from_config({"model": "bcn", "N": 2, "params": {"zeta": 1}})
    with pytest.raises(StructureError):
        model_from_config({"model": "bcn", "N": "2"})
    # a bool is an int to isinstance: N = True would build an N = 1 chain
    # whose verify report says "N": true
    for n in (True, False, 2.0):
        with pytest.raises(StructureError, match="N must be an integer"):
            model_from_config({"model": "bcn", "N": n})


def test_modelspec_passes_structure_suite(bcn2, dn2):
    for m in (bcn2, dn2):
        rb = rational_r_builder(m.ring)
        assert check_rll(m.lax, rb, m.ps, offsite=(1, 2)).holds
        assert check_reflection_minus(m.km, rb, m.ps).holds
        assert check_reflection_plus(m.kp, rb, m.ps).holds


# ---------------------------------------------------------------------------
# closed-form comparisons


def test_hamiltonian_matches_closed_form(bcn1, bcn2, dn2, dn3):
    for m in (bcn1, bcn2, dn2, dn3):
        assert parameter_constant_difference(
            hamiltonian(m), displayed_hamiltonian(m)
        ) is not None


def test_bcn_special_parameter_limits(bcn1):
    # th = 0 removes the velocity-dependent boundary terms; th = al = 0
    # leaves the squared-exponential wells; all zero leaves the free chain
    ring = bcn1.ring
    h = hamiltonian(bcn1)
    x1, u1 = ring.gen("X1"), ring.gen("u1")
    b1, bn = ring.gen("b1"), ring.gen("bN")
    a1, an = ring.gen("a1"), ring.gen("aN")
    no_theta = h.substitute({"th1": 0, "thN": 0})
    want = Fraction(
        x1 * x1 * QQ(1, 2)
        + a1 * u1
        + b1 * QQ(1, 2) * u1 ** 2
        + an * u1 ** -1
        + bn * QQ(1, 2) * u1 ** -2
    )
    assert parameter_constant_difference(no_theta, want) is not None
    walls = h.substitute({"th1": 0, "thN": 0, "a1": 0, "aN": 0})
    want = Fraction(x1 * x1 * QQ(1, 2) + b1 * QQ(1, 2) * u1 ** 2 + bn * QQ(1, 2) * u1 ** -2)
    assert parameter_constant_difference(walls, want) is not None
    free = h.substitute({p: 0 for p in ("th1", "a1", "b1", "thN", "aN", "bN")})
    assert parameter_constant_difference(free, Fraction(x1 * x1 * QQ(1, 2))) is not None


def test_parameter_constant_difference_large_constant(bcn1):
    # a constant of 1081 terms over a non-monomial denominator is still a
    # constant: its exact division must not give up early
    ring = bcn1.ring
    c = (1 + ring.gen("a1") + ring.gen("b1")) ** 45
    assert len(c.terms) > 1000
    x1u1 = ring.gen("X1") * ring.gen("u1")
    den = ring.gen("X1") + ring.gen("u1") + 2
    f = Fraction(x1u1 + c * den, den)
    assert parameter_constant_difference(f, Fraction(x1u1, den)) == c


def test_flow_matrices_match_closed_forms(chains):
    # at bcn N=1 both boundary matrices sit on the one site
    for m in chains:
        assert displayed_flow_indices(m) == list(range(1, m.N + 2))
        for j in displayed_flow_indices(m):
            assert model_flow_matrix(m, j) == displayed_flow_matrix(m, j)


def test_bulk_flow_matrix_param_free(bcn3):
    # interior time-part matrices carry no boundary parameters
    m2 = model_flow_matrix(bcn3, 2)
    for row in m2.rows:
        for e in row:
            for p in ("th1", "a1", "b1", "thN", "aN", "bN"):
                assert not e.num.involves(p)


def test_dn_flow_matrix_m1_quadratic_entry(dn2):
    # the (2,1) entry of M(1, mu) is quadratic in mu
    m1 = model_flow_matrix(dn2, 1)
    assert max(m1.rows[1][0].num.by_degree("mu")) == 2


# ---------------------------------------------------------------------------
# equations of motion


def test_closed_form_eom_matches_brackets(chains):
    for m in chains:
        pe, de = closed_form_eom(m), derived_eom(m)
        # bcn: every coordinate; dn: x_2..x_N and X_3..X_N
        first = 1 if m.name == "bcn" else 2
        want = ["x%d" % j for j in range(first, m.N + 1)]
        want += ["X%d" % j for j in range(2 * first - 1, m.N + 1)]
        assert sorted(pe) == sorted(want)
        for name, v in pe.items():
            assert (v - de[name]).is_zero


def test_eom_are_keyed_by_the_state_names(bcn1, bcn2, bcn3, dn2, dn3):
    for m in (bcn1, bcn2, bcn3, dn2, dn3):
        assert list(derived_eom(m)) == state_names(m)
        assert set(closed_form_eom(m)) <= set(state_names(m))
    assert state_names(dn2) == ["x1", "x2", "X1", "X2", "E", "F", "H"]
    assert sorted(closed_form_eom(dn3)) == ["X3", "x2", "x3"]
    assert sorted(closed_form_eom(bcn2)) == ["X1", "X2", "x1", "x2"]


def test_state_names_follow_the_ring(bcn1, bcn2, bcn3, dn2, dn3):
    # the simulate CSV columns and the integrator state vector are in this
    # order: x_1..x_N, X_1..X_N, then E, F, H for dn
    for m in (bcn1, bcn2, bcn3, dn2, dn3):
        want = ["x%d" % j for j in range(1, m.N + 1)]
        want += ["X%d" % j for j in range(1, m.N + 1)]
        want += ["E", "F", "H"] if m.name == "dn" else []
        assert state_names(m) == want


def test_bcn_boundary_eom_values(bcn2):
    ring = bcn2.ring
    pe = closed_form_eom(bcn2)
    u1, u2, x1 = ring.gen("u1"), ring.gen("u2"), ring.gen("X1")
    th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
    assert pe["x1"] == Fraction(x1 + th1 * u1)
    want = u2 * u1 ** -1 - a1 * u1 - b1 * u1 ** 2 - th1 * x1 * u1
    assert pe["X1"] == Fraction(want)


def test_bcn_bulk_eom(bcn3):
    ring = bcn3.ring
    pe = closed_form_eom(bcn3)
    u1, u2, u3 = ring.gen("u1"), ring.gen("u2"), ring.gen("u3")
    assert pe["X2"] == Fraction(u3 * u2 ** -1 - u2 * u1 ** -1)


def test_dn_f_flow_relation(dn2):
    # dF/dT equals du1/dT, i.e. F - e^{x1} is a constant of motion
    ring, ps = dn2.ring, dn2.ps
    h = hamiltonian(dn2)
    assert ps.bracket_fraction(h, Fraction(ring.gen("F") - ring.gen("u1"))).is_zero


def test_dn_casimir_conserved(dn2):
    E, F, H = (dn2.ring.gen(g) for g in "EFH")
    assert casimir(dn2.ring) == H * H + E * F
    assert dn2.ps.bracket_fraction(
        hamiltonian(dn2), Fraction(casimir(dn2.ring))
    ).is_zero


# ---------------------------------------------------------------------------
# canonical map and the shifted-matrix convention


def test_canonical_map_is_canonical(bcn2):
    ring, ps = bcn2.ring, bcn2.ps
    th1, thn = ring.gen("th1"), ring.gen("thN")
    u1, u2 = ring.gen("u1"), ring.gen("u2")
    xt1 = ring.gen("X1") + th1 * u1
    xt2 = ring.gen("X2") + thn * u2 ** -1
    assert ps.bracket(xt1, u1) == u1
    assert ps.bracket(xt2, u2) == u2
    assert ps.bracket(xt1, u2).is_zero
    assert ps.bracket(xt1, xt2).is_zero


def test_canonical_map_identity_when_theta_zero(bcn2):
    cm = canonical_map_bcn(bcn2)
    h = hamiltonian(bcn2)
    transformed = h.substitute(cm).substitute({"th1": 0, "thN": 0})
    assert transformed == h.substitute({"th1": 0, "thN": 0})


def test_theta_absorbed_into_beta(chains):
    for m in chains[:4]:  # bcn N=1..4
        cm = canonical_map_bcn(m)
        got = hamiltonian(m).substitute(cm)
        assert parameter_constant_difference(got, theta_absorbed_hamiltonian(m)) is not None


def test_ks_pair_zero_curvature_exact(bcn2):
    # the -mu/2 shift is flow-irrelevant and the transformed pair still
    # satisfies the zero-curvature equations of the transformed Hamiltonian
    ring, ps = bcn2.ring, bcn2.ps
    cm = canonical_map_bcn(bcn2)
    m_ = mu(ring)
    hphi = hamiltonian(bcn2).substitute(cm)
    for j in range(1, bcn2.N + 1):
        lphi = bcn2.lax(j, m_).substitute(cm)
        lhs = bracket_scalar_matrix(ps, hphi, lphi)
        rhs = ks_convention_matrix(bcn2, j + 1) @ lphi - lphi @ ks_convention_matrix(
            bcn2, j
        )
        assert (lhs - rhs).is_zero


def test_ks_boundary_relations(bcn2):
    ring, ps = bcn2.ring, bcn2.ps
    cm = canonical_map_bcn(bcn2)
    m_ = mu(ring)
    hphi = hamiltonian(bcn2).substitute(cm)
    kphi = bcn2.km(m_).substitute(cm)
    assert bracket_scalar_matrix(ps, hphi, kphi).is_zero


def test_ks_shift_contains_displayed_value(bcn2):
    shift = identity(bcn2.ring, 2) * Fraction(
        mu(bcn2.ring) * QQ(-1, 2)
    )
    got = ks_convention_matrix(bcn2, 2)
    base = (model_flow_matrix(bcn2, 2) + shift).substitute(canonical_map_bcn(bcn2))
    assert got == base


# ---------------------------------------------------------------------------
# dn boundary elimination


def test_dn_elimination_requires_dn(bcn2):
    with pytest.raises(StructureError):
        dn_boundary_elimination(bcn2)


def test_dn_elimination_requires_nonzero_c0():
    m = build_dn(2, {"c0": 0.0})
    with pytest.raises(StructureError):
        dn_boundary_elimination(m)


def test_dn_elimination_on_shell_consistency(dn2):
    # the substitution satisfies both the level set and the Casimir value
    ring = dn2.ring
    elim = dn_boundary_elimination(dn2)
    c0, c1 = ring.gen("c0"), ring.gen("c1")
    f = elim.on_shell["F"]
    assert f - ring.gen("u1") == c0 * QQ(1, 2)
    cas = Fraction(ring.gen("H") ** 2) + elim.on_shell["E"] * Fraction(f)
    assert cas == Fraction(c1 * QQ(1, 4))


def test_dn_second_order_boundary_equation(dn2, dn3):
    # xtdd_1 = e^{x2 - xt1} - e^{xt1 - x0} with the x0 combination
    for m in (dn2, dn3):
        ring = m.ring
        elim = dn_boundary_elimination(m)
        v = dn_xtilde_velocity(m)
        acc = m.ps.bracket_fraction(hamiltonian(m), v).substitute(elim.on_shell)
        v_on = v.substitute(elim.on_shell)
        u2 = ring.gen("u2")
        resid = acc - Fraction(u2) / elim.xtilde + elim.xtilde * elim.bc_x0(v_on)
        assert resid.is_zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dn_xtilde_velocity_reads_the_derived_x1_flow(n):
    # the x1 equation of motion, not a second {H, u1}: same value and print
    m = build_dn(n)
    ring = m.ring
    u1, c0 = Fraction(ring.gen("u1")), ring.gen("c0")
    want = m.ps.bracket_fraction(hamiltonian(m), u1) / u1 * Fraction(c0, c0 + ring.gen("u1"))
    got = dn_xtilde_velocity(m)
    assert got == want and str(got) == str(want)
    assert got.den_factors == want.den_factors


def bc_x0_reading(elim, v, exp_x1):
    """e^{-x0} = u2/c0^2 + (V^2 - c1) exp_x1 / (c0^2 - e^{2 xt_1}), with
    exp_x1 in the second numerator."""
    ring = v.ring
    c0, c1 = ring.gen("c0"), ring.gen("c1")
    c0sq = Fraction(c0 * c0)
    return Fraction(ring.gen("u2")) / c0sq + (v * v - Fraction(c1)) * exp_x1 / (
        c0sq - elim.xtilde * elim.xtilde
    )


def test_dn_x0_printed_reading_fails(dn2):
    # documents that the literal e^{x1} numerator does not close the identity,
    # while the tilde reading that bc_x0 implements does
    ring = dn2.ring
    elim = dn_boundary_elimination(dn2)
    v = dn_xtilde_velocity(dn2)
    acc = dn2.ps.bracket_fraction(hamiltonian(dn2), v).substitute(elim.on_shell)
    v_on = v.substitute(elim.on_shell)
    u2 = ring.gen("u2")
    tilde, implemented = bc_x0_reading(elim, v_on, elim.xtilde), elim.bc_x0(v_on)
    assert tilde == implemented and str(tilde) == str(implemented)
    printed = bc_x0_reading(elim, v_on, Fraction(ring.gen("u1")))
    resid = acc - Fraction(u2) / elim.xtilde + elim.xtilde * printed
    assert not resid.is_zero


def test_dn_last_site_second_order(dn2, dn3):
    # xdd_N = -e^{x_N - x_{N-1}} (the N=2 neighbour is the tilde coordinate)
    for m in (dn2, dn3):
        ring, ps = m.ring, m.ps
        elim = dn_boundary_elimination(m)
        un = ring.gen("u%d" % m.N)
        xdot = ps.bracket_fraction(hamiltonian(m), Fraction(un)) / Fraction(un)
        xdd = m.ps.bracket_fraction(hamiltonian(m), xdot).substitute(elim.on_shell)
        if m.N == 2:
            neighbour = Fraction(un) / elim.xtilde
        else:
            neighbour = Fraction(un * ring.gen("u%d" % (m.N - 1)) ** -1)
        assert (xdd + neighbour).is_zero


def test_dn3_site2_second_order(dn3):
    # xdd_2 = e^{x3 - x2} - e^{x2 - xt1}
    ring, ps = dn3.ring, dn3.ps
    elim = dn_boundary_elimination(dn3)
    u2, u3 = ring.gen("u2"), ring.gen("u3")
    xdot = ps.bracket_fraction(hamiltonian(dn3), Fraction(u2)) / Fraction(u2)
    xdd = dn3.ps.bracket_fraction(hamiltonian(dn3), xdot).substitute(elim.on_shell)
    resid = xdd - Fraction(u3 * u2 ** -1) + Fraction(u2) / elim.xtilde
    assert resid.is_zero


# ---------------------------------------------------------------------------
# commutation at N=3 (cheap enough to keep out of the acceptance gate)


def test_transfer_commutation_n3(bcn3, dn3):
    for m in (bcn3, dn3):
        assert check_transfer_commutation(m.ps, m.derivation).holds


def test_theorem_n3(dn3):
    assert all(
        r.holds for r in check_theorem_zc(dn3.ps, dn3.derivation)
    )
