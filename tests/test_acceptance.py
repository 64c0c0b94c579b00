"""Acceptance gate: one test per criterion, pinned tolerances, timed.

Each criterion builds its own models so the reported runtime includes all
symbolic work.  A pass/fail line is printed per criterion (visible with
pytest -s or on failure).
"""

import time

import numpy as np

from bilax.double_row import (
    Derivation,
    check_theorem_zc,
    check_transfer_commutation,
    verify_corollary,
)
from bilax.dynamics import (
    conserved_channels,
    dn_x0_relation_residual,
    integrate,
    random_phase_point,
    zero_curvature_residual,
)
from bilax.phase_ring import Fraction
from bilax.spectral_matrix import (
    bracket_scalar_matrix,
    lam,
    mu,
    rational_r_builder,
)
from bilax.structure_checks import (
    check_cybe,
    check_nondynamical,
    check_reflection_minus,
    check_reflection_plus,
    check_rll,
    flip_entry,
)
from bilax.toda_models import (
    build_bcn,
    build_dn,
    canonical_map_bcn,
    casimir,
    displayed_flow_indices,
    displayed_flow_matrix,
    displayed_hamiltonian,
    dn_boundary_elimination,
    dn_xtilde_velocity,
    hamiltonian,
    ks_convention_matrix,
    model_flow_matrix,
    parameter_constant_difference,
    theta_absorbed_hamiltonian,
)
from mutations import count_failing_sign_mutations, nonzero_positions, replace_entry


def _report(number, description, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = " (%.2fs" % elapsed
    extra += ", budget %ds)" % budget if budget else ")"
    print("ACCEPTANCE %2d %s: %s%s" % (number, status, description, extra))
    assert ok, "criterion %d failed: %s" % (number, description)
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %ds" % (number, budget)


def test_criterion_01_cybe():
    t0 = time.monotonic()
    m = build_bcn(1)
    rep = check_cybe(rational_r_builder(m.ring), m.ring)
    ok = rep.holds and rep.residual == []
    _report(1, "classical Yang-Baxter equation for P/lam", ok, time.monotonic() - t0, 1)


def test_criterion_02_rll():
    t0 = time.monotonic()
    m = build_bcn(2)
    rep = check_rll(m.lax, rational_r_builder(m.ring), m.ps, offsite=(1, 2))
    ok = rep.holds
    _report(
        2, "ultralocal rLL algebra on-site, off-site vanishing", ok,
        time.monotonic() - t0, 1,
    )


def test_criterion_03_reflection():
    t0 = time.monotonic()
    b = build_bcn(2)
    d = build_dn(2)
    rb_b = rational_r_builder(b.ring)
    rb_d = rational_r_builder(d.ring)
    ok = check_reflection_minus(b.km, rb_b, b.ps).holds
    ok &= check_reflection_plus(b.kp, rb_b, b.ps).holds
    ok &= check_nondynamical(b.km, b.ps).holds
    ok &= check_nondynamical(b.kp, b.ps).holds
    ok &= check_reflection_minus(d.km, rb_d, d.ps).holds
    _report(
        3, "constant k non-dynamical + dynamical sl(2) reflection algebra",
        ok, time.monotonic() - t0, 5,
    )


def test_criterion_04_transfer_commutation():
    t0 = time.monotonic()
    ok = True
    for model in (build_bcn(1), build_bcn(2), build_dn(2)):
        ok &= check_transfer_commutation(model.ps, model.derivation).holds
    _report(
        4, "{b(lam), b(mu)} = 0 exactly (bcn N=1,2; dn N=2)", ok,
        time.monotonic() - t0, 60,
    )


def test_criterion_05_hamiltonian_extraction():
    t0 = time.monotonic()
    ok = True
    for model in (build_bcn(1), build_bcn(2), build_dn(2)):
        diff = parameter_constant_difference(
            hamiltonian(model), displayed_hamiltonian(model)
        )
        ok &= diff is not None
    _report(
        5,
        "extracted Hamiltonians match closed forms up to additive constant",
        ok, time.monotonic() - t0,
    )


def test_criterion_06_theorem_identities():
    t0 = time.monotonic()
    ok = True
    for model in (build_bcn(2), build_dn(2)):
        reports = check_theorem_zc(model.ps, model.derivation)
        ok &= all(r.holds for r in reports)
    _report(
        6, "all three generating zero-curvature identities, both models, N=2",
        ok, time.monotonic() - t0, 120,
    )


def test_criterion_07_flow_matrices_and_ks():
    t0 = time.monotonic()
    ok = True
    for model in (build_bcn(1), build_bcn(2), build_dn(2), build_dn(3)):
        for j in displayed_flow_indices(model):
            ok &= model_flow_matrix(model, j) == displayed_flow_matrix(model, j)
    # canonical map + (-mu/2) shift: structural comparison checks
    model = build_bcn(2)
    cm = canonical_map_bcn(model)
    hphi = hamiltonian(model).substitute(cm)
    ok &= parameter_constant_difference(
        hphi, theta_absorbed_hamiltonian(model)
    ) is not None
    m_ = mu(model.ring)
    for j in range(1, model.N + 1):
        lphi = model.lax(j, m_).substitute(cm)
        lhs = bracket_scalar_matrix(model.ps, hphi, lphi)
        rhs = ks_convention_matrix(model, j + 1) @ lphi - lphi @ ks_convention_matrix(
            model, j
        )
        ok &= (lhs - rhs).is_zero
    _report(
        7,
        "every displayed time-part matrix reproduced entry-for-entry; "
        "canonical map + shift checks exact",
        ok, time.monotonic() - t0,
    )


def test_criterion_08_corollary_and_numeric_zc():
    t0 = time.monotonic()
    ok = True
    for model in (build_bcn(2), build_dn(2)):
        reports = verify_corollary(model.ps, model.derivation)
        ok &= all(r.holds for r in reports)
    # numeric leg: bcn N=3, T=10, dt=1e-3, five mu samples
    model = build_bcn(3)
    rng = np.random.default_rng(0)
    p0 = random_phase_point(model, rng)
    traj = integrate(model, p0, 1e-3, 10000)
    ch = conserved_channels(model, traj)
    zc = zero_curvature_residual(model, traj, (0.3, 0.7, 1.1, 1.9, 2.3))
    ok &= not traj.truncated
    ok &= float(zc["zc_residual"].max()) <= 1e-12
    ok &= float(zc["boundary_residual"].max()) <= 1e-12
    ok &= float(ch["H_drift"].max()) <= 1e-8
    _report(
        8,
        "corollary flows exact symbolically; bcn N=3 run: zc <= 1e-12, "
        "H drift <= 1e-8",
        ok, time.monotonic() - t0, 30,
    )


def test_criterion_09_dn_conservation():
    t0 = time.monotonic()
    model = build_dn(2)
    # symbolic side: both combinations commute with the Hamiltonian, and the
    # second-order boundary form closes through the x0 combination
    ring, ps = model.ring, model.ps
    ham = hamiltonian(model)
    ok = ps.bracket_fraction(ham, Fraction(casimir(ps.ring))).is_zero
    ok &= ps.bracket_fraction(
        ham, Fraction(ring.gen("F") - ring.gen("u1"))
    ).is_zero
    elim = dn_boundary_elimination(model)
    v = dn_xtilde_velocity(model)
    acc = ps.bracket_fraction(ham, v).substitute(elim.on_shell)
    v_on = v.substitute(elim.on_shell)
    resid = acc - Fraction(ring.gen("u2")) / elim.xtilde + elim.xtilde * elim.bc_x0(v_on)
    ok &= resid.is_zero
    # numeric side over T = 10
    rng = np.random.default_rng(0)
    p0 = random_phase_point(model, rng, amplitude=0.2)
    traj = integrate(model, p0, 5e-4, 20000)
    ch = conserved_channels(model, traj)
    x0 = dn_x0_relation_residual(model, traj)
    ok &= not traj.truncated
    ok &= float(ch["casimir_drift"].max()) <= 1e-10
    ok &= float(ch["f_minus_ex1_drift"].max()) <= 1e-10
    ok &= float(x0.max()) <= 1e-8
    _report(
        9,
        "dn: Casimir and F - e^{x1} drift <= 1e-10 over T=10; x0-form "
        "second-order relation <= 1e-8",
        ok, time.monotonic() - t0,
    )


def test_criterion_10_mutation_sensitivity():
    t0 = time.monotonic()
    b2 = build_bcn(2)
    b1 = build_bcn(1)
    d2 = build_dn(2)
    rb = rational_r_builder(b2.ring)
    rb1 = rational_r_builder(b1.ring)
    rb_d = rational_r_builder(d2.ring)
    probe_r = rb(lam(b2.ring))
    probe_km = b2.km(lam(b2.ring))
    probe_kp = b2.kp(lam(b2.ring))
    probe_kd = d2.km(lam(d2.ring))

    fails = {}
    fails["cybe"] = count_failing_sign_mutations(
        lambda rbm: check_cybe(rbm, b2.ring), rb, probe_r
    )
    fails["rll"] = count_failing_sign_mutations(
        lambda rbm: check_rll(b2.lax, rbm, b2.ps), rb, probe_r
    )
    fails["reflection_minus_bcn"] = count_failing_sign_mutations(
        lambda km: check_reflection_minus(km, rb, b2.ps), b2.km, probe_km
    ) + count_failing_sign_mutations(
        lambda rbm: check_reflection_minus(b2.km, rbm, b2.ps), rb, probe_r
    )
    fails["reflection_plus_bcn"] = count_failing_sign_mutations(
        lambda kp: check_reflection_plus(kp, rb, b2.ps), b2.kp, probe_kp
    ) + count_failing_sign_mutations(
        lambda rbm: check_reflection_plus(b2.kp, rbm, b2.ps), rb, probe_r
    )
    fails["reflection_minus_dn"] = count_failing_sign_mutations(
        lambda km: check_reflection_minus(km, rb_d, d2.ps), d2.km, probe_kd
    )
    fails["bb_commute"] = sum(
        not check_transfer_commutation(
            b2.ps, Derivation(b2.lax, flip_entry(b2.km, i, j), b2.kp, 2, lam(b2.ring))
        ).holds
        for i, j in nonzero_positions(probe_km)
    ) + sum(
        not check_transfer_commutation(
            b2.ps, Derivation(b2.lax, b2.km, flip_entry(b2.kp, i, j), 2, lam(b2.ring))
        ).holds
        for i, j in nonzero_positions(probe_kp)
    )
    fails["theorem_zc"] = sum(
        any(
            not r.holds
            for r in check_theorem_zc(
                b1.ps,
                Derivation(b1.lax, b1.km, b1.kp, 1, lam(b1.ring), flip_entry(rb1, i, j)),
            )
        )
        for i, j in nonzero_positions(rb1(lam(b1.ring)))
    )
    # nondynamical cannot fail under any single-entry change while the rest
    # of the matrix is field-free: the minimal guard inserts a bracketing
    # sl(2) pair into two entries
    ring = d2.ring
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
    pairs = [
        ((0, 0), E, (0, 1), F),
        ((0, 0), H, (1, 1), E),
        ((1, 0), F, (1, 1), E),
        ((0, 1), E, (1, 0), F),
    ]
    fails["nondynamical"] = sum(
        not check_nondynamical(
            replace_entry(replace_entry(d2.kp, p[0], p[1], val1), q[0], q[1], val2),
            d2.ps,
        ).holds
        for (p, val1, q, val2) in pairs
    )

    ok = all(n >= 3 for n in fails.values())
    detail = ", ".join("%s=%d" % kv for kv in sorted(fails.items()))
    _report(
        10, "every verifier fails under >=3 mutations (%s)" % detail, ok,
        time.monotonic() - t0,
    )
