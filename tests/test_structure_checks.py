"""Relation verifiers: positive cases, counterexamples, mutation guards."""

import json

from bilax.backend import QQ
from bilax.spectral_matrix import SpectralMatrix, identity, lam, rational_r_builder, zeros
from bilax.structure_checks import (
    check_cybe,
    check_k_locality,
    check_nondynamical,
    check_reflection_minus,
    check_reflection_plus,
    check_rll,
    flip_entry,
    flip_lax_entry,
)
from mutations import count_failing_sign_mutations, nonzero_positions, replace_entry


def test_cybe_rational(bcn2):
    rep = check_cybe(rational_r_builder(bcn2.ring), bcn2.ring)
    assert rep.holds and rep.residual == []


def test_cybe_zero_r(bcn2):
    rep = check_cybe(lambda arg: zeros(bcn2.ring, 4), bcn2.ring)
    assert rep.holds


def test_cybe_sign_mutation_fails(bcn2):
    rb = rational_r_builder(bcn2.ring)
    mutant = flip_entry(rb, 1, 2)
    rep = check_cybe(mutant, bcn2.ring)
    assert not rep.holds and rep.residual


def test_rll_toda(bcn2):
    rep = check_rll(bcn2.lax, rational_r_builder(bcn2.ring), bcn2.ps)
    assert rep.holds


def test_rll_offsite_included(bcn2):
    rep = check_rll(
        bcn2.lax, rational_r_builder(bcn2.ring), bcn2.ps, offsite=(1, 2)
    )
    assert rep.holds


def test_rll_constant_lax(bcn2):
    # field-free, spectral-free l: both sides vanish (l_a l_b is swap-symmetric)
    ring = bcn2.ring

    def const_lax(j, arg):
        return SpectralMatrix(ring, [[ring.const(1), ring.const(2)], [ring.const(3), ring.const(5)]])

    rep = check_rll(const_lax, rational_r_builder(ring), bcn2.ps)
    assert rep.holds


def test_rll_r_mutation_fails(bcn2):
    # single sign flips of the Lax entries are exact symmetries (u -> -u is
    # a Poisson map), so sensitivity is carried by the r input
    rb = rational_r_builder(bcn2.ring)
    probe = rb(lam(bcn2.ring))
    fails = count_failing_sign_mutations(
        lambda rbm: check_rll(bcn2.lax, rbm, bcn2.ps), rb, probe
    )
    assert fails == 4


def test_reflection_bcn_constant(bcn2):
    rb = rational_r_builder(bcn2.ring)
    assert check_reflection_minus(bcn2.km, rb, bcn2.ps).holds
    assert check_reflection_plus(bcn2.kp, rb, bcn2.ps).holds


def test_reflection_dn_dynamical(dn2):
    rb = rational_r_builder(dn2.ring)
    assert check_reflection_minus(dn2.km, rb, dn2.ps).holds
    assert check_reflection_plus(dn2.kp, rb, dn2.ps).holds


def test_reflection_identity_k(bcn2):
    rb = rational_r_builder(bcn2.ring)
    k1 = lambda arg: identity(bcn2.ring, 2)
    assert check_reflection_minus(k1, rb, bcn2.ps).holds
    assert check_reflection_plus(k1, rb, bcn2.ps).holds


def test_reflection_wrong_corner_fails(dn2):
    # moving E to the other off-diagonal corner breaks the algebra
    ring = dn2.ring
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")

    def bad(arg):
        return SpectralMatrix(
            ring,
            [[arg * QQ(1, 2) - H, E], [F, arg * QQ(1, 2) + H]],
        )

    assert not check_reflection_minus(bad, rational_r_builder(ring), dn2.ps).holds


def test_nondynamical(bcn2, dn2):
    assert check_nondynamical(bcn2.km, bcn2.ps).holds
    assert check_nondynamical(bcn2.kp, bcn2.ps).holds
    assert check_nondynamical(dn2.kp, dn2.ps).holds
    assert not check_nondynamical(dn2.km, dn2.ps).holds


def test_nondynamical_scalar_matrix(bcn2):
    ring = bcn2.ring
    k = lambda arg: SpectralMatrix(ring, [[arg, ring.zero], [ring.zero, arg]])
    assert check_nondynamical(k, bcn2.ps).holds


def test_k_locality(bcn2, dn2):
    assert check_k_locality(bcn2.km, bcn2.kp, bcn2.lax, bcn2.ps).holds
    assert check_k_locality(dn2.km, dn2.kp, dn2.lax, dn2.ps).holds


def test_report_json(bcn2):
    rep = check_rll(
        flip_lax_entry(bcn2.lax, 0, 1), rational_r_builder(bcn2.ring), bcn2.ps
    )
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["relation"] == "rll"
    assert isinstance(payload["holds"], bool)
    assert all({"index", "value"} <= set(e) for e in payload["residual"])


def test_residual_entries_index_failures(dn2):
    # the printed display with F in both corners fails with located entries
    ring = dn2.ring
    F, H = ring.gen("F"), ring.gen("H")

    def printed(arg):
        return SpectralMatrix(
            ring, [[arg * QQ(1, 2) - H, F], [F, arg * QQ(1, 2) + H]]
        )

    rep = check_reflection_minus(printed, rational_r_builder(ring), dn2.ps)
    assert not rep.holds
    assert any(idx.startswith("((") for idx, _ in rep.residual)


def test_replace_entry_helper(dn2):
    ring = dn2.ring
    kb = replace_entry(dn2.kp, 0, 0, ring.gen("E"))
    probe = kb(lam(ring))
    assert (0, 0) in nonzero_positions(probe)
