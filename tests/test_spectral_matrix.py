"""Tensor-space matrix algebra: embeddings (``kron`` with the identity),
partial traces, r-matrix."""

import random

import pytest

from bilax.double_row import Derivation
from bilax.phase_ring import Fraction, StructureError
from bilax.spectral_matrix import (
    SpectralMatrix,
    commutator,
    contract,
    det_2x2,
    identity,
    inverse_2x2,
    kron,
    lam,
    mu,
    partial_trace_a,
    permutation,
    permute_legs,
    rational_r_builder,
    tensor_bracket,
)
from bilax.toda_models import build_bcn


@pytest.fixture(scope="module")
def model():
    return build_bcn(2)


def rand_matrix(ring, rng, dim=2):
    return SpectralMatrix(
        ring,
        [[ring.const(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(dim)],
    )


# ---------------------------------------------------------------------------
# embeddings and tensor products


def test_embed_identity(model):
    one = identity(model.ring, 2)
    assert kron(one, one) == identity(model.ring, 4)


def test_embed_factors_commute(model):
    ring = model.ring
    one = identity(ring, 2)
    rng = random.Random(2)
    m, n = rand_matrix(ring, rng), rand_matrix(ring, rng)
    assert kron(m, one) @ kron(one, n) == kron(one, n) @ kron(m, one)
    assert kron(m, one) @ kron(one, n) == kron(m, n)


def test_embed_entries_kronecker_oracle(model):
    # E_12 on the a-leg, kron(E_12, 1), against the explicit Kronecker
    # product layout
    ring = model.ring
    e12 = SpectralMatrix(ring, [[ring.zero, ring.one], [ring.zero, ring.zero]])
    m4 = kron(e12, identity(ring, 2))
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    want = e12.rows[i][j] * (ring.one if k == l else ring.zero)
                    assert m4.rows[2 * i + k][2 * j + l] == want


# ---------------------------------------------------------------------------
# permutation and partial trace


def test_permutation_squares_to_identity(model):
    p = permutation(model.ring)
    assert p @ p == identity(model.ring, 4)


def test_permutation_swaps_factors(model):
    rng = random.Random(5)
    for _ in range(5):
        m, n = rand_matrix(model.ring, rng), rand_matrix(model.ring, rng)
        p = permutation(model.ring)
        assert p @ kron(m, n) @ p == kron(n, m)


def test_partial_trace_identity(model):
    ring = model.ring
    assert partial_trace_a(identity(ring, 4)) == identity(ring, 2) * ring.const(2)


def test_partial_trace_factorized(model):
    rng = random.Random(9)
    m, n = rand_matrix(model.ring, rng), rand_matrix(model.ring, rng)
    assert partial_trace_a(kron(m, n)) == n * m.trace()


def test_partial_trace_permutation(model):
    # direct sum over P entries: (tr_a P)_{kl} = sum_i P_{(i,k),(i,l)} = delta_{kl}
    ring = model.ring
    p = permutation(ring)
    direct = [
        [
            sum(
                (p.rows[2 * i + k][2 * i + l].num.constant_value())
                for i in range(2)
            )
            for l in range(2)
        ]
        for k in range(2)
    ]
    assert direct == [[1, 0], [0, 1]]
    assert partial_trace_a(p) == identity(ring, 2)


def test_partial_trace_pullout(model):
    # tr_a(A_ab B_b C_a) = B tr_a(A_ab C_a) and the left-multiplied variant
    ring = model.ring
    one = identity(ring, 2)
    rng = random.Random(13)
    for _ in range(5):
        a4 = rand_matrix(ring, rng, dim=4)
        b, c = rand_matrix(ring, rng), rand_matrix(ring, rng)
        b_b, c_a = kron(one, b), kron(c, one)
        lhs = partial_trace_a(a4 @ b_b @ c_a)
        rhs = partial_trace_a(a4 @ c_a) @ b
        assert lhs == rhs
        lhs2 = partial_trace_a(b_b @ a4 @ c_a)
        assert lhs2 == b @ partial_trace_a(a4 @ c_a)


def test_trace_a_matches_embedded_product(model):
    # tr_a(A_a r B_a) = contract(r, B A): same entries and printed forms as
    # the 4x4 route, on sparse and dense operands whose entries carry zeros
    # and factored denominators
    ring = model.ring
    l_, m_ = lam(ring), mu(ring)
    pool = [
        Fraction(ring.zero),
        Fraction(ring.zero),
        Fraction(ring.one),
        Fraction(ring.gen("u1")),
        Fraction(ring.gen("X1") - l_),
        Fraction(ring.one, l_ - m_),
        Fraction(ring.gen("u2"), l_ + m_),
        Fraction(ring.gen("X2") * 3, (l_ - m_) * (l_ + m_)),
    ]
    one = identity(ring, 2)
    rng = random.Random(29)
    for _ in range(20):
        a, b = (
            SpectralMatrix(ring, [[rng.choice(pool) for _ in range(2)] for _ in range(2)])
            for _ in range(2)
        )
        r = SpectralMatrix(ring, [[rng.choice(pool) for _ in range(4)] for _ in range(4)])
        want = partial_trace_a(kron(a, one) @ r @ kron(b, one))
        got = contract(r, b @ a)
        assert got == want
        assert str(got) == str(want)
    with pytest.raises(StructureError):
        contract(identity(ring, 4), identity(ring, 4))


def test_partial_trace_requires_4x4(model):
    with pytest.raises(StructureError):
        partial_trace_a(identity(model.ring, 2))


# ---------------------------------------------------------------------------
# rational r-matrix


def test_rational_r_is_permutation_over_pole(model):
    ring = model.ring
    arg = lam(ring) - mu(ring)
    r = rational_r_builder(ring)(arg)
    assert r * Fraction(arg) == permutation(ring)


def test_rational_r_skew_symmetry(model):
    ring = model.ring
    arg = lam(ring) - mu(ring)
    rb = rational_r_builder(ring)
    assert (rb(arg) + permute_legs(rb(-arg), (1, 0))).is_zero


def test_scalar_associativity_cross_multiplied(model):
    ring = model.ring
    a = Fraction(ring.gen("X1"), lam(ring) - mu(ring))
    b = Fraction(ring.gen("u1"), lam(ring) + mu(ring))
    c = Fraction(ring.one, lam(ring))
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# tensor brackets


def test_tensor_bracket_distinct_sites_vanish(model):
    ring, ps = model.ring, model.ps
    lax = model.lax
    tb = tensor_bracket(ps, lax(1, lam(ring)), lax(2, mu(ring)))
    assert tb.is_zero


def test_tensor_bracket_k_lax_locality(dn2):
    ring, ps = dn2.ring, dn2.ps
    tb = tensor_bracket(ps, dn2.km(lam(ring)), dn2.lax(1, mu(ring)))
    assert tb.is_zero


def test_tensor_bracket_onsite_component(model):
    # ((1,1),(1,2)) component is {lam + X_j, -e^{x_j}} = -u_j
    ring, ps = model.ring, model.ps
    tb = tensor_bracket(ps, model.lax(1, lam(ring)), model.lax(1, mu(ring)))
    direct = ps.bracket(lam(ring) + ring.gen("X1"), -ring.gen("u1"))
    assert direct == -ring.gen("u1")
    assert tb.rows[0][1] == Fraction(direct)


def test_tensor_bracket_antisymmetry(model):
    # {A_a, B_b} = -P {B_a, A_b} P, for A != B with a nonzero bracket
    ring, ps = model.ring, model.ps
    m_ = mu(ring)
    a = model.lax(1, lam(ring))
    b = model.lax(2, m_) @ model.lax(1, m_)
    tb = tensor_bracket(ps, a, b)
    assert not tb.is_zero
    assert tb == -permute_legs(tensor_bracket(ps, b, a), (1, 0))


# ---------------------------------------------------------------------------
# inverse


def test_toda_lax_unit_determinant(model):
    # (lam + X)*0 + e^{x} e^{-x} = 1 by direct expansion
    ring = model.ring
    l1 = model.lax(1, lam(ring))
    assert det_2x2(l1) == Fraction(ring.one)


def test_inverse_adjugate_oracle(model):
    # inverse of l(j, -lam) equals [[0, u],[-1/u, X - lam]] for det = 1
    ring = model.ring
    u1, x1 = ring.gen("u1"), ring.gen("X1")
    li = inverse_2x2(model.lax(1, -lam(ring)))
    want = SpectralMatrix(
        ring, [[ring.zero, u1], [-(u1 ** -1), x1 - lam(ring)]]
    )
    assert li == want


def test_inverse_identity(model):
    assert inverse_2x2(identity(model.ring, 2)) == identity(model.ring, 2)


def test_inverse_product_cross_multiplied(model):
    ring = model.ring
    m = SpectralMatrix(ring, [[lam(ring) + 1, ring.gen("u1")], [ring.one, lam(ring)]])
    assert m @ inverse_2x2(m) == identity(ring, 2)


def test_inverse_takes_one_reciprocal_of_the_determinant(model, monkeypatch):
    # the adjugate times 1/det, not four divisions by det; each entry is
    # what the division gives, printed form included
    ring = model.ring
    m = SpectralMatrix(ring, [[lam(ring) + 1, ring.gen("u1")],
                              [Fraction(ring.one, ring.gen("a1")), lam(ring)]])
    d = det_2x2(m)
    want = [[m[1, 1] / d, -m[0, 1] / d], [-m[1, 0] / d, m[0, 0] / d]]
    calls = []
    reciprocal = Fraction.reciprocal
    monkeypatch.setattr(Fraction, "reciprocal", lambda f: calls.append(f) or reciprocal(f))
    got = inverse_2x2(m)
    assert calls == [d]
    assert [[str(e) for e in row] for row in got.rows] == [[str(e) for e in row] for row in want]
    assert got.rows == tuple(map(tuple, want))
    calls.clear()
    n = model.N
    Derivation(model.lax, model.km, model.kp, n, lam(ring)).sites  # one inverse per l(k, +-lam)
    assert len(calls) == 2 * n


def test_inverse_rejects_singular(model):
    ring = model.ring
    m = SpectralMatrix(ring, [[ring.one, ring.one], [ring.one, ring.one]])
    with pytest.raises(StructureError):
        inverse_2x2(m)


def test_commutator_helper(model):
    ring = model.ring
    rng = random.Random(21)
    a, b = rand_matrix(ring, rng), rand_matrix(ring, rng)
    assert commutator(a, b) == a @ b - b @ a
