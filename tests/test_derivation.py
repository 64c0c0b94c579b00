"""The model's double-row derivation against the one-shot oracle builders.

``double_row_oracle`` keeps the construction the package used before the
derivation: every generating and single-row matrix rebuilt from full
monodromies through 4x4 products, and {b(lam), b(mu)} and {t(lam), t(mu)}
each decided as one bivariate bracket.  The memoised matrices must be equal
to it and print identically; the coefficient-wise commutation checks must
reach the same verdict, with an equal residual on failure.
"""

import numpy as np
import pytest

import double_row_oracle as oracle
from bilax.cli import _verify_reports
from bilax.double_row import (
    Derivation,
    boundary_M,
    check_single_row_commutation,
    check_sts_identity,
    check_theorem_zc,
    check_transfer_commutation,
    transfer_commutator,
    verify_corollary,
)
from bilax.dynamics import integrate, random_phase_point, zero_curvature_residual
from bilax.phase_ring import StructureError
from bilax.spectral_matrix import SpectralMatrix, lam, mu, rational_r_builder
from bilax.structure_checks import flip_entry
from bilax.toda_models import build_bcn, build_dn
from mutations import nonzero_positions, replace_entry

MODELS = [("bcn", n) for n in (1, 2, 3, 4)] + [("dn", n) for n in (2, 3, 4)]


def build(name, n):
    return build_bcn(n) if name == "bcn" else build_dn(n)


def flipped(m, i, j):
    """m with the sign of entry (i, j) flipped."""
    return flip_entry(lambda _: m, i, j)(None)


@pytest.mark.parametrize("name,n", MODELS, ids=lambda v: str(v))
def test_generating_matrices_match_oracle(name, n):
    model = build(name, n)
    d = model.derivation
    l_, m_ = lam(model.ring), mu(model.ring)
    b = oracle.double_row_transfer(model.lax, model.km, model.kp, n, l_)
    assert d.b == b and str(d.b) == str(b)
    for j in range(1, n + 2):
        for s in (1, -1):
            want = oracle.boundary_M(model.lax, model.km, model.kp, n, j, l_, s * m_)
            got = d.M(j, s)
            assert got == want
            assert str(got) == str(want)
            assert d.M(j, s) is got  # memoised
        want = oracle.sts_matrix(model.lax, n, j, l_, m_)
        got = d.sts(j)
        assert got == want
        assert str(got) == str(want)
        assert d.sts(j) is got  # memoised
    assert len(d.generating) == 2 * (n + 1)
    for j in (0, n + 2):
        with pytest.raises(StructureError):
            d.M(j, 1)
        with pytest.raises(StructureError):
            d.sts(j)


def test_a_sign_other_than_plus_or_minus_one_raises():
    d = build_bcn(2).derivation
    for read, s in ((d.M, 0), (d.M, 2), (d.flow, -2)):
        with pytest.raises(StructureError):
            read(1, s)
    assert d.generating == {} and d.flows == {}


@pytest.mark.parametrize("name", ["bcn", "dn"])
def test_a_mu_dependent_lam_has_matrices_at_plus_mu_only(name):
    # M(j, -mu) is M(j, mu) reflected in mu only while lam is mu-free, and
    # the derivation builds no matrix at -mu any other way
    model = build(name, 2)
    l_, m_ = lam(model.ring), mu(model.ring)
    d = Derivation(model.lax, model.km, model.kp, 2, l_ + m_, recipe=model.recipe)
    b = oracle.double_row_transfer(model.lax, model.km, model.kp, 2, l_ + m_)
    assert d.b == b and str(d.b) == str(b)
    for j in range(1, 4):
        want = oracle.boundary_M(model.lax, model.km, model.kp, 2, j, l_ + m_, m_)
        assert d.M(j, 1) == want and str(d.M(j, 1)) == str(want)
        for read in (d.M, d.flow):
            with pytest.raises(StructureError):
                read(j, -1)
    assert set(d.generating) == {(j, 1) for j in range(1, 4)} and d.flows == {}


@pytest.mark.parametrize("name,n", [("bcn", 3), ("dn", 3)], ids=str)
def test_verify_builds_interior_matrices_at_plus_mu_only(name, n):
    # the layout reads M and the flows at -mu only at the boundary sites
    model = build(name, n)
    _verify_reports(model)
    d = model.derivation
    plus = {(j, 1) for j in range(1, n + 2)}
    assert set(d.generating) == set(d.flows) == plus | {(1, -1), (n + 1, -1)}
    assert set(d.single_row) == {j for j, _ in plus}


def held_matrices(d) -> list:
    """Every matrix reachable from ``vars(d)``: the memo tables, the site
    matrices, the walks' first-site products and the layout's
    (label, X, left, right) terms, opened down to their matrices."""
    held, todo = [], list(vars(d).values())
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo += item.values()
        elif isinstance(item, (tuple, list)):
            todo += item
        else:
            held.append(item)
    return [m for m in held if isinstance(m, SpectralMatrix)]


def test_derivation_holds_no_4x4_matrix_after_verify():
    model = build_bcn(2)
    _verify_reports(model)
    matrices = held_matrices(model.derivation)
    assert any(m is model.derivation.layout[0][1] for m in matrices)
    assert matrices and all(m.dim == 2 for m in matrices)


def test_sts_identity_builds_each_single_row_matrix_once():
    model = build_bcn(3)
    d = model.derivation
    assert check_sts_identity(model.ps, d).holds
    assert sorted(d.single_row) == [1, 2, 3, 4]


@pytest.mark.parametrize("name,n", [("bcn", 4), ("dn", 4)], ids=str)
def test_derivation_holds_no_moved_product_after_verify(name, n):
    # each walk holds only the current site's products, so once M and the
    # single-row matrices exist no C1(j) or C2(j) past the first site is kept
    model = build(name, n)
    _verify_reports(model)
    d = model.derivation
    held = [m for m in held_matrices(d) if m.dim == 2]
    for j in range(2, n + 2):
        _, c1, c2 = oracle.chain(d, j)
        assert not any(m == c1 or m == c2 for m in held), j


def test_each_walk_builds_its_r_matrices_once():
    # r(lam-mu) and r(lam+mu) once for every M(j, mu), r(lam-mu) once for
    # every single-row matrix; M(j, -mu) is a reflection and builds none
    model = build_bcn(3)
    rb, calls = rational_r_builder(model.ring), []

    def spy(arg):
        calls.append(arg)
        return rb(arg)

    d = Derivation(model.lax, model.km, model.kp, 3, lam(model.ring), spy, model.recipe)
    for j in range(1, 5):
        d.M(j, 1), d.flow(j, 1), d.sts(j)
    d.M(1, -1), d.M(4, -1)
    assert len(calls) == 3


@pytest.mark.parametrize("name", ["bcn", "dn"])
def test_sts_identity_fails_on_each_flipped_r_entry(name):
    model = build(name, 2)
    l_ = lam(model.ring)
    rb = rational_r_builder(model.ring)
    assert check_sts_identity(model.ps, model.derivation).holds
    flips = nonzero_positions(rb(l_))
    assert len(flips) == 4
    for i, j in flips:
        d = Derivation(model.lax, model.km, model.kp, 2, l_, flip_entry(rb, i, j))
        assert not check_sts_identity(model.ps, d).holds, (i, j)


def test_one_shot_boundary_m_matches_oracle():
    # the one-shot builder reads the walk at any spectral point
    for model in (build_bcn(1), build_bcn(2), build_dn(2)):
        l_, m_ = lam(model.ring), mu(model.ring)
        for j in range(1, model.N + 2):
            for point in ((l_, m_), (l_, -m_), (l_ + 1, m_ * 3)):
                args = (model.lax, model.km, model.kp, model.N, j, *point)
                got, want = boundary_M(*args), oracle.boundary_M(*args)
                assert got == want and str(got) == str(want)


def test_each_model_owns_its_derivation():
    a, b = build_bcn(2), build_bcn(2)
    assert a.derivation is a.derivation
    assert a.derivation is not b.derivation


@pytest.mark.parametrize("name,n", [("bcn", 1), ("bcn", 2), ("bcn", 3), ("dn", 2), ("dn", 3)])
def test_bb_commute_matches_bivariate_on_pass(name, n):
    model = build(name, n)
    new = check_transfer_commutation(model.ps, model.derivation)
    old = oracle.check_transfer_commutation(model.ps, model.lax, model.km, model.kp, n)
    assert new.holds and old.holds
    assert new.residual == old.residual == []


def test_bb_commute_matches_bivariate_under_k_flips(bcn2):
    # the single-entry k- and k+ sign flips of the mutation criterion
    ring, ps = bcn2.ring, bcn2.ps
    l_, m_ = lam(ring), mu(ring)
    mutants = [
        (flip_entry(bcn2.km, i, j), bcn2.kp) for i, j in nonzero_positions(bcn2.km(l_))
    ] + [
        (bcn2.km, flip_entry(bcn2.kp, i, j)) for i, j in nonzero_positions(bcn2.kp(l_))
    ]
    failed = 0
    for km, kp in mutants:
        d = Derivation(bcn2.lax, km, kp, 2, l_)
        new = check_transfer_commutation(ps, d)
        old = oracle.check_transfer_commutation(ps, bcn2.lax, km, kp, 2)
        assert new.holds == old.holds
        if not new.holds:
            failed += 1
            bivariate = ps.bracket_fraction(
                oracle.double_row_transfer(bcn2.lax, km, kp, 2, l_),
                oracle.double_row_transfer(bcn2.lax, km, kp, 2, m_),
            )
            assert transfer_commutator(ps, d.expansion) == bivariate
            assert new.residual[0][0] == "scalar"
    assert failed >= 3


def squared_momentum_lax(model):
    """The model's site Lax matrix with (1,1) entry lam + X_j^2 in place of
    lam + X_j: t(lam) stays polynomial in lam, but its coefficients stop
    commuting from N = 2 on.  A sign flip of one entry never breaks tt."""
    ring = model.ring

    def lax(j, arg):
        entry = arg + ring.gen("X%d" % j) ** 2
        return replace_entry(lambda a: model.lax(j, a), 0, 0, entry)(arg)

    return lax


TT_MODELS = [("bcn", n) for n in range(1, 6)] + [("dn", n) for n in range(2, 6)]


@pytest.mark.parametrize("broken", [False, True], ids=["stock", "squared-X"])
@pytest.mark.parametrize("name,n", TT_MODELS, ids=lambda v: str(v))
def test_tt_commute_matches_bivariate(name, n, broken):
    model = build(name, n)
    lax = squared_momentum_lax(model) if broken else model.lax
    d = Derivation(lax, model.km, model.kp, n, lam(model.ring)) if broken else model.derivation
    new = check_single_row_commutation(model.ps, d)
    old = oracle.single_row_commutation(model.ps, lax, n)
    assert str(new) == str(old)
    assert new.to_dict() == old.to_dict()
    assert new.holds == (not broken or n == 1)


# ---------------------------------------------------------------------------
# mutation guard through the memo: the theorem reads what the derivation holds


@pytest.mark.parametrize("name", ["bcn", "dn"])
def test_theorem_fails_on_each_flipped_memoised_entry(name):
    model = build(name, 2)
    d = model.derivation
    assert all(r.holds for r in check_theorem_zc(model.ps, d))
    blind = []
    for key, m in list(d.generating.items()):
        for i, j in nonzero_positions(m):
            d.generating[key] = flipped(m, i, j)
            try:
                reports = check_theorem_zc(model.ps, d)
            finally:
                d.generating[key] = m
            if all(r.holds for r in reports):
                blind.append((key, i, j))
    assert len(d.generating) == 5
    # the dn k+ = [[0, 0], [-1, 0]] is nilpotent: M(N+1,-mu) k+ reads only
    # the second column of M(N+1,-mu), and no other identity reads it at all
    assert blind == ([] if name == "bcn" else [((3, -1), 0, 0), ((3, -1), 1, 0)])


def first_site_products(d) -> list:
    """C0(1) = L, the single-row walk's start, and C1(1), C2(1), the M
    walk's (``ends``)."""
    return [d.monodromies[0], *d.ends]


@pytest.mark.parametrize("name", ["bcn", "dn"])
@pytest.mark.parametrize("product", ["C0", "C1", "C2"])
def test_checks_fail_on_each_flipped_chain_entry(name, product):
    # each walk conjugates its products on from the first site, so a wrong
    # product there reaches every site; C1 and C2 feed M(j), C0 only the
    # single-row matrices.  t and b are read first, from the products as
    # built, so that only the walks see the flip.  No entry is blind, dn's
    # nilpotent k+ included
    k = int(product[1])
    blind = []
    for i, j in nonzero_positions(first_site_products(build(name, 2).derivation)[k]):
        model = build(name, 2)
        d = model.derivation
        d.t, d.b  # the scalars, from the stock products
        if k:
            ends = list(d.ends)
            ends[k - 1] = flipped(ends[k - 1], i, j)
            d.ends = tuple(ends)
        else:
            L, L_inv = d.monodromies
            d.monodromies = (flipped(L, i, j), L_inv)
        reports = check_theorem_zc(model.ps, d) if k else [check_sts_identity(model.ps, d)]
        if all(r.holds for r in reports):
            blind.append((i, j))
    assert blind == []


# ---------------------------------------------------------------------------
# M(j, -mu) at the boundary sites: for dn no verify relation reads the first
# column of M(N+1, -mu), so its mu-parity is pinned here


def mu_parity_mismatches(d, n):
    """(table, j) for each boundary M(j, -mu) or flow(j, -mu) that differs
    from its +mu matrix with mu -> -mu."""
    m_ = mu(d.ring)
    bad = []
    for table in (d.M, d.flow):
        for j in (1, n + 1):
            if table(j, -1) != table(j, 1).substitute({"mu": -m_}):
                bad.append((table.__name__, j))
    return bad


@pytest.mark.parametrize(
    "name,n", [("bcn", 2), ("bcn", 3), ("dn", 2), ("dn", 3)], ids=lambda v: str(v)
)
def test_boundary_matrices_at_minus_mu_are_the_mu_substitution(name, n):
    assert mu_parity_mismatches(build(name, n).derivation, n) == []


@pytest.mark.parametrize("i", [0, 1])
def test_mu_parity_catches_a_flipped_first_column_entry(i):
    # the two entries the theorem cannot see (see the memo flip test above)
    model = build("dn", 2)
    d = model.derivation
    m = d.M(3, -1)
    assert not m[i, 0].is_zero
    d.generating[3, -1] = flipped(m, i, 0)
    assert ("M", 3) in mu_parity_mismatches(d, 2)


# ---------------------------------------------------------------------------
# the zero-curvature layout, read by the symbolic checks and the numeric
# residual alike


def test_zero_curvature_layout():
    model = build_bcn(3)
    d = model.derivation
    m_ = mu(model.ring)
    terms = d.layout
    assert d.layout is terms  # built once
    assert [(label, left, right) for label, _, left, right in terms] == [
        ("j=1", (2, 1), (1, 1)),
        ("j=2", (3, 1), (2, 1)),
        ("j=3", (4, 1), (3, 1)),
        ("kminus", (1, 1), (1, -1)),
        ("kplus", (4, -1), (4, 1)),
    ]
    xs = [model.lax(j, m_) for j in (1, 2, 3)] + [model.km(m_), model.kp(m_)]
    assert [X for _, X, _, _ in terms] == xs


def swapped_layout(layout, i):
    """layout with the left and right M of term i exchanged."""
    out = list(layout)
    label, X, left, right = out[i]
    out[i] = (label, X, right, left)
    return tuple(out)


@pytest.mark.parametrize("name", ["bcn", "dn"])
def test_swapped_layout_term_fails_symbolic_and_numeric(name, monkeypatch):
    # one layout feeds both consumers, so a wrong pairing in it must show in
    # the theorem, the corollary and the numeric residual of that term
    model = build(name, 2)
    d = model.derivation
    p0 = random_phase_point(model, np.random.default_rng(2), amplitude=0.2)
    traj = integrate(model, p0, 1e-3, 50)
    layout = d.layout
    blind = []
    for i in range(model.N + 2):
        with monkeypatch.context() as mp:
            mp.setattr(d, "layout", swapped_layout(layout, i))
            reports = check_theorem_zc(model.ps, d) + verify_corollary(model.ps, d)
            channels = zero_curvature_residual(model, traj)
        group = max(0, i - model.N + 1)  # 0 sites, 1 k-, 2 k+
        symbolic = [reports[group].holds, reports[3 + group].holds]
        channel = "zc_residual" if i < model.N else "boundary_residual"
        numeric = float(channels[channel].max())
        if all(symbolic) and numeric <= 1e-12:
            blind.append(i)
        else:
            assert not any(symbolic) and numeric >= 1e-3, (i, symbolic, numeric)
    # dn's k+ = [[0, 0], [-1, 0]] is nilpotent and M(N+1, +-mu) is mu-parity
    # symmetric where k+ reads it, so the swapped k+ identity still holds
    assert blind == ([] if name == "bcn" else [model.N + 1])
