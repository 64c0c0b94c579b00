"""Reference double-row builders, used only as test oracles.

These are the one-shot constructions the package used before its
``Derivation``: every call rebuilds the full monodromies, their inverses and
both 4x4 r-insertion products, the single-row matrix is rebuilt from two
fresh monodromies per call, and {b(lam), b(mu)} is one bivariate bracket.
The partial trace and the leg swap are the reference ones of
``exact_oracle``.
The differential tests compare the derivation's memoised matrices, its
single-row matrices and its coefficient-wise commutation check against them.
"""

from bilax.double_row import monodromy, scalar_report
from bilax.phase_ring import StructureError
from bilax.spectral_matrix import (
    embed_a,
    inverse_2x2,
    lam,
    mu,
    rational_r_builder,
)
from exact_oracle import partial_trace_a, swap_legs


def double_row_transfer(lax, km, kp, N, arg):
    """b = tr_a(k+ L(arg) k- L(-arg)^{-1})."""
    L = monodromy(lax, N, 1, arg)
    L_inv = inverse_2x2(monodromy(lax, N, 1, -arg))
    return (kp(arg) @ L @ km(arg) @ L_inv).trace()


def boundary_M(lax, km, kp, N, j, lam_expr, mu_expr, r_builder=None):
    """tr_a(k+_a L_a(N,j,lam) r_ab(lam-mu) L_a(j-1,1,lam) k-_a L_a(-lam)^{-1})
    + tr_a(k+_a L_a(lam) k-_a L_a(j-1,1,-lam)^{-1} r_ba(lam+mu) L_a(N,j,-lam)^{-1})
    """
    ring = lam_expr.ring
    if not 1 <= j <= N + 1:
        raise StructureError("site index %d out of range 1..%d" % (j, N + 1))
    if r_builder is None:
        r_builder = rational_r_builder(ring)
    r_ab = r_builder(lam_expr - mu_expr)
    r_ba = swap_legs(r_builder(lam_expr + mu_expr))

    L_full = monodromy(lax, N, 1, lam_expr)
    L_full_inv = inverse_2x2(monodromy(lax, N, 1, -lam_expr))

    left1 = kp(lam_expr) @ monodromy(lax, N, j, lam_expr)
    right1 = monodromy(lax, j - 1, 1, lam_expr) @ km(lam_expr) @ L_full_inv
    term1 = partial_trace_a(embed_a(left1) @ r_ab @ embed_a(right1))

    left2 = (
        kp(lam_expr)
        @ L_full
        @ km(lam_expr)
        @ inverse_2x2(monodromy(lax, j - 1, 1, -lam_expr))
    )
    right2 = inverse_2x2(monodromy(lax, N, j, -lam_expr))
    term2 = partial_trace_a(embed_a(left2) @ r_ba @ embed_a(right2))
    return term1 + term2


def sts_matrix(lax, N, j, lam_expr, mu_expr, r_builder=None):
    """Single-row generating function tr_a(L_a(N,j) r_ab L_a(j-1,1))."""
    ring = lam_expr.ring
    if not 1 <= j <= N + 1:
        raise StructureError("site index %d out of range 1..%d" % (j, N + 1))
    if r_builder is None:
        r_builder = rational_r_builder(ring)
    left = monodromy(lax, N, j, lam_expr)
    right = monodromy(lax, j - 1, 1, lam_expr)
    r_ab = r_builder(lam_expr - mu_expr)
    return partial_trace_a(embed_a(left) @ r_ab @ embed_a(right))


def check_transfer_commutation(ps, lax, km, kp, N):
    """{b(lam), b(mu)} = 0 as one pole-cleared bivariate identity."""
    ring = ps.ring
    b_l = double_row_transfer(lax, km, kp, N, lam(ring))
    b_m = double_row_transfer(lax, km, kp, N, mu(ring))
    return scalar_report("bb_commute", ps.bracket_fraction(b_l, b_m))
