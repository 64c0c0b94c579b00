"""Reference double-row builders, used only as test oracles.

These are the one-shot constructions the package used before its
``Derivation``: every call rebuilds the full monodromies, their inverses and
both 4x4 r-insertion products, the single-row matrix is rebuilt from two
fresh monodromies per call, and {b(lam), b(mu)} and {t(lam), t(mu)} are
each one bivariate bracket.
The partial trace, the leg swap, the embedding and the r-matrix P/arg are
the reference ones of ``exact_oracle``.
The differential tests compare the derivation's memoised matrices, its
single-row matrices and its coefficient-wise commutation checks against
them.

``mu_free_factors`` gives the 2x2 factors around the r-insertions of M(j)
as products of whole monodromies and their inverses; ``boundary_M`` and
``generating_matrix`` trace them through the 4x4 products, and ``chain``
multiplies them into the products B A that the derivation moves from site
to site by conjugation.  The derivation also reflects M(j, mu) in mu for
M(j, -mu), which ``generating_matrix`` builds afresh.

``lambda_series_coefficient`` is the lam-series extraction the package used
before it read coefficients by long division in 1/lam: it expands each pole
factor as a binomial series in 1/lam and convolves the series term dict by
term dict in the kernel, on rational term dicts (``rational_terms``).
"""

import math

from bilax.backend import kernel as K
from bilax.double_row import monodromy, scalar_report
from bilax.phase_ring import Fraction, StructureError
from bilax.spectral_matrix import inverse_2x2, lam, mu
from exact_oracle import coefficient, degree, embed_a, partial_trace_a, rational_r, swap_legs
from rational_terms import canon, element, quo, rational


def double_row_transfer(lax, km, kp, N, arg):
    """b = tr_a(k+ L(arg) k- L(-arg)^{-1})."""
    L = monodromy(lax, N, 1, arg)
    L_inv = inverse_2x2(monodromy(lax, N, 1, -arg))
    return (kp(arg) @ L @ km(arg) @ L_inv).trace()


def mu_free_factors(lax, km, kp, N, j, lam_expr):
    """(a1, b1, a2, b2) around the two r-insertions of M(j), from whole
    monodromies and their inverses: k+ L(N,j), L(j-1,1) k- L(-lam)^{-1},
    k+ L k- L(j-1,1,-lam)^{-1} and L(N,j,-lam)^{-1}."""
    kp_, km_ = kp(lam_expr), km(lam_expr)
    return (
        kp_ @ monodromy(lax, N, j, lam_expr),
        monodromy(lax, j - 1, 1, lam_expr) @ km_
        @ inverse_2x2(monodromy(lax, N, 1, -lam_expr)),
        kp_ @ monodromy(lax, N, 1, lam_expr) @ km_
        @ inverse_2x2(monodromy(lax, j - 1, 1, -lam_expr)),
        inverse_2x2(monodromy(lax, N, j, -lam_expr)),
    )


def boundary_M(lax, km, kp, N, j, lam_expr, mu_expr, r_builder=None):
    """tr_a(k+_a L_a(N,j,lam) r_ab(lam-mu) L_a(j-1,1,lam) k-_a L_a(-lam)^{-1})
    + tr_a(k+_a L_a(lam) k-_a L_a(j-1,1,-lam)^{-1} r_ba(lam+mu) L_a(N,j,-lam)^{-1})
    """
    ring = lam_expr.ring
    if not 1 <= j <= N + 1:
        raise StructureError("site index %d out of range 1..%d" % (j, N + 1))
    if r_builder is None:
        r_builder = lambda arg: rational_r(ring, arg)
    r_ab = r_builder(lam_expr - mu_expr)
    r_ba = swap_legs(r_builder(lam_expr + mu_expr))
    a1, b1, a2, b2 = mu_free_factors(lax, km, kp, N, j, lam_expr)
    term1 = partial_trace_a(embed_a(a1) @ r_ab @ embed_a(b1))
    term2 = partial_trace_a(embed_a(a2) @ r_ba @ embed_a(b2))
    return term1 + term2


def sts_matrix(lax, N, j, lam_expr, mu_expr, r_builder=None):
    """Single-row generating function tr_a(L_a(N,j) r_ab L_a(j-1,1))."""
    ring = lam_expr.ring
    if not 1 <= j <= N + 1:
        raise StructureError("site index %d out of range 1..%d" % (j, N + 1))
    if r_builder is None:
        r_builder = lambda arg: rational_r(ring, arg)
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


def single_row_commutation(ps, lax, N):
    """{t(lam), t(mu)} = 0 as one bivariate bracket, t = tr L(N, 1)."""
    ring = ps.ring
    t_l = monodromy(lax, N, 1, lam(ring)).trace()
    t_m = monodromy(lax, N, 1, mu(ring)).trace()
    return scalar_report("tt_commute", ps.bracket_fraction(t_l, t_m))


def chain(d, j):
    """The products B A of the 2x2 factors A, B around each r-insertion:
    L(j-1,1) L(N,j) of the single-row matrix, then b1 a1 and b2 a2 of M(j)."""
    a1, b1, a2, b2 = mu_free_factors(d.lax, d.km, d.kp, d.N, j, d.lam)
    c0 = monodromy(d.lax, j - 1, 1, d.lam) @ monodromy(d.lax, d.N, j, d.lam)
    return c0, b1 @ a1, b2 @ a2


def generating_matrix(d, j, mu_expr):
    """M(j, mu_expr) built afresh for any mu_expr, -mu included, with the
    derivation's lax, k+-, lam and r-builder."""
    return boundary_M(d.lax, d.km, d.kp, d.N, j, d.lam, mu_expr, d.r_builder)


def lambda_series_coefficient(value: Fraction, p: int) -> Fraction:
    """Coefficient of lam^p in the lam -> infinity Laurent expansion.

    Denominator factors linear in lam (lam, lam-mu, lam+mu, ...) are expanded
    as geometric series in 1/lam; lam-free factors pass through into the
    result's denominator.  This is the extraction aligned with reading off
    Hamiltonians from the transfer scalar.
    """
    ring = value.ring
    side = []  # lam-free denominator factors
    series_factors = []  # (c, g, e): factor (c*lam + g)^e
    for el, e in value.den_factors:
        if not el.involves("lam"):
            side.append((el, e))
            continue
        if degree(el, "lam") != 1:
            raise StructureError("denominator factor is nonlinear in lam")
        c = coefficient(el, "lam", 1)
        if not c.is_constant:
            raise StructureError("lam coefficient of a pole factor must be constant")
        series_factors.append((c.constant_value(), coefficient(el, "lam", 0), e))

    num = value.num
    deg = degree(num, "lam")
    shift = sum(e for _, _, e in series_factors)
    depth = deg - shift - p
    if depth < 0:
        return Fraction(ring.zero)

    # S_m coefficients of lam^-(shift+m) in prod 1/(c*lam+g)^e
    pk = ring.pk
    series = {0: {ring.pk.one: 1}}
    for c, g, e in series_factors:
        inv_c = quo(1, c)
        fac = {}
        gk = {ring.pk.one: 1}  # g^k, built incrementally
        for k_ in range(depth + 1):
            coef = canon(math.comb(e - 1 + k_, k_) * (-1) ** k_ * inv_c ** (e + k_))
            fac[k_] = K.scale(gk, coef)
            gk = K.mul(gk, rational(g), pk)
        new = {}
        for m1, t1 in series.items():
            for m2, t2 in fac.items():
                m = m1 + m2
                if m > depth:
                    continue
                K.mul_acc(new.setdefault(m, {}), t1, t2, pk)
        series = {m: K.finish(t, pk) for m, t in new.items()}

    out: dict = {}
    for m_, sm in series.items():
        a_q = coefficient(num, "lam", p + shift + m_)
        if not a_q.is_zero and sm:
            K.mul_acc(out, rational(a_q), sm, pk)
    result = Fraction(element(ring, K.finish(out, pk)))
    for el, e in side:
        result = result / Fraction(el) ** e
    return result
