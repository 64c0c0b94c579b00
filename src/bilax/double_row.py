"""Monodromies, transfer matrices and double-row Lax pair construction.

The double-row transfer scalar b(lam) = tr_a(k+ L(lam) k- L(-lam)^{-1})
generates commuting Hamiltonians through its lam expansion.  The time part
of the Lax pair comes from a boundary partial-trace formula with two
r-insertions, one at lam - mu and one at lam + mu; its lam-expansion
coefficients (asymptotic series at lam = infinity, after clearing the
poles) pair power-by-power with the Hamiltonians extracted from b(lam),
which is what makes the zero-curvature representation drop out of the
Hamiltonian formalism.

Two extraction recipes cover the models here: a scaled single coefficient
and a scaled ratio of two coefficients (quotient rule for the flow matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import kernel as K
from .kernel import canon, quo
from .phase_ring import (
    Fraction,
    PhaseRing,
    RingElement,
    StructureError,
    as_fraction,
)
from .spectral_matrix import (
    SpectralMatrix,
    bracket_scalar_matrix,
    embed_a,
    identity,
    inverse_2x2,
    lam,
    mu,
    partial_trace_a,
    rational_r_builder,
    swap_legs,
)
from .structure_checks import RelationReport, matrix_report, merge_reports


# ---------------------------------------------------------------------------
# Hamiltonian extraction recipes


@dataclass(frozen=True)
class ScaledCoefficient:
    """H = scalar * coeff(lam^power); flow matrix = scalar * M^(power)."""

    power: int
    scalar: object

    def hamiltonian(self, exp: "TransferExpansion") -> Fraction:
        return exp.coefficient(self.power, required=True) * as_fraction(
            exp.ring, self.scalar
        )

    def flow_entry(self, series, exp: "TransferExpansion") -> Fraction:
        return series(self.power) * as_fraction(exp.ring, self.scalar)


@dataclass(frozen=True)
class RatioRecipe:
    """H = scalar * coeff(p1)/coeff(p2); flow by the quotient rule."""

    num_power: int
    den_power: int
    scalar: object

    def hamiltonian(self, exp: "TransferExpansion") -> Fraction:
        ha = exp.coefficient(self.num_power, required=True)
        hb = exp.coefficient(self.den_power, required=True)
        if hb.is_zero:
            raise StructureError(
                "zero denominator coefficient lam^%d" % self.den_power
            )
        return (ha / hb) * as_fraction(exp.ring, self.scalar)

    def flow_entry(self, series, exp: "TransferExpansion") -> Fraction:
        ha = exp.coefficient(self.num_power, required=True)
        hb = exp.coefficient(self.den_power, required=True)
        ma = series(self.num_power)
        mb = series(self.den_power)
        s = as_fraction(exp.ring, self.scalar)
        return s * (ma * hb - ha * mb) / (hb * hb)


class TransferExpansion:
    """Finitely many lam-powers with Fraction coefficients."""

    def __init__(self, ring: PhaseRing, coefficients: dict):
        self.ring = ring
        self.coefficients = {
            p: c for p, c in coefficients.items() if not c.is_zero
        }

    @classmethod
    def from_scalar(cls, value: Fraction) -> "TransferExpansion":
        """Expand a lam-polynomial scalar (denominator must be lam-free)."""
        ring = value.ring
        for el, _ in value.den_factors:
            if el.involves("lam"):
                raise StructureError(
                    "transfer scalar has a lam-dependent denominator"
                )
        den = value.den
        coeffs = {}
        for p in range(value.num.degree_in("lam") + 1):
            c = value.num.coeff_of("lam", p)
            if not c.is_zero:
                coeffs[p] = Fraction(c, den)
        return cls(ring, coeffs)

    def powers(self):
        return sorted(self.coefficients)

    def coefficient(self, p: int, required: bool = False) -> Fraction:
        c = self.coefficients.get(p)
        if c is None:
            if required:
                raise StructureError("expansion has no lam^%d coefficient" % p)
            return Fraction(self.ring.zero)
        return c

    def degree(self) -> int:
        return max(self.coefficients, default=0)


# ---------------------------------------------------------------------------
# monodromy and transfer scalars


def monodromy(lax, n: int, m: int, arg: RingElement) -> SpectralMatrix:
    """Ordered product l(n) l(n-1) ... l(m); n = m-1 gives the identity."""
    ring = arg.ring
    if n < m - 1:
        raise StructureError("monodromy range (%d, %d) out of order" % (n, m))
    out = identity(ring, 2)
    for j in range(n, m - 1, -1):
        out = out @ lax(j, arg)
    return out


def single_row_transfer(lax, N: int, arg: RingElement) -> Fraction:
    return monodromy(lax, N, 1, arg).trace()


def double_row_transfer(lax, km, kp, N: int, arg: RingElement) -> Fraction:
    """b = tr_a(k+ L(arg) k- L(-arg)^{-1}); needs det L(-arg) invertible."""
    L = monodromy(lax, N, 1, arg)
    L_inv = inverse_2x2(monodromy(lax, N, 1, -arg))
    return (kp(arg) @ L @ km(arg) @ L_inv).trace()


def transfer_expansion(lax, km, kp, N: int, ring: PhaseRing) -> TransferExpansion:
    return TransferExpansion.from_scalar(
        double_row_transfer(lax, km, kp, N, lam(ring))
    )


def extract_hamiltonian(exp: TransferExpansion, recipe) -> Fraction:
    return recipe.hamiltonian(exp)


# ---------------------------------------------------------------------------
# time-part generating functions


def sts_matrix(lax, N: int, j: int, lam_expr, mu_expr, r_builder=None) -> SpectralMatrix:
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


def boundary_M(lax, km, kp, N: int, j: int, lam_expr, mu_expr, r_builder=None) -> SpectralMatrix:
    """Boundary generating function for the time part of the Lax pair.

    tr_a(k+_a L_a(N,j,lam) r_ab(lam-mu) L_a(j-1,1,lam) k-_a L_a(-lam)^{-1})
    + tr_a(k+_a L_a(lam) k-_a L_a(j-1,1,-lam)^{-1} r_ba(lam+mu) L_a(N,j,-lam)^{-1})

    for j = 1..N+1 with the empty-range conventions L(0,1) = L(N,N+1) = 1.
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

    # consecutive a-space factors collapse before embedding (kron is a
    # homomorphism in each leg), leaving one 4x4 product per r-insertion
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


# ---------------------------------------------------------------------------
# asymptotic lam-expansion (the pole-cleared coefficient pairing)


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
        if el.degree_in("lam") != 1:
            raise StructureError("denominator factor is nonlinear in lam")
        c = el.coeff_of("lam", 1)
        if not c.is_constant:
            raise StructureError("lam coefficient of a pole factor must be constant")
        series_factors.append((c.constant_value(), el.coeff_of("lam", 0), e))

    num = value.num
    deg = num.degree_in("lam")
    shift = sum(e for _, _, e in series_factors)
    depth = deg - shift - p
    if depth < 0:
        return Fraction(ring.zero)

    # S_m coefficients of lam^-(shift+m) in prod 1/(c*lam+g)^e
    pk = ring.pk
    series = {0: {ring.zero_exp: 1}}
    for c, g, e in series_factors:
        inv_c = quo(1, c)
        fac = {}
        gk = {ring.zero_exp: 1}  # g^k, built incrementally
        for k_ in range(depth + 1):
            coef = canon(math.comb(e - 1 + k_, k_) * (-1) ** k_ * inv_c ** (e + k_))
            fac[k_] = K.scale(gk, coef)
            gk = K.mul(gk, g.terms, pk)
        new = {}
        for m1, t1 in series.items():
            for m2, t2 in fac.items():
                m = m1 + m2
                if m > depth:
                    continue
                acc = new.setdefault(m, {})
                K.mul_acc(acc, t1, t2, pk)
        series = new

    out: dict = {}
    for m_, sm in series.items():
        a_q = num.coeff_of("lam", p + shift + m_)
        if not a_q.is_zero and sm:
            K.mul_acc(out, a_q.terms, sm, pk)
    result = Fraction(RingElement(ring, out))
    for el, e in side:
        result = result / Fraction(el) ** e
    return result


def extract_M(m_lam_mu: SpectralMatrix, exp: TransferExpansion, recipe) -> SpectralMatrix:
    """Flow matrix paired with the recipe's Hamiltonian.

    Entrywise lam-series coefficients of the generating matrix, combined
    exactly as the recipe combines expansion coefficients of b(lam); the
    scalar weights commute with the matrix entries, which makes the
    quotient-rule combination valid for the ratio recipe.
    """

    def entry(e: Fraction) -> Fraction:
        return recipe.flow_entry(lambda q: lambda_series_coefficient(e, q), exp)

    return m_lam_mu.map_entries(entry)


# ---------------------------------------------------------------------------
# relation verifiers


def scalar_report(name: str, value: Fraction) -> RelationReport:
    if value.is_zero:
        return RelationReport(name, True, [])
    return RelationReport(name, False, [("scalar", str(value))])


def check_transfer_commutation(ps, lax, km, kp, N: int) -> RelationReport:
    """{b(lam), b(mu)} = 0 as a pole-cleared bivariate identity."""
    ring = ps.ring
    b_l = double_row_transfer(lax, km, kp, N, lam(ring))
    b_m = double_row_transfer(lax, km, kp, N, mu(ring))
    return scalar_report("bb_commute", ps.bracket_fraction(b_l, b_m))


def check_single_row_commutation(ps, lax, N: int) -> RelationReport:
    ring = ps.ring
    t_l = single_row_transfer(lax, N, lam(ring))
    t_m = single_row_transfer(lax, N, mu(ring))
    return scalar_report("tt_commute", ps.bracket_fraction(t_l, t_m))


def check_involution(exp: TransferExpansion, recipe, ps) -> RelationReport:
    """The extracted Hamiltonian commutes with every expansion coefficient."""
    ham = extract_hamiltonian(exp, recipe)
    residual = []
    for p in exp.powers():
        r = ps.bracket_fraction(ham, exp.coefficient(p))
        if not r.is_zero:
            residual.append(("lam^%d" % p, str(r)))
    return RelationReport("involution", not residual, residual)


def check_sts_identity(ps, lax, N: int, r_builder=None) -> RelationReport:
    """{t(lam), l(j,mu)} = M(j+1) l(j,mu) - l(j,mu) M(j) for all sites."""
    ring = ps.ring
    l_, m_ = lam(ring), mu(ring)
    t = single_row_transfer(lax, N, l_)
    reports = []
    for j in range(1, N + 1):
        lhs = bracket_scalar_matrix(ps, t, lax(j, m_))
        rhs = sts_matrix(lax, N, j + 1, l_, m_, r_builder) @ lax(j, m_) - lax(
            j, m_
        ) @ sts_matrix(lax, N, j, l_, m_, r_builder)
        reports.append(
            matrix_report("sts_identity", lhs - rhs, prefix="j=%d " % j)
        )
    return merge_reports("sts_identity", reports)


def check_theorem_zc(ps, lax, km, kp, N: int, r_builder=None) -> list:
    """The three generating-function zero-curvature identities.

    1. {b(lam), l_b(j,mu)} = M(j+1,lam,mu) l - l M(j,lam,mu) for each j
    2. {b(lam), k-_b(mu)}  = M(1,lam,mu) k- - k- M(1,lam,-mu)
    3. {b(lam), k+_b(mu)}  = M(N+1,lam,-mu) k+ - k+ M(N+1,lam,mu)
    """
    ring = ps.ring
    l_, m_ = lam(ring), mu(ring)
    b = double_row_transfer(lax, km, kp, N, l_)

    def M(j, mu_expr):
        return boundary_M(lax, km, kp, N, j, l_, mu_expr, r_builder)

    reports = []
    site_reports = []
    for j in range(1, N + 1):
        lhs = bracket_scalar_matrix(ps, b, lax(j, m_))
        rhs = M(j + 1, m_) @ lax(j, m_) - lax(j, m_) @ M(j, m_)
        site_reports.append(
            matrix_report("theorem_zc_lax", lhs - rhs, prefix="j=%d " % j)
        )
    reports.append(merge_reports("theorem_zc_lax", site_reports))

    lhs = bracket_scalar_matrix(ps, b, km(m_))
    rhs = M(1, m_) @ km(m_) - km(m_) @ M(1, -m_)
    reports.append(matrix_report("theorem_zc_kminus", lhs - rhs))

    lhs = bracket_scalar_matrix(ps, b, kp(m_))
    rhs = M(N + 1, -m_) @ kp(m_) - kp(m_) @ M(N + 1, m_)
    reports.append(matrix_report("theorem_zc_kplus", lhs - rhs))
    return reports


def flow_matrix(lax, km, kp, N: int, j: int, mu_expr, exp, recipe, r_builder=None) -> SpectralMatrix:
    """Time part of the Lax pair at site index j, at spectral point mu_expr."""
    ring = mu_expr.ring
    gen = boundary_M(lax, km, kp, N, j, lam(ring), mu_expr, r_builder)
    return extract_M(gen, exp, recipe)


def verify_corollary(ps, lax, km, kp, N: int, recipe, r_builder=None) -> list:
    """Zero-curvature form of the Hamiltonian flow, bulk and boundary.

    d/dT l(j,mu) = M(j+1,mu) l - l M(j,mu),
    d/dT k-(mu) = M(1,mu) k-(mu) - k-(mu) M(1,-mu),
    d/dT k+(mu) = M(N+1,-mu) k+(mu) - k+(mu) M(N+1,mu),
    with d/dT = {H, .} and every M extracted like H itself.
    """
    ring = ps.ring
    m_ = mu(ring)
    exp = transfer_expansion(lax, km, kp, N, ring)
    ham = extract_hamiltonian(exp, recipe)

    def M(j, mu_expr):
        return flow_matrix(lax, km, kp, N, j, mu_expr, exp, recipe, r_builder)

    reports = []
    site_reports = []
    for j in range(1, N + 1):
        lhs = bracket_scalar_matrix(ps, ham, lax(j, m_))
        rhs = M(j + 1, m_) @ lax(j, m_) - lax(j, m_) @ M(j, m_)
        site_reports.append(
            matrix_report("corollary_zc_lax", lhs - rhs, prefix="j=%d " % j)
        )
    reports.append(merge_reports("corollary_zc_lax", site_reports))

    lhs = bracket_scalar_matrix(ps, ham, km(m_))
    rhs = M(1, m_) @ km(m_) - km(m_) @ M(1, -m_)
    reports.append(matrix_report("corollary_flow_kminus", lhs - rhs))

    lhs = bracket_scalar_matrix(ps, ham, kp(m_))
    rhs = M(N + 1, -m_) @ kp(m_) - kp(m_) @ M(N + 1, m_)
    reports.append(matrix_report("corollary_flow_kplus", lhs - rhs))
    return reports


def check_nondynamical_intertwining(ps, lax, km, kp, N: int, recipe, r_builder=None) -> list:
    """Non-dynamical boundary case: {b, k±} = 0 and the K-M relations.

    M(1,mu) k-(mu) = k-(mu) M(1,-mu) and
    M(N+1,-mu) k+(mu) = k+(mu) M(N+1,mu),
    stated with the double-row matrices, not single-row ones.
    """
    ring = ps.ring
    l_, m_ = lam(ring), mu(ring)
    b = double_row_transfer(lax, km, kp, N, l_)
    exp = transfer_expansion(lax, km, kp, N, ring)

    def M(j, mu_expr):
        return flow_matrix(lax, km, kp, N, j, mu_expr, exp, recipe, r_builder)

    reports = [
        matrix_report(
            "b_kminus_commute", bracket_scalar_matrix(ps, b, km(m_))
        ),
        matrix_report(
            "b_kplus_commute", bracket_scalar_matrix(ps, b, kp(m_))
        ),
        matrix_report(
            "kminus_intertwine", M(1, m_) @ km(m_) - km(m_) @ M(1, -m_)
        ),
        matrix_report(
            "kplus_intertwine", M(N + 1, -m_) @ kp(m_) - kp(m_) @ M(N + 1, m_)
        ),
    ]
    return reports
