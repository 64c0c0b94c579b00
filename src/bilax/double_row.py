"""Monodromies, transfer matrices and double-row Lax pair construction.

The double-row transfer scalar b(lam) = tr_a(k+ L(lam) k- L(-lam)^{-1})
generates commuting Hamiltonians through its lam expansion.  The time part
of the Lax pair comes from a boundary partial-trace formula with two
r-insertions, one at lam - mu and one at lam + mu; its lam-expansion
coefficients (asymptotic series at lam = infinity, read by long division
in 1/lam in ring arithmetic) pair power-by-power with the Hamiltonians
extracted from b(lam), which is what makes the zero-curvature
representation drop out of the Hamiltonian formalism.  Both read each
polynomial's lam-coefficients from one ``RingElement.by_degree`` split.

One extraction ``Recipe`` covers the models here: a scaled coefficient,
or a scaled ratio of two (quotient rule for the flow matrix).

The entries commute, so each partial trace tr_a(A_a r B_a) over 2x2
factors is contract(r, B A): one 2x2 product per r-insertion, which moves
from site j to site j+1 by conjugation with l(j, +-lam).

A :class:`Derivation` builds these objects once for one model and hands
them to every check.  Every reader asks for them at the spectral points of
the zero-curvature layout, mu and -mu, so the derivation keys them by site
and sign, (j, +-1).  The module-level builders (``double_row_transfer``,
``boundary_M``, ...) are one-shot wrappers that make a fresh derivation per
call; ``boundary_M`` reads its walk at any spectral point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .backend import QQ
from .phase_ring import (
    Fraction,
    PhaseRing,
    RingElement,
    StructureError,
    as_fraction,
    dot,
)
from .spectral_matrix import (
    SpectralMatrix,
    bracket_scalar_matrix,
    contract,
    identity,
    inverse_2x2,
    lam,
    mu,
    permute_legs,
    rational_r_builder,
)
from .structure_checks import RelationReport, matrix_report, merge_reports


# ---------------------------------------------------------------------------
# Hamiltonian extraction recipes


def _coefficient(exp: dict, p: int) -> Fraction:
    """The lam^p coefficient of an expansion ``{power: coefficient}``."""
    c = exp.get(p)
    if c is None:
        raise StructureError("expansion has no lam^%d coefficient" % p)
    return c


@dataclass(frozen=True)
class Recipe:
    """H = scalar * coeff(lam^power), over coeff(lam^den_power) when there
    is one; the flow matrix pairs each entry's M^(p) the same way (by the
    quotient rule for a ratio)."""

    power: int
    scalar: object
    den_power: int | None = None

    @property
    def powers(self) -> tuple:
        """The lam powers the recipe reads, the numerator's first."""
        return (self.power,) if self.den_power is None else (self.power, self.den_power)

    def hamiltonian(self, exp: dict) -> Fraction:
        ha = _coefficient(exp, self.power)
        s = as_fraction(ha.ring, self.scalar)
        if self.den_power is None:
            return ha * s
        return (ha / _coefficient(exp, self.den_power)) * s

    def flow_entry(self, series: dict, exp: dict) -> Fraction:
        """The entry paired with H, from its lam-series ``{p: M^(p)}``."""
        ma = series[self.power]
        s = as_fraction(ma.ring, self.scalar)
        if self.den_power is None:
            return ma * s
        ha, hb = _coefficient(exp, self.power), _coefficient(exp, self.den_power)
        return s * (ma * hb - ha * series[self.den_power]) / (hb * hb)


def expand(value: Fraction) -> dict:
    """{p: coefficient of lam^p} of a lam-polynomial scalar, powers
    ascending and zeros left out; the denominator must be lam-free."""
    for el, _ in value.den_factors:
        if el.involves("lam"):
            raise StructureError("transfer scalar has a lam-dependent denominator")
    return {p: Fraction(c, value.den) for p, c in value.num.by_degree("lam").items()}


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


# ---------------------------------------------------------------------------
# the double-row derivation


class Derivation:
    """The double-row derivation of one boundary model, built on first use.

    Every check reads the same objects from here instead of rebuilding them:
    the transfer scalars t(lam) and b(lam), b's expansion, the site matrices
    l(k, +-lam) and their inverses, the zero-curvature ``layout``, and a memo
    of each generating matrix and flow matrix, keyed (j, s) for the matrix
    at s*mu, s = +-1, and of each single-row matrix at mu, keyed j.

    The entries commute, so tr_a(A_a r B_a) = contract(r, B A) for 2x2
    factors A, B around an r-insertion, for any 4x4 r: only the product
    B A reaches the trace: C0 = L(j-1,1) L(N,j) of the single-row matrix and
    C1 = L(j-1,1) k- L(-lam)^{-1} k+ L(N,j) and
    C2 = L(N,j,-lam)^{-1} k+ L k- L(j-1,1,-lam)^{-1} of M(j).  C0(1) = L and
    ``ends`` = (C1, C2)(1) come from the whole monodromies, and one walk per
    family (``_walk``) moves them site by site by conjugation,
    C(j+1) = l(j, +-lam) C(j) l(j, +-lam)^{-1}, holding only the current
    site's.  M and the single-row matrix go through ``contract`` with the
    r-matrix the derivation was built with, built once per walk, so a
    mutated r-builder runs through the same code as the stock one; the two
    r-insertions of M are one ``contract``, each entry one ``dot`` of eight
    products, as each entry of an M-pairing M_l X - X M_r is one ``dot`` of
    four (``_paired``).  Each matrix at -mu is the one at +mu reflected in mu
    (``Fraction.reflect``, ``_signed``), so a derivation whose lam involves
    mu has none.

    Build one per model and r-builder: the memo trusts that lax, k-, k+ and
    the r-builder never change.
    """

    def __init__(self, lax, km, kp, N: int, lam_expr: RingElement, r_builder=None, recipe=None):
        self.lax, self.km, self.kp, self.N = lax, km, kp, N
        self.lam = lam_expr
        self.ring = lam_expr.ring
        self.r_builder = r_builder or rational_r_builder(self.ring)
        self.recipe = recipe
        self.generating = {}  # (j, s) -> M(j, lam, s*mu)
        self.single_row = {}  # j -> the single-row matrix at mu
        self.flows = {}  # (j, s) -> flow matrix extracted from M(j, s)

    # -- site matrices, monodromies and the walk, site index j = 1..N+1 ---

    @cached_property
    def sites(self) -> dict:
        """(s, k) -> (l(k, s*lam), l(k, s*lam)^{-1}) for s = +-1, k = 1..N."""
        out = {}
        for k in range(1, self.N + 1):
            for s, arg in ((1, self.lam), (-1, -self.lam)):
                l = self.lax(k, arg)
                out[s, k] = (l, inverse_2x2(l))
        return out

    @cached_property
    def monodromies(self) -> tuple:
        """L(lam) = l(N) ... l(1) and L(-lam)^{-1} = l(1,-lam)^{-1} ... l(N,-lam)^{-1}."""
        L = L_inv = identity(self.ring, 2)
        for k in range(self.N, 0, -1):
            L = L @ self.sites[1, k][0]
            L_inv = self.sites[-1, k][1] @ L_inv
        return L, L_inv

    @cached_property
    def ends(self) -> tuple:
        """(C1, C2)(1) = (k- P, P k-) with P = L(-lam)^{-1} k+ L(lam)."""
        L, L_inv = self.monodromies
        km = self.km(self.lam)
        p = L_inv @ self.kp(self.lam) @ L
        return km @ p, p @ km

    def _walk(self, products: tuple, signs: tuple):
        """(j, products at site j) for j = 1..N+1, from those at j = 1; each
        moves one site on by conjugation with l(j, s*lam), s its sign."""
        for j in range(1, self.N + 2):
            if j > 1:
                products = tuple(self.sites[s, j - 1][0] @ c @ self.sites[s, j - 1][1]
                                 for c, s in zip(products, signs))
            yield j, products

    def _check_site(self, j: int, s: int = 1):
        """Raise, before any build, unless j is a site and ``_signed`` serves s."""
        if not 1 <= j <= self.N + 1:
            raise StructureError("site index %d out of range 1..%d" % (j, self.N + 1))
        if s != 1 and (s != -1 or self.lam.involves("mu")):
            raise StructureError("no matrix at sign %r (1, or -1 while lam is mu-free)" % (s,))

    # -- transfer scalars and Hamiltonian ---------------------------------

    @cached_property
    def t(self) -> Fraction:
        """Single-row transfer t(lam) = tr L(N, 1, lam)."""
        return self.monodromies[0].trace()

    @cached_property
    def b(self) -> Fraction:
        """b(lam) = tr_a(k+ L(lam) k- L(-lam)^{-1}) = tr C2(1)."""
        return self.ends[1].trace()

    @cached_property
    def expansion(self) -> dict:
        """{p: coefficient of lam^p} of b(lam), powers ascending."""
        return expand(self.b)

    @cached_property
    def hamiltonian(self) -> Fraction:
        return self._recipe().hamiltonian(self.expansion)

    def _recipe(self):
        if self.recipe is None:
            raise StructureError("derivation has no Hamiltonian recipe")
        return self.recipe

    # -- time part ----------------------------------------------------------

    def _generating(self, mu_expr: RingElement):
        """(j, M(j, lam, mu_expr)) for j = 1..N+1, one walk:
        contract(r(lam-mu), C1) + contract(r_ba(lam+mu), C2), summed as one
        contract."""
        r_ab = self.r_builder(self.lam - mu_expr)
        r_ba = permute_legs(self.r_builder(self.lam + mu_expr), (1, 0))
        for j, (c1, c2) in self._walk(self.ends, (1, -1)):
            yield j, contract(r_ab, c1, r_ba, c2)

    def M(self, j: int, s: int) -> SpectralMatrix:
        """M(j, lam, s*mu), memoised; a miss at +mu walks every site."""
        self._check_site(j, s)
        if (j, 1) not in self.generating:
            self.generating.update(((k, 1), m) for k, m in self._generating(mu(self.ring)))
        return self._signed(self.generating, j, s)

    def sts(self, j: int) -> SpectralMatrix:
        """Single-row generating function tr_a(L_a(N,j) r_ab(lam-mu) L_a(j-1,1))
        = contract(r(lam-mu), C0), memoised; the first call walks every site."""
        self._check_site(j)
        if not self.single_row:
            r = self.r_builder(self.lam - mu(self.ring))
            self.single_row.update(
                (k, contract(r, c0)) for k, (c0,) in self._walk(self.monodromies[:1], (1,)))
        return self.single_row[j]

    def flow(self, j: int, s: int) -> SpectralMatrix:
        """Time part of the Lax pair at site index j, at spectral point s*mu."""
        self._check_site(j, s)
        if (j, 1) not in self.flows:
            self.flows[j, 1] = extract_M(self.M(j, 1), self.expansion, self._recipe())
        return self._signed(self.flows, j, s)

    def _signed(self, table: dict, j: int, s: int) -> SpectralMatrix:
        """table's matrix at (j, s), given the one at (j, 1); at s = -1 it is
        that one reflected in mu, which is what a build at -mu gives, as all
        but the r-builder's argument is mu-free."""
        m = table.get((j, s))
        if m is None:
            m = table[j, s] = table[j, 1].map_entries(lambda e: e.reflect("mu"))
        return m

    @cached_property
    def layout(self) -> tuple:
        """One term (label, X, (jl, sl), (jr, sr)) per zero-curvature identity

            {s, X} = M(jl, sl) X - X M(jr, sr)

        of the double-row Lax pair (Sklyanin, J. Phys. A 21 (1988) 2375), X
        at mu: first the sites X = l(j, mu), "j=1".."j=N", with M(j+1, 1) and
        M(j, 1); then "kminus", X = k-(mu), with M(1, 1) and M(1, -1), and
        "kplus", X = k+(mu), with M(N+1, -1) and M(N+1, 1).  Every symbolic
        zero-curvature check and the numeric residual of ``dynamics`` read
        this tuple, so each X keeps its partial derivatives across checks.
        """
        m_, n = mu(self.ring), self.N
        sites = tuple(
            ("j=%d" % j, self.lax(j, m_), (j + 1, 1), (j, 1)) for j in range(1, n + 1)
        )
        return sites + (
            ("kminus", self.km(m_), (1, 1), (1, -1)),
            ("kplus", self.kp(m_), (n + 1, -1), (n + 1, 1)),
        )


# ---------------------------------------------------------------------------
# the zero-curvature pairings


def _paired(term, M) -> SpectralMatrix:
    """M(jl, sl) X - X M(jr, sr) for one layout term, each entry one ``dot``
    of four products with the X entry negated in the last two."""
    _, X, left, right = term
    x, ml, mr = X.rows, M(*left).rows, M(*right).rows
    neg = [[-e for e in row] for row in x]
    return SpectralMatrix(X.ring, [
        [dot(X.ring, [(ml[i][0], x[0][j]), (ml[i][1], x[1][j]),
                      (neg[i][0], mr[0][j]), (neg[i][1], mr[1][j])])
         for j in range(2)]
        for i in range(2)
    ])


def _zc_residual(ps, scalar, M, term) -> SpectralMatrix:
    """{scalar, X} minus the term's M-pairing.  The ``-`` stays outside the
    pairing's ``dot``: where the pairing vanishes, a FAIL entry prints the
    bracket over its own denominator, not one widened by M's factors."""
    return bracket_scalar_matrix(ps, scalar, term[1]) - _paired(term, M)


# ---------------------------------------------------------------------------
# one-shot builders (a fresh derivation per call)


def double_row_transfer(lax, km, kp, N: int, arg: RingElement) -> Fraction:
    """b = tr_a(k+ L(arg) k- L(-arg)^{-1}); needs det l(k, -arg) invertible."""
    return Derivation(lax, km, kp, N, arg).b


def transfer_expansion(lax, km, kp, N: int, ring: PhaseRing) -> dict:
    return Derivation(lax, km, kp, N, lam(ring)).expansion


def boundary_M(lax, km, kp, N: int, j: int, lam_expr, mu_expr, r_builder=None) -> SpectralMatrix:
    """Boundary generating function for the time part of the Lax pair.

    tr_a(k+_a L_a(N,j,lam) r_ab(lam-mu) L_a(j-1,1,lam) k-_a L_a(-lam)^{-1})
    + tr_a(k+_a L_a(lam) k-_a L_a(j-1,1,-lam)^{-1} r_ba(lam+mu) L_a(N,j,-lam)^{-1})

    for j = 1..N+1 with the empty-range conventions L(0,1) = L(N,N+1) = 1.
    """
    d = Derivation(lax, km, kp, N, lam_expr, r_builder)
    d._check_site(j)
    return next(m for k, m in d._generating(mu_expr) if k == j)


def flow_matrix(lax, km, kp, N: int, j: int, mu_expr, exp, recipe, r_builder=None) -> SpectralMatrix:
    """Time part of the Lax pair at site index j, at spectral point mu_expr."""
    gen = boundary_M(lax, km, kp, N, j, lam(mu_expr.ring), mu_expr, r_builder)
    return extract_M(gen, exp, recipe)


# ---------------------------------------------------------------------------
# asymptotic lam-expansion: long division in 1/lam (the pole-cleared
# coefficient pairing)


def lambda_series_coefficient(value: Fraction, powers) -> dict:
    """{p: coefficient of lam^p} in the lam -> infinity Laurent expansion,
    for each p of ``powers``, from one long division.

    The denominator factors linear in lam (lam, lam-mu, lam+mu, ...) multiply
    into D(lam) = sum_{i<=s} d_i lam^i, whose lead d_s is a constant.  With
    n = deg_lam N for the numerator N, N/D = sum_{m>=0} q_m lam^(n-s-m), and
    long division in 1/lam reads the q_m off one by one:

        q_m = (n_{n-m} - sum_{i=1}^{min(m,s)} d_{s-i} q_{m-i}) / d_s.

    lam^p is q_{n-s-p}, so the division runs once, to the lowest power
    asked; lam-free factors pass through into each result's denominator.
    This is the extraction aligned with reading off Hamiltonians from the
    transfer scalar.
    """
    ring = value.ring
    side = []  # lam-free denominator factors
    den = ring.one  # D(lam)
    for el, e in value.den_factors:
        parts = el.by_degree("lam")
        if max(parts) == 0:
            side.append((el, e))
            continue
        if max(parts) != 1:
            raise StructureError("denominator factor is nonlinear in lam")
        if not parts[1].is_constant:
            raise StructureError("lam coefficient of a pole factor must be constant")
        den = den * el ** e

    num, d = value.num.by_degree("lam"), den.by_degree("lam")
    n, s = max(num, default=0), max(d)
    inv_lead = QQ(1, d[s].constant_value())
    q = []
    for m in range(n - s - min(powers) + 1):
        r = num.get(n - m, ring.zero)
        for i in range(1, min(m, s) + 1):
            r = r - d.get(s - i, ring.zero) * q[m - i]
        q.append(r * inv_lead)
    out = {}
    for p in powers:  # above lam^(n-s) the coefficient is the zero
        c = Fraction(q[n - s - p] if p <= n - s else ring.zero)
        for el, e in side:
            c = c / Fraction(el) ** e
        out[p] = c
    return out


def extract_M(m_lam_mu: SpectralMatrix, exp: dict, recipe) -> SpectralMatrix:
    """Flow matrix paired with the recipe's Hamiltonian.

    Each entry's lam-series coefficients at the recipe's powers, from one
    division, combined exactly as the recipe combines expansion
    coefficients of b(lam); the scalar weights commute with the matrix
    entries, which makes the quotient-rule combination valid for a ratio.
    """
    return m_lam_mu.map_entries(lambda e: recipe.flow_entry(
        lambda_series_coefficient(e, recipe.powers), exp
    ))


# ---------------------------------------------------------------------------
# relation verifiers


def scalar_report(name: str, value: Fraction) -> RelationReport:
    return RelationReport(name, [] if value.is_zero else [("scalar", str(value))])


def transfer_commutator(ps, exp: dict) -> Fraction:
    """{s(lam), s(mu)} from the lam-coefficients s_p of the expansion
    ``{p: s_p}`` of a transfer scalar s, such as b or t.

    The expansion exists only when s is polynomial in lam (a lam-free
    denominator), and then
    {s(lam), s(mu)} = sum_{p<q} (lam^p mu^q - lam^q mu^p) {s_p, s_q}.  The
    monomial pairs are independent, so this vanishes iff every {s_p, s_q}
    does; only the nonzero brackets enter the sum.
    """
    l_, m_ = lam(ps.ring), mu(ps.ring)
    items = list(exp.items())
    return dot(ps.ring, (
        (ps.bracket_fraction(sp, sq), Fraction(l_ ** p * m_ ** q - l_ ** q * m_ ** p))
        for i, (p, sp) in enumerate(items) for q, sq in items[i + 1:]
    ))


def check_transfer_commutation(ps, d: Derivation) -> RelationReport:
    """{b(lam), b(mu)} = 0, decided coefficient by coefficient in lam."""
    return scalar_report("bb_commute", transfer_commutator(ps, d.expansion))


def check_single_row_commutation(ps, d: Derivation) -> RelationReport:
    """{t(lam), t(mu)} = 0 for the single-row transfer t = tr L(N, 1),
    decided coefficient by coefficient in lam like bb_commute."""
    return scalar_report("tt_commute", transfer_commutator(ps, expand(d.t)))


def check_involution(ps, d: Derivation) -> RelationReport:
    """The extracted Hamiltonian commutes with every expansion coefficient."""
    ham = d.hamiltonian
    residual = []
    for p, c in d.expansion.items():
        r = ps.bracket_fraction(ham, c)
        if not r.is_zero:
            residual.append(("lam^%d" % p, str(r)))
    return RelationReport("involution", residual)


def _site_report(ps, d: Derivation, scalar, M, name: str) -> RelationReport:
    """The site terms of the layout, merged into one report."""
    return merge_reports(name, [
        matrix_report(name, _zc_residual(ps, scalar, M, t), prefix=t[0] + " ")
        for t in d.layout[:d.N]
    ])


def check_sts_identity(ps, d: Derivation) -> RelationReport:
    """{t(lam), l(j,mu)} = S(j+1) l(j,mu) - l(j,mu) S(j) for all sites, with
    t = tr L(N, 1) and the single-row matrices S(j) = d.sts(j)."""
    return _site_report(ps, d, d.t, lambda j, s: d.sts(j), "sts_identity")


def _zero_curvature(ps, d: Derivation, scalar, M, names) -> list:
    """{scalar, .} against the M-pairings of every layout term: the sites
    merged under names[0], then k- and k+ under names[1] and names[2]."""
    return [_site_report(ps, d, scalar, M, names[0])] + [
        matrix_report(name, _zc_residual(ps, scalar, M, t))
        for name, t in zip(names[1:], d.layout[d.N:])
    ]


def check_theorem_zc(ps, d: Derivation) -> list:
    """The generating-function zero-curvature identities of the layout,
    with s = b(lam) and the generating matrices M(j, lam, +-mu)."""
    return _zero_curvature(
        ps, d, d.b, d.M,
        ("theorem_zc_lax", "theorem_zc_kminus", "theorem_zc_kplus"),
    )


def verify_corollary(ps, d: Derivation) -> list:
    """Zero-curvature form of the Hamiltonian flow, bulk and boundary:
    the theorem's identities with s = H and every M extracted like H
    itself, i.e. d/dT = {H, .}."""
    return _zero_curvature(
        ps, d, d.hamiltonian, d.flow,
        ("corollary_zc_lax", "corollary_flow_kminus", "corollary_flow_kplus"),
    )


def check_nondynamical_intertwining(ps, d: Derivation) -> list:
    """Non-dynamical boundary case: {b, k±} = 0 and the K-M relations.

    The k± terms of the layout with no bracket,
    M(1,mu) k-(mu) = k-(mu) M(1,-mu) and
    M(N+1,-mu) k+(mu) = k+(mu) M(N+1,mu),
    stated with the double-row matrices, not single-row ones.
    """
    boundary = d.layout[d.N:]
    return [
        matrix_report("b_%s_commute" % t[0], bracket_scalar_matrix(ps, d.b, t[1]))
        for t in boundary
    ] + [
        matrix_report("%s_intertwine" % t[0], _paired(t, d.flow))
        for t in boundary
    ]
