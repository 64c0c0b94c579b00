"""Exact verifiers for the quadratic Poisson-algebra relations.

Each verifier returns a :class:`RelationReport` whose residual lists every
nonzero entry with its tensor indices, so a failure is debuggable rather
than a bare boolean.  All checks run with boundary parameters symbolic: a
pass certifies the identity for every parameter value.

Ultralocality makes per-site checks exhaustive: the site bracket is checked
at one site and the off-site bracket at one pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .phase_ring import PoissonStructure
from .spectral_matrix import (
    SpectralMatrix,
    commutator,
    identity,
    kron,
    lam,
    legs,
    mu,
    nu,
    permute_legs,
    tensor_bracket,
)


@dataclass
class RelationReport:
    """Outcome of one relation check; holds iff the residual list is empty."""

    name: str
    residual: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.residual

    def to_dict(self) -> dict:
        return {
            "relation": self.name,
            "holds": self.holds,
            "residual": [
                {"index": idx, "value": val} for idx, val in self.residual
            ],
        }

    def __str__(self):
        status = "PASS" if self.holds else "FAIL"
        extra = "" if self.holds else " (%d nonzero entries)" % len(self.residual)
        return "%s %s%s" % (status, self.name, extra)


def _tensor_index(dim: int, i: int, j: int) -> str:
    """The 1-based label of entry (i, j): "(i,j)" at dim 2, and the legs of
    each index, as in "((i1,i2),(j1,j2))", in tensor space."""
    n = dim.bit_length() - 1
    row, col = (",".join(str(t + 1) for t in legs(x, n)) for x in (i, j))
    return "(%s,%s)" % (row, col) if n == 1 else "((%s),(%s))" % (row, col)


def matrix_report(name: str, residual: SpectralMatrix, prefix: str = "") -> RelationReport:
    """Report the nonzero entries of a residual matrix."""
    entries = []
    for i in range(residual.dim):
        for j in range(residual.dim):
            e = residual.rows[i][j]
            if not e.is_zero:
                entries.append((prefix + _tensor_index(residual.dim, i, j), str(e)))
    return RelationReport(name, entries)


def merge_reports(name: str, reports) -> RelationReport:
    return RelationReport(name, [e for r in reports for e in r.residual])


# ---------------------------------------------------------------------------
# relation checks


def check_cybe(r_builder, ring) -> RelationReport:
    """Classical Yang-Baxter equation in the triple tensor space.

    [r_ac(lam-nu), r_bc(mu-nu)] + [r_ab(lam-mu), r_ac(lam-nu)]
      + [r_ab(lam-mu), r_bc(mu-nu)] = 0, pole-cleared.
    """
    lm, m_, n_ = lam(ring), mu(ring), nu(ring)
    one = identity(ring, 2)
    r_ab = kron(r_builder(lm - m_), one)
    r_ac = permute_legs(kron(r_builder(lm - n_), one), (0, 2, 1))
    r_bc = kron(one, r_builder(m_ - n_))
    resid = (
        commutator(r_ac, r_bc)
        + commutator(r_ab, r_ac)
        + commutator(r_ab, r_bc)
    )
    return matrix_report("cybe", resid)


def check_rll(lax, r_builder, ps: PoissonStructure, offsite=(1, 2)) -> RelationReport:
    """Ultralocal quadratic algebra of the site Lax matrix.

    On-site, at site 1: {l_a(1,lam), l_b(1,mu)} = [r_ab(lam-mu), l_a l_b];
    off-site: the bracket between the distinct sites ``offsite`` vanishes.
    """
    ring = ps.ring
    lm, m_ = lam(ring), mu(ring)
    la = lax(1, lm)
    lb = lax(1, m_)
    lhs = tensor_bracket(ps, la, lb)
    rhs = commutator(r_builder(lm - m_), kron(la, lb))
    onsite = matrix_report("rll", lhs - rhs, prefix="site ")
    j, k = offsite
    if j != k:
        off = tensor_bracket(ps, lax(j, lm), lax(k, m_))
        offr = matrix_report("rll", off, prefix="offsite ")
        return merge_reports("rll", [onsite, offr])
    return onsite


def _check_reflection(name, k_builder, r_builder, ps) -> RelationReport:
    ring = ps.ring
    lm, m_ = lam(ring), mu(ring)
    kl, km_ = k_builder(lm), k_builder(m_)
    one = identity(ring, 2)
    ka, kb = kron(kl, one), kron(one, km_)
    r1 = r_builder(lm - m_)
    r2 = r_builder(lm + m_)
    r1s, r2s = permute_legs(r1, (1, 0)), permute_legs(r2, (1, 0))
    # r_ab(l-m) k_a k_b - k_a k_b r_ba(l-m) + k_a r_ba(l+m) k_b - k_b r_ab(l+m) k_a
    rhs = r1 @ ka @ kb - ka @ kb @ r1s + ka @ r2s @ kb - kb @ r2 @ ka
    return matrix_report(name, tensor_bracket(ps, kl, km_) - rhs)


def check_reflection_minus(k_builder, r_builder, ps) -> RelationReport:
    """Dynamical reflection algebra for k^- (holds trivially when {k,k}=0
    and the four r-insertion terms cancel)."""
    return _check_reflection("reflection_minus", k_builder, r_builder, ps)


def check_reflection_plus(k_builder, r_builder, ps) -> RelationReport:
    """Dynamical reflection algebra for k^+ (r_ab and r_ba exchanged)."""
    return _check_reflection(
        "reflection_plus", k_builder, lambda arg: permute_legs(r_builder(arg), (1, 0)), ps
    )


def check_nondynamical(k_builder, ps) -> RelationReport:
    """Non-dynamical case: every entry of k Poisson-commutes with every other."""
    ring = ps.ring
    resid = tensor_bracket(ps, k_builder(lam(ring)), k_builder(mu(ring)))
    return matrix_report("nondynamical", resid)


def check_k_locality(km_builder, kp_builder, lax, ps) -> RelationReport:
    """{k^-, k^+} = 0 and {k^pm, l(1)} = 0."""
    ring = ps.ring
    lm, m_ = lam(ring), mu(ring)
    l_site = functools.partial(lax, 1)
    reports = [
        matrix_report("k_locality", tensor_bracket(ps, a(lm), b(m_)), prefix=prefix)
        for prefix, a, b in (
            ("k-/k+ ", km_builder, kp_builder),
            ("k-/l ", km_builder, l_site),
            ("k+/l ", kp_builder, l_site),
        )
    ]
    return merge_reports("k_locality", reports)


# ---------------------------------------------------------------------------
# mutation utilities (guards against vacuous passes)


def _flip(m: SpectralMatrix, i: int, j: int) -> SpectralMatrix:
    rows = [list(row) for row in m.rows]
    rows[i][j] = -rows[i][j]
    return SpectralMatrix(m.ring, rows)


def flip_entry(builder, i: int, j: int):
    """Wrap a matrix builder, flipping the sign of entry (i, j)."""
    return lambda arg: _flip(builder(arg), i, j)


def flip_lax_entry(lax, i: int, j: int):
    """Wrap a site-Lax family, flipping the sign of entry (i, j) at all sites."""
    return lambda site, arg: _flip(lax(site, arg), i, j)
