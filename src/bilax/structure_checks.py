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
import json
from dataclasses import dataclass, field

from .phase_ring import PoissonStructure
from .spectral_matrix import (
    SpectralMatrix,
    commutator,
    embed_a,
    embed_b,
    embed_pair,
    lam,
    mu,
    nu,
    swap_legs,
    tensor_bracket,
)


@dataclass
class RelationReport:
    """Outcome of one relation check; holds iff the residual list is empty."""

    name: str
    holds: bool
    residual: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "relation": self.name,
            "holds": self.holds,
            "residual": [
                {"index": idx, "value": val} for idx, val in self.residual
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __str__(self):
        status = "PASS" if self.holds else "FAIL"
        extra = "" if self.holds else " (%d nonzero entries)" % len(self.residual)
        return "%s %s%s" % (status, self.name, extra)


def _tensor_index(dim: int, i: int, j: int) -> str:
    if dim == 2:
        return "(%d,%d)" % (i + 1, j + 1)
    if dim == 4:
        return "((%d,%d),(%d,%d))" % (i // 2 + 1, i % 2 + 1, j // 2 + 1, j % 2 + 1)
    return "((%d,%d,%d),(%d,%d,%d))" % (
        i // 4 + 1,
        (i // 2) % 2 + 1,
        i % 2 + 1,
        j // 4 + 1,
        (j // 2) % 2 + 1,
        j % 2 + 1,
    )


def matrix_report(name: str, residual: SpectralMatrix, prefix: str = "") -> RelationReport:
    """Report the nonzero entries of a residual matrix."""
    entries = []
    for i in range(residual.dim):
        for j in range(residual.dim):
            e = residual.rows[i][j]
            if not e.is_zero:
                entries.append((prefix + _tensor_index(residual.dim, i, j), str(e)))
    return RelationReport(name, not entries, entries)


def merge_reports(name: str, reports) -> RelationReport:
    residual = []
    for r in reports:
        residual.extend(r.residual)
    return RelationReport(name, not residual, residual)


# ---------------------------------------------------------------------------
# relation checks


def check_cybe(r_builder, ring) -> RelationReport:
    """Classical Yang-Baxter equation in the triple tensor space.

    [r_ac(lam-nu), r_bc(mu-nu)] + [r_ab(lam-mu), r_ac(lam-nu)]
      + [r_ab(lam-mu), r_bc(mu-nu)] = 0, pole-cleared.
    """
    lm, m_, n_ = lam(ring), mu(ring), nu(ring)
    r_ab = embed_pair(r_builder(lm - m_), (0, 1))
    r_ac = embed_pair(r_builder(lm - n_), (0, 2))
    r_bc = embed_pair(r_builder(m_ - n_), (1, 2))
    resid = (
        commutator(r_ac, r_bc)
        + commutator(r_ab, r_ac)
        + commutator(r_ab, r_bc)
    )
    return matrix_report("cybe", resid)


def check_rll(lax, r_builder, ps: PoissonStructure, site: int = 1, offsite=(1, 2)) -> RelationReport:
    """Ultralocal quadratic algebra of the site Lax matrix.

    On-site: {l_a(j,lam), l_b(j,mu)} = [r_ab(lam-mu), l_a l_b];
    off-site: the bracket between distinct sites vanishes.
    """
    ring = ps.ring
    lm, m_ = lam(ring), mu(ring)
    la = lax(site, lm)
    lb = lax(site, m_)
    lhs = tensor_bracket(ps, la, lb)
    rhs = commutator(r_builder(lm - m_), embed_a(la) @ embed_b(lb))
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
    ka, kb = embed_a(kl), embed_b(km_)
    r1 = r_builder(lm - m_)
    r2 = r_builder(lm + m_)
    r1s, r2s = swap_legs(r1), swap_legs(r2)
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
        "reflection_plus", k_builder, lambda arg: swap_legs(r_builder(arg)), ps
    )


def check_nondynamical(k_builder, ps) -> RelationReport:
    """Non-dynamical case: every entry of k Poisson-commutes with every other."""
    ring = ps.ring
    resid = tensor_bracket(ps, k_builder(lam(ring)), k_builder(mu(ring)))
    return matrix_report("nondynamical", resid)


def check_k_locality(km_builder, kp_builder, lax, ps, site: int = 1) -> RelationReport:
    """{k^-, k^+} = 0 and {k^pm, l(j)} = 0."""
    ring = ps.ring
    lm, m_ = lam(ring), mu(ring)
    l_site = functools.partial(lax, site)
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


def replace_entry(builder, i: int, j: int, value):
    """Wrap a matrix builder, replacing entry (i, j) by a fixed element."""

    def wrapped(arg):
        m = builder(arg)
        rows = [list(row) for row in m.rows]
        rows[i][j] = SpectralMatrix._coerce(m.ring, value)
        return SpectralMatrix(m.ring, rows)

    return wrapped


def nonzero_positions(m: SpectralMatrix):
    return [
        (i, j)
        for i in range(m.dim)
        for j in range(m.dim)
        if not m.rows[i][j].is_zero
    ]


def count_failing_sign_mutations(check, builder, probe: SpectralMatrix, wrap=flip_entry) -> int:
    """Run ``check`` on every single-entry sign mutation of ``builder``.

    ``probe`` is one built instance used to enumerate nonzero entries
    (flipping a zero entry is a no-op).  Returns how many mutants fail.
    """
    fails = 0
    for i, j in nonzero_positions(probe):
        report = check(wrap(builder, i, j))
        if not report.holds:
            fails += 1
    return fails
