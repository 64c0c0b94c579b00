"""Matrices over the phase ring with rational spectral dependence.

The auxiliary space is two-dimensional; tensor-square objects are 4x4 with
the a-leg first: row ``2*i + k`` / column ``2*j + l`` holds the ((i,k),(j,l))
component, i.e. ``kron(m, n)[(i,k),(j,l)] = m[i,j] * n[k,l]``.  An 8x8
triple-tensor embedding exists only for the Yang-Baxter check.

``contract(r, c)`` is the one partial trace: the entries commute, so
tr_a(A_a r B_a) = contract(r, B A) for 2x2 A, B and any 4x4 r, and
``partial_trace_a(m)`` is ``contract(m, 1)``.  ``swap_legs`` permutes
indices instead of multiplying by P.

Every sum of products here is one ``phase_ring.dot``: each entry of ``@``,
of ``contract`` (over all its r-insertions at once) and ``det_2x2``
accumulates its products into one numerator, with the representation a
left-to-right ``+`` of the products would give.

Spectral variables stay formal throughout: poles such as 1/(lam - mu) live
in factored denominators and every relation is decided after
cross-multiplication, never by evaluating at the pole.
"""

from __future__ import annotations

import operator

from .phase_ring import (
    Fraction,
    PhaseRing,
    PoissonStructure,
    RingElement,
    StructureError,
    as_fraction,
    dot,
)


class SpectralMatrix:
    """Square matrix of :class:`Fraction` entries (dim 2, 4 or 8)."""

    __slots__ = ("ring", "dim", "rows")

    def __init__(self, ring: PhaseRing, rows):
        self.ring = ring
        self.rows = tuple(
            tuple(e if type(e) is Fraction and e.ring is ring else self._coerce(ring, e)
                  for e in row)
            for row in rows
        )
        self.dim = len(self.rows)
        for row in self.rows:
            if len(row) != self.dim:
                raise StructureError("matrix is not square")

    @staticmethod
    def _coerce(ring, e) -> Fraction:
        f = as_fraction(ring, e)
        if f is None:
            raise StructureError("cannot coerce matrix entry %r" % (e,))
        return f

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __iter__(self):
        return iter(self.rows)

    # -- algebra ---------------------------------------------------------

    def _entrywise(self, other, op):
        self._check(other)
        return SpectralMatrix(
            self.ring,
            [
                [op(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return self.map_entries(operator.neg)

    def __mul__(self, other):
        """Scalar multiple (matrix product is the @ operator)."""
        s = as_fraction(self.ring, other)
        if s is None:
            return NotImplemented
        return self.map_entries(lambda a: a * s)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        cols = tuple(zip(*other.rows))
        return SpectralMatrix(
            self.ring, [[dot(zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other):
        if not isinstance(other, SpectralMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.rows for a in row)

    def trace(self) -> Fraction:
        t = Fraction(self.ring.zero)
        for i in range(self.dim):
            t = t + self.rows[i][i]
        return t

    def map_entries(self, fn) -> "SpectralMatrix":
        return SpectralMatrix(
            self.ring, [[fn(a) for a in row] for row in self.rows]
        )

    def substitute(self, mapping: dict) -> "SpectralMatrix":
        return self.map_entries(lambda a: a.substitute(mapping))

    def _check(self, other):
        if not isinstance(other, SpectralMatrix) or other.dim != self.dim:
            raise StructureError("matrix dimension mismatch")

    def __str__(self):
        return "[" + ",\n ".join(
            "[" + ", ".join(str(a) for a in row) + "]" for row in self.rows
        ) + "]"

    def __repr__(self):
        return "<SpectralMatrix dim=%d>\n%s" % (self.dim, self)


def matrix(ring: PhaseRing, rows) -> SpectralMatrix:
    return SpectralMatrix(ring, rows)


def identity(ring: PhaseRing, dim: int = 2) -> SpectralMatrix:
    return SpectralMatrix(
        ring,
        [[ring.one if i == j else ring.zero for j in range(dim)] for i in range(dim)],
    )


def zeros(ring: PhaseRing, dim: int = 2) -> SpectralMatrix:
    return SpectralMatrix(ring, [[ring.zero] * dim for _ in range(dim)])


def kron(m: SpectralMatrix, n: SpectralMatrix) -> SpectralMatrix:
    """Tensor product; a-leg (first factor) indexes vary slowest."""
    ring = m.ring
    dm, dn = m.dim, n.dim
    rows = []
    for i in range(dm):
        for k in range(dn):
            rows.append(
                [
                    m.rows[i][j] * n.rows[k][l]
                    for j in range(dm)
                    for l in range(dn)
                ]
            )
    return SpectralMatrix(ring, rows)


def embed_a(m: SpectralMatrix) -> SpectralMatrix:
    """m acting on the first tensor factor: m (x) 1."""
    if m.dim != 2:
        raise StructureError("embed_a expects a 2x2 matrix")
    return kron(m, identity(m.ring, 2))


def embed_b(m: SpectralMatrix) -> SpectralMatrix:
    """m acting on the second tensor factor: 1 (x) m."""
    if m.dim != 2:
        raise StructureError("embed_b expects a 2x2 matrix")
    return kron(identity(m.ring, 2), m)


def permutation(ring: PhaseRing) -> SpectralMatrix:
    """P with P (m (x) n) P = n (x) m and P^2 = 1."""
    rows = []
    for i in range(2):
        for k in range(2):
            rows.append(
                [
                    ring.one if (i == l and k == j) else ring.zero
                    for j in range(2)
                    for l in range(2)
                ]
            )
    return SpectralMatrix(ring, rows)


def partial_trace_a(m: SpectralMatrix) -> SpectralMatrix:
    """Trace over the first tensor factor of a 4x4 matrix: contract(m, 1)."""
    return contract(m, identity(m.ring, 2))


def contract(r: SpectralMatrix, c: SpectralMatrix, *more) -> SpectralMatrix:
    """out[k][l] = sum_j sum_j' r[(j,k),(j',l)] c[j'][j] for any 4x4 r and
    2x2 c; ``contract(r, c, r2, c2, ...)`` adds the terms of every (r, c)
    pair, in that order, into one ``dot`` per entry.

    The entries commute, so tr_a(A_a r B_a) = contract(r, B A) for 2x2 A
    and B: the a-leg indices of A and B close into the one product B A.
    """
    pairs = list(zip((r, *more[::2]), (c, *more[1::2])))
    if len(more) % 2 or any(x.dim != 4 or y.dim != 2 for x, y in pairs):
        raise StructureError("contract expects 4x4 and 2x2 matrices in turn")
    return SpectralMatrix(r.ring, [
        [dot((x.rows[2 * j + k][2 * jp + l], y.rows[jp][j])
             for x, y in pairs for j in range(2) for jp in range(2))
         for l in range(2)]
        for k in range(2)
    ])


def swap_legs(m: SpectralMatrix) -> SpectralMatrix:
    """Conjugation by P, which maps r_ab to r_ba: the entry ((i,k),(j,l))
    of the result is the entry ((k,i),(l,j)) of m."""
    if m.dim != 4:
        raise StructureError("swap_legs expects a 4x4 matrix")
    rows = m.rows
    return SpectralMatrix(
        m.ring,
        [[rows[2 * k + i][2 * l + j] for j in range(2) for l in range(2)]
         for i in range(2) for k in range(2)],
    )


def rational_r(ring: PhaseRing, arg: RingElement) -> SpectralMatrix:
    """The rational classical r-matrix P/arg (arg = lam - mu, lam + mu, ...)."""
    return permutation(ring).map_entries(
        lambda e: e / Fraction(arg) if not e.is_zero else e
    )


def rational_r_builder(ring: PhaseRing):
    """Callable arg -> P/arg, the form consumed by relation checkers."""
    return lambda arg: rational_r(ring, arg)


def tensor_bracket(
    ps: PoissonStructure, a: SpectralMatrix, b: SpectralMatrix
) -> SpectralMatrix:
    """{A_a, B_b}: entry ((i,k),(j,l)) holds {A_ij, B_kl}.

    The result is antisymmetric under the simultaneous swap of arguments,
    spectral variables and tensor legs."""
    if a.dim != 2 or b.dim != 2:
        raise StructureError("tensor_bracket expects 2x2 matrices")
    ring = ps.ring
    rows = []
    for i in range(2):
        for k in range(2):
            rows.append(
                [
                    ps.bracket_fraction(a.rows[i][j], b.rows[k][l])
                    for j in range(2)
                    for l in range(2)
                ]
            )
    return SpectralMatrix(ring, rows)


def bracket_scalar_matrix(
    ps: PoissonStructure, f, m: SpectralMatrix
) -> SpectralMatrix:
    """Entrywise {f, m_ij} for a scalar phase-space function f."""
    fr = as_fraction(ps.ring, f)
    return m.map_entries(lambda e: ps.bracket_fraction(fr, e))


def det_2x2(m: SpectralMatrix) -> Fraction:
    if m.dim != 2:
        raise StructureError("det_2x2 expects a 2x2 matrix")
    r = m.rows
    return dot([(r[0][0], r[1][1]), (-r[0][1], r[1][0])])


def inverse_2x2(m: SpectralMatrix) -> SpectralMatrix:
    """Adjugate over determinant; requires det != 0 as a rational function."""
    d = det_2x2(m)
    if d.is_zero:
        raise StructureError("matrix has identically zero determinant")
    r = m.rows
    return SpectralMatrix(
        m.ring,
        [
            [r[1][1] / d, -r[0][1] / d],
            [-r[1][0] / d, r[0][0] / d],
        ],
    )


def embed_pair(m: SpectralMatrix, legs: tuple, nlegs: int = 3) -> SpectralMatrix:
    """Embed a two-leg 4x4 object into the n-fold tensor space (dim 2^n)."""
    if m.dim != 4:
        raise StructureError("embed_pair expects a 4x4 matrix")
    p, q = legs
    ring = m.ring
    dim = 2 ** nlegs
    zero = Fraction(ring.zero)

    def digits(x):
        out = [0] * nlegs
        for pos in range(nlegs - 1, -1, -1):
            out[pos] = x & 1
            x >>= 1
        return out

    rows = []
    for r in range(dim):
        ri = digits(r)
        row = []
        for c in range(dim):
            ci = digits(c)
            ok = all(ri[t] == ci[t] for t in range(nlegs) if t not in (p, q))
            if not ok:
                row.append(zero)
                continue
            entry = m.rows[2 * ri[p] + ri[q]][2 * ci[p] + ci[q]]
            row.append(entry if not entry.is_zero else zero)
        rows.append(row)
    return SpectralMatrix(ring, rows)


def commutator(a: SpectralMatrix, b: SpectralMatrix) -> SpectralMatrix:
    return a @ b - b @ a


def lam(ring: PhaseRing) -> RingElement:
    return ring.gen("lam")


def mu(ring: PhaseRing) -> RingElement:
    return ring.gen("mu")


def nu(ring: PhaseRing) -> RingElement:
    return ring.gen("nu")
