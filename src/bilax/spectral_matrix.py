"""Matrices over the phase ring with rational spectral dependence.

The auxiliary space is two-dimensional; tensor-square objects are 4x4 with
the a-leg first: row ``2*i + k`` / column ``2*j + l`` holds the ((i,k),(j,l))
component, i.e. ``kron(m, n)[(i,k),(j,l)] = m[i,j] * n[k,l]``.  ``_tensor``
is the one builder of that layout, for ``kron`` and ``tensor_bracket``
alike, and ``legs`` the one decoder.  A 2x2 m acting on one leg is
``kron(m, 1)`` or ``kron(1, m)``; the 8x8 triple-tensor objects of the
Yang-Baxter check are ``kron`` with the identity too, and r_ac is
``permute_legs(kron(r, 1), (0, 2, 1))``.

``contract(r, c)`` is the one partial trace: the entries commute, so
tr_a(A_a r B_a) = contract(r, B A) for 2x2 A, B and any 4x4 r, and
``partial_trace_a(m)`` is ``contract(m, 1)``.  ``permute_legs`` moves
entries instead of multiplying by P: ``permute_legs(r, (1, 0))`` is r_ba.

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


def legs(x: int, n: int) -> tuple:
    """The leg indices of tensor index x over n two-dimensional legs, the
    a-leg first: x = sum_t legs(x, n)[t] * 2**(n - 1 - t)."""
    return tuple(x >> (n - 1 - t) & 1 for t in range(n))


def _tensor(m: SpectralMatrix, n: SpectralMatrix, op) -> SpectralMatrix:
    """The one tensor layout: entry ((i,k),(j,l)) is op(m_ij, n_kl), the
    a-leg (first factor) indexes varying slowest."""
    return SpectralMatrix(m.ring, [
        [op(a, b) for a in row_m for b in row_n]
        for row_m in m.rows for row_n in n.rows
    ])


def kron(m: SpectralMatrix, n: SpectralMatrix) -> SpectralMatrix:
    """Tensor product.  A zero factor gives the canonical zero without
    forming the product."""
    zero = Fraction(m.ring.zero)
    return _tensor(m, n, lambda a, b: zero if a.is_zero or b.is_zero else a * b)


def permutation(ring: PhaseRing) -> SpectralMatrix:
    """P with P (m (x) n) P = n (x) m and P^2 = 1: entry ((i,k),(j,l)) is 1
    iff (i,k) = (l,j)."""
    index = [legs(x, 2) for x in range(4)]
    return SpectralMatrix(ring, [
        [ring.one if r == c[::-1] else ring.zero for c in index] for r in index
    ])


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


def permute_legs(m: SpectralMatrix, order) -> SpectralMatrix:
    """Leg t of the result is leg ``order[t]`` of m, on rows and columns
    alike; the entries are moved, never multiplied.  ``(1, 0)`` is the
    conjugation by P that maps r_ab to r_ba, and ``(0, 2, 1)`` maps
    r_ab (x) 1 to r_ac."""
    n = len(order)
    if m.dim != 2 ** n or sorted(order) != list(range(n)):
        raise StructureError("permute_legs expects an order of the legs of m")
    source = [sum(i << (n - 1 - p) for i, p in zip(legs(x, n), order))
              for x in range(m.dim)]
    return SpectralMatrix(m.ring, [[m.rows[r][c] for c in source] for r in source])


def rational_r_builder(ring: PhaseRing):
    """Callable arg -> P/arg, the rational classical r-matrix (arg = lam - mu,
    lam + mu, ...) in the form relation checks consume.  P is built once;
    each call puts one 1/arg at its four unit entries."""
    p = permutation(ring).rows

    def r(arg: RingElement) -> SpectralMatrix:
        unit = Fraction(ring.one, arg)
        return SpectralMatrix(ring, [[e if e.is_zero else unit for e in row] for row in p])

    return r


def tensor_bracket(
    ps: PoissonStructure, a: SpectralMatrix, b: SpectralMatrix
) -> SpectralMatrix:
    """{A_a, B_b}: entry ((i,k),(j,l)) holds {A_ij, B_kl}.

    The result is antisymmetric under the simultaneous swap of arguments,
    spectral variables and tensor legs."""
    if a.dim != 2 or b.dim != 2:
        raise StructureError("tensor_bracket expects 2x2 matrices")
    return _tensor(a, b, ps.bracket_fraction)


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


def commutator(a: SpectralMatrix, b: SpectralMatrix) -> SpectralMatrix:
    return a @ b - b @ a


def lam(ring: PhaseRing) -> RingElement:
    return ring.gen("lam")


def mu(ring: PhaseRing) -> RingElement:
    return ring.gen("mu")


def nu(ring: PhaseRing) -> RingElement:
    return ring.gen("nu")
