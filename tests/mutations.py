"""Mutation helpers of the guards against vacuous passes: enumerate the
nonzero entries of a matrix, replace one, and count the single-entry sign
mutations that a check catches."""

from bilax.spectral_matrix import SpectralMatrix
from bilax.structure_checks import flip_entry


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
