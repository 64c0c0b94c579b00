"""The lam-expansion of b(lam) against ``sympy_oracle``, which rebuilds
b(lam) = tr(k+ L(lam) k- L(-lam)^{-1}) from the model definitions with
sympy alone, sharing no arithmetic with the package.

The powers must agree in order, ascending and with every zero coefficient
absent, and each coefficient must cancel against sympy's.
"""

import pytest
import sympy

import sympy_oracle
from bilax.toda_models import expansion


@pytest.mark.parametrize("name,n", [("bcn", 1), ("bcn", 2), ("dn", 2), ("dn", 3)], ids=str)
def test_expansion_matches_the_sympy_rebuild(request, name, n):
    model = request.getfixturevalue("%s%d" % (name, n))
    got = expansion(model)
    want = sympy_oracle.expansion(name, n)
    assert list(got) == list(want)
    for p, c in got.items():
        assert sympy.cancel(sympy_oracle.to_sympy(c) - want[p]) == 0, p
