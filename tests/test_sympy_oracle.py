"""The derivation against ``sympy_oracle``, which rebuilds b(lam) =
tr(k+ L(lam) k- L(-lam)^{-1}), the Hamiltonian and the generating matrix
M(j, lam, +-mu) from the model definitions with sympy alone, sharing no
arithmetic with the package.

The powers of b must agree in order, ascending and with every zero
coefficient absent, and each coefficient, H and every entry of M(j, +-mu)
must cancel against sympy's.  M at bcn N=2 takes about 10 s, so the M
comparison covers bcn N=1 and dn N=2.
"""

import pytest
import sympy

import sympy_oracle
from bilax.spectral_matrix import mu
from bilax.toda_models import expansion, hamiltonian


@pytest.mark.parametrize("name,n", [("bcn", 1), ("bcn", 2), ("dn", 2), ("dn", 3)], ids=str)
def test_expansion_matches_the_sympy_rebuild(request, name, n):
    model = request.getfixturevalue("%s%d" % (name, n))
    got = expansion(model)
    want = sympy_oracle.expansion(name, n)
    assert list(got) == list(want)
    for p, c in got.items():
        assert sympy.cancel(sympy_oracle.to_sympy(c) - want[p]) == 0, p


@pytest.mark.parametrize("name,n", [("bcn", 1), ("bcn", 2), ("dn", 2), ("dn", 3)], ids=str)
def test_hamiltonian_matches_the_sympy_rebuild(request, name, n):
    model = request.getfixturevalue("%s%d" % (name, n))
    want = sympy_oracle.hamiltonian(name, n)
    assert sympy.cancel(sympy_oracle.to_sympy(hamiltonian(model)) - want) == 0


@pytest.mark.parametrize("name,n", [("bcn", 1), ("dn", 2)], ids=str)
def test_generating_matrix_matches_the_sympy_rebuild(request, name, n):
    model = request.getfixturevalue("%s%d" % (name, n))
    d, m_ = model.derivation, mu(model.ring)
    for j in range(1, n + 2):
        for sign in (1, -1):
            got = d.M(j, sign * m_)
            want = sympy_oracle.generating_matrix(name, n, j, sign)
            for k in range(2):
                for l in range(2):
                    diff = sympy_oracle.to_sympy(got[k, l]) - want[k, l]
                    assert sympy.cancel(diff) == 0, (j, sign, k, l)
