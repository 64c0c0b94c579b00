"""The double-row transfer scalar rebuilt with sympy alone, as a test oracle.

Nothing here imports ``bilax``: the site Lax matrix and both boundary
matrices are written out as ``sympy.Matrix`` from the model definitions,

    l(j, lam) = [[lam + X_j, -u_j], [1/u_j, 0]]          (u_j = e^{x_j})
    bcn: k-(lam) = [[th1 lam + a1, lam], [-b1 lam, -th1 lam + a1]],
         k+(lam) = [[thN lam + aN, bN lam], [-lam, -thN lam + aN]]
    dn:  k-(lam) = [[lam/2 - H, F], [E, lam/2 + H]],  k+ = [[0, 0], [-1, 0]]

and b(lam) = tr(k+ L(lam) k- L(-lam)^{-1}) with L(lam) = l(N) ... l(1)
is formed by sympy's own matrix product, inverse and cancellation.  Its
lam-coefficients are read off the polynomial in lam, so a power whose
coefficient cancels is absent, as in the package's expansion.  The
Hamiltonian applies each model's recipe to them:

    bcn: H = (-1)^N / 2 * b_2N,    dn: H = -b_(2N-2) / (2 b_2N).

The time-part generating matrix is the two-insertion partial trace

    M(j, lam, mu) = tr_a(k+_a L_a(N,j,lam) P/(lam-mu) L_a(j-1,1,lam) k-_a L_a(-lam)^{-1})
                  + tr_a(k+_a L_a(lam) k-_a L_a(j-1,1,-lam)^{-1} P/(lam+mu) L_a(N,j,-lam)^{-1})

with L(n, m, arg) = l(n, arg) ... l(m, arg), the identity when n = m - 1,
X_a = X (x) 1 by ``sympy.kronecker_product`` (the a-leg first), and the
trace over the a-leg written out.  M(j, lam, -mu) is the same formula with
P/(lam+mu) first and P/(lam-mu) second, so it checks the package's
reflection in mu without going through it.  The symbols carry the
package's generator names, so ``to_sympy`` converts a package element (or
Fraction) to the same sympy expression by name, reading only its
monomials.
"""

import sympy

LAM = sympy.Symbol("lam")
MU = sympy.Symbol("mu")
#: the permutation of the two legs: entry ((i,k),(j,l)) is 1 iff (i,k) = (l,j)
P = sympy.Matrix(4, 4, lambda r, c: int((r // 2, r % 2) == (c % 2, c // 2)))


def sym(name):
    return sympy.Symbol(name)


def site_lax(j, arg):
    u, x = sym("u%d" % j), sym("X%d" % j)
    return sympy.Matrix([[arg + x, -u], [1 / u, 0]])


def boundary(model, arg):
    """(k-(arg), k+(arg)) of ``model``, "bcn" or "dn"."""
    if model == "bcn":
        th1, a1, b1 = sym("th1"), sym("a1"), sym("b1")
        thn, an, bn = sym("thN"), sym("aN"), sym("bN")
        km = sympy.Matrix([[th1 * arg + a1, arg], [-b1 * arg, -th1 * arg + a1]])
        kp = sympy.Matrix([[thn * arg + an, bn * arg], [-arg, -thn * arg + an]])
        return km, kp
    E, F, H = sym("E"), sym("F"), sym("H")
    km = sympy.Matrix([[arg / 2 - H, F], [E, arg / 2 + H]])
    return km, sympy.Matrix([[0, 0], [-1, 0]])


def monodromy(n, arg, m=1):
    """L(n, m, arg) = l(n, arg) ... l(m, arg); the identity when n = m - 1."""
    out = sympy.eye(2)
    for j in range(n, m - 1, -1):
        out = out * site_lax(j, arg)
    return out


def transfer_scalar(model, n):
    """b(lam) = tr(k+ L(lam) k- L(-lam)^{-1}), cancelled."""
    km, kp = boundary(model, LAM)
    b = (kp * monodromy(n, LAM) * km * monodromy(n, -LAM).inv()).trace()
    return sympy.cancel(sympy.together(b))


def expansion(model, n):
    """{p: coefficient of lam^p} of b(lam), powers ascending, zeros absent;
    b must be a polynomial in lam over a lam-free denominator."""
    num, den = sympy.fraction(transfer_scalar(model, n))
    if den.has(LAM):
        raise ValueError("b(lam) has a lam-dependent denominator")
    poly = sympy.Poly(num, LAM)
    coeffs = {p: sympy.cancel(c / den) for (p,), c in poly.terms()}
    return {p: coeffs[p] for p in sorted(coeffs) if coeffs[p] != 0}


def hamiltonian(model, n):
    """H by the model's recipe from the sympy expansion of b(lam)."""
    b = expansion(model, n)
    if model == "bcn":
        return sympy.Rational((-1) ** n, 2) * b[2 * n]
    return sympy.cancel(-b[2 * n - 2] / (2 * b[2 * n]))


def trace_a(m):
    """The trace of a 4x4 matrix over its first leg."""
    return sympy.Matrix(2, 2, lambda k, l: m[k, l] + m[2 + k, 2 + l])


def generating_matrix(model, n, j, sign):
    """M(j, lam, sign * mu), each entry cancelled."""
    a = lambda x: sympy.kronecker_product(x, sympy.eye(2))
    km, kp = boundary(model, LAM)
    first = (a(kp * monodromy(n, LAM, j)) * P / (LAM - sign * MU)
             * a(monodromy(j - 1, LAM) * km * monodromy(n, -LAM).inv()))
    second = (a(kp * monodromy(n, LAM) * km * monodromy(j - 1, -LAM).inv())
              * P / (LAM + sign * MU) * a(monodromy(n, -LAM, j).inv()))
    return (trace_a(first) + trace_a(second)).applyfunc(sympy.cancel)


def to_sympy(value):
    """A package RingElement, or a Fraction as num/den, as a sympy
    expression over symbols named like the ring's generators."""
    if hasattr(value, "den"):
        return to_sympy(value.num) / to_sympy(value.den)
    symbols = [sym(name) for name in value.ring.names]
    out = sympy.Integer(0)
    for exps, c in value.monomials():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, exps):
            term *= s ** e
        out += term
    return out
