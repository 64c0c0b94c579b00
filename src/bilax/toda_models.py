"""Open Toda chains with integrable boundary matrices.

Two families are built here on top of the double-row machinery:

* ``bcn``: constant boundary matrices with six free parameters; Hamiltonian
  read off the lam^(2N) coefficient of b(lam), scaled by (-1)^N/2.
* ``dn``: a dynamical sl(2) boundary matrix at the first site (k- linear in
  the spectral variable, entries -H, F, E, H) against a constant nilpotent
  k+; Hamiltonian is the ratio -coeff(2N-2)/(2 coeff(2N)).

Closed forms quoted from the source model (the Hamiltonians, the equations
of motion and every displayed time-part matrix) live here so they can be
compared entry-for-entry against what the generic construction produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .backend import QQ
from .double_row import Derivation, RatioRecipe, ScaledCoefficient, _memo
from .phase_ring import (
    Fraction,
    Generator,
    Kind,
    PhaseRing,
    PoissonStructure,
    RingElement,
    StructureError,
    as_fraction,
    exact_divide,
)
from .spectral_matrix import SpectralMatrix, identity, lam, mu

HALF = QQ(1, 2)

BCN_PARAMS = ("th1", "a1", "b1", "thN", "aN", "bN")
DN_PARAMS = ("c0", "c1")

# dn default: c1 < 0 makes E = (c1/4 - H^2)/F negative on the sampled level
# set, so the -E e^{2x1} boundary potential confines instead of producing a
# finite-time runaway
DEFAULT_PARAMS = {
    "bcn": {p: 0.5 for p in BCN_PARAMS},
    "dn": {"c0": 2.0, "c1": -1.0},
}

# spectral points of simulate's zero-curvature residual channel
DEFAULT_MU_SAMPLES = (0.3, 0.7, 1.1, 1.9, 2.3)


@dataclass
class ModelSpec:
    """A boundary integrable model: Lax family, k matrices, recipe, params."""

    name: str
    N: int
    ring: PhaseRing
    ps: PoissonStructure
    lax: Callable
    km: Callable
    kp: Callable
    recipe: object
    params: dict
    # not copied by dataclasses.replace: a model built from another one
    # (say with a mutated k-) derives and compiles everything afresh
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def derivation(self) -> Derivation:
        """The double-row derivation with the rational r-matrix, built on
        first use and then read by every check and flow."""
        return self.cached("derivation", lambda: Derivation(
            self.lax, self.km, self.kp, self.N, lam(self.ring), recipe=self.recipe
        ))

    def cached(self, key, build):
        return _memo(self._cache, key, build)


def toda_ring(N: int, dynamical: bool = False) -> PhaseRing:
    gens = [Generator("u%d" % j, Kind.COORD_EXP) for j in range(1, N + 1)]
    gens += [Generator("X%d" % j, Kind.MOMENTUM) for j in range(1, N + 1)]
    if dynamical:
        gens += [
            Generator("E", Kind.SL2_E),
            Generator("F", Kind.SL2_F),
            Generator("H", Kind.SL2_H),
        ]
        gens += [Generator(p, Kind.PARAMETER) for p in DN_PARAMS]
    else:
        gens += [Generator(p, Kind.PARAMETER) for p in BCN_PARAMS]
    return PhaseRing(gens)


def toda_structure(ring: PhaseRing) -> PoissonStructure:
    """{X_j, u_j} = u_j for every u_j in ring order and, if the ring has E, F
    and H, {H, E} = E, {H, F} = -F, {E, F} = 2H; all else is central."""
    ps = PoissonStructure(ring)
    for u in ring.gens_of_kind(Kind.COORD_EXP):
        ps.set_bracket("X" + u[1:], u, ring.gen(u))
    if {"E", "F", "H"} <= set(ring.names):
        E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
        ps.set_bracket("H", "E", E)
        ps.set_bracket("H", "F", -F)
        ps.set_bracket("E", "F", 2 * H)
    return ps


def toda_lax(ring: PhaseRing):
    """Site Lax family l(j, s) = [[s + X_j, -u_j], [1/u_j, 0]]."""

    def lax(j: int, arg: RingElement) -> SpectralMatrix:
        uj = ring.gen("u%d" % j)
        xj = ring.gen("X%d" % j)
        return SpectralMatrix(ring, [[arg + xj, -uj], [uj ** -1, ring.zero]])

    return lax


def build_bcn(N: int, params: dict | None = None) -> ModelSpec:
    """Constant-boundary open chain; most general constant k matrices."""
    if N < 1:
        raise StructureError("bcn needs N >= 1")
    ring = toda_ring(N, dynamical=False)
    ps = toda_structure(ring)
    th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
    thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")

    def km(arg):
        return SpectralMatrix(
            ring,
            [[th1 * arg + a1, arg], [-(b1 * arg), -(th1 * arg) + a1]],
        )

    def kp(arg):
        return SpectralMatrix(
            ring,
            [[thn * arg + an, bn * arg], [-arg, -(thn * arg) + an]],
        )

    recipe = ScaledCoefficient(2 * N, QQ((-1) ** N, 2))
    p = dict(DEFAULT_PARAMS["bcn"])
    if params:
        p.update(params)
    return ModelSpec("bcn", N, ring, ps, toda_lax(ring), km, kp, recipe, p)


def build_dn(N: int, params: dict | None = None) -> ModelSpec:
    """Dynamical sl(2) boundary at site 1, nilpotent constant k+.

    k-(arg) = [[arg/2 - H, F], [E, arg/2 + H]]: the off-diagonal entries
    must be distinct sl(2) generators for the dynamical reflection algebra
    to close (the entry pair {k12, k21} has to produce -2H).
    """
    if N < 2:
        raise StructureError("dn needs N >= 2 (the Hamiltonian couples site 2)")
    ring = toda_ring(N, dynamical=True)
    ps = toda_structure(ring)
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")

    def km(arg):
        return SpectralMatrix(ring, [[arg * HALF - H, F], [E, arg * HALF + H]])

    def kp(arg):
        return SpectralMatrix(ring, [[ring.zero, ring.zero], [-ring.one, ring.zero]])

    recipe = RatioRecipe(2 * N - 2, 2 * N, QQ(-1, 2))
    p = dict(DEFAULT_PARAMS["dn"])
    if params:
        p.update(params)
    return ModelSpec("dn", N, ring, ps, toda_lax(ring), km, kp, recipe, p)


def model_from_config(cfg: dict) -> ModelSpec:
    """Build from {"model": "bcn"|"dn", "N": int, "params": {...}}."""
    name = cfg.get("model")
    if name not in ("bcn", "dn"):
        raise StructureError("unknown model %r" % name)
    n = cfg.get("N")
    if not isinstance(n, int):
        raise StructureError("N must be an integer")
    params = cfg.get("params") or {}
    known = BCN_PARAMS if name == "bcn" else DN_PARAMS
    bad = set(params) - set(known)
    if bad:
        raise StructureError("unknown parameters %s for model %s" % (sorted(bad), name))
    if any(type(v) not in (int, float) for v in params.values()):  # not bool
        raise StructureError("parameter values must be JSON numbers")
    try:
        params = {k: float(v) for k, v in params.items()}
    except OverflowError:  # an int past the float range
        raise StructureError("parameters must be finite") from None
    if not all(map(math.isfinite, params.values())):
        raise StructureError("parameters must be finite")
    return build_bcn(n, params) if name == "bcn" else build_dn(n, params)


# ---------------------------------------------------------------------------
# readers of the model's derivation


def expansion(model: ModelSpec) -> dict:
    return model.derivation.expansion


def hamiltonian(model: ModelSpec) -> Fraction:
    return model.derivation.hamiltonian


def model_flow_matrix(model: ModelSpec, j: int) -> SpectralMatrix:
    """Extracted time-part matrix M(j, mu)."""
    return model.derivation.flow(j, 1)


# ---------------------------------------------------------------------------
# closed forms


def _chain_core(model: ModelSpec) -> RingElement:
    ring = model.ring
    h = ring.zero
    for j in range(1, model.N + 1):
        xj = ring.gen("X%d" % j)
        h = h + xj * xj * HALF
    for j in range(1, model.N):
        h = h + ring.gen("u%d" % (j + 1)) * ring.gen("u%d" % j) ** -1
    return h


def displayed_hamiltonian(model: ModelSpec) -> Fraction:
    """The closed-form Hamiltonian (kinetic + chain coupling + boundary)."""
    ring = model.ring
    if model.name == "bcn":
        u1, un = ring.gen("u1"), ring.gen("u%d" % model.N)
        x1, xn = ring.gen("X1"), ring.gen("X%d" % model.N)
        th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
        thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")
        bminus = a1 * u1 + b1 * HALF * u1 ** 2 + th1 * x1 * u1
        bplus = an * un ** -1 + bn * HALF * un ** -2 + thn * xn * un ** -1
        return Fraction(_chain_core(model) + bminus + bplus)
    u1, u2 = ring.gen("u1"), ring.gen("u2")
    x1 = ring.gen("X1")
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
    bnum = u2 + x1 * x1 * u1 - 2 * H * u1 * x1 - E * u1 ** 2
    b = Fraction(bnum, 2 * (F - u1))
    return Fraction(_chain_core(model)) + b


def displayed_flow_matrix(model: ModelSpec, j: int) -> SpectralMatrix:
    """Closed-form M(j, mu) for every site index 1..N+1.

    Interior sites share the bulk form [[-mu/2, e^{x_j}], [-e^{-x_{j-1}},
    mu/2]]; the lower-left exponent is negative, as the zero-curvature
    equation at entry (1,1) requires to reproduce the bulk force
    e^{x_j - x_{j-1}}.  dn keeps the bulk form at its last site, with no
    e^{x_{N+1}}, and at site 2, with a rational lower-left entry.
    """
    ring = model.ring
    m_ = mu(ring)
    if not 1 <= j <= model.N + 1:
        raise StructureError("site index %d out of range" % j)
    if model.name == "bcn" and j == 1:
        u1 = ring.gen("u1")
        th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
        return SpectralMatrix(
            ring,
            [
                [-(m_ * HALF) + th1 * u1, u1],
                [m_ * th1 - a1 - b1 * u1, m_ * HALF - th1 * u1],
            ],
        )
    if model.name == "bcn" and j == model.N + 1:
        un = ring.gen("u%d" % model.N)
        thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")
        return SpectralMatrix(
            ring,
            [
                [-(m_ * HALF) + thn * un ** -1, -(m_ * thn) + an + bn * un ** -1],
                [-(un ** -1), m_ * HALF - thn * un ** -1],
            ],
        )
    if model.name == "dn" and j == 1:
        u1, x1, u2 = ring.gen("u1"), ring.gen("X1"), ring.gen("u2")
        E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
        pref = Fraction(ring.one, 2 * (u1 - F))
        tl = m_ * F + u1 * (2 * H - x1)
        tr = u1 * (u1 - 2 * F)
        inner = Fraction(
            u2 + x1 * x1 * u1 - 2 * H * u1 * x1 + E * u1 ** 2 - 2 * E * F * u1,
            F - u1,
        )
        bl = Fraction(m_ * m_ + 2 * m_ * H) + inner
        return SpectralMatrix(
            ring,
            [
                [pref * as_fraction(ring, tl), pref * as_fraction(ring, tr)],
                [pref * bl, -(pref * as_fraction(ring, tl))],
            ],
        )
    upper = ring.zero if j == model.N + 1 else ring.gen("u%d" % j)
    lower = -(ring.gen("u%d" % (j - 1)) ** -1)
    if model.name == "dn" and j == 2:
        u1, F = ring.gen("u1"), ring.gen("F")
        lower = Fraction(u1 - 2 * F, 2 * u1 * (F - u1))
    return SpectralMatrix(ring, [[-(m_ * HALF), upper], [lower, m_ * HALF]])


def displayed_flow_indices(model: ModelSpec):
    """Indices j for which a closed-form M(j, mu) is displayed."""
    return list(range(1, model.N + 2))


# ---------------------------------------------------------------------------
# equations of motion


def state_names(model: ModelSpec) -> list:
    """The order of the simulate state: the ring's field slots in ring order
    (``toda_ring``: u_1..u_N, X_1..X_N, then E, F, H for dn), with a
    Laurent u_j named x_j."""
    ring = model.ring
    return ["x" + ring.names[i][1:] if ring.laurent[i] else ring.names[i]
            for i in ring.field_slots]


def derived_eom(model: ModelSpec) -> dict:
    """{state name: d/dT} in ``state_names`` order, exact Fractions from the
    bracket: {H, u_j}/u_j for x_j (u_j = e^{x_j}), {H, g} for every other
    coordinate g."""

    def build():
        ring, ps = model.ring, model.ps
        ham = hamiltonian(model)
        eom = {}
        for name, i in zip(state_names(model), ring.field_slots):
            g = Fraction(ring.gen(ring.names[i]))
            dg = ps.bracket_fraction(ham, g)
            eom[name] = dg / g if ring.laurent[i] else dg
        return eom

    return model.cached("derived_eom", build)


def closed_form_eom(model: ModelSpec) -> dict:
    """The displayed closed-form equations of motion, keyed like
    ``derived_eom``.

    For bcn all coordinates are covered.  For dn only the sites the source
    displays in first-order form are included (x_j for j >= 2, bulk momenta,
    and the last momentum for N >= 3); the boundary site and the sl(2)
    triple evolve by genuinely rational expressions that are only written
    second-order after elimination.  Both share xdot_j = X_j and the bulk
    force e^{x_{j+1} - x_j} - e^{x_j - x_{j-1}}.
    """
    ring, n = model.ring, model.N

    def u(j):
        return ring.gen("u%d" % j)

    first = 1 if model.name == "bcn" else 2
    eom = {"x%d" % j: Fraction(ring.gen("X%d" % j)) for j in range(first, n + 1)}
    for j in range(first + 1, n):
        eom["X%d" % j] = Fraction(u(j + 1) * u(j) ** -1 - u(j) * u(j - 1) ** -1)
    if model.name == "dn":
        if n >= 3:
            eom["X%d" % n] = Fraction(-(u(n) * u(n - 1) ** -1))
        return eom
    th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
    thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")
    u1, un = u(1), u(n)
    x1, xn = ring.gen("X1"), ring.gen("X%d" % n)
    eom["x1"] = eom["x1"] + Fraction(th1 * u1)
    eom["x%d" % n] = eom["x%d" % n] + Fraction(thn * un ** -1)
    bminus = -(a1 * u1) - b1 * u1 ** 2 - th1 * x1 * u1
    bplus = an * un ** -1 + bn * un ** -2 + thn * xn * un ** -1
    if n == 1:
        eom["X1"] = Fraction(bminus + bplus)
    else:
        eom["X1"] = Fraction(u(2) * u1 ** -1 + bminus)
        eom["X%d" % n] = Fraction(-(un * u(n - 1) ** -1) + bplus)
    return eom


# ---------------------------------------------------------------------------
# comparison helpers


def parameter_constant_difference(f, g):
    """The parameter-only constant f - g, or None if the difference carries
    fields or spectral variables."""
    ring = f.ring if isinstance(f, (Fraction, RingElement)) else g.ring
    diff = as_fraction(ring, f) - as_fraction(ring, g)
    if diff.is_zero:
        return ring.zero
    q = exact_divide(diff.num, diff.den)
    if q is not None and q.is_parameter_constant():
        return q
    return None


# ---------------------------------------------------------------------------
# canonical change of variables (bcn) and the shifted-matrix convention


def canonical_map_bcn(model: ModelSpec) -> dict:
    """X_1 -> X_1 - th1*u_1, X_N -> X_N - thN/u_N (x_j fixed), the mapping
    for ``substitute``.

    This is the inverse image substitution: substituting it into an
    expression rewrites it in the tilde variables Xt_1 = X_1 + th1*u_1,
    Xt_N = X_N + thN/u_N, which are canonical.
    """
    if model.name != "bcn":
        raise StructureError("canonical map applies to the bcn model")
    ring = model.ring
    u1, un = ring.gen("u1"), ring.gen("u%d" % model.N)
    th1, thn = ring.gen("th1"), ring.gen("thN")
    x1, xn = ring.gen("X1"), ring.gen("X%d" % model.N)
    if model.N == 1:
        sub = {"X1": x1 - th1 * u1 - thn * u1 ** -1}
    else:
        sub = {"X1": x1 - th1 * u1, "X%d" % model.N: xn - thn * un ** -1}
    return sub


def theta_absorbed_hamiltonian(model: ModelSpec) -> Fraction:
    """eq-H with theta = 0 and beta shifted by -theta^2 (in tilde variables)."""
    ring = model.ring
    u1, un = ring.gen("u1"), ring.gen("u%d" % model.N)
    x1, xn = ring.gen("X1"), ring.gen("X%d" % model.N)
    a1, b1, th1 = ring.gen("a1"), ring.gen("b1"), ring.gen("th1")
    an, bn, thn = ring.gen("aN"), ring.gen("bN"), ring.gen("thN")
    bminus = a1 * u1 + (b1 - th1 ** 2) * HALF * u1 ** 2
    bplus = an * un ** -1 + (bn - thn ** 2) * HALF * un ** -2
    return Fraction(_chain_core(model) + bminus + bplus)


def ks_convention_matrix(model: ModelSpec, j: int) -> SpectralMatrix:
    """M(j, mu) - mu/2 * 1, rewritten in the tilde variables."""
    ring = model.ring
    shift = identity(ring, 2) * as_fraction(ring, -(mu(ring) * HALF))
    return (model_flow_matrix(model, j) + shift).substitute(canonical_map_bcn(model))


# ---------------------------------------------------------------------------
# dn: F-integration, coordinate change and the x0 boundary relation


@dataclass
class DnElimination:
    """On-shell data for the dynamical chain.

    on_shell: F -> u1 + c0/2 (level set of the conserved F - e^{x1}) and
    E -> (c1/4 - H^2)/F (Casimir fixed to c1/4).
    xtilde: e^{xt_1} = c0 u1/(c0 + u1).
    bc_x0(V): e^{-x0} = u2/c0^2 + (V^2 - c1) e^{xt_1} / (c0^2 - e^{2 xt_1})
    with V the first tilde velocity; x0 is a defined abbreviation, never a
    dynamical variable.  The source prints e^{x_1} in the second numerator,
    but only the tilde exponential makes the second-order boundary equation
    an exact identity (the test suite shows that the literal reading
    fails), so the tilde reading is the implemented one.
    """

    on_shell: dict
    xtilde: Fraction

    def bc_x0(self, v: Fraction) -> Fraction:
        ring = v.ring
        c0, c1 = ring.gen("c0"), ring.gen("c1")
        c0sq = Fraction(c0 * c0)
        return Fraction(ring.gen("u2")) / c0sq + (v * v - Fraction(c1)) * self.xtilde / (
            c0sq - self.xtilde * self.xtilde
        )


def dn_boundary_elimination(model: ModelSpec) -> DnElimination:
    if model.name != "dn":
        raise StructureError("boundary elimination applies to the dn model")
    if float(model.params.get("c0", 0.0)) == 0.0:
        raise StructureError("boundary elimination needs c0 != 0")
    ring = model.ring
    u1 = ring.gen("u1")
    c0, c1 = ring.gen("c0"), ring.gen("c1")
    H = ring.gen("H")
    f_level = u1 + c0 * HALF
    on_shell = {
        "F": f_level,
        "E": Fraction(c1 * QQ(1, 4) - H * H, f_level),
    }
    xtilde = Fraction(c0 * u1, c0 + u1)
    return DnElimination(on_shell, xtilde)


def dn_xtilde_velocity(model: ModelSpec) -> Fraction:
    """d/dT of xt_1 along the flow, off-shell."""
    c0 = model.ring.gen("c0")
    return derived_eom(model)["x1"] * Fraction(c0, c0 + model.ring.gen("u1"))


def dn_x0_relation(model: ModelSpec) -> Fraction:
    """Off-shell residual xtdd_1 - (e^{x2 - xt1} - e^{xt1 - x0}) of the
    second-order boundary relation, with x0 eliminated through bc_x0; it
    vanishes on the level sets fixed by c0 and c1."""
    elim = dn_boundary_elimination(model)
    v = dn_xtilde_velocity(model)
    acc = model.ps.bracket_fraction(hamiltonian(model), v)
    x2_term = Fraction(model.ring.gen("u2")) / elim.xtilde
    return acc - x2_term + elim.xtilde * elim.bc_x0(v)

