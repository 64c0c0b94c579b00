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

from dataclasses import dataclass, field
from typing import Callable

from .backend import QQ
from .double_row import (
    RatioRecipe,
    ScaledCoefficient,
    TransferExpansion,
    extract_hamiltonian,
    flow_matrix,
    transfer_expansion,
)
from .phase_ring import (
    Fraction,
    Generator,
    Kind,
    PhaseRing,
    PoissonStructure,
    RingElement,
    StructureError,
    as_fraction,
    casimir,
    exact_divide,
)
from .spectral_matrix import SpectralMatrix, identity, matrix, mu

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
    _cache: dict = field(default_factory=dict, repr=False)

    def cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


def toda_ring(N: int, dynamical: bool = False) -> PhaseRing:
    gens = [Generator("u%d" % j, Kind.COORD_EXP, j) for j in range(1, N + 1)]
    gens += [Generator("X%d" % j, Kind.MOMENTUM, j) for j in range(1, N + 1)]
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


def toda_lax(ring: PhaseRing):
    """Site Lax family l(j, s) = [[s + X_j, -u_j], [1/u_j, 0]]."""

    def lax(j: int, arg: RingElement) -> SpectralMatrix:
        uj = ring.gen("u%d" % j)
        xj = ring.gen("X%d" % j)
        return matrix(ring, [[arg + xj, -uj], [uj ** -1, ring.zero]])

    return lax


def build_bcn(N: int, params: dict | None = None) -> ModelSpec:
    """Constant-boundary open chain; most general constant k matrices."""
    if N < 1:
        raise StructureError("bcn needs N >= 1")
    ring = toda_ring(N, dynamical=False)
    ps = PoissonStructure.standard(ring)
    th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
    thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")

    def km(arg):
        return matrix(
            ring,
            [[th1 * arg + a1, arg], [-(b1 * arg), -(th1 * arg) + a1]],
        )

    def kp(arg):
        return matrix(
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
    ps = PoissonStructure.standard(ring)
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")

    def km(arg):
        return matrix(ring, [[arg * HALF - H, F], [E, arg * HALF + H]])

    def kp(arg):
        return matrix(ring, [[ring.zero, ring.zero], [-ring.one, ring.zero]])

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
    params = {k: float(v) for k, v in params.items()}
    return build_bcn(n, params) if name == "bcn" else build_dn(n, params)


# ---------------------------------------------------------------------------
# cached derived objects


def expansion(model: ModelSpec) -> TransferExpansion:
    return model.cached(
        "expansion",
        lambda: transfer_expansion(
            model.lax, model.km, model.kp, model.N, model.ring
        ),
    )


def hamiltonian(model: ModelSpec) -> Fraction:
    return model.cached(
        "hamiltonian", lambda: extract_hamiltonian(expansion(model), model.recipe)
    )


def model_flow_matrix(model: ModelSpec, j: int, negate_mu: bool = False) -> SpectralMatrix:
    """Extracted time-part matrix M(j, mu) (or M(j, -mu))."""

    def build():
        m_ = mu(model.ring)
        return flow_matrix(
            model.lax,
            model.km,
            model.kp,
            model.N,
            j,
            -m_ if negate_mu else m_,
            expansion(model),
            model.recipe,
        )

    return model.cached(("flow", j, negate_mu), build)


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
    e^{x_j - x_{j-1}}.
    """
    ring = model.ring
    m_ = mu(ring)
    if not 1 <= j <= model.N + 1:
        raise StructureError("site index %d out of range" % j)
    if model.name == "bcn":
        if j == 1:
            u1 = ring.gen("u1")
            th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
            return matrix(
                ring,
                [
                    [-(m_ * HALF) + th1 * u1, u1],
                    [m_ * th1 - a1 - b1 * u1, m_ * HALF - th1 * u1],
                ],
            )
        if j == model.N + 1:
            un = ring.gen("u%d" % model.N)
            thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")
            return matrix(
                ring,
                [
                    [-(m_ * HALF) + thn * un ** -1, -(m_ * thn) + an + bn * un ** -1],
                    [-(un ** -1), m_ * HALF - thn * un ** -1],
                ],
            )
        return matrix(
            ring,
            [
                [-(m_ * HALF), ring.gen("u%d" % j)],
                [-(ring.gen("u%d" % (j - 1)) ** -1), m_ * HALF],
            ],
        )
    # dn
    u1 = ring.gen("u1")
    E, F, H = ring.gen("E"), ring.gen("F"), ring.gen("H")
    if j == 1:
        x1 = ring.gen("X1")
        u2 = ring.gen("u2")
        pref = Fraction(ring.one, 2 * (u1 - F))
        tl = m_ * F + u1 * (2 * H - x1)
        tr = u1 * (u1 - 2 * F)
        inner = Fraction(
            u2 + x1 * x1 * u1 - 2 * H * u1 * x1 + E * u1 ** 2 - 2 * E * F * u1,
            F - u1,
        )
        bl = Fraction(m_ * m_ + 2 * m_ * H) + inner
        return matrix(
            ring,
            [
                [pref * as_fraction(ring, tl), pref * as_fraction(ring, tr)],
                [pref * bl, -(pref * as_fraction(ring, tl))],
            ],
        )
    if j == 2:
        u2 = ring.gen("u2")
        return matrix(
            ring,
            [
                [-(m_ * HALF), u2],
                [Fraction(u1 - 2 * F, 2 * u1 * (F - u1)), m_ * HALF],
            ],
        )
    if j == model.N + 1:
        un = ring.gen("u%d" % model.N)
        return matrix(
            ring,
            [[-(m_ * HALF), ring.zero], [-(un ** -1), m_ * HALF]],
        )
    return matrix(
        ring,
        [
            [-(m_ * HALF), ring.gen("u%d" % j)],
            [-(ring.gen("u%d" % (j - 1)) ** -1), m_ * HALF],
        ],
    )


def displayed_flow_indices(model: ModelSpec):
    """Indices j for which a closed-form M(j, mu) is displayed."""
    return list(range(1, model.N + 2))


# ---------------------------------------------------------------------------
# equations of motion


@dataclass
class EquationsOfMotion:
    """d/dT of each coordinate: x_j through u_j (xdot = udot/u), X_j, sl(2)."""

    xdot: dict
    momentum_dot: dict
    sl2_dot: dict

    def coordinates(self):
        for j, v in self.xdot.items():
            yield ("x%d" % j, v)
        for j, v in self.momentum_dot.items():
            yield ("X%d" % j, v)
        for name, v in self.sl2_dot.items():
            yield (name, v)


def derived_eom(model: ModelSpec) -> EquationsOfMotion:
    """Hamiltonian equations from the bracket: exact Fractions."""

    def build():
        ring, ps = model.ring, model.ps
        ham = hamiltonian(model)
        xdot = {}
        pdot = {}
        for j in range(1, model.N + 1):
            uj = ring.gen("u%d" % j)
            udot = ps.bracket_fraction(ham, Fraction(uj))
            xdot[j] = udot / Fraction(uj)
            pdot[j] = ps.bracket_fraction(ham, Fraction(ring.gen("X%d" % j)))
        sl2 = {}
        if model.name == "dn":
            for name in ("E", "F", "H"):
                sl2[name] = ps.bracket_fraction(
                    ham, Fraction(ring.gen(name))
                )
        return EquationsOfMotion(xdot, pdot, sl2)

    return model.cached("derived_eom", build)


def closed_form_eom(model: ModelSpec) -> EquationsOfMotion:
    """The displayed closed-form equations of motion.

    For bcn all coordinates are covered.  For dn only the sites the source
    displays in first-order form are included (x_j for j >= 2, bulk momenta,
    and the last momentum for N >= 3); the boundary site and the sl(2)
    triple evolve by genuinely rational expressions that are only written
    second-order after elimination.
    """
    ring = model.ring
    xdot: dict = {}
    pdot: dict = {}
    if model.name == "bcn":
        th1, a1, b1 = ring.gen("th1"), ring.gen("a1"), ring.gen("b1")
        thn, an, bn = ring.gen("thN"), ring.gen("aN"), ring.gen("bN")
        u1, un = ring.gen("u1"), ring.gen("u%d" % model.N)
        x1, xn = ring.gen("X1"), ring.gen("X%d" % model.N)
        for j in range(1, model.N + 1):
            xdot[j] = Fraction(ring.gen("X%d" % j))
        xdot[1] = xdot[1] + Fraction(th1 * u1)
        xdot[model.N] = xdot[model.N] + Fraction(thn * un ** -1)
        for j in range(2, model.N):
            up, uj, um = (
                ring.gen("u%d" % (j + 1)),
                ring.gen("u%d" % j),
                ring.gen("u%d" % (j - 1)),
            )
            pdot[j] = Fraction(up * uj ** -1 - uj * um ** -1)
        bminus = -(a1 * u1) - b1 * u1 ** 2 - th1 * x1 * u1
        bplus = an * un ** -1 + bn * un ** -2 + thn * xn * un ** -1
        if model.N == 1:
            pdot[1] = Fraction(bminus + bplus)
        else:
            u2 = ring.gen("u2")
            unm = ring.gen("u%d" % (model.N - 1))
            pdot[1] = Fraction(u2 * u1 ** -1 + bminus)
            pdot[model.N] = Fraction(-(un * unm ** -1) + bplus)
        return EquationsOfMotion(xdot, pdot, {})
    for j in range(2, model.N + 1):
        xdot[j] = Fraction(ring.gen("X%d" % j))
    for j in range(3, model.N):
        up, uj, um = (
            ring.gen("u%d" % (j + 1)),
            ring.gen("u%d" % j),
            ring.gen("u%d" % (j - 1)),
        )
        pdot[j] = Fraction(up * uj ** -1 - uj * um ** -1)
    if model.N >= 3:
        un, unm = ring.gen("u%d" % model.N), ring.gen("u%d" % (model.N - 1))
        pdot[model.N] = Fraction(-(un * unm ** -1))
    return EquationsOfMotion(xdot, pdot, {})


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


def hamiltonian_matches_display(model: ModelSpec) -> bool:
    return (
        parameter_constant_difference(
            hamiltonian(model), displayed_hamiltonian(model)
        )
        is not None
    )


# ---------------------------------------------------------------------------
# canonical change of variables (bcn) and the shifted-matrix convention


@dataclass
class CanonicalMap:
    """X_1 -> X_1 - th1*u_1, X_N -> X_N - thN/u_N (x_j fixed).

    This is the inverse image substitution: applying it to an expression
    rewrites it in the tilde variables Xt_1 = X_1 + th1*u_1,
    Xt_N = X_N + thN/u_N, which are canonical.
    """

    substitution: dict

    def apply(self, value):
        if isinstance(value, SpectralMatrix):
            return value.substitute(self.substitution)
        return as_fraction(value.ring, value).substitute(self.substitution)


def canonical_map_bcn(model: ModelSpec) -> CanonicalMap:
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
    return CanonicalMap(sub)


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
    return canonical_map_bcn(model).apply(model_flow_matrix(model, j) + shift)


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
    an exact identity (see bc_x0_as_printed and the test suite), so the
    tilde reading is the implemented one.
    """

    on_shell: dict
    xtilde: Fraction

    def bc_x0(self, v: Fraction) -> Fraction:
        ring = v.ring
        c0, c1 = ring.gen("c0"), ring.gen("c1")
        u2 = ring.gen("u2")
        c0sq = Fraction(c0 * c0)
        return Fraction(u2) / c0sq + (v * v - Fraction(c1)) * self.xtilde / (
            c0sq - self.xtilde * self.xtilde
        )

    def bc_x0_as_printed(self, v: Fraction) -> Fraction:
        """The literal reading with e^{x_1}; kept to document that it fails."""
        ring = v.ring
        c0, c1 = ring.gen("c0"), ring.gen("c1")
        u1, u2 = ring.gen("u1"), ring.gen("u2")
        c0sq = Fraction(c0 * c0)
        return Fraction(u2) / c0sq + (v * v - Fraction(c1)) * Fraction(u1) / (
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
    ring, ps = model.ring, model.ps
    u1, c0 = ring.gen("u1"), ring.gen("c0")
    ham = hamiltonian(model)
    xdot1 = ps.bracket_fraction(ham, Fraction(u1)) / Fraction(u1)
    return xdot1 * Fraction(c0, c0 + u1)


def dn_second_derivative(model: ModelSpec, value: Fraction) -> Fraction:
    """Apply the flow derivative {H, .} to an off-shell expression."""
    return model.ps.bracket_fraction(hamiltonian(model), value)


def dn_x0_relation(model: ModelSpec) -> Fraction:
    """Off-shell residual xtdd_1 - (e^{x2 - xt1} - e^{xt1 - x0}) of the
    second-order boundary relation, with x0 eliminated through bc_x0; it
    vanishes on the level sets fixed by c0 and c1."""
    elim = dn_boundary_elimination(model)
    v = dn_xtilde_velocity(model)
    acc = dn_second_derivative(model, v)
    x2_term = Fraction(model.ring.gen("u2")) / elim.xtilde
    return acc - x2_term + elim.xtilde * elim.bc_x0(v)


def sl2_casimir(model: ModelSpec) -> RingElement:
    return casimir(model.ps)
