"""Numeric evaluation, Hamiltonian flow integration, and diagnostics.

Correctness of the flows is certified symbolically elsewhere; the numerics
demonstrate it.  The integrator is plain (non-symplectic) RK4 plus a
step-doubling adaptive variant: the boundary terms make the Hamiltonians
non-separable, so conservation is monitored through diagnostic channels
(Hamiltonian family drift, Casimir, zero-curvature residual) rather than
enforced.

Exact expressions are emitted as straight-line Python source by one
emitter (``_emit``) and compiled once per model.  Its values are bitwise
those of the plain one-term-per-monomial form ``c*s0**e0*s1*...`` summed
left to right, because it only drops work that is exact under IEEE
round-to-nearest: ``1.0*x == x``, ``(-1.0*a)*b == -(a*b)`` and
``s + (-t) == s - t``.  So it writes no ``1.0*``, subtracts a negative
term, and binds each ``slot**k``, each product prefix shared by ±1 terms
and each distinct denominator (with its singularity guard) once, just
before its first use.  The time derivative of a Lax entry is the bracket
with the Hamiltonian pushed through symbolically, never a finite difference,
so the residual channels isolate algebra errors from integration error.

The integrator runs one generated ``step(y, h)`` per model on a tuple of
Python floats: the four RK4 stages are inlined, each takes ``u_j =
exp(x_j)`` once, goes through the emitter with the scalar guard
``-eps < d < eps``, and has the parameters as literals.  A run whose state
leaves the finite floats is truncated at the first non-finite sample.  The
diagnostics evaluate each compiled channel once, on whole time columns
(``state_columns``), through the same emitter with the column guard
``np.any(np.abs(d) < eps)``, and agree with per-sample evaluation to
roundoff.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .double_row import zero_curvature_terms
from .phase_ring import Fraction, RingElement, StructureError
from .spectral_matrix import bracket_scalar_matrix, mu
from .toda_models import (
    ModelSpec,
    derived_eom,
    dn_x0_relation,
    expansion,
    hamiltonian,
    model_flow_matrix,
    sl2_casimir,
)

DEN_EPS = 1e-12
ADAPTIVE_TOL = 1e-10  # max step-doubling error of an accepted rk4-adaptive step
DEFAULT_MU_SAMPLES = (0.3, 0.7, 1.1, 1.9, 2.3)


class SingularityError(RuntimeError):
    """A denominator fell below threshold (for dn: F approaching e^{x1})."""


# ---------------------------------------------------------------------------
# compilation of exact expressions to float functions


def _terms(el: RingElement) -> list:
    """(factors, negative, |coefficient| as a float) of every monomial of
    ``el`` in emission order; the factors are (slot, exponent) pairs."""
    return [
        (tuple([(i, e) for i, e in enumerate(exps) if e]), f < 0, abs(f))
        for exps, c in sorted(el.monomials(), reverse=True)
        for f in (float(c),)
    ]


def _emit(exprs, slots, targets, guard: str) -> list:
    """Straight-line source lines that set ``targets[i]`` to ``exprs[i]``.

    ``exprs`` are RingElements or Fractions, ``slots[i]`` is the text of
    ring slot i and ``guard % d`` the condition under which a denominator
    ``d`` is singular.  The value of every line is bitwise that of the
    plain form, one ``c*s0**e0*s1*...`` term per monomial summed left to
    right: what changes is exact under IEEE round-to-nearest.  A ``1.0*``
    is dropped (``1.0*x == x``), a negative term is subtracted
    (``(-c*a)*b == -((c*a)*b)`` and ``s + (-t) == s - t``) or negated when
    it leads, and each ``slot**k``, each product prefix shared by two ±1
    terms and each distinct denominator (with its guard) is bound once,
    just before its first use, so no operation moves ahead of a guard or
    an earlier line.
    """
    exprs = [  # (target, numerator terms, ("den", *denominator terms) or None)
        (t, _terms(e.num), ("den", *_terms(e.den)))
        if isinstance(e, Fraction) and e.den_factors
        else (t, _terms(e.num if isinstance(e, Fraction) else e), None)
        for t, e in zip(targets, exprs)
    ]
    dens = {den for *_, den in exprs if den}  # each distinct one once
    uses = Counter(
        fs[:n]
        for terms in [num for _, num, _ in exprs] + [den[1:] for den in dens]
        for fs, _, c in terms if c == 1.0
        for n in range(2, len(fs) + 1)
    )
    names: dict = {}  # power, prefix or denominator key -> bound name
    lines: list = []

    def bind(key, text, prefix="t"):
        if key not in names:
            names[key] = "%s%d" % (prefix, len(names))
            lines.append("%s = %s" % (names[key], text))
        return names[key]

    def term(fs, c) -> str:
        texts = [slots[i] if e == 1 else bind((i, e), "%s**%d" % (slots[i], e))
                 for i, e in fs]
        if c != 1.0:
            return "*".join([repr(c)] + texts)
        text = texts[0] if texts else "1.0"
        for n in range(2, len(fs) + 1):
            text += "*" + texts[n - 1]
            # shared, and not only as the prefix of one longer shared prefix
            if 1 < uses[fs[:n]] > (uses[fs[:n + 1]] if n < len(fs) else 0):
                text = bind(fs[:n], text)
        return text

    def poly(terms) -> str:
        out = "".join((" - " if neg else " + ") + term(fs, c) for fs, neg, c in terms)
        return ("-" if out[1] == "-" else "") + out[3:] if out else "0.0"

    for target, num, den in exprs:
        if den is None:
            lines.append("%s = %s" % (target, poly(num)))
            continue
        if den not in names:  # the "den" tag keeps it apart from other keys
            d = bind(den, poly(den[1:]), "d")
            lines.append("if %s:" % (guard % d))
            lines.append("    raise SingularityError('denominator below threshold')")
        lines.append("%s = (%s)/%s" % (target, poly(num), names[den]))
    return lines


def _compile_columns(value) -> Callable:
    """``_f(v)`` for one expression over the ring value vector ``v``, whose
    entries may be floats or numpy columns; the denominator guard tests a
    whole column."""
    slots = ["v[%d]" % i for i in range(value.ring.nvars)]
    guard = "np.any(np.abs(%%s) < %g)" % DEN_EPS
    body = _emit([value], slots, ["r"], guard) + ["return r"]
    ns = {"SingularityError": SingularityError, "np": np}
    exec("def _f(v):\n%s" % "".join("    %s\n" % line for line in body), ns)
    return ns["_f"]


def compile_element(el: RingElement):
    return _compile_columns(el)


def compile_fraction(fr: Fraction):
    if not fr.den_factors:
        return compile_element(fr.num)
    return _compile_columns(fr)


def compile_any(value):
    if isinstance(value, Fraction):
        return compile_fraction(value)
    return compile_element(value)


# ---------------------------------------------------------------------------
# phase points


def state_names(model: ModelSpec):
    names = ["x%d" % j for j in range(1, model.N + 1)]
    names += ["X%d" % j for j in range(1, model.N + 1)]
    if model.name == "dn":
        names += ["E", "F", "H"]
    return names


def _value_vector(model: ModelSpec, coords, exp, mu_value: float) -> list:
    """Ring value vector from state coordinates in ``state_names`` order;
    x_j enters as u_j = exp(x_j), parameters and mu as floats."""
    ring = model.ring
    v = [0.0] * ring.nvars
    for name, val in zip(state_names(model), coords):
        if name[0] == "x":
            v[ring.slot("u" + name[1:])] = exp(val)
        else:
            v[ring.slot(name)] = val
    for name, val in model.params.items():
        v[ring.slot(name)] = float(val)
    v[ring.slot("mu")] = mu_value
    return v


def ring_values(model: ModelSpec, point: dict, mu_value: float = 0.0) -> list:
    """Full ring-variable value vector for compiled expressions."""
    coords = [point[name] for name in state_names(model)]
    return _value_vector(model, coords, math.exp, mu_value)


def state_columns(model: ModelSpec, states: np.ndarray, mu_value: float = 0.0) -> list:
    """Ring value vector over a whole trajectory: one (n_t,) float64 column
    per u_j, X_j (and dn's E, F, H); parameters and mu stay scalars."""
    coords = np.ascontiguousarray(states.T)
    return _value_vector(model, coords, np.exp, mu_value)


def random_phase_point(
    model: ModelSpec, rng: np.random.Generator, amplitude: float = 1.0
) -> dict:
    """Uniform x, X in [-amplitude, amplitude]; for dn the sl(2) triple sits
    on the level set F - e^{x1} = c0/2 with the Casimir solved to c1/4."""
    point = {}
    for j in range(1, model.N + 1):
        point["x%d" % j] = float(rng.uniform(-amplitude, amplitude))
    for j in range(1, model.N + 1):
        point["X%d" % j] = float(rng.uniform(-amplitude, amplitude))
    if model.name == "dn":
        c0 = float(model.params["c0"])
        c1 = float(model.params["c1"])
        u1 = math.exp(point["x1"])
        f = u1 + c0 / 2.0
        if abs(f - u1) < DEN_EPS or abs(f) < DEN_EPS:
            raise StructureError("c0 puts the initial data on a singular level set")
        h = float(rng.uniform(-0.5, 0.5)) * amplitude
        point["H"] = h
        point["F"] = f
        point["E"] = (c1 / 4.0 - h * h) / f
    return point


# ---------------------------------------------------------------------------
# vector field and integration


@dataclass
class CompiledVectorField:
    """The equations of motion of a model, compiled from generated source.

    ``step(y, h)`` is one RK4 step and ``rhs(y)`` one evaluation of the
    right-hand side, both on a tuple of floats in ``state_names`` order.
    """

    model: ModelSpec
    names: list
    rhs: Callable
    step: Callable

    def __call__(self, y) -> np.ndarray:
        return np.array(self.rhs(tuple(map(float, y))))


def _stage_template(model: ModelSpec, eqs: list) -> str:
    """Indented source that sets ``{k}i`` to the i-th equation at the state
    ``{y[0]}, {y[1]}, ...``; ``str.format`` names the state and outputs.

    Every u_j = exp(x_j) is taken first; ``_emit`` writes the rest, with
    the scalar guard ``-eps < d < eps``.  The parameters enter as literals
    and any other slot (lam, mu) as 0.0."""
    ring, n = model.ring, model.N
    slots = ["0.0"] * ring.nvars
    lines = []
    for j in range(n):
        slots[ring.slot("u%d" % (j + 1))] = "u%d" % j
        lines.append("u%d = exp({y[%d]})" % (j, j))
    for i, name in enumerate(state_names(model)[n:], n):
        slots[ring.slot(name)] = "{y[%d]}" % i
    for name, val in model.params.items():
        slots[ring.slot(name)] = "(%r)" % float(val)
    targets = ["{k}%d" % i for i in range(len(eqs))]
    lines += _emit(eqs, slots, targets, "-%g < %%s < %g" % (DEN_EPS, DEN_EPS))
    return "".join("    %s\n" % line for line in lines)


def vector_field(model: ModelSpec) -> CompiledVectorField:
    """Compiled map state -> d/dT state, from {H, .} on every coordinate,
    and the RK4 step over it."""

    def build():
        names = state_names(model)
        eqs = dict(derived_eom(model).coordinates())
        stage = _stage_template(model, [eqs[name] for name in names])
        d = len(names)
        ys = ["y%d" % i for i in range(d)]
        zs = ["z%d" % i for i in range(d)]
        ks = [["k%d_%d" % (s, i) for i in range(d)] for s in range(4)]
        unpack = "    %s, = y\n" % ", ".join(ys)
        src = ["def rhs(y):\n", unpack, stage.format(y=ys, k="k0_"),
               "    return %s,\n\n" % ", ".join(ks[0])]
        src += ["def step(y, h):\n", unpack, "    h2 = 0.5 * h\n",
                "    h6 = h / 6.0\n", stage.format(y=ys, k="k0_")]
        # the stage sums keep the operation order of the numpy form
        # y + (0.5*h)*k and y + (h/6)*(((k1 + 2 k2) + 2 k3) + k4), so a step
        # is IEEE-identical to it (tests/integrator_oracle.py)
        for s, scale in ((1, "h2"), (2, "h2"), (3, "h")):
            src += ["    %s = %s + %s * %s\n" % (z, y, scale, k)
                    for z, y, k in zip(zs, ys, ks[s - 1])]
            src.append(stage.format(y=zs, k="k%d_" % s))
        src.append("    return %s,\n" % ", ".join(
            "%s + h6 * (((%s + 2.0 * %s) + 2.0 * %s) + %s)" % (y, *k)
            for y, k in zip(ys, zip(*ks))))
        ns = {"exp": math.exp, "SingularityError": SingularityError,
              "inf": math.inf, "nan": math.nan}
        exec("".join(src), ns)
        return CompiledVectorField(model, names, ns["rhs"], ns["step"])

    return model.cached("vector_field", build)


@dataclass
class Trajectory:
    """Time series of a phase point with diagnostic channels.

    ``channels`` holds per-sample series; the step counts and the dn
    closest approach to F = e^{x1} are single numbers kept beside them.
    """

    model_name: str
    state_names: list
    times: np.ndarray
    states: np.ndarray
    channels: dict = field(default_factory=dict)
    truncated: bool = False
    error: str | None = None
    steps_accepted: int = 0
    steps_rejected: int = 0
    min_abs_f_minus_ex1: float | None = None


def integrate(
    model: ModelSpec,
    p0: dict,
    dt: float,
    steps: int,
    scheme: str = "rk4",
    store_every: int = 1,
) -> Trajectory:
    """Integrate the double-row flow from p0; deterministic given inputs.

    ``rk4-adaptive`` accepts a step when the step-doubling error is at most
    ADAPTIVE_TOL.  A singular denominator (dn: F -> e^{x1}) truncates the
    trajectory and sets the error flag instead of raising.  So does
    ``rk4-adaptive`` when it has accepted 100 * steps steps short of
    t_end = dt * steps, and so does a state that is not finite: the
    trajectory then ends before the first non-finite sample, and
    ``steps_accepted`` counts the steps up to the last sample kept.
    """
    if not 0 < dt < math.inf:
        raise StructureError("dt must be positive and finite")
    if steps < 1 or store_every < 1:
        raise StructureError("steps and store_every must be at least 1")
    if scheme not in ("rk4", "rk4-adaptive"):
        raise StructureError("unknown scheme %r" % scheme)
    step = vector_field(model).step
    names = state_names(model)
    y = tuple(float(p0[n]) for n in names)
    if not all(map(math.isfinite, y)):
        raise StructureError("initial state is not finite")
    times = [0.0]
    states = array("d", y)  # flat, row after row: no float object kept per value
    truncated = False
    error = None
    accepted = rejected = 0
    try:
        if scheme == "rk4":
            for i in range(1, steps + 1):
                y = step(y, dt)
                accepted = i
                if i % store_every == 0 or i == steps:
                    times.append(i * dt)
                    states.extend(y)
        else:
            t = 0.0
            t_end = dt * steps
            h = dt
            while t < t_end - 1e-15 and accepted < 100 * steps:
                h = min(h, t_end - t)
                full = step(y, h)
                half = step(step(y, h / 2.0), h / 2.0)
                # np.max, unlike max(), propagates a NaN difference
                err = float(np.max(np.abs(np.subtract(full, half))))
                if err <= ADAPTIVE_TOL or h < 1e-12:
                    y = half
                    t += h
                    accepted += 1
                    if accepted % store_every == 0 or t >= t_end - 1e-15:
                        times.append(t)
                        states.extend(y)
                else:
                    rejected += 1
                factor = 0.9 * (ADAPTIVE_TOL / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
            if t < t_end - 1e-15:
                truncated = True
                error = (
                    "rk4-adaptive stopped at its cap of %d accepted steps "
                    "(100 * steps) at t = %.6g of %.6g" % (100 * steps, t, t_end)
                )
    except SingularityError as exc:
        truncated = True
        error = str(exc)
    except (OverflowError, ZeroDivisionError):
        truncated = True
        error = "coordinate overflow (trajectory left the representable range)"
    times = np.array(times)
    states = np.array(states).reshape(len(times), len(names))
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        truncated = True
        error = "non-finite state at t = %.6g" % times[k]
        times, states = times[:k], states[:k]
        accepted = (k - 1) * store_every
    return Trajectory(
        model.name,
        names,
        times,
        states,
        {},
        truncated,
        error,
        accepted,
        rejected,
    )


# ---------------------------------------------------------------------------
# diagnostic channels


def _relative_drift(values: np.ndarray) -> np.ndarray:
    v0 = values[0]
    return np.abs(values - v0) / max(1.0, abs(v0))


def _compiled(model: ModelSpec, key, build_expr):
    """Column evaluator of ``build_expr()``, compiled once per model."""
    return model.cached(key, lambda: compile_any(build_expr()))


def conserved_channels(model: ModelSpec, traj: Trajectory) -> dict:
    """Relative drift of every extracted Hamiltonian coefficient, the
    Hamiltonian itself, and (dn) the Casimir and F - e^{x1}.

    For dn, also records the closest approach to the singular manifold,
    min |F - e^{x1}|, as ``traj.min_abs_f_minus_ex1``; it is evaluated
    before any channel with that denominator can abort.
    """
    v = state_columns(model, traj.states)
    channels = {}
    if model.name == "dn":
        ring = model.ring
        fshift = _compiled(
            model, "compiled_fshift", lambda: ring.gen("F") - ring.gen("u1")
        )(v)
        traj.min_abs_f_minus_ex1 = float(np.min(np.abs(fshift)))
        cas_fn = _compiled(model, "compiled_casimir", lambda: sl2_casimir(model))
        channels["casimir_drift"] = _relative_drift(cas_fn(v))
        channels["f_minus_ex1_drift"] = _relative_drift(fshift)
    ham_fn = _compiled(model, "compiled_hamiltonian", lambda: hamiltonian(model))
    channels["H_drift"] = _relative_drift(ham_fn(v))
    exp = expansion(model)
    for p in exp.powers():
        c = exp.coefficient(p)
        if c.num.is_parameter_constant():
            continue
        fn = _compiled(model, ("compiled_coeff", p), lambda c=c: c)
        channels["H%d_drift" % p] = _relative_drift(fn(v))
    traj.channels.update(channels)
    return channels


def _compiled_matrix(model: ModelSpec, key, build_matrix):
    """Compiled entries of ``build_matrix()``, once per model; an identically
    zero entry is stored as None and never compiled."""
    def build():
        m = build_matrix()
        return [
            [None if e.is_zero else compile_any(e) for e in row] for row in m.rows
        ]

    return model.cached(key, build)


def _stack(compiled, v: list, n_t: int) -> np.ndarray:
    """(n_t, d, d) stack of a compiled d x d matrix over the columns ``v``;
    a parameter-constant entry broadcasts along the time axis, and a None
    entry stays zero."""
    d = len(compiled)
    out = np.zeros((n_t, d, d))
    for a, row in enumerate(compiled):
        for b, f in enumerate(row):
            if f is not None:
                out[:, a, b] = f(v)
    return out


def _frobenius(r: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a residual past the float range reads inf
        return np.sqrt(np.sum(r * r, axis=(1, 2)))


def zero_curvature_residual(
    model: ModelSpec, traj: Trajectory, mu_samples=DEFAULT_MU_SAMPLES
) -> dict:
    """Max Frobenius-norm residual of the zero-curvature equation per sample.

    For every term of ``double_row.zero_curvature_terms``,
    R = d/dT X(mu) - (M(jl, ±mu) X(mu) - X(mu) M(jr, ±mu)), with d/dT = {H, .}
    pushed through the entries symbolically.  X and d/dT X are compiled once
    per term, and the compiled M(j, mu) is evaluated at ±mu.  Every matrix is
    an (n_t, 2, 2) stack; the worst site term per sample is ``zc_residual``,
    the worse of the k- and k+ terms ``boundary_residual``.
    """
    ps, m_ = model.ps, mu(model.ring)
    ham = hamiltonian(model)
    terms = [
        (
            _compiled_matrix(model, ("cX", label), lambda X=X: X(m_)),
            _compiled_matrix(
                model, ("cXdot", label),
                lambda X=X: bracket_scalar_matrix(ps, ham, X(m_)),
            ),
            left,
            right,
        )
        for label, X, left, right in zero_curvature_terms(model.derivation)
    ]
    flows = {  # (j, ±1) -> the compiled M(j, mu), evaluated at ±mu
        (j, s): _compiled_matrix(model, ("cM", j), lambda j=j: model_flow_matrix(model, j))
        for *_, left, right in terms for j, s in (left, right)
    }

    n_t = len(traj.times)
    peaks = [np.zeros(n_t), np.zeros(n_t)]  # site terms, k± terms
    for mu_v in mu_samples:
        v = {s: state_columns(model, traj.states, s * mu_v) for s in (1, -1)}
        ms = {(j, s): _stack(c, v[s], n_t) for (j, s), c in flows.items()}
        for i, (x_c, dot_c, left, right) in enumerate(terms):
            x = _stack(x_c, v[1], n_t)
            r = _stack(dot_c, v[1], n_t) - (ms[left] @ x - x @ ms[right])
            k = int(i >= model.N)
            peaks[k] = np.maximum(peaks[k], _frobenius(r))
    channels = {"zc_residual": peaks[0], "boundary_residual": peaks[1]}
    traj.channels.update(channels)
    return channels


def dn_x0_relation_residual(model: ModelSpec, traj: Trajectory) -> np.ndarray:
    """|xtdd_1 - (e^{x2 - xt1} - e^{xt1 - x0})| along a dn trajectory.

    Both sides are evaluated through the exact flow (the second derivative
    is the bracket applied twice), with c0, c1 read from the configured
    parameters; the initial data must sit on the corresponding level sets.
    """
    if model.name != "dn":
        raise StructureError("x0 relation is a dn diagnostic")
    fn = _compiled(model, "compiled_x0_residual", lambda: dn_x0_relation(model))
    residual = np.abs(fn(state_columns(model, traj.states)))
    traj.channels["x0_relation_residual"] = residual
    return residual


def convergence_order(model: ModelSpec, p0: dict, dts, t_end: float) -> float:
    """Measured RK4 order from Hamiltonian drift at a sequence of steps."""
    ham_fn = _compiled(model, "compiled_hamiltonian", lambda: hamiltonian(model))
    drifts = []
    for dt in dts:
        steps = int(round(t_end / dt))
        traj = integrate(model, p0, dt, steps)
        vals = ham_fn(state_columns(model, traj.states))
        drifts.append(float(np.max(np.abs(vals - vals[0]))))
    orders = [
        math.log(drifts[i] / drifts[i + 1])
        / math.log(dts[i] / dts[i + 1])
        for i in range(len(dts) - 1)
    ]
    return sum(orders) / len(orders)


# ---------------------------------------------------------------------------
# export


def _csv_label(name: str) -> str:
    if name[0] in "xX" and name[1:].isdigit():
        return "%s_%s" % (name[0], name[1:])
    return name


def csv_rows(model: ModelSpec, traj: Trajectory):
    names = [_csv_label(n) for n in traj.state_names]
    channels = ["H_drift", "casimir_drift", "zc_residual"]
    yield ",".join(["t"] + names + channels)
    n_t = len(traj.times)
    columns = [traj.times, traj.states]
    columns += [traj.channels.get(name, np.zeros(n_t)) for name in channels]
    for row in np.column_stack(columns):
        yield ",".join(map(repr, row.tolist()))


def write_csv(model: ModelSpec, traj: Trajectory, path: str):
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in csv_rows(model, traj))


def write_svg(traj: Trajectory, path: str):
    """Minimal line plot of diagnostic channels (one polyline each)."""
    names = sorted(traj.channels)
    width, height = 800, 400
    t = traj.times
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    margin = 40.0
    t_span = max(float(t[-1] - t[0]), 1e-300)
    for idx, name in enumerate(names):
        y = np.asarray(traj.channels[name], dtype=float)
        y_max = max(float(np.max(np.abs(y))), 1e-300)
        pts = []
        for i in range(len(t)):
            px = margin + (width - 2 * margin) * float(t[i] - t[0]) / t_span
            py = height - margin - (height - 2 * margin) * abs(float(y[i])) / y_max
            pts.append("%.2f,%.2f" % (px, py))
        color = palette[idx % len(palette)]
        lines.append(
            '<polyline fill="none" stroke="%s" stroke-width="1" points="%s"/>'
            % (color, " ".join(pts))
        )
        lines.append(
            '<text x="%d" y="%d" fill="%s" font-size="12">%s (max %.3e)</text>'
            % (int(margin), int(margin) + 14 * idx, color, name, y_max)
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
