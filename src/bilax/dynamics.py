"""Numeric evaluation, Hamiltonian flow integration, and diagnostics.

Correctness of the flows is certified symbolically elsewhere; the numerics
demonstrate it.  The integrator is plain (non-symplectic) RK4 plus a
step-doubling adaptive variant: the boundary terms make the Hamiltonians
non-separable, so conservation is monitored through diagnostic channels
(Hamiltonian family drift, Casimir, zero-curvature residual) rather than
enforced.

Symbolic expressions are compiled once into per-monomial Python functions;
the time derivative of a Lax entry is the bracket with the Hamiltonian
pushed through symbolically, never a finite difference, so the residual
channels isolate algebra errors from integration error.  The integrator
evaluates its compiled right-hand side on one float vector per stage; the
diagnostics evaluate each compiled channel once, on whole time columns
(``state_columns``), and agree with per-sample evaluation to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phase_ring import Fraction, RingElement, StructureError, as_fraction
from .spectral_matrix import bracket_scalar_matrix, mu
from .toda_models import (
    ModelSpec,
    derived_eom,
    dn_x0_relation,
    expansion,
    hamiltonian,
    model_flow_matrix,
    closed_form_eom,
    sl2_casimir,
)

DEN_EPS = 1e-12
DEFAULT_MU_SAMPLES = (0.3, 0.7, 1.1, 1.9, 2.3)


class SingularityError(RuntimeError):
    """A denominator fell below threshold (for dn: F approaching e^{x1})."""


# ---------------------------------------------------------------------------
# compilation of exact expressions to float functions


def _poly_source(el: RingElement) -> str:
    if not el.terms:
        return "0.0"
    parts = []
    for exps, c in sorted(el.monomials(), reverse=True):
        factors = [repr(float(c))]
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("v[%d]" % i)
            elif e:
                factors.append("v[%d]**%d" % (i, e))
        parts.append("*".join(factors))
    return " + ".join(parts)


def compile_element(el: RingElement):
    src = "def _f(v):\n    return %s\n" % _poly_source(el)
    ns: dict = {}
    exec(src, ns)
    return ns["_f"]


def compile_fraction(fr: Fraction, columns: bool = False):
    """Float function of the ring value vector ``v``.

    With ``columns`` the entries of ``v`` may be numpy columns and the
    denominator guard tests the whole column at once; otherwise ``v`` holds
    floats and the guard is a chained scalar comparison (the RK4 path).
    """
    if not fr.den_factors:
        return compile_element(fr.num)
    if columns:
        guard = "np.any(np.abs(d) < %g)" % DEN_EPS
    else:
        guard = "-%g < d < %g" % (DEN_EPS, DEN_EPS)
    src = (
        "def _f(v):\n"
        "    d = %s\n"
        "    if %s:\n"
        "        raise SingularityError('denominator below threshold')\n"
        "    return (%s)/d\n"
        % (_poly_source(fr.den), guard, _poly_source(fr.num))
    )
    ns = {"SingularityError": SingularityError, "np": np}
    exec(src, ns)
    return ns["_f"]


def compile_any(value, columns: bool = False):
    if isinstance(value, Fraction):
        return compile_fraction(value, columns)
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


def evaluate(expr, point: dict, model: ModelSpec | None = None) -> float:
    """Evaluate a ring expression or fraction at a phase point.

    The point maps coordinates (x_j, X_j, E, F, H) to floats; u_j = e^{x_j}
    is derived.  Denominators below 1e-12 raise SingularityError.
    """
    if model is not None:
        v = ring_values(model, point)
        values = {n: v[i] for i, n in enumerate(model.ring.names)}
    else:
        values = {k: float(val) for k, val in point.items()}
        for name in list(values):
            if name.startswith("x") and name[1:].isdigit():
                values.setdefault("u" + name[1:], math.exp(values[name]))
        for s in ("lam", "mu", "nu"):
            values.setdefault(s, 0.0)
    fr = expr if isinstance(expr, Fraction) else as_fraction(expr.ring, expr)
    d = fr.den.evaluate(values)
    if abs(d) < DEN_EPS:
        raise SingularityError("denominator below threshold at phase point")
    return fr.num.evaluate(values) / d


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
    model: ModelSpec
    names: list
    funcs: list

    def __call__(self, y: np.ndarray) -> np.ndarray:
        v = self._values(y)
        return np.array([f(v) for f in self.funcs])

    def _values(self, y: np.ndarray) -> list:
        model = self.model
        ring = model.ring
        v = self._template
        n = model.N
        for j in range(n):
            v[self._u_slots[j]] = math.exp(y[j])
            v[self._x_slots[j]] = y[n + j]
        if model.name == "dn":
            v[self._sl2_slots[0]] = y[2 * n]
            v[self._sl2_slots[1]] = y[2 * n + 1]
            v[self._sl2_slots[2]] = y[2 * n + 2]
        return v

    def __post_init__(self):
        ring = self.model.ring
        n = self.model.N
        self._template = [0.0] * ring.nvars
        for name, val in self.model.params.items():
            self._template[ring.slot(name)] = float(val)
        self._u_slots = [ring.slot("u%d" % j) for j in range(1, n + 1)]
        self._x_slots = [ring.slot("X%d" % j) for j in range(1, n + 1)]
        self._sl2_slots = (
            [ring.slot(s) for s in ("E", "F", "H")]
            if self.model.name == "dn"
            else []
        )


def vector_field(model: ModelSpec, source: str = "bracket") -> CompiledVectorField:
    """Compiled map state -> d/dT state.

    ``source`` selects the symbolic origin of the equations: "bracket"
    ({H, .} on every coordinate) or "closed-form" (the displayed closed forms,
    available for bcn only; they agree exactly, which the tests assert).
    """

    def build():
        if source == "bracket":
            eom = derived_eom(model)
        elif source == "closed-form":
            eom = closed_form_eom(model)
            if model.name != "bcn":
                raise StructureError(
                    "closed-form source covers every coordinate only for bcn"
                )
        else:
            raise StructureError("unknown vector field source %r" % source)
        names = state_names(model)
        funcs = []
        for j in range(1, model.N + 1):
            funcs.append(compile_any(eom.xdot[j]))
        for j in range(1, model.N + 1):
            funcs.append(compile_any(eom.momentum_dot[j]))
        if model.name == "dn":
            for s in ("E", "F", "H"):
                funcs.append(compile_any(eom.sl2_dot[s]))
        return CompiledVectorField(model, names, funcs)

    return model.cached(("vector_field", source), build)


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


def _rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    model: ModelSpec,
    p0: dict,
    dt: float,
    steps: int,
    scheme: str = "rk4",
    tol: float = 1e-10,
    store_every: int = 1,
    source: str = "bracket",
) -> Trajectory:
    """Integrate the double-row flow from p0; deterministic given inputs.

    A singular denominator (dn: F -> e^{x1}) truncates the trajectory and
    sets the error flag instead of raising.
    """
    if dt <= 0:
        raise StructureError("dt must be positive")
    if scheme not in ("rk4", "rk4-adaptive"):
        raise StructureError("unknown scheme %r" % scheme)
    f = vector_field(model, source)
    names = state_names(model)
    y = np.array([p0[n] for n in names], dtype=float)
    times = [0.0]
    states = [y.copy()]
    truncated = False
    error = None
    accepted = rejected = 0
    try:
        if scheme == "rk4":
            t = 0.0
            for i in range(1, steps + 1):
                y = _rk4_step(f, y, dt)
                accepted = i
                t = i * dt
                if i % store_every == 0 or i == steps:
                    times.append(t)
                    states.append(y.copy())
        else:
            t = 0.0
            t_end = dt * steps
            h = dt
            while t < t_end - 1e-15 and accepted < 100 * steps:
                h = min(h, t_end - t)
                full = _rk4_step(f, y, h)
                half = _rk4_step(f, _rk4_step(f, y, h / 2.0), h / 2.0)
                err = float(np.max(np.abs(full - half)))
                if err <= tol or h < 1e-12:
                    y = half
                    t += h
                    accepted += 1
                    if accepted % store_every == 0 or t >= t_end - 1e-15:
                        times.append(t)
                        states.append(y.copy())
                else:
                    rejected += 1
                factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
    except SingularityError as exc:
        truncated = True
        error = str(exc)
    except (OverflowError, ZeroDivisionError):
        truncated = True
        error = "coordinate overflow (trajectory left the representable range)"
    return Trajectory(
        model.name,
        names,
        np.array(times),
        np.array(states),
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
    return model.cached(key, lambda: compile_any(build_expr(), columns=True))


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
    def build():
        m = build_matrix()
        return [[compile_any(e, columns=True) for e in row] for row in m.rows]

    return model.cached(key, build)


def _stack(compiled, v: list, n_t: int) -> np.ndarray:
    """(n_t, d, d) stack of a compiled d x d matrix over the columns ``v``;
    a parameter-constant entry broadcasts along the time axis."""
    d = len(compiled)
    out = np.empty((n_t, d, d))
    for a, row in enumerate(compiled):
        for b, f in enumerate(row):
            out[:, a, b] = f(v)
    return out


def _frobenius(r: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(r * r, axis=(1, 2)))


def zero_curvature_residual(
    model: ModelSpec, traj: Trajectory, mu_samples=DEFAULT_MU_SAMPLES
) -> dict:
    """Max Frobenius-norm residual of the zero-curvature equation per sample.

    R(j, mu) = d/dT l(j,mu) - (M(j+1,mu) l(j,mu) - l(j,mu) M(j,mu)), with
    d/dT pushed through the entries symbolically.  Also evaluates the
    boundary flow residuals for k^- and k^+.  Every matrix is evaluated as
    an (n_t, 2, 2) stack and the worst value over j and mu is kept per
    sample.
    """
    ring, ps = model.ring, model.ps
    m_ = mu(ring)
    ham = hamiltonian(model)
    flows = [
        _compiled_matrix(
            model, ("cM", j), lambda j=j: model_flow_matrix(model, j)
        )
        for j in range(1, model.N + 2)
    ]
    lax_val = [
        _compiled_matrix(model, ("clax", j), lambda j=j: model.lax(j, m_))
        for j in range(1, model.N + 1)
    ]
    lax_dot = [
        _compiled_matrix(
            model,
            ("claxdot", j),
            lambda j=j: bracket_scalar_matrix(ps, ham, model.lax(j, m_)),
        )
        for j in range(1, model.N + 1)
    ]
    km_val = _compiled_matrix(model, "ckm", lambda: model.km(m_))
    km_dot = _compiled_matrix(
        model, "ckmdot", lambda: bracket_scalar_matrix(ps, ham, model.km(m_))
    )
    kp_val = _compiled_matrix(model, "ckp", lambda: model.kp(m_))
    kp_dot = _compiled_matrix(
        model, "ckpdot", lambda: bracket_scalar_matrix(ps, ham, model.kp(m_))
    )

    n_t = len(traj.times)
    bulk = np.zeros(n_t)
    boundary = np.zeros(n_t)
    for mu_v in mu_samples:
        v = state_columns(model, traj.states, mu_v)
        vneg = state_columns(model, traj.states, -mu_v)
        ms = [_stack(c, v, n_t) for c in flows]
        ms_neg1 = _stack(flows[0], vneg, n_t)
        ms_negN = _stack(flows[model.N], vneg, n_t)
        for j in range(model.N):
            lj = _stack(lax_val[j], v, n_t)
            r = _stack(lax_dot[j], v, n_t) - (ms[j + 1] @ lj - lj @ ms[j])
            bulk = np.maximum(bulk, _frobenius(r))
        km_m = _stack(km_val, v, n_t)
        rb = _stack(km_dot, v, n_t) - (ms[0] @ km_m - km_m @ ms_neg1)
        boundary = np.maximum(boundary, _frobenius(rb))
        kp_m = _stack(kp_val, v, n_t)
        rb = _stack(kp_dot, v, n_t) - (ms_negN @ kp_m - kp_m @ ms[model.N])
        boundary = np.maximum(boundary, _frobenius(rb))
    channels = {"zc_residual": bulk, "boundary_residual": boundary}
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
    header = ["t"] + names + ["H_drift", "casimir_drift", "zc_residual"]
    yield ",".join(header)
    n_t = len(traj.times)
    h_drift = traj.channels.get("H_drift", np.zeros(n_t))
    cas = traj.channels.get("casimir_drift", np.zeros(n_t))
    zc = traj.channels.get("zc_residual", np.zeros(n_t))
    for i in range(n_t):
        row = [repr(float(traj.times[i]))]
        row += [repr(float(x)) for x in traj.states[i]]
        row += [repr(float(h_drift[i])), repr(float(cas[i])), repr(float(zc[i]))]
        yield ",".join(row)


def write_csv(model: ModelSpec, traj: Trajectory, path: str):
    with open(path, "w") as fh:
        for line in csv_rows(model, traj):
            fh.write(line + "\n")


def write_svg(traj: Trajectory, path: str, channels=None, width=800, height=400):
    """Minimal line plot of diagnostic channels (one polyline each)."""
    names = channels or sorted(traj.channels)
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
