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
diagnostics evaluate each compiled channel on whole time columns
(``state_columns``) with the column guard ``np.any(np.abs(d) < eps)``; the
zero-curvature residual runs each matrix once per block of time rows for
all mu samples, bitwise as one entry and one sample at a time.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .phase_ring import Fraction, RingElement, StructureError
from .spectral_matrix import bracket_scalar_matrix
from .toda_models import (
    DEFAULT_MU_SAMPLES,
    ModelSpec,
    casimir,
    derived_eom,
    dn_x0_relation,
    expansion,
    hamiltonian,
    model_flow_matrix,
    state_names,
)

DEN_EPS = 1e-12
ADAPTIVE_TOL = 1e-10  # max step-doubling error of an accepted rk4-adaptive step
ADAPTIVE_SLACK = 1e-15  # rk4-adaptive ends this close to t_end


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


def _emit(exprs, slots, targets, guard: str, powers=()) -> list:
    """Straight-line source lines that set ``targets[i]`` to ``exprs[i]``.

    ``exprs`` are RingElements or Fractions, ``slots[i]`` is the text of
    ring slot i (and ``powers[i] % k``, if given, that of its k-th power)
    and ``guard % d`` the condition under which a denominator ``d`` is
    singular.  The value of every line is bitwise that of the plain form,
    one ``c*s0**e0*s1*...`` term per monomial summed left to right: what
    changes is exact under IEEE round-to-nearest.  A ``1.0*`` is dropped
    (``1.0*x == x``), a negative term is subtracted
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
        texts = [slots[i] if e == 1 else bind((i, e), powers[i] % e if i in powers
                                                else "%s**%d" % (slots[i], e)) for i, e in fs]
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


def _compile_columns(ring, exprs, targets, args: str, tail: str, powers=()) -> Callable:
    """``_f(args)`` that sets ``targets[i]`` to ``exprs[i]`` over the ring
    value vector ``v``, whose entries may be floats or numpy arrays, then
    runs ``tail``; the denominator guard tests a whole array."""
    slots = ["v[%d]" % i for i in range(ring.nvars)]
    guard = "np.any(np.abs(%%s) < %g)" % DEN_EPS
    body = _emit(exprs, slots, targets, guard, powers) + [tail]
    ns = {"SingularityError": SingularityError, "np": np, "mu_power": _mu_power}
    exec("def _f(%s):\n%s" % (args, "".join("    %s\n" % line for line in body)), ns)
    return ns["_f"]


def compile_any(value):
    """Column evaluator of a RingElement or Fraction."""
    return _compile_columns(value.ring, [value], ["r"], "v", "return r")


# one body under the three names that perfbench/spans.py resolves
compile_element = compile_fraction = compile_any


# ---------------------------------------------------------------------------
# phase points


def _value_vector(model: ModelSpec, coords, exp, mu_value: float) -> list:
    """Ring value vector from the state in ``state_names`` order: coordinate
    i sets field slot i (through ``exp`` when Laurent); parameters and mu as
    floats."""
    ring = model.ring
    v = [0.0] * ring.nvars
    for i, val in zip(ring.field_slots, coords):
        v[i] = exp(val) if ring.laurent[i] else val
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
    if not 0 <= amplitude < math.inf:
        raise StructureError("amplitude must be finite and non-negative")
    point = {}
    for j in range(1, model.N + 1):
        point["x%d" % j] = float(rng.uniform(-amplitude, amplitude))
    for j in range(1, model.N + 1):
        point["X%d" % j] = float(rng.uniform(-amplitude, amplitude))
    if model.name == "dn":
        c0 = float(model.params["c0"])
        c1 = float(model.params["c1"])
        try:
            u1 = math.exp(point["x1"])
        except OverflowError:
            raise StructureError("amplitude puts e^x1 past the float range") from None
        f = u1 + c0 / 2.0
        if abs(f - u1) < DEN_EPS <= abs(c0 / 2.0):
            raise StructureError(
                "amplitude puts e^x1 = %.3g too far above c0/2 = %g: the level "
                "set F - e^x1 = c0/2 cannot be represented" % (u1, c0 / 2.0))
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

    rhs: Callable
    step: Callable

    def __call__(self, y) -> np.ndarray:
        return np.array(self.rhs(tuple(map(float, y))))


def _stage_template(model: ModelSpec, eqs: list) -> str:
    """Indented source that sets ``{k}i`` to the i-th equation at the state
    ``{y[0]}, {y[1]}, ...``; ``str.format`` names the state and outputs.

    Coordinate k sets field slot k, a Laurent one as ``u<k> = exp(y)`` taken
    first; ``_emit`` writes the rest, with the scalar guard ``-eps < d < eps``.
    The parameters enter as literals and any other slot (lam, mu) as 0.0."""
    ring = model.ring
    slots = ["0.0"] * ring.nvars
    lines = []
    for k, i in enumerate(ring.field_slots):
        if ring.laurent[i]:
            slots[i] = "u%d" % k
            lines.append("u%d = exp({y[%d]})" % (k, k))
        else:
            slots[i] = "{y[%d]}" % k
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
        eqs = derived_eom(model)
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
        return CompiledVectorField(ns["rhs"], ns["step"])

    return model.cached("vector_field", build)


@dataclass
class Trajectory:
    """Time series of a phase point with diagnostic channels.

    ``channels`` holds per-sample series; the step counts and the dn
    closest approach to F = e^{x1} are single numbers kept beside them.
    """

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
) -> Trajectory:
    """Integrate the double-row flow from p0; deterministic given inputs.

    ``rk4-adaptive`` accepts a step when the step-doubling error is at most
    ADAPTIVE_TOL or is NaN, so that a non-finite state ends the run as below.
    A singular denominator (dn: F -> e^{x1}) truncates the trajectory and
    sets the error flag instead of raising.  So does
    ``rk4-adaptive`` when it has accepted 100 * steps steps short of
    t_end = dt * steps, and so does a state that is not finite: the
    trajectory then ends before the first non-finite sample, and
    ``steps_accepted`` counts the steps up to the last sample kept.
    """
    if not 0 < dt < math.inf:
        raise StructureError("dt must be positive and finite")
    if steps < 1:
        raise StructureError("steps must be at least 1")
    if scheme not in ("rk4", "rk4-adaptive"):
        raise StructureError("unknown scheme %r" % scheme)
    if scheme == "rk4-adaptive" and not dt * steps > ADAPTIVE_SLACK:
        raise StructureError("rk4-adaptive needs dt * steps above %g" % ADAPTIVE_SLACK)
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
                times.append(i * dt)
                states.extend(y)
        else:
            t = 0.0
            t_end = dt * steps
            h = dt
            while t < t_end - ADAPTIVE_SLACK and accepted < 100 * steps:
                h = min(h, t_end - t)
                full = step(y, h)
                half = step(step(y, h / 2.0), h / 2.0)
                # np.max, unlike max(), propagates a NaN difference
                err = float(np.max(np.abs(np.subtract(full, half))))
                if not err > ADAPTIVE_TOL or h < 1e-12:
                    y = half
                    t += h
                    accepted += 1
                    times.append(t)
                    states.extend(y)
                else:
                    rejected += 1
                factor = 0.9 * (ADAPTIVE_TOL / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
            if t < t_end - ADAPTIVE_SLACK:
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
        accepted = k - 1
    return Trajectory(names, times, states, {}, truncated, error, accepted, rejected)


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
        cas_fn = _compiled(model, "compiled_casimir", lambda: casimir(model.ring))
        channels["casimir_drift"] = _relative_drift(cas_fn(v))
        channels["f_minus_ex1_drift"] = _relative_drift(fshift)
    ham_fn = _compiled(model, "compiled_hamiltonian", lambda: hamiltonian(model))
    channels["H_drift"] = _relative_drift(ham_fn(v))
    for p, c in expansion(model).items():
        if c.num.is_parameter_constant():
            continue
        fn = _compiled(model, ("compiled_coeff", p), lambda c=c: c)
        channels["H%d_drift" % p] = _relative_drift(fn(v))
    traj.channels.update(channels)
    return channels


def _compiled_matrix(model: ModelSpec, key, build_matrix):
    """``f(v, mus, out)``, compiled once per model: sets each nonzero entry
    (a, b) of ``build_matrix()`` in ``out[..., a, b]``, mu**k as
    ``_mu_power(mus, k)``, and returns ``out``."""
    def build():
        entries = {"out[..., %d, %d]" % (a, b): e for a, row in enumerate(build_matrix().rows)
                   for b, e in enumerate(row) if not e.is_zero}
        return _compile_columns(model.ring, list(entries.values()), list(entries), "v, mus, out",
                                "return out", {model.ring.slot("mu"): "mu_power(mus, %d)"})

    return model.cached(key, build)


def _mu_power(samples, k: int) -> np.ndarray:
    """The (len(samples), 1) column of mu**k, each a Python-float power,
    which numpy's ``x**k`` does not always round alike."""
    try:
        return np.array([m ** k for m in samples])[:, None]
    except OverflowError:
        raise StructureError("a mu sample overflows mu**%d" % k) from None


def _frobenius(r: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(r * r, axis=(-2, -1)))


def zero_curvature_residual(
    model: ModelSpec, traj: Trajectory, mu_samples=DEFAULT_MU_SAMPLES
) -> dict:
    """Max Frobenius-norm residual of the zero-curvature equation per sample.

    For every term of the derivation's ``layout``,
    R = d/dT X(mu) - (M(jl, ±mu) X(mu) - X(mu) M(jr, ±mu)), with d/dT = {H, .}
    pushed through the entries symbolically.  Each matrix is one compiled
    function, run once per block of ceil(n_t / k) time rows for all k mu
    samples as a (k, rows, 2, 2) stack (2k for M: +mu, then -mu), so each
    mu-free subexpression is computed once per row.  ``zc_residual`` is the
    worst site term per sample, ``boundary_residual`` the worse k± term.
    """
    if not mu_samples:
        raise StructureError("the zero-curvature residual needs a mu sample")
    ps, ham = model.ps, hamiltonian(model)
    terms = [(_compiled_matrix(model, ("cX", label), lambda X=X: X),
              _compiled_matrix(model, ("cXdot", label),
                               lambda X=X: bracket_scalar_matrix(ps, ham, X)),
              left, right)
             for label, X, left, right in model.derivation.layout]
    flows = {j: _compiled_matrix(model, ("cM", j), lambda j=j: model_flow_matrix(model, j))
             for *_, left, right in terms for j, _ in (left, right)}

    k, n_t, slot = len(mu_samples), len(traj.times), model.ring.slot("mu")
    plus = [float(m) for m in mu_samples]
    both = plus + [-m for m in plus]
    columns = state_columns(model, traj.states)
    peaks = [np.zeros(n_t), np.zeros(n_t)]  # site terms, k± terms
    size = -(-n_t // k) or 1
    # a product past the float range reads as an inf or nan peak, and the
    # gate reports it; numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_t, size):
            v = [c[lo:lo + size] if isinstance(c, np.ndarray) else c for c in columns]
            n, ms = min(size, n_t - lo), {}
            v[slot] = _mu_power(both, 1)
            for j, f in flows.items():  # the rows at +mu, then those at -mu
                ms[j, 1], ms[j, -1] = np.split(f(v, both, np.zeros((2 * k, n, 2, 2))), 2)
            v[slot] = _mu_power(plus, 1)
            for i, (x_f, dot_f, left, right) in enumerate(terms):
                x = x_f(v, plus, np.zeros((k, n, 2, 2)))
                r = dot_f(v, plus, np.zeros((k, n, 2, 2))) - (ms[left] @ x - x @ ms[right])
                peak = peaks[int(i >= model.N)][lo:lo + n]
                np.maximum(peak, np.max(_frobenius(r), axis=0), out=peak)
    channels = {"zc_residual": peaks[0], "boundary_residual": peaks[1]}
    traj.channels.update(channels)
    return channels


def dn_x0_relation_residual(model: ModelSpec, traj: Trajectory) -> np.ndarray:
    """|xtdd_1 - (e^{x2 - xt1} - e^{xt1 - x0})| along a dn trajectory.

    Both sides are evaluated through the exact flow (the second derivative
    is the bracket applied twice), with c0, c1 read from the configured
    parameters; the initial data must sit on the corresponding level sets.
    Any other model raises ``StructureError`` (``dn_boundary_elimination``).
    """
    fn = _compiled(model, "compiled_x0_residual", lambda: dn_x0_relation(model))
    residual = np.abs(fn(state_columns(model, traj.states)))
    traj.channels["x0_relation_residual"] = residual
    return residual


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
    """Minimal line plot of diagnostic channels, one polyline each over its
    finite samples, scaled to the largest; the legend prints the peak."""
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
        y = np.abs(np.asarray(traj.channels[name], dtype=float))
        peak = max(float(np.max(y)), 1e-300)  # inf or nan once a sample is
        finite = np.isfinite(y)
        y_max = max(float(np.max(y[finite], initial=0.0)), 1e-300)
        pts = ["%.2f,%.2f" % (margin + (width - 2 * margin) * float(t[i] - t[0]) / t_span,
                              height - margin - (height - 2 * margin) * float(y[i]) / y_max)
               for i in np.flatnonzero(finite)]
        color = palette[idx % len(palette)]
        lines.append(
            '<polyline fill="none" stroke="%s" stroke-width="1" points="%s"/>'
            % (color, " ".join(pts))
        )
        lines.append(
            '<text x="%d" y="%d" fill="%s" font-size="12">%s (max %.3e)</text>'
            % (int(margin), int(margin) + 14 * idx, color, name, peak)
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
