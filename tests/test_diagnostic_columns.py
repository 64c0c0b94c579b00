"""Columnwise diagnostics against per-sample evaluation and against the
reference emitter.

The per-sample oracle is the path the diagnostics used before they were
evaluated on whole columns: the compiled function applied to the floats
of ``ring_values`` at one phase point at a time.  numpy's ``x**k`` and
``exp`` may differ from libm by an ulp, so agreement is required to
roundoff, measured against the absolute-value evaluation of the same
expression, not bitwise.

The emitter oracle (``emitter_oracle``) compiles the same expressions one
plain term per monomial; on the same columns the package's compiled
functions must give ``tobytes()``-equal results, or raise the same
``SingularityError``.  So must the zero-curvature residual, which evaluates
each matrix once per block of time rows for all mu samples, against the
per-entry, per-sample path (``zero_curvature_oracle``).
"""

import numpy as np
import pytest

from bilax.dynamics import (
    DEFAULT_MU_SAMPLES,
    SingularityError,
    Trajectory,
    compile_any,
    compile_element,
    integrate,
    random_phase_point,
    ring_values,
    state_columns,
    zero_curvature_residual,
)
from bilax.phase_ring import Fraction
from bilax.spectral_matrix import bracket_scalar_matrix, mu
from bilax.toda_models import (
    build_bcn,
    build_dn,
    casimir,
    dn_x0_relation,
    expansion,
    hamiltonian,
    model_flow_matrix,
)

import emitter_oracle
import zero_curvature_oracle

MU_SAMPLES = (0.3, 1.9)
ROUNDOFF = 1e-12


def _trajectory(model, seed):
    p0 = random_phase_point(model, np.random.default_rng(seed), amplitude=0.3)
    traj = integrate(model, p0, 1e-3, 400)
    assert not traj.truncated
    return traj


def _diagnostic_expressions(model):
    """Every expression a diagnostic channel compiles, by label."""
    ring, ps = model.ring, model.ps
    m_ = mu(ring)
    ham = hamiltonian(model)
    exprs = {"H": ham}
    for p, c in expansion(model).items():
        if not c.num.is_parameter_constant():
            exprs["H%d" % p] = c
    if model.name == "dn":
        exprs["casimir"] = casimir(ps.ring)
        exprs["F-u1"] = ring.gen("F") - ring.gen("u1")
        exprs["x0"] = dn_x0_relation(model)
    matrices = {"M%d" % j: model_flow_matrix(model, j) for j in range(1, model.N + 2)}
    for j in range(1, model.N + 1):
        matrices["L%d" % j] = model.lax(j, m_)
        matrices["Ldot%d" % j] = bracket_scalar_matrix(ps, ham, model.lax(j, m_))
    matrices["km"] = model.km(m_)
    matrices["kmdot"] = bracket_scalar_matrix(ps, ham, model.km(m_))
    matrices["kp"] = model.kp(m_)
    matrices["kpdot"] = bracket_scalar_matrix(ps, ham, model.kp(m_))
    for name, m in matrices.items():
        for a, row in enumerate(m.rows):
            for b, entry in enumerate(row):
                exprs["%s[%d,%d]" % (name, a, b)] = entry
    return exprs


def _absolute(el):
    """The same polynomial with every coefficient replaced by its modulus."""
    ring = el.ring
    return compile_element(ring.element({e: abs(c) for e, c in el.monomials()}))


def _roundoff_scale(expr, v):
    """Absolute-value evaluation of ``expr`` at the columns ``v``; for a
    fraction n/d it is (|n|_abs + |n/d| |d|_abs) / |d|."""
    absv = [np.abs(x) for x in v]
    if not isinstance(expr, Fraction) or not expr.den_factors:
        num = expr.num if isinstance(expr, Fraction) else expr
        return _absolute(num)(absv)
    den = compile_element(expr.den)(v)
    quotient = compile_element(expr.num)(v) / den
    return (
        _absolute(expr.num)(absv) + np.abs(quotient) * _absolute(expr.den)(absv)
    ) / np.abs(den)


def _oracle(model, traj, fn, mu_value):
    out = np.empty(len(traj.times))
    for i, row in enumerate(traj.states):
        point = dict(zip(traj.state_names, row))
        out[i] = fn(ring_values(model, point, mu_value))
    return out


@pytest.mark.parametrize("fixture, seed", [("dn2", 4), ("bcn3", 6)])
def test_columns_match_per_sample_oracle(request, fixture, seed):
    model = request.getfixturevalue(fixture)
    traj = _trajectory(model, seed)
    exprs = _diagnostic_expressions(model)
    for mu_value in MU_SAMPLES + tuple(-m for m in MU_SAMPLES):
        v = state_columns(model, traj.states, mu_value)
        for label, expr in exprs.items():
            got = np.broadcast_to(compile_any(expr)(v), traj.times.shape)
            want = _oracle(model, traj, compile_any(expr), mu_value)
            bound = ROUNDOFF * np.broadcast_to(_roundoff_scale(expr, v), got.shape)
            err = np.abs(got - want)
            assert np.all(err <= bound), (label, mu_value, float(np.max(err - bound)))


def test_state_columns_layout(dn2):
    states = np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                       [0.5, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0]])
    v = state_columns(dn2, states, mu_value=9.0)
    ring = dn2.ring
    assert v[ring.slot("u1")].tolist() == [1.0, np.exp(0.5)]
    assert v[ring.slot("u2")].tolist() == [np.exp(1.0), np.exp(-1.0)]
    assert v[ring.slot("X2")].tolist() == [3.0, -3.0]
    assert v[ring.slot("H")].tolist() == [6.0, -6.0]
    assert v[ring.slot("mu")] == 9.0
    assert v[ring.slot("c0")] == dn2.params["c0"]


def test_column_guard_raises_on_any_singular_sample(dn2):
    # one sample on F = e^{x1}, where the dn Hamiltonian's denominator
    # vanishes; the same compiled function raises there on a single sample
    ham = compile_any(hamiltonian(dn2))
    states = np.array([[0.0, 0.0, 0.0, 0.0, -0.3, 2.0, 0.1],
                       [0.0, 0.0, 0.0, 0.0, -0.3, 1.0, 0.1]])
    assert np.isfinite(ham(state_columns(dn2, states[:1]))).all()
    with pytest.raises(SingularityError):
        ham(state_columns(dn2, states))
    point = dict(zip(["x1", "x2", "X1", "X2", "E", "F", "H"], states[1]))
    with pytest.raises(SingularityError):
        ham(ring_values(dn2, point))


def _outcome(fn, v):
    """What ``fn(v)`` gives: its value, or the SingularityError it raises."""
    try:
        value = fn(v)
    except SingularityError as exc:
        return "singular", str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("name,n", [("bcn", 1), ("bcn", 2), ("bcn", 3), ("bcn", 4),
                                    ("dn", 2), ("dn", 3)])
def test_columns_bitwise_equal_reference_emitter(name, n):
    model = {"bcn": build_bcn, "dn": build_dn}[name](n)
    states = _trajectory(model, seed=n).states
    # one more sample, 1e-13 off the dn singular manifold F = e^{x1}
    near = states[-1].copy()
    if name == "dn":
        near[2 * n + 1] = np.exp(near[0]) + 1e-13
    column_sets = [states, np.vstack([states, near])]
    compiled = [
        (label, compile_any(expr), emitter_oracle.compile_any(expr))
        for label, expr in _diagnostic_expressions(model).items()
    ]
    singular = 0
    for mu_value in DEFAULT_MU_SAMPLES + tuple(-m for m in DEFAULT_MU_SAMPLES):
        for cols in column_sets:
            v = state_columns(model, cols, mu_value)
            for label, new, old in compiled:
                got = _outcome(new, v)
                assert got == _outcome(old, v), (label, mu_value, len(cols))
                singular += got[0] == "singular"
    # dn's Hamiltonian and x0 relation divide by a multiple of F - e^{x1}
    assert (singular > 0) == (name == "dn")


def _square_mismatch() -> float:
    """The first value of a fixed sequence whose square numpy's ``x**2``
    rounds other than Python's ``x ** 2`` (libm ``pow``)."""
    for m in np.random.default_rng(0).uniform(0.1, 3.0, 100_000).tolist():
        if (np.array([m]) ** 2)[0] != m ** 2:
            return m
    raise AssertionError("numpy's and Python's squares agree on the whole sequence")


def _residual(fn, model, traj, mu_samples):
    """The two channels' bytes, or the SingularityError raised."""
    try:
        ch = fn(model, traj, mu_samples)
    except SingularityError as exc:
        return "singular", str(exc)
    return ch["zc_residual"].tobytes(), ch["boundary_residual"].tobytes()


@pytest.mark.parametrize("name,n", [("dn", 2), ("dn", 3), ("bcn", 2), ("bcn", 3)])
def test_zero_curvature_bitwise_equal_per_sample_oracle(name, n):
    model = {"bcn": build_bcn, "dn": build_dn}[name](n)
    p0 = random_phase_point(model, np.random.default_rng(n), amplitude=0.3)
    # n_t = 204 is a multiple of neither 5 nor 7 samples; n_t = 3 is below 5
    trajs = [integrate(model, p0, 1e-3, steps) for steps in (203, 2)]
    m = _square_mismatch()
    mu_lists = [DEFAULT_MU_SAMPLES, (0.7,), (-0.7, 0.7, 0.7, -2.3, 1.1, 0.0, -1.1),
                (0.3, m, -m)]
    if name == "dn":
        # one row 1e-13 off the singular manifold F = e^{x1}, mid-trajectory
        states = trajs[0].states.copy()
        states[100, 2 * n + 1] = np.exp(states[100, 0]) + 1e-13
        trajs.append(Trajectory(trajs[0].state_names, trajs[0].times, states))
    singular = 0
    for traj in trajs:
        for mu_samples in mu_lists:
            got = _residual(zero_curvature_residual, model, traj, mu_samples)
            want = _residual(zero_curvature_oracle.zero_curvature_residual,
                             model, traj, mu_samples)
            assert got == want, (len(traj.times), mu_samples)
            singular += got[0] == "singular"
    assert singular == (len(mu_lists) if name == "dn" else 0)
