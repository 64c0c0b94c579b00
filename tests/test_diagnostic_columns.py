"""Columnwise diagnostics against per-sample evaluation.

The oracle is the per-sample path the diagnostics used before they were
evaluated on whole columns: the scalar compiled function applied to
``ring_values`` at one phase point at a time.  numpy's ``x**k`` and
``exp`` may differ from libm by an ulp, so agreement is required to
roundoff, measured against the absolute-value evaluation of the same
expression, not bitwise.
"""

import numpy as np
import pytest

from bilax.dynamics import (
    SingularityError,
    compile_any,
    compile_element,
    integrate,
    random_phase_point,
    ring_values,
    state_columns,
)
from bilax.phase_ring import Fraction
from bilax.spectral_matrix import bracket_scalar_matrix, mu
from bilax.toda_models import (
    dn_x0_relation,
    expansion,
    hamiltonian,
    model_flow_matrix,
    sl2_casimir,
)

MU_SAMPLES = (0.3, 1.9)
ROUNDOFF = 1e-12


def _trajectory(model, seed):
    p0 = random_phase_point(model, np.random.default_rng(seed), amplitude=0.3)
    traj = integrate(model, p0, 1e-3, 400, store_every=2)
    assert not traj.truncated
    return traj


def _diagnostic_expressions(model):
    """Every expression a diagnostic channel compiles, by label."""
    ring, ps = model.ring, model.ps
    m_ = mu(ring)
    ham = hamiltonian(model)
    exprs = {"H": ham}
    exp = expansion(model)
    for p in exp.powers():
        c = exp.coefficient(p)
        if not c.num.is_parameter_constant():
            exprs["H%d" % p] = c
    if model.name == "dn":
        exprs["casimir"] = sl2_casimir(model)
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
            got = np.broadcast_to(compile_any(expr, columns=True)(v), traj.times.shape)
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
    # vanishes; the scalar path raises there too
    ham = compile_any(hamiltonian(dn2), columns=True)
    states = np.array([[0.0, 0.0, 0.0, 0.0, -0.3, 2.0, 0.1],
                       [0.0, 0.0, 0.0, 0.0, -0.3, 1.0, 0.1]])
    assert np.isfinite(ham(state_columns(dn2, states[:1]))).all()
    with pytest.raises(SingularityError):
        ham(state_columns(dn2, states))
    point = dict(zip(["x1", "x2", "X1", "X2", "E", "F", "H"], states[1]))
    with pytest.raises(SingularityError):
        compile_any(hamiltonian(dn2))(ring_values(dn2, point))
