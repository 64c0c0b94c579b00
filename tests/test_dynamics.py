"""Numeric evaluation, integration, and trajectory diagnostics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from bilax import dynamics
from bilax.dynamics import (
    SingularityError,
    conserved_channels,
    csv_rows,
    compile_any,
    dn_x0_relation_residual,
    integrate,
    random_phase_point,
    ring_values,
    state_columns,
    state_names,
    vector_field,
    write_csv,
    write_svg,
    zero_curvature_residual,
)
from bilax.phase_ring import Fraction, StructureError
from bilax.toda_models import (
    build_bcn,
    build_dn,
    displayed_hamiltonian,
    hamiltonian,
    model_flow_matrix,
)
from mutations import nonzero_positions

ZERO_PARAMS = {p: 0.0 for p in ("th1", "a1", "b1", "thN", "aN", "bN")}


# ---------------------------------------------------------------------------
# evaluation: compiled expressions on the ring value vector, as simulate runs


def test_evaluate_square(bcn1):
    x1 = bcn1.ring.gen("X1")
    v = ring_values(bcn1, {"X1": 3.0, "x1": 0.0})
    assert compile_any(Fraction(x1 * x1))(v) == 9.0


def test_evaluate_casimir_quarter(dn2):
    from bilax.toda_models import casimir

    c = casimir(dn2.ring)
    point = {"x1": 0.0, "x2": 0.0, "X1": 0.0, "X2": 0.0, "H": 0.5, "E": 1.0, "F": 0.0}
    assert compile_any(Fraction(c))(ring_values(dn2, point)) == 0.25


def test_evaluate_closed_form_origin():
    # one site, all boundary parameters off, at the phase-space origin
    m = build_bcn(1, ZERO_PARAMS)
    h = displayed_hamiltonian(m)
    assert compile_any(h)(ring_values(m, {"x1": 0.0, "X1": 0.0})) == 0.0


def test_evaluate_singularity_guard(dn2):
    h = hamiltonian(dn2)
    point = {"x1": 0.0, "x2": 0.0, "X1": 0.0, "X2": 0.0, "E": 0.0, "H": 0.0, "F": 1.0}
    with pytest.raises(SingularityError):
        compile_any(h)(ring_values(dn2, point))


# ---------------------------------------------------------------------------
# vector field


def test_vector_field_free_chain_forces():
    m = build_bcn(2, ZERO_PARAMS)
    f = vector_field(m)
    y = np.zeros(4)
    out = f(y)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == 1.0 and out[3] == -1.0


def test_vector_field_equilibrium():
    # symmetric walls beta > 0, alpha = theta = 0: origin is a fixed point
    params = dict(ZERO_PARAMS, b1=1.0, bN=1.0)
    m = build_bcn(1, params)
    f = vector_field(m)
    assert np.allclose(f(np.zeros(2)), 0.0)


def test_dn_level_set_is_flow_invariant(dn2):
    f = vector_field(dn2)
    rng = np.random.default_rng(4)
    names = state_names(dn2)
    for _ in range(20):
        p = random_phase_point(dn2, rng)
        y = np.array([p[n] for n in names])
        dy = f(y)
        # d/dT(F - e^{x1}) = Fdot - e^{x1} xdot1
        fdot = dy[names.index("F")]
        xdot1 = dy[0]
        assert abs(fdot - math.exp(p["x1"]) * xdot1) < 1e-13


# ---------------------------------------------------------------------------
# sampling


def test_random_phase_point_invariants(dn2):
    rng = np.random.default_rng(8)
    c0 = dn2.params["c0"]
    c1 = dn2.params["c1"]
    for _ in range(20):
        p = random_phase_point(dn2, rng)
        u1 = math.exp(p["x1"])
        assert u1 > 0
        assert abs(p["F"] - u1 - c0 / 2.0) < 1e-14
        cas = p["H"] ** 2 + p["E"] * p["F"]
        assert abs(cas - c1 / 4.0) < 1e-14


def test_sampler_rejects_singular_level_set():
    m = build_dn(2, {"c0": 1e-14, "c1": -1.0})
    with pytest.raises(StructureError):
        random_phase_point(m, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# integration


def test_integrate_validation(bcn1):
    p = {"x1": 0.0, "X1": 0.0}
    with pytest.raises(StructureError):
        integrate(bcn1, p, -1.0, 10)
    with pytest.raises(StructureError):
        integrate(bcn1, p, 1e-3, 10, scheme="euler")


@pytest.mark.parametrize("scheme", ["rk4", "rk4-adaptive"])
@pytest.mark.parametrize("steps", [0, -5])
def test_integrate_rejects_non_positive_counts(bcn1, scheme, steps):
    p = {"x1": 0.0, "X1": 0.0}
    with pytest.raises(StructureError, match="at least 1"):
        integrate(bcn1, p, 1e-3, steps, scheme=scheme)


def test_momentum_conservation_free_chain():
    m = build_bcn(2, ZERO_PARAMS)
    p0 = {"x1": 0.3, "x2": -0.2, "X1": 0.1, "X2": -0.4}
    traj = integrate(m, p0, 1e-3, 2000)
    ptot = traj.states[:, 2] + traj.states[:, 3]
    assert float(np.max(np.abs(ptot - ptot[0]))) < 1e-13


def test_zero_data_breathing_mode():
    # from the origin with no boundary terms, the chain breathes
    # antisymmetrically: x1 = -x2 along the flow, total momentum stays 0
    m = build_bcn(2, ZERO_PARAMS)
    p0 = {"x1": 0.0, "x2": 0.0, "X1": 0.0, "X2": 0.0}
    traj = integrate(m, p0, 1e-3, 2000)
    assert float(np.max(np.abs(traj.states[:, 0] + traj.states[:, 1]))) < 1e-12
    assert float(np.max(np.abs(traj.states[:, 2] + traj.states[:, 3]))) < 1e-12
    assert float(np.max(np.abs(traj.states[:, 0]))) > 0.1


def test_deterministic_csv(tmp_path, bcn2):
    rng = np.random.default_rng(0)
    p0 = random_phase_point(bcn2, rng)
    out = []
    for k in range(2):
        traj = integrate(bcn2, p0, 1e-3, 200)
        conserved_channels(bcn2, traj)
        zero_curvature_residual(bcn2, traj, (0.3, 0.7))
        path = tmp_path / ("run%d.csv" % k)
        write_csv(bcn2, traj, str(path))
        out.append(path.read_bytes())
    assert out[0] == out[1]


def test_csv_column_contract(tmp_path, bcn2, dn2):
    for m in (bcn2, dn2):
        rng = np.random.default_rng(1)
        p0 = random_phase_point(m, rng, amplitude=0.2)
        traj = integrate(m, p0, 1e-3, 10)
        header = next(iter(csv_rows(m, traj)))
        cols = header.split(",")
        want = ["t"] + ["x_%d" % j for j in range(1, m.N + 1)]
        want += ["X_%d" % j for j in range(1, m.N + 1)]
        if m.name == "dn":
            want += ["E", "F", "H"]
        want += ["H_drift", "casimir_drift", "zc_residual"]
        assert cols == want


def test_halved_step_reduces_drift_16x(bcn2):
    rng = np.random.default_rng(5)
    p0 = random_phase_point(bcn2, rng)
    drifts = []
    for dt in (1e-2, 5e-3):
        traj = integrate(bcn2, p0, dt, int(round(2.0 / dt)))
        ch = conserved_channels(bcn2, traj)
        drifts.append(float(ch["H_drift"].max()))
    ratio = drifts[0] / drifts[1]
    assert 10.0 < ratio < 26.0


def convergence_order(model, p0: dict, dts, t_end: float) -> float:
    """Measured RK4 order from Hamiltonian drift at a sequence of steps."""
    ham_fn = compile_any(hamiltonian(model))
    drifts = []
    for dt in dts:
        traj = integrate(model, p0, dt, int(round(t_end / dt)))
        vals = ham_fn(state_columns(model, traj.states))
        drifts.append(float(np.max(np.abs(vals - vals[0]))))
    orders = [
        math.log(drifts[i] / drifts[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(dts) - 1)
    ]
    return sum(orders) / len(orders)


def test_rk4_measured_order(bcn2):
    rng = np.random.default_rng(5)
    p0 = random_phase_point(bcn2, rng)
    order = convergence_order(bcn2, p0, [1e-2, 5e-3, 2.5e-3], 1.0)
    assert 3.7 <= order <= 4.3


def test_adaptive_scheme(bcn2):
    rng = np.random.default_rng(7)
    p0 = random_phase_point(bcn2, rng)
    traj = integrate(bcn2, p0, 1e-2, 100, scheme="rk4-adaptive")
    assert not traj.truncated
    assert abs(float(traj.times[-1]) - 1.0) < 1e-9
    ch = conserved_channels(bcn2, traj)
    assert float(ch["H_drift"].max()) < 1e-7


def test_step_counts(bcn2):
    p0 = random_phase_point(bcn2, np.random.default_rng(7))
    traj = integrate(bcn2, p0, 1e-3, 40)
    assert (traj.steps_accepted, traj.steps_rejected) == (40, 0)
    # a first step of 0.2 is far too long for ADAPTIVE_TOL = 1e-10
    traj = integrate(bcn2, p0, 0.2, 5, scheme="rk4-adaptive")
    assert traj.steps_accepted == len(traj.times) - 1 > 5
    assert traj.steps_rejected >= 1


def test_adaptive_needs_a_time_span_above_its_end_slack(bcn2):
    # t_end = dt * steps = 1e-16 lies within the slack of the adaptive loop's
    # end test, which would accept no step and pass with one sample; rk4
    # takes the steps it is asked for
    p0 = random_phase_point(bcn2, np.random.default_rng(0), amplitude=0.3)
    with pytest.raises(StructureError, match="rk4-adaptive"):
        integrate(bcn2, p0, 1e-17, 10, scheme="rk4-adaptive")
    assert integrate(bcn2, p0, 1e-17, 10).steps_accepted == 10
    assert integrate(bcn2, p0, 1e-14, 10, scheme="rk4-adaptive").steps_accepted >= 1


def test_adaptive_cap_truncates(bcn2):
    # t_end = 4 is out of reach in 100 * steps = 100 accepted steps at tol
    # 1e-10: the run ends short of it and must say so
    p0 = random_phase_point(bcn2, np.random.default_rng(0), amplitude=0.3)
    traj = integrate(bcn2, p0, 4.0, 1, scheme="rk4-adaptive")
    assert traj.steps_accepted == 100
    assert float(traj.times[-1]) < 4.0
    assert traj.truncated
    assert "cap of 100 accepted steps" in traj.error
    assert "t = %.6g of 4" % float(traj.times[-1]) in traj.error


def test_singularity_truncates(dn2):
    p0 = {
        "x1": 0.0,
        "x2": 0.0,
        "X1": 0.5,
        "X2": 0.0,
        "H": 0.1,
        "F": 1.0 + 1e-13,
        "E": -0.3,
    }
    traj = integrate(dn2, p0, 1e-3, 100)
    assert traj.truncated
    assert "threshold" in traj.error or "overflow" in traj.error


def test_non_finite_state_truncates(dn2):
    # the step overflows to NaN without raising between t = 3.5 and 4.0;
    # the trajectory must end at the last finite sample and say so
    p0 = random_phase_point(dn2, np.random.default_rng(30), amplitude=2.0)
    traj = integrate(dn2, p0, 0.5, 300)
    assert traj.truncated
    assert traj.error == "non-finite state at t = 4"
    assert float(traj.times[-1]) == 3.5 and len(traj.times) == 8
    assert np.isfinite(traj.states).all()
    assert traj.steps_accepted == 7


def test_adaptive_ends_on_a_non_finite_error_estimate(bcn1, monkeypatch):
    # a NaN step-doubling error fails both "err <= tol" and "err > 0": were
    # the step rejected, h would grow and nothing would ever be accepted
    # again; the fake step raises past 10,000 calls instead of hanging
    real, calls = vector_field(bcn1).step, []

    def step(y, h):
        calls.append(h)
        assert len(calls) <= 10_000, "rk4-adaptive did not end"
        y = real(y, h)
        return (math.nan,) * len(y) if len(calls) > 30 else y

    monkeypatch.setattr(dynamics, "vector_field", lambda model: SimpleNamespace(step=step))
    p0 = random_phase_point(bcn1, np.random.default_rng(0))
    traj = integrate(bcn1, p0, 0.01, 50, scheme="rk4-adaptive")
    assert traj.truncated and traj.error.startswith("non-finite state at t = ")
    assert np.isfinite(traj.states).all()
    assert traj.steps_accepted == len(traj.times) - 1 > 0


def test_non_finite_initial_state_rejected(bcn1):
    with pytest.raises(StructureError):
        integrate(bcn1, {"x1": float("nan"), "X1": 0.0}, 1e-3, 10)


def test_step_is_one_rk4_step_of_the_vector_field(dn2):
    # the generated step against RK4 written out over the evaluator
    f = vector_field(dn2)
    p0 = random_phase_point(dn2, np.random.default_rng(3))
    y = np.array([p0[n] for n in state_names(dn2)])
    dt = 1e-2
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    want = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array(f.step(tuple(y), dt)).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# diagnostics


def test_zero_curvature_residual_machine_precision(bcn2):
    rng = np.random.default_rng(2)
    p0 = random_phase_point(bcn2, rng)
    traj = integrate(bcn2, p0, 1e-3, 500)
    ch = zero_curvature_residual(bcn2, traj)
    assert float(ch["zc_residual"].max()) <= 1e-12
    assert float(ch["boundary_residual"].max()) <= 1e-12


def test_zero_curvature_mu_independent(bcn2):
    # the residual is polynomial in mu; its size must not depend on the
    # sample point beyond rounding
    rng = np.random.default_rng(2)
    p0 = random_phase_point(bcn2, rng)
    traj = integrate(bcn2, p0, 1e-3, 50)
    peaks = []
    for mu_v in (0.3, 0.7, 1.1, 1.9, 2.3):
        ch = zero_curvature_residual(bcn2, traj, (mu_v,))
        peaks.append(float(ch["zc_residual"].max()))
    assert max(peaks) - min(peaks) <= 1e-12


def test_dn_conservation_channels(dn2):
    rng = np.random.default_rng(0)
    p0 = random_phase_point(dn2, rng, amplitude=0.2)
    traj = integrate(dn2, p0, 5e-4, 4000)
    ch = conserved_channels(dn2, traj)
    assert float(ch["casimir_drift"].max()) <= 1e-10
    assert float(ch["f_minus_ex1_drift"].max()) <= 1e-10
    x0 = dn_x0_relation_residual(dn2, traj)
    assert float(x0.max()) <= 1e-8


def test_x0_relation_is_a_dn_diagnostic(bcn1):
    # the dn boundary elimination refuses any other model
    traj = integrate(bcn1, random_phase_point(bcn1, np.random.default_rng(0)), 1e-3, 2)
    with pytest.raises(StructureError):
        dn_x0_relation_residual(bcn1, traj)
    assert "x0_relation_residual" not in traj.channels


def test_min_abs_f_minus_ex1(dn2, bcn2):
    p0 = random_phase_point(dn2, np.random.default_rng(0), amplitude=0.2)
    traj = integrate(dn2, p0, 1e-3, 300)
    assert traj.min_abs_f_minus_ex1 is None
    ch = conserved_channels(dn2, traj)
    want = float(np.min(np.abs(traj.states[:, 5] - np.exp(traj.states[:, 0]))))
    assert abs(traj.min_abs_f_minus_ex1 - want) <= 1e-14
    # F - e^{x1} is conserved at c0/2 on the sampled level set
    assert abs(traj.min_abs_f_minus_ex1 - dn2.params["c0"] / 2.0) <= 1e-12
    assert "min_abs_f_minus_ex1" not in ch and "min_abs_f_minus_ex1" not in traj.channels
    traj = integrate(bcn2, random_phase_point(bcn2, np.random.default_rng(0)), 1e-3, 10)
    conserved_channels(bcn2, traj)
    assert traj.min_abs_f_minus_ex1 is None


def test_zero_curvature_catches_flipped_flow_entry():
    # a wrong time part must show in the numeric channel: negate each nonzero
    # entry of each compiled flow matrix in turn (the compiled M(j) is cached
    # on the model under ("cM", j) and sets entry (a, b) in out[..., a, b])
    model = build_bcn(2)
    p0 = random_phase_point(model, np.random.default_rng(2))
    traj = integrate(model, p0, 1e-3, 50)
    assert float(zero_curvature_residual(model, traj)["zc_residual"].max()) <= 1e-12
    peaks = {}
    for j in range(1, model.N + 2):
        f = model._cache[("cM", j)]
        for a, b in nonzero_positions(model_flow_matrix(model, j)):
            def flipped(v, mus, out, f=f, a=a, b=b):
                out = f(v, mus, out)
                out[..., a, b] *= -1.0
                return out

            model._cache[("cM", j)] = flipped
            try:
                ch = zero_curvature_residual(model, traj)
            finally:
                model._cache[("cM", j)] = f
            peaks[j, a, b] = float(ch["zc_residual"].max())
    assert len(peaks) >= 3 * model.N
    assert all(p >= 1e-3 for p in peaks.values()), peaks


def test_zero_curvature_skips_identically_zero_entries(monkeypatch):
    # an identically zero entry of X, {H, X} or M(j) is emitted nowhere: each
    # matrix compiles to one function over its nonzero entries, and dn N=2
    # emits 32 of its 44 entries (a fresh model, so that every matrix compiles)
    model = build_dn(2)
    calls = []
    compile_columns = dynamics._compile_columns

    def recording(ring, exprs, targets, args, tail, powers=()):
        if tail == "return out":
            calls.append((targets, exprs))
        return compile_columns(ring, exprs, targets, args, tail, powers)

    monkeypatch.setattr(dynamics, "_compile_columns", recording)
    p0 = random_phase_point(model, np.random.default_rng(1), amplitude=0.2)
    zero_curvature_residual(model, integrate(model, p0, 1e-3, 20))
    assert not any(e.is_zero for _, exprs in calls for e in exprs)
    assert (4 * len(calls), sum(len(t) for t, _ in calls)) == (44, 32)
    for j in range(1, model.N + 2):
        m = model_flow_matrix(model, j)
        pos = nonzero_positions(m)
        want = (["out[..., %d, %d]" % ab for ab in pos], [m.rows[a][b] for a, b in pos])
        assert want in calls, j


def test_dn_boundary_flow_residual_small(dn2):
    # dk-/dT matches the extracted boundary flow matrices pointwise
    rng = np.random.default_rng(1)
    p0 = random_phase_point(dn2, rng, amplitude=0.2)
    traj = integrate(dn2, p0, 1e-3, 100)
    ch = zero_curvature_residual(dn2, traj)
    assert float(ch["boundary_residual"].max()) <= 1e-12


def test_hk_channels_present(bcn2):
    rng = np.random.default_rng(3)
    p0 = random_phase_point(bcn2, rng)
    traj = integrate(bcn2, p0, 1e-3, 100)
    ch = conserved_channels(bcn2, traj)
    assert "H_drift" in ch
    assert any(k.startswith("H") and k.endswith("_drift") and k != "H_drift" for k in ch)


def test_svg_output(tmp_path, bcn2):
    rng = np.random.default_rng(0)
    p0 = random_phase_point(bcn2, rng)
    traj = integrate(bcn2, p0, 1e-3, 50)
    conserved_channels(bcn2, traj)
    path = tmp_path / "plot.svg"
    write_svg(traj, str(path))
    text = path.read_text()
    assert text.startswith("<svg") and "<polyline" in text


def test_ring_values_layout(dn2):
    p = {
        "x1": 0.0, "x2": 1.0, "X1": 2.0, "X2": 3.0,
        "E": 4.0, "F": 5.0, "H": 6.0,
    }
    v = ring_values(dn2, p, mu_value=9.0)
    ring = dn2.ring
    assert v[ring.slot("u1")] == 1.0
    assert v[ring.slot("u2")] == math.exp(1.0)
    assert v[ring.slot("mu")] == 9.0
    assert v[ring.slot("c0")] == dn2.params["c0"]
