"""The span tracer of ``perfbench/spans.py`` still fits the package.

The tracer resolves every function named in its LAYERS, COUNTED and CHECKS
tables and rebinds it; the after-call hooks unpack the leading positional
arguments of ``boundary_M`` and ``transfer_expansion`` and read the
trajectory ``integrate`` returns.  The module is loaded from its file and
not modified.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import bilax.cli  # noqa: F401  (loads every module the tracer wraps)
from bilax import double_row, dynamics
from bilax.spectral_matrix import lam, mu
from bilax.toda_models import build_dn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every bilax module and of the classes they define."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "bilax" and not name.startswith("bilax."):
            continue
        holders = [mod] + [
            c for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__
        ]
        for holder in holders:
            for key, value in vars(holder).items():
                out[(name, getattr(holder, "__name__", name), key)] = value
    return out


def test_tracer_installs_traces_and_restores(bcn1):
    spans = load_spans()
    before = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert double_row.boundary_M is not before[
            ("bilax.double_row", "bilax.double_row", "boundary_M")]
        l_, m_ = lam(bcn1.ring), mu(bcn1.ring)
        double_row.boundary_M(bcn1.lax, bcn1.km, bcn1.kp, 1, 2, l_, m_)
        double_row.transfer_expansion(bcn1.lax, bcn1.km, bcn1.kp, 1, bcn1.ring)
        metrics = tracer.take()
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert metrics["double_row.boundary_M.calls"] == 1
    assert metrics["double_row.boundary_M.distinct_ratio"] == 1.0
    assert metrics["double_row.transfer_expansion.calls"] == 1
    assert metrics["double_row.transfer_expansion.distinct_ratio"] == 1.0


def test_tracer_counts_a_simulate_run():
    # a fresh model, so that compilation runs under the tracer too
    model = build_dn(2)
    p0 = dynamics.random_phase_point(model, np.random.default_rng(1), amplitude=0.3)
    spans = load_spans()
    before = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        traj = dynamics.integrate(model, p0, 1e-3, 40)
        dynamics.conserved_channels(model, traj)
        dynamics.zero_curvature_residual(model, traj, (0.3, 0.7))
        dynamics.dn_x0_relation_residual(model, traj)
        metrics = tracer.take()
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traj.steps_accepted == 40
    assert metrics["dynamics.integrate.steps"] == 40
    assert metrics["dynamics.samples"] == 41
    # the generated step does not go through CompiledVectorField.__call__
    assert metrics["dynamics.integrate.rhs_evals"] == 0
    assert metrics["dynamics.compile.calls"] > 0
    for name in ("integrate", "conserved_channels", "zero_curvature_residual",
                 "dn_x0_relation_residual"):
        assert metrics["dynamics.%s.s" % name] > 0
