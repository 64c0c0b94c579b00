"""The benchmark tools still fit the package.

The span tracer of ``perfbench/spans.py`` resolves every function named in
its LAYERS, COUNTED and CHECKS tables and rebinds it; the after-call hooks
unpack the leading positional arguments of ``boundary_M`` and
``transfer_expansion`` and read the trajectory ``integrate`` returns.  The
A/B harness ``benchmarks/bench.py`` summarises each metric and runs a fixed
list of rows; its tests start no process.  Both modules are loaded from
their files and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bilax.cli  # noqa: F401  (loads every module the tracer wraps)
from bilax import double_row, dynamics
from bilax.spectral_matrix import lam, mu
from bilax.toda_models import build_dn

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
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
    spans = load(ROOT / "perfbench" / "spans.py")
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
    spans = load(ROOT / "perfbench" / "spans.py")
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


def test_harness_summary_reads_median_change_and_pairs_won():
    bench = load(ROOT / "benchmarks" / "bench.py")
    got = bench.summary([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 3.5, 4.0, 4.0])
    assert got["before"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert got["after"]["median"] == 3.5
    assert got["runs"] == {"before": [1.0, 2.0, 3.0, 4.0, 5.0],
                           "after": [1.0, 1.0, 3.5, 4.0, 4.0]}
    assert got["change_pct"] == pytest.approx(100 * (3.5 / 3.0 - 1))
    # pairs 1 and 4 tie and count for neither side
    assert got["pairs_won"] == {"before": 1, "after": 2}


def test_harness_needs_two_repeats(capsys):
    bench = load(ROOT / "benchmarks" / "bench.py")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--before", "a", "--after", "b", "--tag", "t", "--repeats", "1"])
    assert exc.value.code == 2
    assert "--repeats must be at least 2" in capsys.readouterr().err


def test_harness_rows_are_verify_then_simulate():
    bench = load(ROOT / "benchmarks" / "bench.py")
    assert bench.ROWS == (
        *(("verify", "bcn", n) for n in (2, 3, 4, 5, 6)),
        *(("verify", "dn", n) for n in (2, 3, 4, 5, 6)),
        ("simulate", "dn", 2),
        ("simulate", "bcn", 3),
    )
