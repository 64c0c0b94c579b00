"""The span tracer of ``perfbench/spans.py`` still fits the package.

The tracer resolves every function named in its LAYERS, COUNTED and CHECKS
tables and rebinds it; the after-call hooks unpack the leading positional
arguments of ``boundary_M`` and ``transfer_expansion``.  The module is
loaded from its file and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import bilax.cli  # noqa: F401  (loads every module the tracer wraps)
from bilax import double_row
from bilax.spectral_matrix import lam, mu

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
