"""Smoke test of the benchmark at tiny size (verify bcn N=2, simulate dn N=2
with 200 steps).  Run from the repository root:

    python3 -m pytest -q perfbench/smoke_test.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Workload  # noqa: E402

VERIFY = Workload("smoke-verify-bcn2", "verify", "bcn", 2)
SIMULATE = Workload("smoke-simulate-dn2", "simulate", "dn", 2, steps=200)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def prepared():
    run.prepare()
    run.OUT = run.OUT / "smoke"
    run.OUT.mkdir(parents=True, exist_ok=True)


def flip_lax(model):
    flip = sys.modules["bilax.structure_checks"].flip_lax_entry
    return dataclasses.replace(model, lax=flip(model.lax, 0, 0))


@pytest.mark.parametrize("wl", [VERIFY, SIMULATE], ids=lambda wl: wl.name)
def test_end_to_end_metrics_emitted_with_units(wl):
    record = run.run_workload(wl, seed=3, seconds=0.1, trace=0)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in record["metrics"].values())
    env = record["environment"]
    assert env["kernel_backend"] == sys.modules["bilax"].KERNEL_BACKEND
    assert env["switches"] == {name: None for name in run.SWITCHES}


@pytest.mark.parametrize("wl", [VERIFY, SIMULATE], ids=lambda wl: wl.name)
def test_traced_run_emits_per_layer_metrics(wl):
    record = run.run_workload(wl, seed=3, seconds=0.1, trace=1)
    assert record["correct"], record["problems"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    values = {k: v["value"] for k, v in record["metrics"].items()}
    assert values["trace.count_mismatches"] == 0
    assert values["kernel.mul.calls"] > 0
    if wl.kind == "verify":
        assert values["check.theorem_zc.s"] > 0
        assert 0.5 < values["check.coverage"] < 1.5
    else:
        assert values["dynamics.integrate.rhs_evals"] == 4 * (200 + 2)
        assert values["dynamics.compile.calls"] > 0


def test_spans_nest_and_self_times_are_non_negative():
    run.fresh_import()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.root("rep", run.W.setup, SIMULATE, 3)
    finally:
        tracer.restore()
    assert len(tracer.start) > 10
    assert tracer.parent[0] == -1
    for i in range(1, len(tracer.start)):
        p = tracer.parent[i]
        assert 0 <= p < i
        assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    assert min(tracer.self_times_ns()) >= 0


def test_gate_trips_on_mutated_lax():
    record = run.run_workload(VERIFY, seed=3, seconds=0.1, trace=0, mutate=flip_lax)
    assert not record["correct"]
    assert record["failed"] / record["attempted"] > 0
