"""The benchmark's workloads: what each one runs, and how its output is checked.

Each workload is one ``bilax`` CLI command.  ``setup`` does what a user pays
before the command's first result; ``run_once`` runs the command through
``bilax.cli.main`` and checks what it wrote.  A failed operation is a
relation reported FAIL, a CLI exit code other than 0, a truncated
trajectory, or a channel peak above the CLI's default ``--tol-*`` bound.

The ``bilax`` modules are looked up in ``sys.modules`` at call time, so the
functions act on whatever import (fresh, or with spans installed) is current.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

# Channels the CLI checks against its default tolerances, by option name.
TOLERANCES = {"H_drift": "tol_energy", "zc_residual": "tol_zc",
              "casimir_drift": "tol_casimir"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "simulate"
    model: str
    N: int
    steps: int | None = None  # simulate only; None keeps the CLI default
    moves: str = ""  # the metrics a change should move on this workload
    no_change: str = ""  # and those it should leave alone


# Why these three (BENCHMARK.json repeats it in short): the two verify
# workloads load the same symbolic layers with integer (bcn) and rational
# (dn) coefficients, so a gain that only pays off for one shows on the
# other; the simulate workload loads the numeric side (compilation and
# per-sample diagnostics).  Each repetition is kept to a few seconds, so
# that a run holds many of them, each timed next to the reference loop
# (see ``run.py``); a longer one lets the host's speed change under it.
WORKLOADS = {
    wl.name: wl
    for wl in [
        # Most of the time is kernel mul on integer coefficients;
        # boundary_M is rebuilt for a few distinct arguments.
        Workload(
            "verify-bcn3", "verify", "bcn", 3,
            moves="run_ref through kernel.mul, phase_ring.fraction_*, "
                  "double_row.boundary_M (distinct_ratio)",
            no_change="setup_s; dynamics.*",
        ),
        # Rational coefficients, the ratio recipe with its F - e^{x1}
        # denominator, a dynamical k-, and no intertwining check.
        Workload(
            "verify-dn3", "verify", "dn", 3,
            moves="run_ref through kernel.mul and phase_ring.*",
            no_change="setup_s; dynamics.*; check.intertwining stays 0",
        ),
        # The default simulate command (5 mu samples; the only workload with
        # the Casimir and x0 channels) at 2k RK4 steps, not the CLI's 10k,
        # to keep a repetition short.
        Workload(
            "simulate-dn2", "simulate", "dn", 2, steps=2000,
            moves="run_ref through dynamics.zero_curvature_residual, "
                  "dynamics.ring_values, dynamics.dn_x0_relation_residual; "
                  "setup_s through toda_models.model_flow_matrix and "
                  "dynamics.compile",
            no_change="check.*",
        ),
    ]
}


def _mod(name):
    return sys.modules["bilax." + name]


def simulate_defaults(wl: Workload):
    """The CLI's own defaults for this workload's simulate command."""
    return _mod("cli").build_parser().parse_args(
        ["simulate", "--model", wl.model, "--N", str(wl.N)])


def setup(wl: Workload, seed: int, mutate=None):
    """Build the model; for simulate, do everything before the first RK4
    step: the vector field and one throw-away diagnostic pass over a 2-step
    trajectory, which derives and compiles every channel."""
    import numpy as np

    toda_models, dynamics = _mod("toda_models"), _mod("dynamics")
    model = toda_models.model_from_config({"model": wl.model, "N": wl.N})
    if mutate is not None:
        model = mutate(model)
    if wl.kind == "simulate":
        args = simulate_defaults(wl)
        dynamics.vector_field(model)
        point = dynamics.random_phase_point(
            model, np.random.default_rng(seed), amplitude=args.amplitude)
        traj = dynamics.integrate(model, point, args.dt, 2)
        dynamics.conserved_channels(model, traj)
        dynamics.zero_curvature_residual(
            model, traj, [float(x) for x in args.mu_samples.split(",")])
        if model.name == "dn":
            dynamics.dn_x0_relation_residual(model, traj)
    return model


@dataclass
class Outcome:
    seconds: float
    attempted: int
    problems: list
    relations_failed: int = 0
    states_sha: str | None = None


def run_once(wl: Workload, model, seed: int, out_dir: str, mutate=None) -> Outcome:
    """Run the workload's CLI command once and check its outputs.

    verify builds a fresh model inside the CLI, as every user call does;
    simulate is handed the model ``setup`` prepared, so its time starts at
    the first RK4 step."""
    cli = _mod("cli")
    out = os.path.join(out_dir, "%s.%s" % (wl.name, "csv" if wl.kind == "simulate" else "json"))
    argv = [wl.kind, "--model", wl.model, "--N", str(wl.N), "--output", out]
    if wl.kind == "simulate":
        argv += ["--seed", str(seed), "--format", "json"]
        if wl.steps is not None:
            argv += ["--steps", str(wl.steps)]
    build = cli.model_from_config
    if wl.kind == "simulate":
        cli.model_from_config = lambda cfg: model
    elif mutate is not None:
        cli.model_from_config = lambda cfg: mutate(build(cfg))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - t0
    finally:
        cli.model_from_config = build
    if wl.kind == "verify":
        return _check_verify(out, rc, seconds)
    return _check_simulate(wl, out, rc, seconds)


def _check_verify(path, rc, seconds) -> Outcome:
    with open(path) as fh:
        relations = json.load(fh)["relations"]
    os.remove(path)
    problems = ["FAIL %s" % r["relation"] for r in relations if not r["holds"]]
    if rc != 0:
        problems.append("bilax verify exited with %d" % rc)
    return Outcome(seconds, len(relations) + 1, problems,
                   relations_failed=sum(not r["holds"] for r in relations))


def _check_simulate(wl, csv_path, rc, seconds) -> Outcome:
    json_path = os.path.splitext(csv_path)[0] + ".json"
    with open(json_path) as fh:
        payload = json.load(fh)
    os.remove(json_path)
    sha = states_sha(csv_path)
    os.remove(csv_path)
    defaults = simulate_defaults(wl)
    problems = []
    attempted = 2
    if rc != 0:
        problems.append("bilax simulate exited with %d" % rc)
    if payload["truncated"]:
        problems.append("trajectory truncated: %s" % payload["error"])
    for channel, option in TOLERANCES.items():
        if channel in payload["channel_max"]:
            attempted += 1
            bound = getattr(defaults, option)
            if payload["channel_max"][channel] > bound:
                problems.append("%s peak %.3e above %.1e"
                                % (channel, payload["channel_max"][channel], bound))
    return Outcome(seconds, attempted, problems, states_sha=sha)


def states_sha(csv_path) -> str:
    """Digest of the CSV's time and state columns (those before H_drift)."""
    digest = hashlib.sha256()
    with open(csv_path) as fh:
        n = fh.readline().split(",").index("H_drift")
        for line in fh:
            digest.update(",".join(line.split(",", n)[:n]).encode() + b"\n")
    return digest.hexdigest()


def reference_states(wl: Workload, model, seed: int, out_dir: str) -> str:
    """Integrate the seeded initial point again, outside the CLI, and digest
    its state columns; every CLI run with this seed must match it."""
    import numpy as np

    dynamics = _mod("dynamics")
    args = simulate_defaults(wl)
    point = dynamics.random_phase_point(
        model, np.random.default_rng(seed), amplitude=args.amplitude)
    steps = wl.steps if wl.steps is not None else args.steps
    traj = dynamics.integrate(model, point, args.dt, steps, scheme=args.scheme)
    path = os.path.join(out_dir, "%s-reference.csv" % wl.name)
    dynamics.write_csv(model, traj, path)
    try:
        return states_sha(path)
    finally:
        os.remove(path)
