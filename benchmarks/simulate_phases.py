"""Fresh-process ``bilax simulate``, split by phase, two checkouts.

For each model (dn N=2, bcn N=3), every repeat runs the default simulate
command (10k RK4 steps, five mu samples) once from each checkout's ``src``,
alternating which side runs first.  Each run is a new interpreter that
compiles the package from source, as the benchmark in ``perfbench/`` does:
both ``src`` trees are copied without their bytecode caches, and no run
writes one.  The child times:

- ``import``: importing numpy and bilax;
- ``setup``: building the model, deriving the flows and compiling every
  channel, through one diagnostic pass over a 2-step trajectory;
- ``integrate``, ``conserved_channels``, ``zero_curvature_residual``,
  ``dn_x0_relation_residual`` and ``write_csv``: each phase of
  ``bilax simulate --format json`` on the prepared model;
- ``run``: the whole simulate command.

The CSV, the JSON report and stdout of both sides are compared byte for
byte.

    python3 benchmarks/simulate_phases.py --before PARENT_CHECKOUT --after . \\
        --repeats 10 --tag zc_blocks

writes ``BENCH_zc_blocks.json`` with the kernel, the rational backend, the
Python version and the CPU count next to the rows.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from verify_matrix import fresh_sources, quartiles

MODELS = (("dn", 2), ("bcn", 3))
PHASES = ("integrate", "conserved_channels", "zero_curvature_residual",
          "dn_x0_relation_residual", "write_csv")

CHILD = r"""
import json, sys, time
start = time.perf_counter()
import numpy as np
from bilax import cli, dynamics
seconds = {"import": time.perf_counter() - start}
result, name, n, phases = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]

start = time.perf_counter()
model = cli.model_from_config({"model": name, "N": n})
args = cli.build_parser().parse_args(["simulate", "--model", name, "--N", str(n)])
point = dynamics.random_phase_point(model, np.random.default_rng(args.seed),
                                    amplitude=args.amplitude)
traj = dynamics.integrate(model, point, args.dt, 2)
dynamics.conserved_channels(model, traj)
dynamics.zero_curvature_residual(model, traj, [float(x) for x in args.mu_samples.split(",")])
if name == "dn":
    dynamics.dn_x0_relation_residual(model, traj)
seconds["setup"] = time.perf_counter() - start


def timed(phase, f):
    def wrapper(*a, **kw):
        start = time.perf_counter()
        try:
            return f(*a, **kw)
        finally:
            seconds[phase] = seconds.get(phase, 0.0) + time.perf_counter() - start
    return wrapper


for phase in phases:
    setattr(dynamics, phase, timed(phase, getattr(dynamics, phase)))
cli.model_from_config = lambda cfg: model
start = time.perf_counter()
code = cli.main(["simulate", "--model", name, "--N", str(n), "--format", "json",
                 "--output", "out.csv"])
seconds["run"] = time.perf_counter() - start
with open(result, "w") as fh:
    json.dump({"code": code, "seconds": seconds}, fh)
"""


def run_simulate(src, model, n, workdir, env):
    """(seconds by phase, exit code, stdout, CSV, JSON) of one fresh simulate."""
    workdir = Path(workdir)
    argv = [sys.executable, "-c", CHILD, str(workdir / "result.json"), model, str(n),
            *PHASES]
    with open(workdir / "stdout.txt", "wb") as out:
        subprocess.run(argv, cwd=workdir, env=dict(env, PYTHONPATH=str(src)),
                       stdout=out, check=True)
    result = json.loads((workdir / "result.json").read_text())
    outputs = tuple((workdir / name).read_bytes()
                    for name in ("stdout.txt", "out.csv", "out.json"))
    return result["seconds"], result["code"], outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout of the parent commit")
    parser.add_argument("--after", required=True, help="checkout of the change")
    parser.add_argument("--before-label", default="parent")
    parser.add_argument("--tag", required=True, help="label of the change; names the output")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        sides, environment = fresh_sources(args, tmp)
        for model, n in MODELS:
            seconds = {s: {} for s in sides}
            outputs, codes = {s: set() for s in sides}, {s: set() for s in sides}
            for r in range(args.repeats):
                order = ("before", "after") if r % 2 == 0 else ("after", "before")
                for side in order:
                    run_dir = Path(tmp) / "run"
                    run_dir.mkdir()
                    got, code, out = run_simulate(sides[side], model, n, run_dir, env)
                    shutil.rmtree(run_dir)
                    for phase, s in got.items():
                        seconds[side].setdefault(phase, []).append(s)
                    outputs[side].add(out)
                    codes[side].add(code)
            phases = {}
            for phase in seconds["after"]:
                runs = {s: seconds[s][phase] for s in sides}
                wins = sum(a < b for a, b in zip(runs["after"], runs["before"]))
                phases[phase] = {
                    "seconds": {s: quartiles(runs[s]) for s in sides},
                    "runs_s": runs,
                    "change_pct": 100 * (statistics.median(runs["after"])
                                         / statistics.median(runs["before"]) - 1),
                    "after_faster_pairs": "%d/%d" % (wins, args.repeats),
                }
            row = {
                "model": model,
                "N": n,
                "exit_codes": {s: sorted(codes[s]) for s in sides},
                "phases": phases,
                "outputs_identical": outputs["before"] == outputs["after"]
                                     and len(outputs["after"]) == 1,
            }
            rows.append(row)
            for phase, p in phases.items():
                print("%-3s N=%d  %-24s %s %.4f s  %s %.4f s  (%+.1f %%, %s)"
                      % (model, n, phase, args.before_label,
                         p["seconds"]["before"]["median"], args.tag,
                         p["seconds"]["after"]["median"], p["change_pct"],
                         p["after_faster_pairs"]), flush=True)
            print("%-3s N=%d  outputs identical: %s" % (model, n, row["outputs_identical"]))

    result = {
        "harness": "benchmarks/simulate_phases.py",
        "before": args.before_label,
        "after": args.tag,
        "repeats": args.repeats,
        **environment,
        "rows": rows,
    }
    Path("BENCH_%s.json" % args.tag).write_text(json.dumps(result, indent=2) + "\n")
    return 0 if all(r["outputs_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
