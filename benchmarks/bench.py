"""Fresh-process ``bilax verify`` and ``bilax simulate``, two checkouts.

One session measures twelve rows:

- ``verify`` for bcn, then dn, at N = 2..6: ``python -m bilax.cli verify
  --model M --N N --output out.json``;
- the default ``simulate`` (10k RK4 steps, five mu samples) for dn N=2 and
  bcn N=3, split by phase.  The child times ``import_s`` (numpy and bilax),
  ``setup_s`` (building the model, deriving the flows and compiling every
  channel, through one diagnostic pass over a 2-step trajectory), each phase
  of ``bilax simulate --format json`` on the prepared model, and ``run_s``,
  the whole simulate command.

Every repeat runs each row once from each checkout's ``src``, alternating
which side runs first.  Each run is a new interpreter that compiles the
package from source, as the benchmark in ``perfbench/`` does: both ``src``
trees are copied without their bytecode caches, and no run writes one.  Every
row has the wall time around the child, and the child's CPU time (user +
system) and peak RSS, from ``wait4``.  A child that exits nonzero stops the
session.  Stdout and every output file of both sides are compared byte for
byte, and the exit status is 1 if any row differs.

    python3 benchmarks/bench.py --before PARENT_CHECKOUT --after . --tag my_change

runs ten pairs (``--repeats``: a claim needs at least ten) and writes
``BENCH_my_change.json`` with the kernel, the rational backend, the
Python version and the CPU count next to the rows.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROWS = (*(("verify", model, n) for model in ("bcn", "dn") for n in range(2, 7)),
        ("simulate", "dn", 2), ("simulate", "bcn", 3))
PHASES = ("integrate", "conserved_channels", "zero_curvature_residual",
          "dn_x0_relation_residual", "write_csv")
SECONDS = "seconds.json"

SIMULATE = r"""
import json, sys, time
start = time.perf_counter()
import numpy as np
from bilax import cli, dynamics
seconds = {"import_s": time.perf_counter() - start}
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
seconds["setup_s"] = time.perf_counter() - start


def timed(key, f):
    def wrapper(*a, **kw):
        start = time.perf_counter()
        try:
            return f(*a, **kw)
        finally:
            seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start
    return wrapper


for phase in phases:
    setattr(dynamics, phase, timed(phase + "_s", getattr(dynamics, phase)))
cli.model_from_config = lambda cfg: model
start = time.perf_counter()
code = cli.main(["simulate", "--model", name, "--N", str(n), "--format", "json",
                 "--output", "out.csv"])
seconds["run_s"] = time.perf_counter() - start
with open(result, "w") as fh:
    json.dump(seconds, fh)
sys.exit(code)
"""


def run(src, row, workdir):
    """({metric: value}, outputs) of one fresh run of ``row`` from ``src``;
    the outputs are stdout and every file the run wrote, by name."""
    kind, model, n = row
    if kind == "verify":
        argv = ["-m", "bilax.cli", "verify", "--model", model, "--N", str(n),
                "--output", "out.json"]
    else:
        argv = ["-c", SIMULATE, SECONDS, model, str(n), *PHASES]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with open(workdir / "stdout.txt", "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    code = child.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit("%s --model %s --N %d exited %d from %s" % (kind, model, n, code, src))
    metrics = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024}
    if kind == "simulate":
        metrics.update(json.loads((workdir / SECONDS).read_text()))
    outputs = tuple(sorted((p.name, p.read_bytes()) for p in workdir.iterdir()
                           if p.name != SECONDS))
    return metrics, outputs


def summary(before, after):
    """Quartiles and raw runs of each side, the change of the medians in
    percent, and the pairs each side won (lower is better; ties count for
    neither side)."""
    runs = {"before": before, "after": after}
    return {
        **{side: dict(zip(("q1", "median", "q3"),
                          statistics.quantiles(xs, n=4, method="inclusive")))
           for side, xs in runs.items()},
        "runs": runs,
        "change_pct": 100 * (statistics.median(after) / statistics.median(before) - 1),
        "pairs_won": {"before": sum(b < a for b, a in zip(before, after)),
                      "after": sum(a < b for b, a in zip(before, after))},
    }


def fresh_sources(args, tmp):
    """Copy the ``src`` of ``args.before`` and ``args.after`` under ``tmp``
    without bytecode caches.  Return the two copies and the kernel, rational
    backend, Python version, CPU count and machine the rows are measured on."""
    sides = {}
    for side in ("before", "after"):
        sides[side] = Path(tmp) / side / "src"
        shutil.copytree(Path(getattr(args, side)) / "src", sides[side],
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(sides["after"]))
    from bilax import backend

    return sides, {
        "kernel": backend.KERNEL_BACKEND,
        "rational_backend": backend.RATIONAL_BACKEND,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout of the parent commit")
    parser.add_argument("--after", required=True, help="checkout of the change")
    parser.add_argument("--before-label", default="parent")
    parser.add_argument("--tag", required=True, help="label of the change; names the output")
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        sides, environment = fresh_sources(args, tmp)
        for row in ROWS:
            kind, model, n = row
            metrics = {s: {} for s in sides}
            outputs = {s: set() for s in sides}
            for r in range(args.repeats):
                for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
                    with tempfile.TemporaryDirectory(dir=tmp) as workdir:
                        got, out = run(sides[side], row, Path(workdir))
                    for name, value in got.items():
                        metrics[side].setdefault(name, []).append(value)
                    outputs[side].add(out)
            rows.append({
                "command": kind,
                "model": model,
                "N": n,
                "metrics": {name: summary(metrics["before"][name], runs)
                            for name, runs in metrics["after"].items()},
                "outputs_identical": outputs["before"] == outputs["after"]
                                     and len(outputs["after"]) == 1,
            })
            for name, m in rows[-1]["metrics"].items():
                print("%-8s %-3s N=%d  %-29s %s %8.4f  %s %8.4f  (%+6.1f %%, %d/%d)"
                      % (kind, model, n, name, args.before_label, m["before"]["median"],
                         args.tag, m["after"]["median"], m["change_pct"],
                         m["pairs_won"]["after"], args.repeats), flush=True)
            print("%-8s %-3s N=%d  outputs identical: %s"
                  % (kind, model, n, rows[-1]["outputs_identical"]), flush=True)

    result = {
        "harness": "benchmarks/bench.py",
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
