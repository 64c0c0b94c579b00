"""Fresh-process ``bilax verify`` wall time, CPU time and peak RSS, two checkouts.

For each model (bcn, dn) and N = 2..6, every repeat runs ``python -m
bilax.cli verify --model M --N N --output report.json`` once from each
checkout's ``src``, alternating which side runs first.  Each run is a new
interpreter that compiles the package from source, as the benchmark in
``perfbench/`` does: both ``src`` trees are copied without their bytecode
caches, and no run writes one.  Wall time is measured around the child
process; CPU time (user + system) and peak RSS are the child's own, from
``wait4``.
The stdout and JSON report of both sides are compared byte for byte.

    python3 benchmarks/verify_matrix.py --before PARENT_CHECKOUT --after . \\
        --repeats 5 --output BENCH_finish_once.json

The JSON records the kernel, the rational backend, the Python version and
the CPU count next to each row.
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

MODELS = ("bcn", "dn")
SIZES = (2, 3, 4, 5, 6)


def run_verify(src, model, n, workdir, env):
    """(wall s, CPU s, peak RSS in MB, stdout, report) of one fresh verify."""
    argv = [sys.executable, "-m", "bilax.cli", "verify", "--model", model,
            "--N", str(n), "--output", "report.json"]
    env = dict(env, PYTHONPATH=str(src))
    with open(Path(workdir) / "stdout.txt", "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    code = child.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit("verify --model %s --N %d exited %d from %s"
                         % (model, n, code, src))
    stdout = (Path(workdir) / "stdout.txt").read_bytes()
    report = (Path(workdir) / "report.json").read_bytes()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout, report


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


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
    parser.add_argument("--after-label", default="change")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        sides, environment = fresh_sources(args, tmp)
        for model in MODELS:
            for n in SIZES:
                wall = {s: [] for s in sides}
                cpu = {s: [] for s in sides}
                rss = {s: [] for s in sides}
                outputs = {}
                for r in range(args.repeats):
                    order = ("before", "after") if r % 2 == 0 else ("after", "before")
                    for side in order:
                        t, c, m, stdout, report = run_verify(sides[side], model, n, tmp, env)
                        wall[side].append(t)
                        cpu[side].append(c)
                        rss[side].append(m)
                        outputs.setdefault(side, set()).add((stdout, report))
                wins = sum(a < b for a, b in zip(wall["after"], wall["before"]))
                cpu_wins = sum(a < b for a, b in zip(cpu["after"], cpu["before"]))
                row = {
                    "model": model,
                    "N": n,
                    "wall_s": {s: quartiles(wall[s]) for s in sides},
                    "wall_runs_s": wall,
                    "cpu_s": {s: quartiles(cpu[s]) for s in sides},
                    "cpu_runs_s": cpu,
                    "peak_rss_mb": {s: statistics.median(rss[s]) for s in sides},
                    "wall_change_pct": 100 * (statistics.median(wall["after"])
                                              / statistics.median(wall["before"]) - 1),
                    "after_faster_pairs": "%d/%d" % (wins, args.repeats),
                    "after_less_cpu_pairs": "%d/%d" % (cpu_wins, args.repeats),
                    "outputs_identical": outputs["before"] == outputs["after"]
                                         and len(outputs["after"]) == 1,
                }
                rows.append(row)
                print("%-3s N=%d  %s %.3f s  %s %.3f s  (%+.1f %%, %s)  rss %.1f -> %.1f MB  same=%s"
                      % (model, n, args.before_label, row["wall_s"]["before"]["median"],
                         args.after_label, row["wall_s"]["after"]["median"],
                         row["wall_change_pct"], row["after_faster_pairs"],
                         row["peak_rss_mb"]["before"], row["peak_rss_mb"]["after"],
                         row["outputs_identical"]), flush=True)

    result = {
        "harness": "benchmarks/verify_matrix.py",
        "before": args.before_label,
        "after": args.after_label,
        "repeats": args.repeats,
        **environment,
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    return 0 if all(r["outputs_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
