"""Layered benchmark of bilax: exact ``verify`` and seeded ``simulate``.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload verify-bcn3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in one process, on one thread, with ``BILAX_THREADS``,
``BILAX_PURE`` and ``BILAX_RATIONAL`` unset.  A run repeats "set up, then
run the command" for ``--seconds`` (at least three times).  With
``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: import of ``bilax`` (a fresh import each time) plus
  ``model_from_config``; for simulate also the vector field and the
  compilation of every diagnostic channel.  In seconds at reference speed
  (below); the median over the repetitions.
* ``run_ref``: wall time of the CLI command after set-up, in units of a
  fixed pure-Python reference loop (``reference_loop``) timed just before
  and just after it; the median over the repetitions.
* ``peak_rss_mb``: peak resident memory of the process.

Both timings are divided by the reference loop's time measured next to
them, because on a shared host the same work runs at one speed or at up to
twice as slow, in spells from a fraction of a second to minutes, and a wall
time in seconds swings with them between runs.  The reference loop slows
down with the program, so the ratio stays put.  ``setup_s`` must be in
seconds, so its ratio is multiplied by ``REFERENCE_S``: it is the set-up
time on a host where the reference loop takes that long.  The wall times in
seconds (``setup_wall_s``, and ``verify_s`` on the verify workloads or
``simulate_s`` on the simulate one) are printed beside them as their
median, the highest percentile with at least ten samples beyond it, and the
sample count; they are not metrics of the result line.

``failed_frac`` (failed over attempted operations) is printed with them and
is the ``failed``/``attempted`` pair of the result line.

With ``--trace 1`` one untraced repetition is followed by at least two traced
ones (set-up included), and the run reports the per-layer metrics of
``spans.PER_LAYER``: calls and self time per traced function, exact
counters, the tracing overhead, and a flag for counts that differ between
repetitions.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SWITCHES = ("BILAX_THREADS", "BILAX_PURE", "BILAX_RATIONAL")

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END = [("setup_s", "s"), ("run_ref", "ref"), ("peak_rss_mb", "MB")]
REFERENCE_S = 0.1  # seconds per reference loop that setup_s is scaled to


def prepare():
    """Point the import at this checkout's source and pin the run to one
    thread and the default backends."""
    if not (ROOT / "src" / "bilax" / "__init__.py").is_file():
        raise SystemExit("perfbench: no bilax source under %s" % (ROOT / "src"))
    for name in SWITCHES:
        os.environ.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))


def fresh_import():
    """Import bilax (and its CLI) anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "bilax" or n.startswith("bilax.")]:
        del sys.modules[name]
    importlib.import_module("bilax.cli")
    found = Path(sys.modules["bilax"].__file__).resolve().parent
    if found != ROOT / "src" / "bilax":
        raise SystemExit("perfbench: imported bilax from %s, not from this checkout" % found)


def environment() -> dict:
    """What the result depends on, read from what actually loaded."""
    bilax = sys.modules["bilax"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "bilax_version": bilax.__version__,
        "kernel_backend": bilax.KERNEL_BACKEND,
        "rational_backend": bilax.RATIONAL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "switches": {name: os.environ.get(name) for name in SWITCHES},
    }


def summary(values) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (none below eleven samples), with the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None}
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        out["percentile"] = [p, values[max(0, math.ceil(p * n / 100) - 1)]]
    return out


def _gate(wl, model, seed, outcomes):
    """Sum the outcomes; for simulate, add one operation per repetition for
    the state columns matching a fresh integration with the same seed."""
    attempted = sum(o.attempted for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    if wl.kind == "simulate":
        reference = W.reference_states(wl, model, seed, str(OUT))
        attempted += len(outcomes)
        problems += ["CSV state columns differ from a rerun with seed %d" % seed
                     for o in outcomes if o.states_sha != reference]
    return attempted, problems


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: a product of two
    dense 12x12 bivariate polynomials held as dicts with ``Fraction``
    coefficients, the kind of arithmetic the symbolic layers do, written
    here so that no change to ``bilax`` can speed it up."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12)}
    t0 = time.perf_counter()
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in a.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + u * v
    seconds = time.perf_counter() - t0
    if out[(22, 22)] != Fraction(144, 169):
        raise SystemExit("perfbench: the reference loop computed a wrong product")
    return seconds


def measure(wl, seed, seconds, mutate=None):
    """Untraced run: the end-to-end metrics.  Each repetition sets up anew
    and runs the command, with the reference loop timed before, between and
    after them."""
    setup_times, setup_ratios, outcomes, ratios = [], [], [], []
    t_start = time.perf_counter()
    before = reference_loop()
    while len(outcomes) < 3 or (time.perf_counter() - t_start + statistics.median(
            o.seconds + s for o, s in zip(outcomes, setup_times)) <= seconds):
        t0 = time.perf_counter()
        fresh_import()
        model = W.setup(wl, seed, mutate)
        setup_times.append(time.perf_counter() - t0)
        gc.collect()
        between = reference_loop()
        outcomes.append(W.run_once(wl, model, seed, str(OUT), mutate))
        after = reference_loop()
        setup_ratios.append(setup_times[-1] / ((before + between) / 2))
        ratios.append(outcomes[-1].seconds / ((between + after) / 2))
        before = after
    attempted, problems = _gate(wl, model, seed, outcomes)
    samples = {
        "setup_s": [r * REFERENCE_S for r in setup_ratios],
        "run_ref": ratios,
        "setup_wall_s": setup_times,
        "wall_s": [o.seconds for o in outcomes],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    return samples, attempted, problems


def measure_traced(wl, seed, seconds, mutate=None):
    """Traced run: one untraced repetition, then traced ones (set-up and
    command each time); per-layer metrics are the medians over the traced
    repetitions."""
    fresh_import()
    t0 = time.perf_counter()
    model = W.setup(wl, seed, mutate)
    outcomes = [W.run_once(wl, model, seed, str(OUT), mutate)]
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    reps, walls = [], []

    def repetition():
        m = W.setup(wl, seed, mutate)
        return m, W.run_once(wl, m, seed, str(OUT), mutate)

    t_start = time.perf_counter()
    try:
        while len(reps) < 2 or (time.perf_counter() - t_start
                                + statistics.median(walls) <= seconds):
            t0 = time.perf_counter()
            model, outcome = tracer.root("rep", repetition)
            walls.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            layer = tracer.take()
            layer["check.failed"] = outcome.relations_failed
            checks = sum(layer[n + ".s"] for n in spans.CHECK_NAMES)
            layer["check.coverage"] = checks / outcome.seconds if wl.kind == "verify" else 0.0
            reps.append(layer)
    finally:
        tracer.restore()
    tracer.write(OUT / ("spans-%s-seed%d.csv.gz" % (wl.name, seed)))
    mismatches = spans.count_mismatches(reps)
    for name, values in mismatches:
        print("FLAG %s differs between repetitions: %s" % (name, values), file=sys.stderr)
    metrics = {name: statistics.median(rep[name] for rep in reps)
               for name in reps[0]}
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced
    metrics["trace.count_mismatches"] = len(mismatches)
    attempted, problems = _gate(wl, model, seed, outcomes)
    return metrics, attempted, problems


def run_workload(wl, seed, seconds, trace, mutate=None) -> dict:
    """Run one workload; return the result record (see the module doc)."""
    OUT.mkdir(exist_ok=True)
    if trace:
        values, attempted, problems = measure_traced(wl, seed, seconds, mutate)
        summaries = {}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        samples, attempted, problems = measure(wl, seed, seconds, mutate)
        summaries = {name: summary(v) for name, v in samples.items()}
        metrics = {name: {"value": summaries[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "workload": wl.name, "kind": wl.kind, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "environment": environment(), "summaries": summaries,
        "problems": problems, "predictions": {"moves": wl.moves, "no_change": wl.no_change},
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "metrics": metrics,
    }


def report(record):
    """Human-readable lines for one result record."""
    env = record["environment"]
    lines = ["workload %s  seed %d  trace %d  kernel %s  rational %s" % (
        record["workload"], record["seed"], record["trace"],
        env["kernel_backend"], env["rational_backend"])]
    rows = [(name, m["value"], m["unit"], name) for name, m in record["metrics"].items()]
    if "wall_s" in record["summaries"]:
        rows += [(name, record["summaries"][key]["median"], "s", key)
                 for name, key in [("setup_wall_s", "setup_wall_s"),
                                   (record["kind"] + "_s", "wall_s")]]
    for name, value, unit, key in rows:
        s = record["summaries"].get(key)
        extra = ""
        if s:
            pct = ("p%d %.6g" % tuple(s["percentile"])) if s["percentile"] else "no percentile"
            extra = "  (median of n=%d; %s with >=10 samples beyond it)" % (s["n"], pct)
        lines.append("  %-44s %14.6g %-8s%s" % (name, value, unit, extra))
    lines.append("  %-44s %14.6g          (%d failed of %d attempted)" % (
        "failed_frac", record["failed"] / record["attempted"], record["failed"], record["attempted"]))
    lines += ["  %s" % p for p in record["problems"]]
    lines.append("env " + json.dumps(env, sort_keys=True))
    return lines


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    records = []
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("perfbench: workload %s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        with open(result_path(name, args.seed, args.trace)) as fh:
            records.append(json.load(fh))
    if not args.trace:
        print("\n%-14s %10s %10s %12s %12s %12s %12s" % (
            "workload", "setup_s", "run_ref", "verify_s", "simulate_s", "peak_rss_mb",
            "failed_frac"))
        for r in records:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            verify = r["kind"] == "verify"
            wall = "%12.4f" % r["summaries"]["wall_s"]["median"]
            print("%-14s %10.4f %10.4f %12s %12s %12.1f %12.3g" % (
                r["workload"], m["setup_s"], m["run_ref"], wall if verify else "-",
                "-" if verify else wall, m["peak_rss_mb"], r["failed"] / r["attempted"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {"%s.%s" % (r["workload"], k): v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


def result_path(workload, seed, trace):
    return OUT / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    if args.workload == "all":
        return run_all(args)
    record = run_workload(W.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    with open(result_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(report(record)))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
