"""Command-line entry point: verify / derive / simulate.

Exit codes are a stable contract: 0 success, 1 check or tolerance failure,
2 usage/config error.  Verification runs fully symbolic (parameters free),
so its outcome is seed-independent; only simulate consumes the seed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
from fractions import Fraction as PyFraction

from .double_row import (
    check_involution,
    check_nondynamical_intertwining,
    check_single_row_commutation,
    check_sts_identity,
    check_theorem_zc,
    check_transfer_commutation,
    verify_corollary,
)
from .phase_ring import StructureError
from .structure_checks import (
    RelationReport,
    check_cybe,
    check_k_locality,
    check_nondynamical,
    check_reflection_minus,
    check_reflection_plus,
    check_rll,
)
from .toda_models import (
    DEFAULT_MU_SAMPLES,
    MODELS,
    displayed_flow_indices,
    displayed_flow_matrix,
    displayed_hamiltonian,
    expansion,
    hamiltonian,
    model_flow_matrix,
    model_from_config,
    parameter_constant_difference,
)


def _lazy_submodule(name: str):
    """The submodule ``bilax.<name>``, run on its first attribute access.

    ``verify`` and ``derive`` never read ``dynamics``, so they never run it
    and never import numpy; ``simulate`` loads both on its first
    ``dynamics.`` call.  A function-local import would not do: the span
    tracer (``perfbench/spans.py``) reads ``sys.modules["bilax.dynamics"]``
    when it installs, also on a verify run.  So the module is registered in
    ``sys.modules`` and as an attribute of the package, as an import does,
    and ``import bilax.dynamics`` loads and returns this same object.  A
    module that is already loaded is returned as it is.
    """
    full = "%s.%s" % (__package__, name)
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    loader.exec_module(module)
    return module


dynamics = _lazy_submodule("dynamics")


def _load_params(raw: str | None) -> dict:
    if not raw:
        return {}
    if os.path.exists(raw):  # a path: its text is the JSON
        try:
            with open(raw, encoding="utf-8") as fh:
                raw = fh.read()
        except UnicodeDecodeError as exc:
            raise StructureError("params file %s is not UTF-8: %s" % (raw, exc)) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StructureError(str(exc)) from None
    except ValueError:  # an int literal past Python's int-string limit
        raise StructureError("an integer in params has more than %d digits, Python's "
                             "int-string limit" % sys.get_int_max_str_digits()) from None
    if not isinstance(data, dict):
        raise StructureError("params must be a JSON object")
    return data


def _closed_form_comparison(model):
    """H and every displayed M(j, mu) against their closed forms.

    Returns H, its parameter-constant difference from the closed form (None
    when there is none) and a list of (j, M(j, mu), whether M matches).  The
    functions are called as this module's globals, which the benchmark's
    span tracer (``perfbench/spans.py``) rebinds.
    """
    ham = hamiltonian(model)
    diff = parameter_constant_difference(ham, displayed_hamiltonian(model))
    flows = []
    for j in displayed_flow_indices(model):
        got = model_flow_matrix(model, j)
        flows.append((j, got, got == displayed_flow_matrix(model, j)))
    return ham, diff, flows


# ---------------------------------------------------------------------------
# verify


def _verify_reports(model) -> list:
    ring, ps, d = model.ring, model.ps, model.derivation
    rb = d.r_builder
    offsite = (1, 2) if model.N >= 2 else (1, 1)

    # b(lam), its expansion and H first; every later check reads them, and
    # the generating matrices, from the model's derivation
    expansion(model)
    hamiltonian(model)

    bcn = model.name == "bcn"
    # the dn k- is dynamical: its entries do not Poisson-commute
    nondynamical = {"kminus": model.km, "kplus": model.kp} if bcn else {"kplus": model.kp}
    reports = [
        check_cybe(rb, ring),
        check_rll(model.lax, rb, ps, offsite=offsite),
        check_k_locality(model.km, model.kp, model.lax, ps),
        check_reflection_minus(model.km, rb, ps),
        check_reflection_plus(model.kp, rb, ps),
        *[
            RelationReport("nondynamical_" + label, check_nondynamical(k, ps).residual)
            for label, k in nondynamical.items()
        ],
        check_single_row_commutation(ps, d),
        check_transfer_commutation(ps, d),
        check_sts_identity(ps, d),
        check_involution(ps, d),
        *check_theorem_zc(ps, d),
        *verify_corollary(ps, d),
        *(check_nondynamical_intertwining(ps, d) if bcn else []),
    ]
    ham, diff, flows = _closed_form_comparison(model)
    return reports + [
        RelationReport(
            "hamiltonian_matches_closed_form",
            [] if diff is not None else [("scalar", str(ham))],
        ),
        RelationReport(
            "flow_matrices_match_closed_form",
            [("j=%d" % j, str(got)) for j, got, match in flows if not match],
        ),
    ]


def cmd_verify(args) -> int:
    model = model_from_config({"model": args.model, "N": args.N, "params": _load_params(args.params)})
    reports = _verify_reports(model)
    for rep in reports:
        print(rep)
    if args.output:
        payload = {
            "model": model.name,
            "N": model.N,
            "relations": [r.to_dict() for r in reports],
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print("wrote %s" % args.output)
    return 0 if all(r.holds for r in reports) else 1


# ---------------------------------------------------------------------------
# derive


def cmd_derive(args) -> int:
    written = _load_params(args.params)
    model = model_from_config({"model": args.model, "N": args.N, "params": written})
    ham, diff, flows = _closed_form_comparison(model)
    print("model %s N=%d" % (model.name, model.N))
    print("transfer powers: %s" % list(expansion(model)))
    print("H = %s" % ham)
    if getattr(args, "params", None):
        # the written numbers over model.params's floats: an int keeps every digit
        exact = {name: PyFraction(str(v)) for name, v in {**model.params, **written}.items()}
        print("H at configured parameters = %s" % ham.substitute(exact))
    if diff is None:
        print("H vs closed form: MISMATCH")
    else:
        print("H vs closed form: MATCH (additive constant %s)" % diff)
    for j, got, match in flows:
        print("M(%d, mu) [%s] =" % (j, "MATCH" if match else "MISMATCH"))
        print(got)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("H = %s\n" % ham)
            for j, got, _ in flows:
                fh.write("M(%d, mu) = %s\n" % (j, got))
        print("wrote %s" % args.output)
    ok = diff is not None and all(match for *_, match in flows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# simulate


def _json_number(x):
    """A float as strict JSON allows it: a non-finite value becomes null."""
    return x if x is None or math.isfinite(x) else None


# (channel, tolerance option, failure message) of each simulate gate
GATES = (
    ("H_drift", "tol_energy", "H drift above %.1e"),
    ("zc_residual", "tol_zc", "zero-curvature residual above %.1e"),
    ("casimir_drift", "tol_casimir", "Casimir drift above %.1e"),
)


def cmd_simulate(args) -> int:
    try:
        import numpy as np  # the numeric stack loads on simulate only
    except ModuleNotFoundError:
        raise StructureError("simulate needs numpy") from None

    if args.seed < 0:
        raise StructureError("--seed must be non-negative")
    for _, tol, _ in GATES:
        # inf turns a gate off; nan or a negative value could never pass
        if not getattr(args, tol) >= 0:
            raise StructureError("--%s must be non-negative" % tol.replace("_", "-"))
    try:
        mu_samples = [float(x) for x in args.mu_samples.split(",")]
    except ValueError:
        raise StructureError("--mu-samples takes comma-separated numbers") from None
    if not all(map(math.isfinite, mu_samples)):
        raise StructureError("mu samples must be finite")
    out = args.output
    side = None if args.format == "csv" else os.path.splitext(out)[0] + "." + args.format
    if side == out:
        raise StructureError("--output %s names the file that --format %s writes"
                             % (out, args.format))
    model = model_from_config({"model": args.model, "N": args.N, "params": _load_params(args.params)})
    rng = np.random.default_rng(args.seed)
    point = dynamics.random_phase_point(model, rng, amplitude=args.amplitude)
    traj = dynamics.integrate(
        model, point, args.dt, args.steps, scheme=args.scheme
    )
    diagnostics_error = None
    if not traj.truncated:
        try:
            dynamics.conserved_channels(model, traj)
            dynamics.zero_curvature_residual(model, traj, mu_samples)
            if model.name == "dn":
                dynamics.dn_x0_relation_residual(model, traj)
        except dynamics.SingularityError as exc:
            diagnostics_error = str(exc)

    dynamics.write_csv(model, traj, out)
    print("wrote %s (%d samples)" % (out, len(traj.times)))
    if args.format == "svg":
        dynamics.write_svg(traj, side)
        print("wrote %s" % side)

    failures = []
    if traj.truncated:
        failures.append("trajectory truncated: %s" % traj.error)
    if diagnostics_error:
        failures.append(
            "diagnostics aborted near singular manifold: %s" % diagnostics_error
        )
    summary = {}
    for name, values in sorted(traj.channels.items()):
        peak = float(np.max(values)) if len(values) else 0.0
        summary[name] = peak
        print("max %s = %.3e" % (name, peak))
    if not traj.truncated:
        for channel, tol, message in GATES:
            # "not peak <= tol" so that a NaN peak fails too
            if not summary.get(channel, 0.0) <= getattr(args, tol):
                failures.append(message % getattr(args, tol))
    if args.format == "json":
        payload = {
            "model": model.name,
            "N": model.N,
            "params": model.params,
            "dt": args.dt,
            "steps": args.steps,
            "seed": args.seed,
            "mu_samples": mu_samples,
            "truncated": traj.truncated,
            "error": traj.error,
            "steps_accepted": traj.steps_accepted,
            "steps_rejected": traj.steps_rejected,
            "channel_max": {k: _json_number(v) for k, v in summary.items()},
            "failures": failures,
        }
        if model.name == "dn":
            payload["min_abs_f_minus_ex1"] = _json_number(traj.min_abs_f_minus_ex1)
        with open(side, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
        print("wrote %s" % side)
    for f in failures:
        print("FAIL %s" % f)
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def _add_model_args(p):
    p.add_argument("--model", choices=list(MODELS), required=True)
    p.add_argument("--N", type=int, required=True, help="number of chain sites")
    p.add_argument(
        "--params",
        help="JSON object or path with boundary parameter values",
    )
    p.add_argument("--output", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilax",
        description="open-boundary integrable lattice toolkit: exact "
        "Poisson-algebra verification, double-row Lax pair derivation, and "
        "Toda chain simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all exact relation checks")
    _add_model_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("derive", help="print Hamiltonian and Lax time parts")
    _add_model_args(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("simulate", help="integrate the flow with diagnostics")
    _add_model_args(p)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--scheme", choices=("rk4", "rk4-adaptive"), default="rk4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=0.3,
                   help="half-width of the random initial data box")
    p.add_argument("--mu-samples", default=",".join(map(str, DEFAULT_MU_SAMPLES)),
                   help="comma-separated spectral points for the residual channel")
    p.add_argument("--tol-energy", type=float, default=1e-8)
    p.add_argument("--tol-zc", type=float, default=1e-8)
    p.add_argument("--tol-casimir", type=float, default=1e-8)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "command", None) == "simulate" and not args.output:
        args.output = "bilax_%s_N%d.csv" % (args.model, args.N)
    try:
        return args.fn(args)
    except (StructureError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
