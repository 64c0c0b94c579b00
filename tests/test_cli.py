"""Command-line interface: exit codes, outputs, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bilax import dynamics
from bilax.cli import build_parser, main
from bilax.toda_models import MODELS


def test_verify_bcn_passes(capsys):
    assert main(["verify", "--model", "bcn", "--N", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS cybe" in out
    assert "FAIL" not in out


def test_verify_bcn4_passes(capsys):
    assert main(["verify", "--model", "bcn", "--N", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 20
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_dn4_passes(capsys):
    assert main(["verify", "--model", "dn", "--N", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 15
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_bcn5_passes(capsys):
    assert main(["verify", "--model", "bcn", "--N", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 20
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_invalid_site_count(capsys):
    assert main(["verify", "--model", "bcn", "--N", "0"]) == 2
    assert main(["verify", "--model", "dn", "--N", "1"]) == 2


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--model", "bcn", "--N", "1", "--output", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["model"] == "bcn"
    assert all(r["holds"] for r in payload["relations"])
    names = {r["relation"] for r in payload["relations"]}
    assert {"cybe", "rll", "bb_commute", "theorem_zc_lax"} <= names


def test_model_choices_are_the_model_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        model = next(a for a in parser._actions if a.dest == "model")
        assert model.choices == list(MODELS), command


def test_usage_error_exit_code():
    assert main(["verify", "--model", "xxx", "--N", "2"]) == 2
    assert main(["frobnicate"]) == 2


def test_unknown_parameter_rejected(tmp_path):
    code = main(
        ["verify", "--model", "bcn", "--N", "1", "--params", '{"zeta": 1}']
    )
    assert code == 2


@pytest.mark.parametrize(
    "value", ["[1]", '"abc"', "null", "true", '"0.5"', "1" + "0" * 400, "1" + "0" * 5000],
    ids=["list", "string", "null", "bool", "numeric-string", "past-float-range",
         "past-int-string-limit"],
)
def test_non_number_parameter_is_a_config_error(value, capsys):
    # only JSON numbers are parameter values; true and "0.5" would read as
    # 1.0 and 0.5, the others would end in a traceback.  json.loads raises a
    # plain ValueError, not JSONDecodeError, for an int literal past Python's
    # int-string limit (4300 digits); the message names the limit and gives
    # no advice to call sys.set_int_max_str_digits, which a user cannot act on
    argv = ["derive", "--model", "bcn", "--N", "1", "--params", '{"th1": %s}' % value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if len(value) > 4300:
        assert "config error: an integer in params has more than 4300 digits" in err
        assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "document",
    ['{"model": "dn", "N": 2}', '{"model": "bcn", "th1": 0, "a1": 0}'],
    ids=["model-and-N", "top-level-parameters"],
)
def test_params_document_is_a_config_error(document, capsys):
    # --model and --N are required flags; a document that repeats them is
    # not a parameter object, so it can neither override them nor have
    # its parameters dropped
    argv = ["derive", "--model", "bcn", "--N", "1", "--params", document]
    assert main(argv) == 2
    assert "config error: unknown parameters" in capsys.readouterr().err


def test_params_file(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"th1": 0.0, "thN": 0.0}))
    code = main(
        ["derive", "--model", "bcn", "--N", "1", "--params", str(cfg)]
    )
    assert code == 0


def test_params_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert main(["verify", "--model", "bcn", "--N", "1", "--params", str(cfg)]) == 2
    assert "config error: params file %s is not UTF-8" % cfg in capsys.readouterr().err


def test_derive_output(capsys):
    assert main(["derive", "--model", "bcn", "--N", "1"]) == 0
    out = capsys.readouterr().out
    assert "H = " in out
    assert "MATCH (additive constant" in out
    assert "M(1, mu) [MATCH]" in out
    assert "MISMATCH" not in out


def test_derive_dn_denominator(capsys):
    assert main(["derive", "--model", "dn", "--N", "2"]) == 0
    out = capsys.readouterr().out
    assert "u1 - F" in out  # the 2(F - e^{x1}) boundary denominator


def test_derive_zero_params_reduces_to_kinetic(capsys):
    zeros = '{"th1":0,"a1":0,"b1":0,"thN":0,"aN":0,"bN":0}'
    assert main(["derive", "--model", "bcn", "--N", "1", "--params", zeros]) == 0
    out = capsys.readouterr().out
    assert "H at configured parameters = 1/2*X1^2" in out


def test_derive_substitutes_the_parameters_as_written(capsys):
    # 2^53 + 1 has no float: the written int is substituted, and the
    # unwritten parameters keep their default 1/2
    big = '{"a1": 9007199254740993, "b1": 0.1}'
    assert main(["derive", "--model", "bcn", "--N", "1", "--params", big]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("H at configured parameters"))
    assert "+ 9007199254740993*u1 +" in line
    assert line.startswith("H at configured parameters = 1/20*u1^2 + 1/2*u1*X1 +")


def test_simulate_default_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["simulate", "--model", "bcn", "--N", "2", "--steps", "200"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote bilax_bcn_N2.csv" in out
    with open("bilax_bcn_N2.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,x_1,x_2,X_1,X_2,H_drift,casimir_drift,zc_residual"


def test_simulate_reproducible(tmp_path):
    paths = []
    for k in range(2):
        p = tmp_path / ("a%d.csv" % k)
        code = main(
            [
                "simulate", "--model", "bcn", "--N", "2",
                "--steps", "100", "--seed", "3", "--output", str(p),
            ]
        )
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_simulate_seed_changes_data(tmp_path):
    blobs = []
    for seed in ("3", "4"):
        p = tmp_path / ("s%s.csv" % seed)
        main(
            [
                "simulate", "--model", "bcn", "--N", "2",
                "--steps", "50", "--seed", seed, "--output", str(p),
            ]
        )
        blobs.append(p.read_bytes())
    assert blobs[0] != blobs[1]


def test_simulate_dn_singular_exit(tmp_path, capsys):
    code = main(
        [
            "simulate", "--model", "dn", "--N", "2",
            "--steps", "50", "--output", str(tmp_path / "s.csv"),
            "--params", '{"c0": 5e-12, "c1": -1.0}',
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "truncated" in out


def test_simulate_json_summary(tmp_path):
    p = tmp_path / "run.csv"
    code = main(
        [
            "simulate", "--model", "dn", "--N", "2", "--steps", "100",
            "--dt", "5e-4", "--output", str(p), "--format", "json",
            "--amplitude", "0.2",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["model"] == "dn"
    assert "zc_residual" in payload["channel_max"]
    assert payload["failures"] == []


def test_simulate_json_step_counts_and_singular_distance(tmp_path):
    p = tmp_path / "dn.csv"
    argv = ["simulate", "--model", "dn", "--N", "2", "--steps", "100",
            "--amplitude", "0.2", "--format", "json", "--output", str(p)]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "dn.json").read_text())
    assert (payload["steps_accepted"], payload["steps_rejected"]) == (100, 0)
    # F - e^{x1} stays on its level set c0/2 = 1
    assert abs(payload["min_abs_f_minus_ex1"] - 1.0) <= 1e-12
    for key in ("steps_accepted", "steps_rejected", "min_abs_f_minus_ex1"):
        assert key not in payload["channel_max"]
    with open(p) as fh:
        assert fh.readline().strip().endswith(",H_drift,casimir_drift,zc_residual")

    p = tmp_path / "bcn.csv"
    argv = ["simulate", "--model", "bcn", "--N", "2", "--steps", "5",
            "--dt", "0.2", "--scheme", "rk4-adaptive", "--format", "json",
            "--output", str(p)]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "bcn.json").read_text())
    assert payload["steps_accepted"] > 5
    assert payload["steps_rejected"] >= 1
    assert "min_abs_f_minus_ex1" not in payload


def test_simulate_adaptive_time_span_within_its_end_slack_is_a_config_error(tmp_path, capsys):
    # dt * steps = 1e-16: the adaptive loop would accept no step and exit 0
    out = tmp_path / "tiny.csv"
    argv = ["simulate", "--model", "bcn", "--N", "2", "--dt", "1e-17", "--steps",
            "10", "--scheme", "rk4-adaptive", "--format", "json", "--output", str(out)]
    assert main(argv) == 2
    assert "config error: rk4-adaptive" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "tiny.json").exists()


def test_simulate_adaptive_cap_exits_1(tmp_path, capsys):
    # 100 * steps accepted steps end at t = 2.52 of the requested 4.0
    p = tmp_path / "cap.csv"
    argv = ["simulate", "--model", "bcn", "--N", "2", "--dt", "4", "--steps",
            "1", "--scheme", "rk4-adaptive", "--format", "json",
            "--output", str(p)]
    assert main(argv) == 1
    assert "FAIL trajectory truncated: rk4-adaptive stopped" in capsys.readouterr().out
    payload = json.loads((tmp_path / "cap.json").read_text())
    assert payload["truncated"] is True
    assert payload["steps_accepted"] == 100
    assert "cap of 100 accepted steps" in payload["error"]
    assert "t = 2.51868 of 4" in payload["error"]


def test_simulate_svg(tmp_path):
    p = tmp_path / "run.csv"
    code = main(
        [
            "simulate", "--model", "bcn", "--N", "1", "--steps", "50",
            "--output", str(p), "--format", "svg",
        ]
    )
    assert code == 0
    assert (tmp_path / "run.svg").read_text().startswith("<svg")


def test_simulate_svg_leaves_non_finite_samples_out(tmp_path):
    # mu = 1e150 overflows the zero-curvature residual: its peak reads inf
    # or nan, the gate fails the run, and the plot keeps finite points only
    p = tmp_path / "run.csv"
    code = main(["simulate", "--model", "dn", "--N", "2", "--steps", "5",
                 "--mu-samples", "1e150", "--format", "svg", "--output", str(p)])
    assert code == 1
    svg = (tmp_path / "run.svg").read_text()
    points = re.findall(r'points="([^"]*)"', svg)
    assert len(points) == svg.count("<polyline")
    coords = [float(c) for ps in points for xy in ps.split() for c in xy.split(",")]
    assert coords and all(map(math.isfinite, coords))
    assert "boundary_residual (max nan)" in svg and "zc_residual (max inf)" in svg


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_simulate_output_that_format_writes_is_a_config_error(tmp_path, capsys, fmt):
    # the summary or plot would overwrite the CSV at --output
    out = tmp_path / ("run." + fmt)
    argv = ["simulate", "--model", "bcn", "--N", "1", "--steps", "20",
            "--format", fmt, "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: --output ")
    assert not out.exists()


def test_simulate_non_finite_state_exits_1(tmp_path, capsys):
    # the state goes NaN from t = 4.0 without raising; every channel peak
    # used to read NaN, which no "peak > tol" gate caught
    p = tmp_path / "nan.csv"
    argv = ["simulate", "--model", "dn", "--N", "2", "--seed", "30",
            "--amplitude", "2", "--dt", "0.5", "--steps", "300",
            "--format", "json", "--output", str(p)]
    assert main(argv) == 1
    assert "FAIL trajectory truncated: non-finite state at t = 4" in (
        capsys.readouterr().out)
    payload = json.loads((tmp_path / "nan.json").read_text())
    assert payload["truncated"] is True
    assert payload["error"] == "non-finite state at t = 4"
    assert payload["channel_max"] == {}
    rows = p.read_text().splitlines()[1:]
    assert len(rows) == 8 and "nan" not in p.read_text()


def test_simulate_nan_channel_peak_fails(tmp_path, capsys, monkeypatch):
    # a finite trajectory whose diagnostics come out NaN must not pass
    conserved = dynamics.conserved_channels

    def nan_drift(model, traj):
        channels = conserved(model, traj)
        traj.channels["H_drift"] = np.full(len(traj.times), np.nan)
        return channels

    monkeypatch.setattr(dynamics, "conserved_channels", nan_drift)
    argv = ["simulate", "--model", "bcn", "--N", "1", "--steps", "20",
            "--output", str(tmp_path / "run.csv")]
    assert main(argv) == 1
    assert "FAIL H drift above 1.0e-08" in capsys.readouterr().out


def test_simulate_json_is_strict_on_a_non_finite_peak(tmp_path, capsys):
    # the trajectory stays finite, but the zero-curvature residual leaves
    # the float range: its peak is written as null and still fails its gate
    p = tmp_path / "inf.csv"
    argv = ["simulate", "--model", "dn", "--N", "2", "--seed", "30",
            "--amplitude", "2", "--dt", "0.5", "--steps", "300",
            "--scheme", "rk4-adaptive", "--format", "json", "--output", str(p)]
    assert main(argv) == 1
    assert "FAIL zero-curvature residual above 1.0e-08" in capsys.readouterr().out

    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    payload = json.loads((tmp_path / "inf.json").read_text(), parse_constant=reject)
    assert payload["truncated"] is False
    assert payload["channel_max"]["zc_residual"] is None
    assert payload["failures"] == ["zero-curvature residual above 1.0e-08"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model,samples", [("dn", "1e150"), ("bcn", "1e200")])
def test_simulate_overflowing_mu_sample_fails_without_numpy_warnings(
    tmp_path, capsys, model, samples
):
    # the matrix products overflow at this mu although mu's own powers do
    # not: the overflow reads as a non-finite peak and the FAIL line only
    argv = ["simulate", "--model", model, "--N", "2", "--steps", "5",
            "--mu-samples", samples, "--output", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert "FAIL zero-curvature residual above 1.0e-08" in capsys.readouterr().out


def test_simulate_non_finite_inputs_are_config_errors(tmp_path):
    base = ["simulate", "--model", "dn", "--N", "2", "--steps", "5",
            "--format", "json", "--output", str(tmp_path / "s.csv")]
    assert main(base + ["--dt", "nan"]) == 2
    assert main(base + ["--dt", "inf"]) == 2
    assert main(base + ["--mu-samples", "0.3,nan"]) == 2
    assert main(base + ["--params", '{"c0": NaN}']) == 2
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("option,value", [
    ("--seed", "-1"),
    ("--amplitude", "nan"),
    ("--amplitude", "inf"),
    ("--amplitude", "-0.3"),
    ("--amplitude", "1e300"),
    ("--tol-energy", "nan"),
    ("--tol-energy", "-1"),
    ("--tol-zc", "nan"),
    ("--tol-zc", "-1"),
    ("--tol-casimir", "nan"),
    ("--tol-casimir", "-1"),
])
def test_simulate_bad_seed_amplitude_or_tolerance_is_a_config_error(
    tmp_path, capsys, option, value
):
    # a negative seed, a non-finite amplitude or one that overflows e^x1 for
    # dn would end in a traceback; a nan or negative tolerance sets a gate
    # that can never pass
    out = tmp_path / "s.csv"
    argv = ["simulate", "--model", "dn", "--N", "2", "--steps", "5",
            option, value, "--format", "json", "--output", str(out)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "s.json").exists()


def test_simulate_infinite_tolerance_turns_its_gate_off(tmp_path, capsys):
    argv = ["simulate", "--model", "bcn", "--N", "2", "--dt", "0.2",
            "--steps", "100", "--output", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert "FAIL H drift above 1.0e-08" in capsys.readouterr().out
    assert main(argv + ["--tol-energy", "inf"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "samples", ["", ",", "0.3,,0.7", ",0.3", "0.3,", "0.3,abc", "1e200"]
)
def test_simulate_bad_mu_samples_are_config_errors(tmp_path, capsys, samples):
    # with no sample the zero-curvature channels would read 0.0, a vacuous
    # pass, and an empty field is no number either; dn's M(1) carries mu**2,
    # which overflows the floats at mu = 1e200
    out = tmp_path / "s.csv"
    argv = ["simulate", "--model", "dn", "--N", "2", "--steps", "50",
            "--mu-samples", samples, "--format", "json", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_simulate_non_positive_steps_is_a_config_error(tmp_path, steps):
    out = tmp_path / "s.csv"
    argv = ["simulate", "--model", "bcn", "--N", "2", "--steps", steps,
            "--output", str(out)]
    assert main(argv) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# start-up: the numeric stack loads on the first simulate call

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter with this checkout's ``src`` on
    the path; return its stdout's last line, read as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_verify_and_derive_do_not_load_numpy_and_simulate_still_does(tmp_path):
    got = run_fresh("""
        import hashlib, json, sys
        from bilax.cli import main
        codes = [main(["verify", "--model", "bcn", "--N", "2"]),
                 main(["derive", "--model", "dn", "--N", "3"])]
        symbolic_numpy = "numpy" in sys.modules
        codes.append(main(["simulate", "--model", "dn", "--N", "2", "--steps", "2000",
                           "--seed", "1", "--format", "json", "--output", "sim.csv"]))
        with open("sim.csv", "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(json.dumps([codes, symbolic_numpy, "numpy" in sys.modules, digest]))
    """, tmp_path)
    golden = (ROOT / "tests" / "golden" / "simulate-dn2-seed1-csv.sha256").read_text()
    assert got == [[0, 0, 0], False, True, golden.strip()]


def test_simulate_without_numpy_is_a_config_error(tmp_path):
    # exit 1 means a failed check; a missing numpy is a setup fault
    got = run_fresh("""
        import contextlib, io, json, os, sys
        sys.modules["numpy"] = None  # any import of numpy now fails
        from bilax.cli import main
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--model", "dn", "--N", "2", "--steps", "5",
                         "--output", "sim.csv"])
        print(json.dumps([code, err.getvalue(), os.path.exists("sim.csv")]))
    """, tmp_path)
    assert got == [2, "config error: simulate needs numpy\n", False]


@pytest.mark.parametrize("lookup", [
    "import bilax.dynamics as d; d.integrate",
    "import bilax; d = bilax.dynamics; bilax.dynamics.integrate",
], ids=["import-as", "package-attribute"])
def test_dynamics_resolves_after_the_cli_import(lookup, tmp_path):
    got = run_fresh("""
        import json, sys
        import bilax.cli
        %s
        print(json.dumps([callable(d.integrate), d is bilax.cli.dynamics,
                          d is sys.modules["bilax.dynamics"], "numpy" in sys.modules]))
    """ % lookup, tmp_path)
    assert got == [True, True, True, True]


def test_span_tracer_installs_after_a_verify_run(tmp_path):
    # the traced benchmark run: an untraced repetition, then the tracer
    # resolves every function it wraps, dynamics' too, through sys.modules
    got = run_fresh("""
        import importlib.util, json
        from bilax.cli import main
        argv = ["verify", "--model", "bcn", "--N", "2"]
        codes = [main(argv)]
        spec = importlib.util.spec_from_file_location("spans", %r)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        try:
            codes.append(main(argv))
            metrics = tracer.take()
        finally:
            tracer.restore()
        print(json.dumps([codes, metrics["check.cybe.s"] > 0,
                          metrics["kernel.mul.calls"] > 0,
                          metrics["dynamics.compile.calls"]]))
    """ % str(ROOT / "perfbench" / "spans.py"), tmp_path)
    assert got == [[0, 0], True, True, 0]
