"""Command-line interface: exit codes, outputs, reproducibility."""

import json

from bilax.cli import main


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


def test_usage_error_exit_code():
    assert main(["verify", "--model", "xxx", "--N", "2"]) == 2
    assert main(["frobnicate"]) == 2


def test_unknown_parameter_rejected(tmp_path):
    code = main(
        ["verify", "--model", "bcn", "--N", "1", "--params", '{"zeta": 1}']
    )
    assert code == 2


def test_params_file(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"th1": 0.0, "thN": 0.0}))
    code = main(
        ["derive", "--model", "bcn", "--N", "1", "--params", str(cfg)]
    )
    assert code == 0


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

