"""Pinned outputs, compared byte for byte with the files in ``tests/golden/``.

The pins cover what users and scripts read: ``verify`` stdout and its
``--output`` JSON (N = 2..5, and dn N=6, the largest sums of products
``verify`` finishes), ``derive`` stdout (N = 2..6: every flow the
lam-series extraction reads), the residual strings of
every FAIL report of the zero-curvature checks under r-matrix sign flips
(they fix the printed form of every Fraction the generating and flow
matrices carry), every FAIL report of ``verify`` under each sign flip of
k-, k+, the site Lax matrix and the r-matrix at bcn and dn N=2 (they pin
the grouping of every sum of products in the matrix layer: a regrouping
that changes one of them is undone, not re-pinned), and digests of seeded
``simulate`` trajectories, of one whole CSV, and three ``simulate --format
json`` summaries (the only place ``boundary_residual`` is written); bcn N=6
runs the largest generated step and channels.  A change that alters any of
them must say so and regenerate the files on purpose with

    PYTHONPATH=src python tests/test_golden_outputs.py

``verify-bcn6``, ``verify-dn7`` and ``verify-bcn7`` are pinned outside
tier-1, by the ``scale`` job of ``.github/workflows/tier1.yml``; that job's
loop shows how they are made (``--output report.json``, in an empty
directory).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from bilax import cli
from bilax.cli import main as bilax
from bilax.double_row import (
    Derivation,
    check_nondynamical_intertwining,
    check_sts_identity,
    check_theorem_zc,
    verify_corollary,
)
from bilax.spectral_matrix import lam, rational_r_builder
from bilax.structure_checks import flip_entry, flip_lax_entry
from bilax.toda_models import build_bcn, build_dn
from mutations import nonzero_positions

GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = [(m, n) for m in ("bcn", "dn") for n in (2, 3, 4, 5)]


def run_cli(argv, workdir) -> str:
    """stdout of a successful ``bilax argv`` run inside ``workdir``."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = bilax(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, buf.getvalue()
    return buf.getvalue()


def verify_outputs(model, n, workdir) -> dict:
    out = run_cli(
        ["verify", "--model", model, "--N", str(n), "--output", "report.json"],
        workdir,
    )
    report = (Path(workdir) / "report.json").read_text()
    stem = "verify-%s%d" % (model, n)
    return {stem + ".stdout": out, stem + ".json": report}


def derive_outputs(model, n, workdir) -> dict:
    out = run_cli(["derive", "--model", model, "--N", str(n)], workdir)
    return {"derive-%s%d.stdout" % (model, n): out}


def r_flip_reports(model, checks) -> str:
    """Every report of ``checks`` under each sign flip of a nonzero entry of
    the rational r-matrix, one fresh derivation per flip."""
    l_ = lam(model.ring)
    rb = rational_r_builder(model.ring)
    cases = []
    for i, j in nonzero_positions(rb(l_)):
        d = Derivation(
            model.lax, model.km, model.kp, model.N, l_, flip_entry(rb, i, j),
            model.recipe,
        )
        reports = []
        for check in checks:
            out = check(model.ps, d)
            reports += out if isinstance(out, list) else [out]
        cases.append({"flip": [i, j], "reports": [r.to_dict() for r in reports]})
    return json.dumps(cases, indent=2) + "\n"


def theorem_flip_outputs(workdir) -> dict:
    return {
        "theorem-zc-bcn1-r-flips.json":
            r_flip_reports(build_bcn(1), [check_theorem_zc]),
    }


def zc_check_flip_outputs(workdir) -> dict:
    """The site, corollary and intertwining checks at bcn and dn N=2."""
    checks = [check_sts_identity, verify_corollary, check_nondynamical_intertwining]
    return {
        "zc-checks-%s2-r-flips.json" % m.name: r_flip_reports(m, checks)
        for m in (build_bcn(2), build_dn(2))
    }


def verify_fail_reports(model, rb=None) -> list:
    """str and to_dict of every FAIL report of ``verify``'s checks on model;
    with rb, the model's derivation is built with rb, and every check reads
    its r-matrix from there."""
    if rb is not None:
        model.cached("derivation", lambda: Derivation(
            model.lax, model.km, model.kp, model.N, lam(model.ring), rb, model.recipe))
    reports = cli._verify_reports(model)
    return [{"str": str(r), **r.to_dict()} for r in reports if not r.holds]


def sign_flips(model):
    """(family, [i, j], mutant, r-builder) for each of criterion 10's sign
    flips of a nonzero entry of k-, k+, the site Lax matrix (at every site)
    or the rational r-matrix; each mutant is a fresh model."""
    l_ = lam(model.ring)
    for family, name, probe, wrap in (
        ("kminus", "km", model.km(l_), flip_entry),
        ("kplus", "kp", model.kp(l_), flip_entry),
        ("lax", "lax", model.lax(1, l_), flip_lax_entry),
    ):
        for i, j in nonzero_positions(probe):
            wrapped = wrap(getattr(model, name), i, j)
            yield family, [i, j], dataclasses.replace(model, **{name: wrapped}), None
    rb = rational_r_builder(model.ring)
    for i, j in nonzero_positions(rb(l_)):
        yield "r", [i, j], dataclasses.replace(model), flip_entry(rb, i, j)


def sign_flip_outputs(workdir) -> dict:
    """verify's FAIL reports under every sign flip of ``sign_flips`` at bcn
    and dn N=2."""
    return {
        "verify-%s2-sign-flips.json" % model.name: json.dumps([
            {"family": family, "flip": flip, "reports": verify_fail_reports(mutant, rb)}
            for family, flip, mutant, rb in sign_flips(model)
        ], indent=2) + "\n"
        for model in (build_bcn(2), build_dn(2))
    }


def simulate_csv(argv, workdir) -> str:
    """The CSV a successful ``bilax simulate argv`` writes."""
    run_cli(["simulate", *argv, "--output", "sim.csv"], workdir)
    return (Path(workdir) / "sim.csv").read_text()


def simulate_json(workdir) -> str:
    """The JSON summary beside the CSV of the last ``simulate_csv`` run."""
    return (Path(workdir) / "sim.json").read_text()


def states_digest(csv_text) -> str:
    """sha256 of the t and state columns (those before H_drift)."""
    lines = csv_text.splitlines()
    width = lines[0].split(",").index("H_drift")
    kept = "\n".join(",".join(line.split(",")[:width]) for line in lines)
    return hashlib.sha256(kept.encode()).hexdigest() + "\n"


def simulate_outputs(workdir) -> dict:
    """sha256 of seeded trajectories: the state columns of dn N=2, bcn N=3
    and an rk4-adaptive dn N=2 run, and the whole dn N=2 CSV, whose
    channel columns pin the diagnostics and the CSV formatting; and the
    JSON summaries of the dn N=2 and bcn N=3 runs."""
    dn2 = simulate_csv(
        ["--model", "dn", "--N", "2", "--steps", "2000", "--seed", "1",
         "--format", "json"], workdir)
    dn2_json = simulate_json(workdir)
    bcn3 = simulate_csv(
        ["--model", "bcn", "--N", "3", "--steps", "1000", "--seed", "2",
         "--format", "json"], workdir)
    bcn3_json = simulate_json(workdir)
    adaptive = simulate_csv(
        ["--model", "dn", "--N", "2", "--scheme", "rk4-adaptive", "--dt", "0.1",
         "--steps", "10", "--seed", "4"], workdir)
    return {
        "simulate-dn2-seed1-states.sha256": states_digest(dn2),
        "simulate-dn2-seed1-csv.sha256":
            hashlib.sha256(dn2.encode()).hexdigest() + "\n",
        "simulate-bcn3-seed2-states.sha256": states_digest(bcn3),
        "simulate-dn2-adaptive-seed4-states.sha256": states_digest(adaptive),
        "simulate-dn2-seed1.json": dn2_json,
        "simulate-bcn3-seed2.json": bcn3_json,
    }


def simulate_bcn6_outputs(workdir) -> dict:
    """The state digest and JSON summary of bcn N=6, the largest step and
    the most diagnostic channels the tests generate."""
    bcn6 = simulate_csv(
        ["--model", "bcn", "--N", "6", "--steps", "2000", "--seed", "3",
         "--format", "json"], workdir)
    return {
        "simulate-bcn6-seed3-states.sha256": states_digest(bcn6),
        "simulate-bcn6-seed3.json": simulate_json(workdir),
    }


CASES = {
    **{
        "verify-%s%d" % (m, n): (lambda w, m=m, n=n: verify_outputs(m, n, w))
        for m, n in MODELS
    },
    **{
        "derive-%s%d" % (m, n): (lambda w, m=m, n=n: derive_outputs(m, n, w))
        for m, n in MODELS
    },
    "verify-dn6": lambda w: verify_outputs("dn", 6, w),
    **{
        "derive-%s6" % m: (lambda w, m=m: derive_outputs(m, 6, w))
        for m in ("bcn", "dn")
    },
    "theorem-zc-flips": theorem_flip_outputs,
    "zc-check-flips": zc_check_flip_outputs,
    "verify-sign-flips": sign_flip_outputs,
    "simulate-dn2": simulate_outputs,
    "simulate-bcn6": simulate_bcn6_outputs,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    for name, text in CASES[case](tmp_path).items():
        assert text == (GOLDEN / name).read_text(), name


def main(workdir) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for name, text in CASES[case](workdir).items():
            (GOLDEN / name).write_text(text)
            print("wrote %s" % (GOLDEN / name))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
