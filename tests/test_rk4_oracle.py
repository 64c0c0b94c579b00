"""The generated RK4 step against the per-coordinate oracle, bit for bit.

``tests/integrator_oracle.py`` integrates with one compiled function per
coordinate and numpy stage arithmetic.  The generated step must give the
same times, states, step counts, truncation flag and error message on
smooth runs, blow-ups and runs that hit the singular manifold.  The one
allowed difference is a run whose state goes non-finite without raising:
the oracle keeps integrating inf/NaN, ``integrate`` ends the trajectory
before the first non-finite sample.
"""

import collections

import numpy as np
import pytest

from bilax.dynamics import integrate, random_phase_point
from bilax.toda_models import build_bcn, build_dn

import integrator_oracle as oracle

OVERFLOW = "coordinate overflow (trajectory left the representable range)"


def outcome(new, old) -> str:
    """Assert ``new`` is ``old`` bit for bit, up to the first non-finite
    state of ``old``; return the kind of ending the run had."""
    finite = np.isfinite(old.states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        assert new.truncated
        # a pow that overflows raises on floats, where numpy returns inf
        assert new.error in ("non-finite state at t = %.6g" % old.times[k], OVERFLOW)
        assert new.times.tobytes() == old.times[:k].tobytes()
        assert new.states.tobytes() == old.states[:k].tobytes()
        return "non-finite"
    assert new.times.tobytes() == old.times.tobytes()
    assert new.states.tobytes() == old.states.tobytes()
    assert (new.truncated, new.error) == (old.truncated, old.error)
    assert (new.steps_accepted, new.steps_rejected) == (
        old.steps_accepted, old.steps_rejected)
    return old.error or "complete"


def both(model, p0, dt, steps, scheme="rk4"):
    """(ending, trajectory) of ``integrate``, checked against the oracle."""
    new = integrate(model, p0, dt, steps, scheme=scheme)
    old = oracle.integrate(model, p0, dt, steps, scheme=scheme)
    return outcome(new, old), new


# bcn N=6 has the largest generated stage the tests build
MODELS = [("bcn", 1), ("bcn", 2), ("bcn", 3), ("bcn", 4), ("bcn", 6), ("dn", 2),
          ("dn", 3)]
BUILD = {"bcn": build_bcn, "dn": build_dn}


@pytest.mark.parametrize("scheme", ["rk4", "rk4-adaptive"])
@pytest.mark.parametrize("name,n", MODELS)
def test_smooth_runs_match_oracle(name, n, scheme):
    model = BUILD[name](n)
    dt, steps = (1e-2, 60) if scheme == "rk4" else (0.05, 4)
    rejected = 0
    for seed in range(3):
        p0 = random_phase_point(model, np.random.default_rng(seed))
        ending, traj = both(model, p0, dt, steps, scheme)
        assert ending == "complete"
        rejected += traj.steps_rejected
    # the adaptive runs go through the rejection branch too
    assert (rejected > 0) == (scheme == "rk4-adaptive")


@pytest.mark.parametrize("scheme", ["rk4", "rk4-adaptive"])
def test_blow_ups_match_oracle(scheme):
    # large initial data and long steps: runs that overflow, hit the
    # adaptive cap or finish, each with the oracle's outcome
    steps = 120 if scheme == "rk4" else 2
    endings = collections.Counter()
    for model in (build_dn(2), build_bcn(2)):
        for amplitude in (2.0, 3.5, 5.0):
            for dt in (0.05, 0.2, 0.5):
                for seed in range(3):
                    p0 = random_phase_point(
                        model, np.random.default_rng(seed), amplitude=amplitude)
                    ending, _ = both(model, p0, dt, steps, scheme)
                    endings[ending] += 1
    assert endings["complete"] and endings[OVERFLOW], endings
    if scheme == "rk4-adaptive":
        assert any(e.startswith("rk4-adaptive stopped") for e in endings), endings


def test_non_finite_run_is_the_oracle_prefix():
    model = build_dn(2)
    p0 = random_phase_point(model, np.random.default_rng(30), amplitude=2.0)
    assert both(model, p0, 0.5, 300)[0] == "non-finite"


@pytest.mark.parametrize("scheme", ["rk4", "rk4-adaptive"])
def test_singular_point_matches_oracle(dn2, scheme):
    p0 = {"x1": 0.0, "x2": 0.0, "X1": 0.5, "X2": 0.0, "H": 0.1,
          "F": 1.0 + 1e-13, "E": -0.3}
    assert both(dn2, p0, 1e-3, 100, scheme)[0] == "denominator below threshold"
