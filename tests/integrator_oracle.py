"""Reference RK4 integrator, used only as a test oracle.

This is the integration path the package used before its generated step:
one compiled function per coordinate (from the reference emitter in
``emitter_oracle``), called on a ring value vector that is refilled at
every stage, numpy arrays for the stage arithmetic, and the same
step-size control.  It has no check for non-finite states: a run that
overflows to inf or NaN without raising keeps going.  The differential tests
compare ``bilax.dynamics.integrate`` against it bit for bit.
"""

import math

import numpy as np

from bilax.dynamics import ADAPTIVE_TOL, SingularityError, Trajectory, state_names
from bilax.phase_ring import StructureError
from bilax.toda_models import derived_eom

from emitter_oracle import compile_any


class VectorField:
    """state -> d/dT state through one compiled function per coordinate."""

    def __init__(self, model):
        ring, n = model.ring, model.N
        self.model = model
        self.funcs = [compile_any(v) for v in derived_eom(model).values()]
        self.template = [0.0] * ring.nvars
        for name, val in model.params.items():
            self.template[ring.slot(name)] = float(val)
        self.u_slots = [ring.slot("u%d" % j) for j in range(1, n + 1)]
        self.x_slots = [ring.slot("X%d" % j) for j in range(1, n + 1)]
        self.sl2_slots = (
            [ring.slot(s) for s in ("E", "F", "H")] if model.name == "dn" else []
        )

    def __call__(self, y):
        v = self.template
        n = self.model.N
        for j in range(n):
            v[self.u_slots[j]] = math.exp(y[j])
            v[self.x_slots[j]] = y[n + j]
        for k, slot in enumerate(self.sl2_slots):
            v[slot] = y[2 * n + k]
        return np.array([f(v) for f in self.funcs])


def rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(model, p0, dt, steps, scheme="rk4"):
    if dt <= 0:
        raise StructureError("dt must be positive")
    f = VectorField(model)
    names = state_names(model)
    y = np.array([p0[n] for n in names], dtype=float)
    times = [0.0]
    states = [y.copy()]
    truncated = False
    error = None
    accepted = rejected = 0
    try:
        with np.errstate(all="ignore"):
            if scheme == "rk4":
                for i in range(1, steps + 1):
                    y = rk4_step(f, y, dt)
                    accepted = i
                    times.append(i * dt)
                    states.append(y.copy())
            else:
                t = 0.0
                t_end = dt * steps
                h = dt
                while t < t_end - 1e-15 and accepted < 100 * steps:
                    h = min(h, t_end - t)
                    full = rk4_step(f, y, h)
                    half = rk4_step(f, rk4_step(f, y, h / 2.0), h / 2.0)
                    err = float(np.max(np.abs(full - half)))
                    if err <= ADAPTIVE_TOL or h < 1e-12:
                        y = half
                        t += h
                        accepted += 1
                        times.append(t)
                        states.append(y.copy())
                    else:
                        rejected += 1
                    factor = 0.9 * (ADAPTIVE_TOL / err) ** 0.2 if err > 0 else 5.0
                    h *= min(5.0, max(0.2, factor))
                if t < t_end - 1e-15:
                    truncated = True
                    error = (
                        "rk4-adaptive stopped at its cap of %d accepted steps "
                        "(100 * steps) at t = %.6g of %.6g" % (100 * steps, t, t_end)
                    )
    except SingularityError as exc:
        truncated = True
        error = str(exc)
    except (OverflowError, ZeroDivisionError):
        truncated = True
        error = "coordinate overflow (trajectory left the representable range)"
    return Trajectory(
        names, np.array(times), np.array(states), {},
        truncated, error, accepted, rejected,
    )
