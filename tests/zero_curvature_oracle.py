"""The zero-curvature residual evaluated one mu sample at a time.

This is the path ``dynamics.zero_curvature_residual`` took before it
evaluated each matrix as one function per block of time rows for all mu
samples: every nonzero entry compiled on its own through ``compile_any``,
stacked into an (n_t, 2, 2) array per matrix (``_stack``), and evaluated on
the value vector ``state_columns(..., s * mu)`` for each sample and sign,
where mu is a Python float.  The package's residual must be
``tobytes()``-equal to it, or raise the same ``SingularityError``.
"""

import numpy as np

from bilax.dynamics import compile_any, state_columns
from bilax.spectral_matrix import bracket_scalar_matrix
from bilax.toda_models import hamiltonian, model_flow_matrix


def _compiled_entries(model, key, build_matrix):
    """Per-entry compiled functions of ``build_matrix()``, None where an
    entry is identically zero; kept on the model under an oracle key."""
    return model.cached(("oracle", key), lambda: [
        [None if e.is_zero else compile_any(e) for e in row]
        for row in build_matrix().rows
    ])


def _stack(compiled, v, n_t):
    out = np.zeros((n_t, 2, 2))
    for a, row in enumerate(compiled):
        for b, f in enumerate(row):
            if f is not None:
                out[:, a, b] = f(v)
    return out


def zero_curvature_residual(model, traj, mu_samples):
    """``{"zc_residual": ..., "boundary_residual": ...}``, sample by sample."""
    ps, ham = model.ps, hamiltonian(model)
    terms = [
        (
            _compiled_entries(model, ("X", label), lambda X=X: X),
            _compiled_entries(model, ("Xdot", label),
                              lambda X=X: bracket_scalar_matrix(ps, ham, X)),
            left,
            right,
        )
        for label, X, left, right in model.derivation.layout
    ]
    flows = {  # (j, ±1) -> the compiled M(j, mu), evaluated at ±mu
        (j, s): _compiled_entries(model, ("M", j), lambda j=j: model_flow_matrix(model, j))
        for *_, left, right in terms for j, s in (left, right)
    }
    n_t = len(traj.times)
    peaks = [np.zeros(n_t), np.zeros(n_t)]
    for mu_v in mu_samples:
        v = {s: state_columns(model, traj.states, s * mu_v) for s in (1, -1)}
        ms = {(j, s): _stack(c, v[s], n_t) for (j, s), c in flows.items()}
        for i, (x_c, dot_c, left, right) in enumerate(terms):
            x = _stack(x_c, v[1], n_t)
            r = _stack(dot_c, v[1], n_t) - (ms[left] @ x - x @ ms[right])
            k = int(i >= model.N)
            with np.errstate(over="ignore"):
                peaks[k] = np.maximum(peaks[k], np.sqrt(np.sum(r * r, axis=(1, 2))))
    return {"zc_residual": peaks[0], "boundary_residual": peaks[1]}
