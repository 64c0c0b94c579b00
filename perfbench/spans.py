"""In-memory span tracer wrapped around the public functions of bilax.

A span is one call into a traced function: its name, the span that was open
when it started (its parent), and its start and end in integer nanoseconds.
Spans stay in memory until the run ends; ``write`` then dumps them.

The wrappers are installed from outside the package.  A function imported
by value (``from .double_row import check_theorem_zc``) has one binding per
importing module, so ``Tracer.rebind`` replaces every binding of the same
function object in every loaded ``bilax`` module and class, not only the one
in the defining module; otherwise calls through the copies go uncounted.
"""

from __future__ import annotations

import collections
import functools
import gzip
import sys
import time
from array import array

# (span name, module, attribute path).  A span's ``.s`` metric is its self
# time: duration minus the time covered by its child spans.
LAYERS = [
    ("kernel.mul", "bilax.backend", "kernel.mul"),
    ("kernel.mul_acc", "bilax.backend", "kernel.mul_acc"),
    ("kernel.add", "bilax.backend", "kernel.add"),
    ("kernel.sub", "bilax.backend", "kernel.sub"),
    ("kernel.diff", "bilax.backend", "kernel.diff"),
    ("kernel.scale", "bilax.backend", "kernel.scale"),
    ("phase_ring.bracket", "bilax.phase_ring", "PoissonStructure.bracket"),
    ("phase_ring.bracket_fraction", "bilax.phase_ring", "PoissonStructure.bracket_fraction"),
    ("phase_ring.fraction_mul", "bilax.phase_ring", "Fraction.__mul__"),
    ("phase_ring.fraction_add", "bilax.phase_ring", "Fraction.__add__"),
    ("phase_ring.fraction_eq", "bilax.phase_ring", "Fraction.__eq__"),
    ("phase_ring.exact_divide", "bilax.phase_ring", "exact_divide"),
    ("spectral_matrix.matmul", "bilax.spectral_matrix", "SpectralMatrix.__matmul__"),
    ("spectral_matrix.kron", "bilax.spectral_matrix", "kron"),
    ("spectral_matrix.partial_trace_a", "bilax.spectral_matrix", "partial_trace_a"),
    ("spectral_matrix.inverse_2x2", "bilax.spectral_matrix", "inverse_2x2"),
    ("spectral_matrix.bracket_scalar_matrix", "bilax.spectral_matrix", "bracket_scalar_matrix"),
    ("double_row.monodromy", "bilax.double_row", "monodromy"),
    ("double_row.double_row_transfer", "bilax.double_row", "double_row_transfer"),
    ("double_row.transfer_expansion", "bilax.double_row", "transfer_expansion"),
    ("double_row.boundary_M", "bilax.double_row", "boundary_M"),
    ("double_row.lambda_series_coefficient", "bilax.double_row", "lambda_series_coefficient"),
    ("double_row.flow_matrix", "bilax.double_row", "flow_matrix"),
    ("toda_models.build", "bilax.toda_models", "model_from_config"),
    ("toda_models.expansion", "bilax.toda_models", "expansion"),
    ("toda_models.hamiltonian", "bilax.toda_models", "hamiltonian"),
    ("toda_models.model_flow_matrix", "bilax.toda_models", "model_flow_matrix"),
    ("toda_models.derived_eom", "bilax.toda_models", "derived_eom"),
    ("toda_models.displayed", "bilax.toda_models", "displayed_hamiltonian"),
    ("toda_models.displayed", "bilax.toda_models", "displayed_flow_matrix"),
    ("dynamics.compile", "bilax.dynamics", "compile_any"),
    ("dynamics.compile", "bilax.dynamics", "compile_fraction"),
    ("dynamics.compile", "bilax.dynamics", "compile_element"),
    ("dynamics.integrate", "bilax.dynamics", "integrate"),
    ("dynamics.conserved_channels", "bilax.dynamics", "conserved_channels"),
    ("dynamics.zero_curvature_residual", "bilax.dynamics", "zero_curvature_residual"),
    ("dynamics.dn_x0_relation_residual", "bilax.dynamics", "dn_x0_relation_residual"),
    ("dynamics.write_csv", "bilax.dynamics", "write_csv"),
]

# Functions counted without a span: they run once per RK4 stage or per
# diagnostic sample, where a span would cost more than the work it times.
COUNTED = [
    ("dynamics.integrate.rhs_evals", "bilax.dynamics", "CompiledVectorField.__call__"),
    ("dynamics.ring_values.calls", "bilax.dynamics", "ring_values"),
]

# The relation groups of ``bilax verify``, by the name ``bilax.cli`` calls.
# A check span covers the whole group, so its ``.s`` metric is its duration.
CHECKS = {
    "expansion": "check.derivation",
    "hamiltonian": "check.derivation",
    "check_cybe": "check.cybe",
    "check_rll": "check.rll",
    "check_k_locality": "check.k_locality",
    "check_reflection_minus": "check.reflection_minus",
    "check_reflection_plus": "check.reflection_plus",
    "check_nondynamical": "check.nondynamical",
    "check_single_row_commutation": "check.single_row",
    "check_transfer_commutation": "check.bb_commute",
    "check_sts_identity": "check.sts_identity",
    "check_involution": "check.involution",
    "check_theorem_zc": "check.theorem_zc",
    "verify_corollary": "check.corollary",
    "check_nondynamical_intertwining": "check.intertwining",
    "parameter_constant_difference": "check.closed_form",
    "displayed_hamiltonian": "check.closed_form",
    "displayed_flow_indices": "check.closed_form",
    "displayed_flow_matrix": "check.closed_form",
    "model_flow_matrix": "check.closed_form",
}

SPAN_NAMES = sorted({name for name, _, _ in LAYERS})
CHECK_NAMES = sorted(set(CHECKS.values()))


def _per_layer_names():
    out = []
    for name in SPAN_NAMES:
        if name.startswith("dynamics.") and name != "dynamics.compile":
            out.append((name + ".s", "s"))
            continue
        out += [(name + ".calls", "count"), (name + ".s", "s")]
    out += [
        ("kernel.mul.term_products", "count"),
        ("kernel.mul.mterms_per_s", "Mterm/s"),
        ("phase_ring.exact_divide.none", "count"),
        ("phase_ring.bracket_fraction.max_terms", "count"),
        ("double_row.boundary_M.distinct_ratio", "ratio"),
        ("double_row.transfer_expansion.distinct_ratio", "ratio"),
        ("dynamics.integrate.rhs_evals", "count"),
        ("dynamics.integrate.steps", "count"),
        ("dynamics.ring_values.calls", "count"),
        ("dynamics.samples", "count"),
    ]
    out += [(name + ".s", "s") for name in CHECK_NAMES]
    out += [
        ("check.failed", "count"),
        ("check.coverage", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("trace.count_mismatches", "count"),
    ]
    return out


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = _per_layer_names()


def _resolve(module, path):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return getattr(owner, attr)


class Tracer:
    """Spans in parallel arrays, plus exact counters (and one maximum) and
    the distinct-argument sets behind the ``distinct_ratio`` metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = collections.Counter()
        self.keys = collections.defaultdict(set)
        self._patches = []
        self._taken = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------------

    def span(self, name, fn, after=None, reentrant=True):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        updates counters.  A non-reentrant span called from inside a span of
        the same name is not recorded again."""
        nid = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if not reentrant and top >= 0 and span_name[top] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            parent.append(top)
            start.append(now())
            end.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` inside a top-level span; return its result."""
        return self.span(name, fn)(*args)

    # -- installation ---------------------------------------------------------

    def rebind(self, fn, replacement, modules=None):
        """Replace every binding of ``fn`` in the ``bilax`` modules (or in
        ``modules``) and in the classes they define."""
        if modules is None:
            modules = [m for n, m in sorted(sys.modules.items())
                       if n == "bilax" or n.startswith("bilax.")]
        for mod in modules:
            holders = [mod] + [
                c for c in vars(mod).values()
                if isinstance(c, type) and c.__module__ == mod.__name__
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, replacement)

    def install(self):
        """Wrap every function of LAYERS, COUNTED and CHECKS."""
        after = {
            "kernel.mul": self._after_mul,
            "phase_ring.exact_divide": self._after_exact_divide,
            "phase_ring.bracket_fraction": self._after_bracket_fraction,
            "double_row.boundary_M": self._after_boundary_m,
            "double_row.transfer_expansion": self._after_transfer_expansion,
            "dynamics.integrate": self._after_integrate,
        }
        for name, module, path in LAYERS:
            fn = _resolve(module, path)
            self.rebind(fn, self.span(name, fn, after.get(name),
                                      reentrant=name != "dynamics.compile"))
        for name, module, path in COUNTED:
            fn = _resolve(module, path)
            self.rebind(fn, self.counted(name, fn))
        cli = sys.modules["bilax.cli"]
        for attr, name in CHECKS.items():
            fn = getattr(cli, attr)
            self.rebind(fn, self.span(name, fn), modules=[cli])

    def restore(self):
        while self._patches:
            holder, key, value = self._patches.pop()
            setattr(holder, key, value)

    def _after_mul(self, args, result):
        self.counts["kernel.mul.term_products"] += len(args[0]) * len(args[1])

    def _after_exact_divide(self, args, result):
        if result is None:
            self.counts["phase_ring.exact_divide.none"] += 1

    def _after_bracket_fraction(self, args, result):
        key = "phase_ring.bracket_fraction.max_terms"
        self.counts[key] = max(self.counts[key], len(result.num.terms))

    def _after_boundary_m(self, args, result):
        lax, km, kp, n, j, lam_expr, mu_expr = args[:7]
        self.keys["double_row.boundary_M"].add(
            (id(lax), id(km), id(kp), n, j, lam_expr.key(), mu_expr.key()))

    def _after_transfer_expansion(self, args, result):
        lax, km, kp, n = args[:4]
        self.keys["double_row.transfer_expansion"].add((id(lax), id(km), id(kp), n))

    def _after_integrate(self, args, result):
        self.counts["dynamics.integrate.steps"] += len(result.times) - 1
        self.counts["dynamics.samples"] += len(result.times)

    # -- repetitions and metrics --------------------------------------------

    def take(self):
        """Per-layer metrics of the spans and counters recorded since the
        last ``take``; counters and key sets start again from zero."""
        lo, hi = self._taken, len(self.start)
        self._taken = hi
        calls = [0] * len(self.names)
        dur = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, own in zip(range(lo, hi), self.self_times_ns(lo, hi)):
            nid = self.span_name[i]
            calls[nid] += 1
            dur[nid] += self.end[i] - self.start[i]
            self_ns[nid] += own

        def get(table, name):
            return table[self._ids[name]] if name in self._ids else 0

        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = get(calls, name)
            out[name + ".s"] = get(self_ns, name) / 1e9
        for name in CHECK_NAMES:
            out[name + ".s"] = get(dur, name) / 1e9
        out.update(self.counts)
        for name in ("double_row.boundary_M", "double_row.transfer_expansion"):
            n_calls = out[name + ".calls"]
            out[name + ".distinct_ratio"] = (
                len(self.keys[name]) / n_calls if n_calls else 0.0)
        mul_s = out["kernel.mul.s"]
        out["kernel.mul.mterms_per_s"] = (
            out.get("kernel.mul.term_products", 0) / mul_s / 1e6 if mul_s else 0.0)
        out["trace.spans"] = hi - lo
        self.counts.clear()
        self.keys.clear()
        return {name: out.get(name, 0) for name, _ in PER_LAYER}

    def self_times_ns(self, lo=0, hi=None):
        """Self time of spans lo..hi-1, which must hold all their children."""
        hi = len(self.start) if hi is None else hi
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            if self.parent[i] >= lo:
                own[self.parent[i] - lo] -= self.end[i] - self.start[i]
        return own

    def write(self, path):
        """Dump every span as gzip-compressed CSV."""
        self_ns = self.self_times_ns()
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns,self_ns\n")
            for i in range(len(self.start)):
                fh.write("%d,%d,%s,%d,%d,%d\n" % (
                    i, self.parent[i], self.names[self.span_name[i]],
                    self.start[i], self.end[i], self_ns[i]))


def count_mismatches(reps):
    """Counts that differ between repetitions of one workload, as
    (name, values).  Every count must repeat exactly: the workloads are
    deterministic, so a difference means the run did not do the same work."""
    bad = []
    for name, unit in PER_LAYER:
        values = [rep[name] for rep in reps if name in rep]
        if unit == "count" and len(set(values)) > 1:
            bad.append((name, values))
    return bad
