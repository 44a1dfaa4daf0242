"""Span tracing of boltzlab's layers, from outside the program.

The program's layers call each other through module-level names (a function
defined in, or imported into, a module is looked up in that module's globals
at call time), so replacing those names with timing wrappers records every
call without editing the program.  Spans are kept in memory while the
benchmark runs and summarised at the end.

A target whose module attribute no longer exists is reported as missing, and
so is every metric that depends on it; a metric is never reported as 0 for a
function that is gone.
"""
import importlib
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path).  The first part of the span name is
# the layer; the attribute path may name a method of a module-level class.
TARGETS = {
    "solver.picard_solve": ("boltzlab.solver", "picard_solve"),
    "solver.collision_stage": ("boltzlab.solver", "_collision_stage_sparse"),
    "solver.collision_stage_reference": ("boltzlab.solver", "_collision_stage_np"),
    "solver.line_stage": ("boltzlab.solver", "_line_stage_np"),
    "solver.tables": ("boltzlab.solver", "_PicardTables.__init__"),
    "solver.stencil_operators": ("boltzlab.solver", "_PicardTables.stencil_operators"),
    "solver.f0_tables": ("boltzlab.solver", "_PicardTables.f0_tables_velocity_only"),
    "solver.residual": ("boltzlab.solver", "_sample_pde_residual"),
    "solver.fringe": ("boltzlab.solver", "PhaseGrid.fill_fringe"),
    "solver.boundary_trace": ("boltzlab.solver", "boundary_trace"),
    "collision.admissibility": ("boltzlab.collision", "admissibility_check"),
    "collision.kernel_eval": ("boltzlab.collision", "kernel_eval"),
    "geometry.exit_times": ("boltzlab.geometry", "exit_times"),
    "linearize.fd": ("boltzlab.linearize", "w_finite_difference"),
    "linearize.quadrature": ("boltzlab.linearize", "w_quadrature"),
    "reconstruct.mollified_S": ("boltzlab.reconstruct", "mollified_S"),
    "reconstruct.gain_term": ("boltzlab.reconstruct", "_gain_term"),
    "reconstruct.loss_term": ("boltzlab.reconstruct", "_loss_term"),
    "reconstruct.mollifier": ("boltzlab.reconstruct", "mollifier"),
    "cli.fd_probe": ("boltzlab.cli", "_probe_value_fd"),
    "cli.write_checks": ("boltzlab.cli", "_write_checks"),
    "cli.field_to_csv": ("boltzlab.solver", "field_to_csv"),
    "cli.trace_to_csv": ("boltzlab.solver", "trace_to_csv"),
    "cli.convergence_to_csv": ("boltzlab.linearize", "convergence_to_csv"),
    "cli.experiment_to_csv": ("boltzlab.reconstruct", "experiment_to_csv"),
}

CSV_WRITERS = ("cli.write_checks", "cli.field_to_csv", "cli.trace_to_csv",
               "cli.convergence_to_csv", "cli.experiment_to_csv")


def _inclusive(*spans):
    return ("inclusive", spans)


def _calls(*spans):
    return ("calls", spans)


# per-layer metric -> (unit, how it is computed, spans it needs).  Times are
# per pass; "inclusive" sums the span's duration over calls not nested in
# another call of the same span.
LAYER_METRICS = {
    "solver.collision_stage_s": ("s", _inclusive("solver.collision_stage",
                                                 "solver.collision_stage_reference")),
    "solver.line_stage_s": ("s", _inclusive("solver.line_stage")),
    "solver.stencil_nnz": ("count", ("nnz_per_solve", ("solver.stencil_operators",
                                                       "solver.picard_solve"))),
    "solver.map_applications": ("count", _calls("solver.collision_stage",
                                                 "solver.collision_stage_reference")),
    "solver.tables_s": ("s", _inclusive("solver.tables", "solver.stencil_operators",
                                        "solver.f0_tables")),
    "solver.residual_s": ("s", _inclusive("solver.residual")),
    "solver.fringe_s": ("s", _inclusive("solver.fringe")),
    "solver.boundary_trace_s": ("s", _inclusive("solver.boundary_trace")),
    "solver.picard_self_s": ("s", ("self", ("solver.picard_solve",))),
    "solver.solves": ("count", _calls("solver.picard_solve")),
    "collision.admissibility_s": ("s", _inclusive("collision.admissibility")),
    "collision.kernel_eval_s": ("s", _inclusive("collision.kernel_eval")),
    "collision.kernel_eval_calls": ("count", _calls("collision.kernel_eval")),
    "geometry.exit_times_s": ("s", _inclusive("geometry.exit_times")),
    "geometry.exit_times_calls": ("count", _calls("geometry.exit_times")),
    "linearize.fd_s": ("s", _inclusive("linearize.fd")),
    "linearize.quadrature_s": ("s", _inclusive("linearize.quadrature")),
    "linearize.solves": ("count", ("solves_under", ("linearize.fd",
                                                    "solver.picard_solve"))),
    "reconstruct.probes": ("count", _calls("reconstruct.mollified_S")),
    "reconstruct.gain_term_s": ("s", _inclusive("reconstruct.gain_term")),
    "reconstruct.loss_term_s": ("s", _inclusive("reconstruct.loss_term")),
    "reconstruct.mollifier_s": ("s", _inclusive("reconstruct.mollifier")),
    "reconstruct.quad_triples": ("count", ("counter", ("reconstruct.gain_term",
                                                       "reconstruct.loss_term",
                                                       "collision.kernel_eval"))),
    "cli.fd_probe_s": ("s", _inclusive("cli.fd_probe")),
    "cli.fd_probe_solves": ("count", ("solves_under", ("cli.fd_probe",
                                                       "solver.picard_solve"))),
    "cli.csv_write_s": ("s", _inclusive(*CSV_WRITERS)),
    "cli.bytes_written": ("count", ("counter", ())),
}

# counter that a metric of kind "counter" reads
_COUNTER_OF = {"reconstruct.quad_triples": "quad_triples",
               "cli.bytes_written": "bytes_written"}


def _resolve(module, path):
    """(owner, attribute, current value) of a target, or None when gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Tracer:
    """Records spans (name, parent, start, end) and named counts.

    Spans are recorded only while ``active`` is true, so set-up and the
    benchmark's own checks stay out of the per-layer figures.
    """

    def __init__(self):
        self.active = False
        self.spans = []          # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = Counter()
        self.missing = set()
        self.wrapped_calls = 0

    def install(self):
        """Wrap every target; record the ones that no longer exist."""
        for name, (module, path) in TARGETS.items():
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if "." in path:
                setattr(owner, attr, wrapper)
                continue
            # rebind the function in every module that imported it by name
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("boltzlab"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.wrapped_calls += 1
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[3] = time.perf_counter()
            if hook is not None:
                hook(self, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def call_cost(self, n=20000):
        """Seconds one recorded call adds, measured on a wrapped no-op."""
        noop = lambda: None
        wrapped = self._wrap("calibration", noop)
        keep = len(self.spans)
        t = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t
        self.active = True
        t = time.perf_counter()
        for _ in range(n):
            wrapped()
        traced = time.perf_counter() - t
        self.active = False
        del self.spans[keep:]
        self.wrapped_calls -= n
        return max(traced - bare, 0.0) / n

    def inside(self, *names):
        return any(self.spans[i][0] in names for i in self.stack)

    def self_times(self):
        """Self time per span name: duration minus what its children cover."""
        child = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def _has_ancestor(self, i, names):
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][1]
        return False

    def layer_metrics(self, passes):
        """Per-layer metrics per pass, and the names of missing ones."""
        inclusive = defaultdict(float)
        calls = Counter()
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            if not self._has_ancestor(i, (name,)):
                inclusive[name] += t1 - t0
        selft = self.self_times()
        values, missing = {}, []
        for metric, (unit, (kind, spans)) in LAYER_METRICS.items():
            if any(s in self.missing for s in spans):
                missing.append(metric)
                continue
            if kind == "inclusive":
                v = sum(inclusive[s] for s in spans)
            elif kind == "calls":
                v = sum(calls[s] for s in spans)
            elif kind == "self":
                v = sum(selft.get(s, 0.0) for s in spans)
            elif kind == "solves_under":
                outer, inner = spans
                v = sum(1 for i, sp in enumerate(self.spans)
                        if sp[0] == inner and self._has_ancestor(i, (outer,)))
            elif kind == "nnz_per_solve":
                solves = calls["solver.picard_solve"]
                values[metric] = {"value": self.counts["stencil_nnz"] / solves
                                  if solves else 0.0, "unit": unit}
                continue
            else:
                v = self.counts[_COUNTER_OF[metric]]
            values[metric] = {"value": v / passes, "unit": unit}
        return values, missing

    def summary(self):
        """Calls, inclusive and self seconds per span name, largest self first."""
        calls = Counter(sp[0] for sp in self.spans)
        total = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            total[name] += t1 - t0
        selft = self.self_times()
        rows = [{"span": n, "calls": calls[n], "total_s": total[n],
                 "self_s": selft[n]} for n in calls]
        return sorted(rows, key=lambda r: -r["self_s"])


def _count_nnz(tracer, ops):
    Su, tiles = ops
    tracer.counts["stencil_nnz"] += Su.nnz + sum(a.nnz + b.nnz for _, a, b in tiles)


def _count_triples(tracer, out):
    # every (v, u, omega) triple of a probe integral passes through one
    # kernel evaluation; elsewhere kernel_eval serves the solver
    if tracer.inside("reconstruct.gain_term", "reconstruct.loss_term"):
        tracer.counts["quad_triples"] += int(getattr(out, "size", 1))


_HOOKS = {"solver.stencil_operators": _count_nnz,
          "collision.kernel_eval": _count_triples}
