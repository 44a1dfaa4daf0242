"""First and second linearizations of the solution map.

The solution for boundary data eps1*g1 + eps2*g2 expands in the amplitudes.
The first-order terms are the free transports of g1 and g2.  Both are
velocity profiles, which free transport carries unchanged, so the
first-order fields are the profiles g1(v) and g2(v) themselves.  The mixed
second-order term solves a transport equation whose right-hand side S is a
collision-type quadrature of the two first-order fields; S depends on v
alone, so the integral along the backward characteristic is

    W(x, v) = int_0^{tau(x,v)} S(v) ds = tau(x,v) * S(v).

The same W is also reachable from measured data alone: the second mixed
difference of the boundary operator, divided by eps1*eps2, converges to the
trace of W on the outgoing boundary as the amplitudes shrink.  This module
implements both routes and cross-validates them.
"""

from dataclasses import dataclass

import numpy as np

from .collision import KernelSpec, QuadratureRule
from .errors import ConvergenceError, PreconditionError
from .geometry import Domain, exit_times
from .solver import (BoundarySource, Solver, _collision_pair, _PicardTables,
                     boundary_trace)

__all__ = [
    "second_order_source", "FDConvergence", "w_quadrature",
    "mixed_difference", "w_finite_difference", "convergence_to_csv",
]


def second_order_source(phi1, phi2, V, spec: KernelSpec,
                        rule: QuadratureRule) -> np.ndarray:
    """Collision-bracket source S = Q(phi1, phi2) + Q(phi2, phi1) of two
    first-order fields, the velocity profiles phi1 and phi2 (callables of
    v), at the velocities V (N, d) under the supplied quadrature rule: B
    times phi1(u')phi2(v') + phi2(u')phi1(v') - phi1(u)phi2(v) -
    phi2(u)phi1(v), summed on the velocity tables at V that the solver's Q
    uses (solver._collision_pair)."""
    tables = _PicardTables(spec, rule,
                           np.atleast_2d(np.asarray(V, dtype=float)))
    return _collision_pair(tables, tables.f0_tables_velocity_only(phi1),
                           tables.f0_tables_velocity_only(phi2))


def w_quadrature(phi1, phi2, spec: KernelSpec, rule: QuadratureRule,
                 domain: Domain, X, V) -> np.ndarray:
    """W = tau_-(x, v) * S(v) at the (x, v) samples, the integral of the
    second-order source S of phi1 and phi2 (second_order_source) along each
    backward characteristic; one value per sample."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    return (exit_times(domain, X, V, sign=-1)
            * second_order_source(phi1, phi2, V, spec, rule))


@dataclass
class FDConvergence:
    """Finite-difference route per amplitude pair, against the quadrature
    reference, with the disagreement split into its three sources."""

    pairs: tuple
    x: np.ndarray
    v: np.ndarray
    W_fd: np.ndarray        # (n_pairs, n_samples)
    W_quad: np.ndarray      # (n_samples,)
    errors: np.ndarray      # (n_pairs,) max abs deviation
    est_trace: float        # boundary-trace extrapolation, worst pair
    est_quad: float         # quadrature error of the reference
    est_rem: float          # linearization remainder, from the last two pairs

    @property
    def est_total(self) -> float:
        """Sum of the three estimates above.

        It has no term for the phase grid's discretisation error, so the
        actual error can exceed it: the default config with seed and
        probe_seed 102 and sample_seed 103 ends at 0.0197 against an
        est_total of 0.0134.
        """
        return self.est_trace + self.est_quad + self.est_rem


def _scaled_source(g1: BoundarySource, g2: BoundarySource, e1: float,
                   e2: float) -> BoundarySource:
    """The data e1 g1 + e2 g2.  A profile of amplitude 0.0 is not
    evaluated: for finite y, x + 0.0 * y equals x but for the sign of a
    zero x."""
    if e2 == 0.0:
        func = lambda V: e1 * g1(V)
    elif e1 == 0.0:
        func = lambda V: e2 * g2(V)
    else:
        func = lambda V: e1 * g1(V) + e2 * g2(V)
    return BoundarySource(func=func,
                          sup_norm=e1 * g1.sup_norm + e2 * g2.sup_norm)


def _check_pair(e1: float, e2: float):
    """The mixed difference divides by e1 * e2, which must not be 0."""
    if e1 * e2 == 0.0:
        raise PreconditionError(f"amplitude pair {(e1, e2)}: e1 * e2 == 0")


def mixed_difference(solver: Solver, g1: BoundarySource, g2: BoundarySource,
                     e1: float, e2: float, X, V):
    """Second mixed difference of the boundary map at outgoing samples:
    W = [A(e1 g1 + e2 g2) - A(e1 g1) - A(e2 g2)] / (e1 e2), with A(0) = 0.

    The combined, first and second data are solved in lockstep on
    `solver`.  Returns (W, traces), their traces in that order.  A pair
    with e1 * e2 == 0 raises PreconditionError before any solve; a solve
    that does not converge raises ConvergenceError naming its data and the
    amplitudes, with its report attached.
    """
    _check_pair(e1, e2)
    labels = ("combined", "first", "second")
    sources = (_scaled_source(g1, g2, e1, e2), _scaled_source(g1, g2, e1, 0.0),
               _scaled_source(g1, g2, 0.0, e2))
    try:
        results = solver.solve_many(sources)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"solve failed for the {labels[exc.index]} data at amplitudes "
            f"(eps1={e1:.3e}, eps2={e2:.3e}): {exc}",
            report=exc.report, index=exc.index) from exc
    traces = [boundary_trace(field_, X, V) for field_, _ in results]
    W = (traces[0].value - traces[1].value - traces[2].value) / (e1 * e2)
    return W, traces


def w_finite_difference(solver: Solver, g1: BoundarySource,
                        g2: BoundarySource, pairs, X, V) -> FDConvergence:
    """Recover W on outgoing samples from second differences of the
    boundary operator, one solve triple per amplitude pair (e1, e2) of
    `pairs` (mixed_difference), all on `solver`.

    For each pair, W_fd = [A(e1 g1 + e2 g2) - A(e1 g1) - A(e2 g2)] / (e1 e2)
    at the given samples (A(0) = 0).  The quadrature reference is computed
    once from the first-order fields, under the solver's kernel and rule.
    An empty `pairs`, or a pair with e1 * e2 == 0, raises PreconditionError
    before any solve.  The Solver raises
    PreconditionError when the first pair's combined data exceeds the
    smallness threshold; a failed solve names the offending amplitudes.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise PreconditionError("w_finite_difference needs at least one "
                                "amplitude pair")
    for pair in pairs:
        _check_pair(*pair)
    spec, rule, domain = solver.spec, solver.rule, solver.grid.domain
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))

    # quadrature reference from the first-order fields, which are the free
    # transports of g1 and g2, their velocity profiles (the collision term
    # is quadratic)
    ref = w_quadrature(g1, g2, spec, rule, domain, X, V)

    # quadrature error estimate: same source under a refined rule
    fine = QuadratureRule.build(
        domain.dim, sphere_order=2 * rule.sphere_order,
        radial_order=rule.radial_order + 2,
        angular_order=2 * rule.angular_order, R_v=rule.R_v)
    ref_fine = w_quadrature(g1, g2, spec, fine, domain, X, V)
    est_quad = float(np.max(np.abs(ref_fine - ref)))

    tables = np.empty((len(pairs), X.shape[0]))
    trace_res = 0.0
    for k, (e1, e2) in enumerate(pairs):
        tables[k], traces = mixed_difference(solver, g1, g2, e1, e2, X, V)
        for tab in traces:
            trace_res = max(trace_res,
                            float(np.max(tab.extrap_residual)) / (e1 * e2))

    errors = np.max(np.abs(tables - ref[None, :]), axis=1)
    if len(pairs) >= 2:
        est_rem = float(np.max(np.abs(tables[-1] - tables[-2])))
    else:
        est_rem = float(errors[-1])
    return FDConvergence(
        pairs=pairs, x=X, v=V, W_fd=tables, W_quad=ref,
        errors=errors, est_trace=trace_res, est_quad=est_quad,
        est_rem=est_rem)


def convergence_to_csv(conv: FDConvergence, path: str):
    """One row per (amplitude pair, sample); deterministic formatting."""
    n, dim = conv.x.shape
    cols = (["eps1", "eps2", "sample"] + [f"x{i}" for i in range(dim)]
            + [f"v{i}" for i in range(dim)] + ["W_fd", "W_quad", "abs_err"])
    rows = [np.column_stack([np.full(n, e1), np.full(n, e2), np.arange(n),
                             conv.x, conv.v, conv.W_fd[k], conv.W_quad,
                             np.abs(conv.W_fd[k] - conv.W_quad)])
            for k, (e1, e2) in enumerate(conv.pairs)]
    np.savetxt(path, np.concatenate(rows), fmt="%.17g", delimiter=",",
               header=",".join(cols), comments="")
