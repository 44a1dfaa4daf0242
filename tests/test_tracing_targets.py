"""Guard for the benchmark's per-layer tracing (perfbench/tracing.py).

The tracer names program functions by module and attribute path and
unpacks the stencil operators to count their nonzeros, so a refactor of any
layer can leave `--trace 1` reporting metrics as missing.  These tests
read tracing.py without installing it.
"""
import contextlib
import importlib
import importlib.util
import os
from collections import Counter
from unittest import mock

import numpy as np

from boltzlab.collision import KernelSpec, QuadratureRule
from boltzlab.geometry import Domain
from boltzlab.solver import BoundarySource, PhaseGrid, Solver

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# spans every Picard solve of velocity-only data must pass through, so that
# their per-layer times cannot read 0 because a refactor routed around them
SOLVE_SPANS = ("solver.residual", "solver.collision_stage",
               "solver.line_stage", "solver.fringe",
               "solver.stencil_operators", "solver.f0_tables")


def _small_solver():
    grid = PhaseGrid(Domain("ball", dim=2, radius=1.0), 8, 8, R_v=2.0)
    rule = QuadratureRule.build(2, sphere_order=6, radial_order=2,
                                angular_order=6, R_v=2.0)
    spec = KernelSpec("constant", dim=2, params={"value": 0.01})
    return Solver(spec, grid, rule)


def test_solver_trace_targets_resolve():
    # every target of every layer, so a rename anywhere in the program
    # cannot make a per-layer metric go missing unnoticed
    tracing = _tracing()
    assert tracing.TARGETS
    for name, (module, path) in tracing.TARGETS.items():
        assert tracing._resolve(module, path) is not None, name


def test_nnz_hook_accepts_stencil_operators():
    tracing = _tracing()
    _, ops = _small_solver()._setup()
    counter = type("Counts", (), {"counts": Counter()})()
    tracing._count_nnz(counter, ops)
    Su, parts = ops
    expected = Su.nnz + sum(a.nnz + b.nnz for _, a, b in parts)
    assert counter.counts["stencil_nnz"] == expected > Su.nnz


def test_one_solve_reaches_solver_spans():
    tracing = _tracing()
    # a quartic exponent, not a Gaussian: a Maxwellian's Q(M, M) vanishes,
    # so a Gaussian's solve stops at its closed-form first round and never
    # reaches the collision and line stages
    phi = lambda V: 3e-3 * np.exp(-(np.sum((V - 0.5) ** 2, axis=-1) ** 2))
    g = BoundarySource.from_velocity_profile(phi, sup=3e-3)
    mocks = {}
    with contextlib.ExitStack() as stack:
        for name in SOLVE_SPANS:
            module, path = tracing.TARGETS[name]
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # autospec binds self for methods; side_effect calls through
            # (an autospec mock ignores wraps= on methods)
            mocks[name] = stack.enter_context(mock.patch.object(
                owner, attr, autospec=True, side_effect=getattr(owner, attr)))
        _, report = _small_solver().solve(g)
    assert report.converged and report.residual_pde > 0.0
    assert report.iterations >= 2
    for name, spy in mocks.items():
        assert spy.called, name
