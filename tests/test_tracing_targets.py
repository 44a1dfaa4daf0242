"""Guard for the benchmark's per-layer tracing (perfbench/tracing.py).

The tracer names program functions by module and attribute path and
unpacks the stencil operators to count their nonzeros, so a refactor of the
solver can leave `--trace 1` reporting metrics as missing.  These tests
read tracing.py without installing it.
"""
import importlib.util
import os
from collections import Counter

from boltzlab.collision import KernelSpec, QuadratureRule
from boltzlab.geometry import Domain
from boltzlab.solver import PhaseGrid, Solver

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solver_trace_targets_resolve():
    tracing = _tracing()
    names = [n for n in tracing.TARGETS if n.startswith("solver.")]
    assert names
    for name in names:
        module, path = tracing.TARGETS[name]
        assert tracing._resolve(module, path) is not None, name


def test_nnz_hook_accepts_stencil_operators():
    tracing = _tracing()
    grid = PhaseGrid(Domain("ball", dim=2, radius=1.0), 8, 8, R_v=2.0)
    rule = QuadratureRule.build(2, sphere_order=6, radial_order=2,
                                angular_order=6, R_v=2.0)
    spec = KernelSpec("constant", dim=2, params={"value": 0.01})
    _, ops = Solver(spec, grid, rule)._setup()
    counter = type("Counts", (), {"counts": Counter()})()
    tracing._count_nnz(counter, ops)
    Su, parts = ops
    expected = Su.nnz + sum(a.nnz + b.nnz for _, a, b in parts)
    assert counter.counts["stencil_nnz"] == expected > Su.nnz
