import dataclasses
import gc
import itertools
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from boltzlab import solver
from boltzlab.collision import KernelSpec, QuadratureRule, collision_Q
from boltzlab.errors import ConvergenceError, PreconditionError
from boltzlab.geometry import Domain, exit_times
from boltzlab.reconstruct import mollifier
from boltzlab.solver import (BoundarySource, PhaseField, PhaseGrid,
                             PicardOptions, Solver, _collision_stage_np,
                             _collision_stage_sparse, _line_stage_np,
                             _ChordTable, _PicardTables, boundary_trace,
                             field_to_csv, picard_solve, trace_to_csv)

DISK = Domain("ball", dim=2, radius=1.0)


def _interior_points(domain, count, rng, margin=0.02):
    lo, hi = domain.bounding_box()
    out = []
    while len(out) < count:
        x = rng.uniform(lo, hi)
        if domain.boundary_distance(x) > margin:
            out.append(x)
    return np.array(out)


def _bump_profile(amp, center=(0.6, 0.0), width=0.5):
    # quartic exponent: decays fast but the pair product is NOT a collision
    # invariant, so the gain and loss terms do not cancel
    c = np.asarray(center, dtype=float)

    def phi(V):
        r2 = np.sum((V - c) ** 2, axis=-1)
        return amp * np.exp(-((r2 / width**2) ** 2))

    return BoundarySource.from_velocity_profile(phi, sup=amp)


SMALL_KERNEL = KernelSpec("omega_independent_poly", dim=2,
                          params={"coeffs": (0.005, 0.0, 0.005)})


def _small_rule(R_v=2.0):
    return QuadratureRule.build(2, sphere_order=8, radial_order=3,
                                angular_order=8, R_v=R_v)


def _profile_field(grid, g):
    """The free transport of a velocity profile g: G = 0 plus g(v)."""
    return PhaseField(grid, np.zeros((grid.NXF, grid.NVF)), profile=g)


# ---------------------------------------------------------------------------
# phase fields
# ---------------------------------------------------------------------------


def _locate_axis_copying(axis, q):
    """solver._locate_axis as it was written with a full temporary per
    step, the oracle of the in-place version."""
    q = np.asarray(q, dtype=float)
    h = axis[1] - axis[0]
    f = (q - axis[0]) / h
    n = axis.size
    oor = (f < -solver._SNAP) | (f > (n - 1) + solver._SNAP)
    i = np.floor(f).astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    t = f - i
    t = np.where(np.abs(t) < solver._SNAP, 0.0, t)
    t = np.where(np.abs(t - 1.0) < solver._SNAP, 1.0, t)
    t = np.clip(t, 0.0, 1.0)
    return i, t, oor


def test_locate_axis_in_place_matches_copying_version():
    # 3D points on an axis: random ones, some outside it, nodes and nodes
    # moved by +-1e-13 (inside the snap) and by +-1e-11 (outside it), and
    # signed zeros; cells, fractions and flags agree bitwise, sign bits
    # and dtypes included
    rng = np.random.default_rng(29)
    axis = np.linspace(-2.0, 2.0, 11)
    nodes = rng.choice(axis, size=(4000, 3))
    q = np.concatenate([
        rng.uniform(-2.5, 2.5, size=(20000, 3)), nodes,
        nodes + 1e-13, nodes - 1e-13, nodes + 1e-11, nodes - 1e-11,
        [[-0.0, 0.0, -2.0], [2.0, -0.0, 0.0]]])
    for query in (q, q.tolist()):
        got = solver._locate_axis(axis, query)
        want = _locate_axis_copying(axis, query)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert np.any(want[2]) and not np.all(want[2])
    assert np.any(want[1] == 0.0) and np.any(want[1] == 1.0)


def test_phase_field_node_reproduction_and_finiteness():
    grid = PhaseGrid(DISK, 8, 10, R_v=2.0)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(grid.NXF, grid.NVF))
    # the largest |value| sits on the last active node
    vals[grid.x_active_idx[-1], grid.v_active_idx[0]] = -9.0
    F = PhaseField(grid, values=vals)
    # interpolation at the nodes returns the stored values exactly
    for p in [0, 17, grid.NXF - 1]:
        for j in [0, 33, grid.NVF - 1]:
            assert F.eval(grid.x_nodes[p], grid.v_nodes[j]) == vals[p, j]
    # sup_norm, taken over blocks of spatial nodes, reaches the last block
    assert grid.x_active_idx.size > 16
    assert F.sup_norm() == 9.0
    # with a profile it reads both parts at the nodes; that equals eval
    # there, where the interpolation weights are exactly 0 and 1
    Fa = PhaseField(grid, values=vals,
                    profile=lambda V: 5.0 * V[:, 0] * V[:, 1])
    X = np.repeat(grid.x_nodes[grid.x_active_idx], grid.v_active_idx.size,
                  axis=0)
    V = np.tile(grid.v_nodes[grid.v_active_idx], (grid.x_active_idx.size, 1))
    assert Fa.sup_norm() == np.max(np.abs(Fa.eval(X, V))) != 9.0
    bad = vals.copy()
    bad[3, 4] = np.nan
    with pytest.raises(PreconditionError):
        PhaseField(grid, values=bad)


def test_phase_field_extension_policies():
    grid = PhaseGrid(DISK, 8, 10, R_v=2.0)
    vals = np.ones((grid.NXF, grid.NVF))
    x = np.array([0.0, 0.0])
    v_out = np.array([2.7, 0.0])
    Fz = PhaseField(grid, values=vals)
    assert Fz.eval(x, v_out) == 0.0
    Fa = PhaseField(grid, values=vals,
                    profile=lambda V: 0.25 * np.ones(V.shape[0]))
    # grid part vanishes outside, the profile remains
    assert Fa.eval(x, v_out) == 0.25
    assert Fa.eval(x, np.array([0.5, 0.0])) == 1.25


# ---------------------------------------------------------------------------
# Picard solver
# ---------------------------------------------------------------------------


def test_picard_zero_kernel_is_free_transport():
    spec = KernelSpec("constant", dim=2, params={"value": 0.0})
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g = _bump_profile(0.02)
    F, rep = picard_solve(spec, g, grid, _small_rule(), PicardOptions())
    assert rep.converged and rep.iterations == 1
    assert rep.deltas[0] == 0.0
    rng = np.random.default_rng(7)
    X = _interior_points(DISK, 40, rng)
    V = rng.normal(size=(40, 2))
    assert np.max(np.abs(F.eval(X, V) - g(V))) == 0.0


def test_picard_constant_data_exact():
    spec = KernelSpec("constant", dim=2, params={"value": 0.005})
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g = BoundarySource(lambda V: np.full(len(V), 0.01), 0.01)
    F, rep = picard_solve(spec, g, grid, _small_rule(), PicardOptions())
    assert rep.converged
    rng = np.random.default_rng(8)
    X = _interior_points(DISK, 40, rng)
    V = rng.normal(size=(40, 2)) * 0.6
    assert np.max(np.abs(F.eval(X, V) - 0.01)) < 1e-12


def test_picard_maxwellian_exact():
    spec = KernelSpec("constant", dim=2, params={"value": 0.01})
    grid = PhaseGrid(DISK, 14, 14, R_v=3.0)
    rule = QuadratureRule.build(2, sphere_order=8, radial_order=4,
                                angular_order=8, R_v=3.0)
    amp = 0.01
    g = BoundarySource.from_velocity_profile(
        lambda V: amp * np.exp(-np.sum(V * V, axis=-1)), sup=amp)
    F, rep = picard_solve(spec, g, grid, rule, PicardOptions())
    assert rep.converged
    V = grid.v_nodes[grid.v_active_idx]
    X = np.broadcast_to(grid.x_nodes[grid.x_active_idx][7], V.shape)
    err = np.abs(F.eval(X, V) - amp * np.exp(-np.sum(V * V, axis=-1)))
    assert np.max(err) < 1e-12


def test_picard_contraction_and_solution_bound():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _small_rule()
    opts = PicardOptions()
    ratios, sups = [], []
    for amp in (3e-3, 1.5e-3, 7.5e-4):
        g = _bump_profile(amp)
        F, rep = picard_solve(SMALL_KERNEL, g, grid, rule, opts)
        assert rep.converged
        assert rep.ratio < 0.5
        # deltas strictly positive until the converged step
        assert np.all(rep.deltas[:-1] > 0)
        ratios.append(rep.ratio)
        sups.append(F.sup_norm() / amp)
    # contraction improves as the data shrinks
    assert ratios[1] < ratios[0] and ratios[2] < ratios[1]
    # one constant bounds ||F|| / ||g|| across the scaled batch
    assert max(sups) < 2.0


def _solve_with_oracle_stage(monkeypatch, oracle, *args):
    """picard_solve with oracle(G, grid), a call of the per-node stage, in
    place of the sparse stage, so both solves share the line stage and the
    fringe fills."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_collision_stage_sparse",
                  lambda G, grid, *a, **kw: oracle(G, grid))
        return picard_solve(*args)


def _tables(spec, grid, rule):
    """The velocity tables of the grid's active v-nodes, as a Solver has
    them."""
    return _PicardTables(spec, rule, grid.v_nodes[grid.v_active_idx])


def _full_points(tables):
    """u' and v' at every (v, u, omega), one row each."""
    UP, VP = solver._post_collision_velocities(tables.Vg, tables.U, tables.W)
    dim = tables.Vg.shape[1]
    return UP.reshape(-1, dim), VP.reshape(-1, dim)


def test_picard_engines_agree(monkeypatch):
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _small_rule()
    g = _bump_profile(3e-3)
    Fn, rn = picard_solve(SMALL_KERNEL, g, grid, rule, PicardOptions())
    Fr, rr = _solve_with_oracle_stage(
        monkeypatch,
        lambda G, grid: _collision_stage_np(G, grid, g, SMALL_KERNEL, rule),
        SMALL_KERNEL, g, grid, rule, PicardOptions())
    assert rn.converged and rr.converged
    assert np.max(np.abs(Fn.values - Fr.values)) < 1e-15


def _stage_cases():
    # (spec, grid, rule, source centre, omega classes): the sparse stage
    # folds antipodal omega nodes and, in 2D, quarter turns, so these rules
    # fold 7 -> 7 (odd 2D order: neither), 8 -> 2 with an omega-dependent
    # kernel, 8 -> 4 in 3D (antipodes only), and 6 -> 3 (2D order 2 mod 4:
    # antipodes, no quarter turns)
    ball3 = Domain("ball", dim=3, radius=1.0)
    return [
        (SMALL_KERNEL, PhaseGrid(DISK, 10, 10, R_v=2.0),
         QuadratureRule.build(2, sphere_order=7, radial_order=3,
                              angular_order=8, R_v=2.0), (0.6, 0.0), 7),
        (KernelSpec("angular_bump", dim=2, params={"amplitude": 0.01}),
         PhaseGrid(DISK, 10, 10, R_v=2.0), _small_rule(), (0.6, 0.0), 2),
        (KernelSpec("constant", dim=3, params={"value": 0.01}),
         PhaseGrid(ball3, 6, 6, R_v=2.0),
         QuadratureRule.build(3, sphere_order=2, radial_order=2,
                              angular_order=2, R_v=2.0), (0.6, 0.0, 0.0), 4),
        (SMALL_KERNEL, PhaseGrid(DISK, 10, 10, R_v=2.0),
         QuadratureRule.build(2, sphere_order=6, radial_order=3,
                              angular_order=8, R_v=2.0), (0.6, 0.0), 3),
    ]


def _n_classes(rule, dim=2):
    grid = PhaseGrid(Domain("ball", dim=dim, radius=1.0), 4, 4, R_v=rule.R_v)
    spec = KernelSpec("constant", dim=dim, params={"value": 0.01})
    return _tables(spec, grid, rule).reps.size


def test_omega_classes_fold_quarter_turns_in_2d_only():
    # 2D orders divisible by 4 fold four nodes (omega, its quarter turns and
    # -omega) per class; orders 2 mod 4 keep antipodal pairs; odd orders
    # keep singletons
    for order, n_classes in ((8, 2), (12, 3), (6, 3), (7, 7)):
        rule = QuadratureRule.build(2, sphere_order=order, radial_order=2,
                                    angular_order=4, R_v=2.0)
        assert _n_classes(rule) == n_classes
    # in 3D only antipodes fold: +-e_a give 3 classes, though e_0 is
    # perpendicular to e_1 and e_2
    rule = QuadratureRule.build(3, sphere_order=2, radial_order=2,
                                angular_order=2, R_v=2.0)
    assert _n_classes(rule, 3) == 4
    axes = np.vstack([np.eye(3), -np.eye(3)])
    rule = dataclasses.replace(rule, omega_nodes=axes,
                               omega_weights=np.full(6, 4.0 * np.pi / 6))
    assert _n_classes(rule, 3) == 3


def test_quarter_turn_swaps_post_collision_pair():
    # u'(omega_perp) = v'(omega) and v'(omega_perp) = u'(omega) at every
    # (v, u) of the 32x32 grid's active nodes and the rule's nodes, to
    # rounding; node m + order / 4 is node m turned a quarter
    grid = PhaseGrid(DISK, 32, 32, R_v=2.0)
    Vg = grid.v_nodes[grid.v_active_idx]
    for order in (8, 12):
        rule = QuadratureRule.build(2, sphere_order=order, radial_order=3,
                                    angular_order=8, R_v=2.0)
        W = rule.omega_nodes
        perp = (np.arange(order) + order // 4) % order
        assert np.max(np.abs(W[perp] - W[:, ::-1] * [-1.0, 1.0])) < 1e-15
        UP, VP = solver._post_collision_velocities(Vg, rule.u_nodes, W)
        assert np.max(np.abs(UP[:, :, perp] - VP)) < 1e-14
        assert np.max(np.abs(VP[:, :, perp] - UP)) < 1e-14


def _stage_inputs(spec, grid, rule, center):
    g = _bump_profile(3e-3, center=center)
    tables = _tables(spec, grid, rule)
    return g, tables, tables.f0_tables_velocity_only(g), \
        tables.stencil_operators(grid)


def test_sparse_collision_stage_matches_reference():
    # one application of each stage on the same random state
    rng = np.random.default_rng(5)
    for spec, grid, rule, center, n_classes in _stage_cases():
        g, tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        assert tables.reps.size == n_classes
        G = 1e-3 * rng.standard_normal((grid.NXF, grid.NVF))
        Qs = _collision_stage_sparse(G, grid, tables, ops, *F0)
        Qr = _collision_stage_np(G, grid, g, spec, rule)
        assert np.max(np.abs(Qr)) > 1e-9
        assert np.max(np.abs(Qs - Qr)) < 1e-15


class _FirstIterate(Exception):
    """Raised by the wrapped _SourceRun.advance to stop a solve at k = 1."""


def test_first_iterate_is_tau_times_q0(monkeypatch):
    # F0 = phi does not depend on x, so the first iterate from G = 0 is
    # tau_-(x, v) * Q(phi, phi)(v); the oracle takes each factor from one
    # unblocked call (geometry.exit_times, collision.collision_Q) and is
    # zero off the active nodes but for the filled fringe
    def capture(run, Gn, k):
        assert k == 1
        raise _FirstIterate(Gn.copy())

    monkeypatch.setattr(solver._SourceRun, "advance", capture)
    # the 3D case's kernel mass (8.42) passes the admissibility threshold
    # 1 / (4 * 0.01) = 25, not the default 8.33; its data are below 0.01
    opts = PicardOptions(smallness_threshold=0.01)
    for spec, grid, rule, center, _ in _stage_cases():
        g = _bump_profile(3e-3, center=center)
        with pytest.raises(_FirstIterate) as got:
            Solver(spec, grid, rule, opts).solve(g)
        G1 = got.value.args[0]
        X = grid.x_nodes[grid.x_active_idx]
        V = grid.v_nodes[grid.v_active_idx]
        tau = exit_times(grid.domain, X[None, :, :], V[:, None, :], sign=-1)
        Q0 = collision_Q(g, g, V, spec, rule)
        want = np.zeros((grid.NXF, grid.NVF))
        want[np.ix_(grid.x_active_idx, grid.v_active_idx)] = \
            (tau * Q0[:, None]).T
        grid.fill_fringe(want)
        assert grid.x_fringe_idx.size > 0 and np.max(np.abs(Q0)) > 1e-9
        assert np.max(np.abs(G1 - want)) <= 1e-14 * np.max(np.abs(want))


def test_q0_is_the_collision_stage_at_zero_g():
    # Q(phi, phi) from the F0 tables is the stage's sum at G = 0, where
    # every active spatial column reads phi alone.  Gain and loss nearly
    # cancel (each is 8-14 times Q0 here), and the stage sums a block of
    # 16 columns in another order than one column (BLAS loss, einsum gain),
    # so the bound is relative to the loss term: its columns differ from
    # each other by up to 4e-15 of Q0's sup, and from Q0 by 1e-14 of it
    for spec, grid, rule, center, _ in _stage_cases():
        g, tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        Q0 = solver._collision_q0(tables, *F0)
        Q = _collision_stage_sparse(np.zeros((grid.NXF, grid.NVF)), grid,
                                    tables, ops, *F0)
        got = Q[np.ix_(grid.v_active_idx, grid.x_active_idx)]
        loss = F0[0] * (tables.Bw_loss @ F0[1])
        assert np.max(np.abs(Q0)) > 1e-9
        assert np.max(np.abs(got - Q0[:, None])) <= \
            1e-14 * np.max(np.abs(loss))


def _per_row_operator(grid, P, f0=None):
    """The stencil operator with one row per point of P, all corners kept,
    for a state with a row of ones appended at index NVF; with f0 (one
    value per point) every row ends with that value in column NVF."""
    NVF = grid.NVF
    base, fracs = grid.v_stencil(P)
    pairs = list(solver._corner_weights(fracs, grid.v_strides))
    data = [w for w, _ in pairs]
    cols = [base + off for _, off in pairs]
    mask = [base >= 0] * len(pairs)
    if f0 is not None:
        data.append(f0)
        cols.append(np.full(base.shape, NVF))
        mask.append(np.ones(base.shape, dtype=bool))
    data, cols, mask = (np.stack(a, axis=-1) for a in (data, cols, mask))
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=-1))])
    return sp.csr_matrix((data[mask], cols[mask], indptr),
                         shape=(base.size, NVF + 1))


def _at_reps(tables, a):
    """Rows (v, u, representative) of a table with one row per (v, u,
    omega)."""
    NVa, NU, NW = tables.shape
    return a.reshape(NVa, NU, NW, -1)[:, :, tables.reps].reshape(
        -1, *a.shape[1:])


def _rep_points(tables):
    """u' and v' at every (v, u, representative), one row each."""
    return tuple(_at_reps(tables, P) for P in _full_points(tables))


def _per_row_stage(G, grid, tables, g):
    """The collision stage on one operator row per (v, u, representative),
    kept as the bitwise oracle of the stage on distinct points.  Per block
    of _X_BLOCK spatial rows and tile of v_block velocity nodes, the
    per-row operators are applied to [G[rows].T; 1], and every row ends
    with F0 in that last column."""
    NVa, NU, NW = tables.shape
    NR = tables.reps.size
    NVF = grid.NVF
    vact, xact = grid.v_active_idx, grid.x_active_idx
    UP, VP = _full_points(tables)
    Su = _per_row_operator(grid, tables.U)
    Sup, Svp = (_per_row_operator(grid, _at_reps(tables, P),
                                  _at_reps(tables, g(P))) for P in (UP, VP))
    F0V, F0U = g(tables.Vg)[:, None], g(tables.U)[:, None]
    Q = np.zeros((NVF, grid.NXF))
    for start in range(0, xact.size, solver._X_BLOCK):
        rows = xact[start:start + solver._X_BLOCK]
        GT = np.empty((NVF + 1, rows.size))
        GT[:NVF] = G[rows].T
        GT[NVF] = 1.0
        HuT = F0U + Su @ GT
        QT = -(F0V + GT[vact]) * (tables.Bw_loss @ HuT)
        shape = (-1, NU, NR, rows.size)
        for j in range(0, NVa, tables.v_block):
            js = slice(j, j + tables.v_block)
            r = slice(j * NU * NR, (j + tables.v_block) * NU * NR)
            gain = (Sup[r] @ GT).reshape(shape)
            gain *= (Svp[r] @ GT).reshape(shape)
            QT[js] += np.einsum("vurx,vur->vx", gain, tables.Bw_fold[js])
        Q[vact[:, None], rows] = QT
    return Q


def _assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_distinct_point_stage_matches_per_row_stage_bitwise():
    # every stage case, on a state with zeros of both signs, and on
    # mollifier-bump data with a G that is nonzero only on the velocity
    # columns near -centre, where the stage skips the v-nodes with no live
    # gain row (a strict, non-empty subset is live)
    rng, rng_bump = np.random.default_rng(17), np.random.default_rng(22)
    for spec, grid, rule, center, _ in _stage_cases():
        g, tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        G = 1e-3 * rng.standard_normal((grid.NXF, grid.NVF))
        G[:, ::7] = 0.0
        G[:, 3::7] = -0.0
        want = _per_row_stage(G, grid, tables, g)
        assert np.max(np.abs(want)) > 1e-9
        _assert_bitwise(_collision_stage_sparse(G, grid, tables, ops, *F0),
                        want)

        c = np.asarray(center)

        def bump(V):
            return 3e-3 * mollifier(V - c, 0.7)

        F0 = tables.f0_tables_velocity_only(bump)
        near = np.linalg.norm(grid.v_nodes + c, axis=1) < 0.9
        G = 1e-3 * rng_bump.standard_normal((grid.NXF, grid.NVF))
        G[:, ~near] = 0.0
        G[:, ~near & (rng_bump.random(grid.NVF) < 0.5)] = -0.0
        G[::3, near] = -0.0
        _, [(_, Sup, Svp)] = ops
        live = solver._gain_live_nodes(G, tables, Sup, Svp, *F0[2:])
        assert live is not None and 0 < np.count_nonzero(live) < live.size
        want = _per_row_stage(G, grid, tables, bump)
        assert np.max(np.abs(want)) > 1e-8
        _assert_bitwise(_collision_stage_sparse(G, grid, tables, ops, *F0),
                        want)


def test_distinct_points_index_every_gain_row():
    # the inverse index gives back every (v, u, representative) point bit
    # for bit, and the operators hold the distinct points only
    for spec, grid, rule, center, _ in _stage_cases():
        _, tables, _, (Su, [(tiles, Sup, Svp)]) = _stage_inputs(
            spec, grid, rule, center)
        for P, pts, index, S in zip(_rep_points(tables),
                                    (tables.up_points, tables.vp_points),
                                    (tables.up_index, tables.vp_index),
                                    (Sup, Svp)):
            assert np.array_equal(pts[index].view(np.uint64),
                                  P.view(np.uint64))
            assert np.unique(pts.view(np.uint64), axis=0).shape == pts.shape
            assert pts.shape[0] < P.shape[0] and S.shape[0] == pts.shape[0]
        assert np.array_equal(np.concatenate([t[1] for t in tiles]),
                              tables.up_index)
        assert np.array_equal(np.concatenate([t[2] for t in tiles]),
                              tables.vp_index)
    # -0.0 and +0.0 are different points
    P = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, -0.0], [0.0, 1.0]])
    pts, index = solver._distinct_points(P)
    assert pts.shape == (3, 2) and index.tolist() == [0, 1, 2, 0]
    _assert_bitwise(pts[index], P)


def test_distinct_row_products_plus_f0_equal_per_row_products():
    # (corners at the distinct point) + F0 there, gathered to the rows,
    # equals the per-row product with F0 in the last column, bit for bit;
    # the distinct operators leave out corners of weight 0.0
    spec, grid, rule, center, _ = _stage_cases()[1]
    g, tables, F0, (Su, [(_, Sup, Svp)]) = _stage_inputs(spec, grid, rule,
                                                          center)
    G = 1e-3 * np.random.default_rng(18).standard_normal((grid.NXF,
                                                          grid.NVF))
    G[:, ::5] = -0.0
    GT = np.ascontiguousarray(G[grid.x_active_idx[:16]].T)
    GT1 = np.vstack([GT, np.ones((1, GT.shape[1]))])
    for P, S, f0, index in zip(_rep_points(tables), (Sup, Svp), F0[2:],
                               (tables.up_index, tables.vp_index)):
        full = _per_row_operator(grid, P, g(P))
        assert np.count_nonzero(S.data == 0.0) == 0
        assert np.count_nonzero(full.data == 0.0) > 0
        _assert_bitwise((S @ GT + f0[:, None])[index], full @ GT1)


def _line_stage_cases():
    """Chord tables of a 2D 8x8 disk and of a 3D 6x6x6 ball."""
    ball3 = Domain("ball", dim=3, radius=1.0)
    return [_ChordTable(PhaseGrid(DISK, 8, 8, R_v=2.0)),
            _ChordTable(PhaseGrid(ball3, 6, 6, R_v=2.0))]


def test_line_stage_matches_per_pair_chord_loop():
    # independent evaluation: for each active (x, v), Gauss-Legendre over
    # the backward chord [0, tau_-] of the multilinear interpolant of
    # Q(., v), written as a sum over the cell's corners
    for seed, chords in enumerate(_line_stage_cases(), start=6):
        grid = chords.grid
        dim, nx = grid.dim, grid.nx
        Q = np.random.default_rng(seed).standard_normal((grid.NVF, grid.NXF))
        G = _line_stage_np([Q], chords)[0]

        lo = grid.x_axis[0]
        h = grid.x_axis[1] - grid.x_axis[0]
        corners = np.array(list(itertools.product((0, 1), repeat=dim)))
        expected = np.zeros_like(G)
        for p in grid.x_active_idx:
            x = grid.x_nodes[p]
            V = grid.v_nodes[grid.v_active_idx]
            taus = exit_times(grid.domain, x[None, :], V, sign=-1)
            for j, v, tau in zip(grid.v_active_idx, V, taus):
                order = int(np.clip(np.ceil(tau * np.linalg.norm(v) /
                                            (solver._CHORD_SPACING * grid.h_x))
                                    + 2, solver._CHORD_ORDER_MIN,
                                    solver._CHORD_ORDER_MAX))
                nodes, weights = np.polynomial.legendre.leggauss(order)
                y = x - 0.5 * tau * (1.0 + nodes[:, None]) * v
                f = (y - lo) / h
                i = np.clip(np.floor(f).astype(int), 0, nx - 2)
                t = np.clip(f - i, 0.0, 1.0)
                Qv = Q[j].reshape((nx,) * dim)
                q = 0.0
                for c in corners:
                    w = np.prod(np.where(c == 1, t, 1.0 - t), axis=1)
                    q = q + w * Qv[tuple((i + c).T)]
                expected[p, j] = 0.5 * tau * np.sum(weights * q)
        assert np.max(np.abs(G - expected)) <= \
            1e-14 * np.max(np.abs(expected)), dim


def test_line_stage_does_not_depend_on_chunk_size(monkeypatch):
    # a pair's sum is bitwise the same whatever chunk it falls in and
    # whichever sources share its call.  Qs[0] has rows of +-0.0: alone it
    # runs the skip path, which leaves its zero rows +0.0; next to Qs[1:],
    # which make every row live, it runs the whole order groups
    for chords in _line_stage_cases():
        grid = chords.grid
        rng = np.random.default_rng(grid.dim)
        Qs = [rng.standard_normal((grid.NVF, grid.NXF)) for _ in range(3)]
        zero = rng.random(grid.NVF) < 0.6
        Qs[0][zero] = 0.0
        Qs[0][zero & (rng.random(grid.NVF) < 0.5), ::2] = -0.0
        assert 0 < np.count_nonzero(zero[grid.v_active_idx]) < \
            grid.v_active_idx.size
        assert solver._CHORD_NODE_BLOCK == 16384
        calls = (Qs, Qs[:1], Qs[1:], Qs[2:])
        ref = [_line_stage_np(c, chords) for c in calls]
        monkeypatch.setattr(solver, "_CHORD_NODE_BLOCK", 1000)
        for c, r in zip(calls, ref):
            for G, Gr in zip(_line_stage_np(c, chords), r):
                assert G.tobytes() == Gr.tobytes()
        monkeypatch.undo()
        for G, Gr in zip(ref[0] + ref[2][1:], ref[1] + ref[2] + ref[3]):
            assert G.tobytes() == Gr.tobytes()
        _assert_bitwise(ref[1][0][:, zero], np.zeros((grid.NXF, zero.sum())))
        assert np.count_nonzero(ref[1][0][:, ~zero]) > 0


def test_chord_rule_accuracy_on_a_smooth_field():
    # Q(x, v) = cos(k.x + b + 0.3 v0) at every grid node, fringe included.
    # Its integral along the backward chord, with phi = k.x + b + 0.3 v0, is
    # (sin phi - sin(phi - tau k.v)) / k.v, written here as
    # tau cos(phi - a) sin(a) / a with a = tau k.v / 2: the same value,
    # tau cos phi at k.v = 0, and no cancellation where k.v rounds to a
    # tiny nonzero (the 32x32 grid has velocities with k.v = 0 in exact
    # arithmetic).  The error is that of the bilinear interpolant, which
    # the chord spacing does not reduce; the bounds are 1.05x the errors
    # at a spacing of 1.5 h_x, which were 0.1191 and 0.02431.
    k, b = np.array([2.3, -1.7]), 0.4
    for n, bound in ((16, 0.125), (32, 0.0256)):
        grid = PhaseGrid(DISK, n, n, R_v=2.0)
        Q = np.cos((grid.x_nodes @ k)[None, :] + b + 0.3 * grid.v_nodes[:, :1])
        G = _line_stage_np([Q], _ChordTable(grid))[0]

        X = grid.x_nodes[grid.x_active_idx][:, None, :]
        V = grid.v_nodes[grid.v_active_idx][None, :, :]
        tau = exit_times(DISK, X, V, sign=-1)
        phi = X @ k + b + 0.3 * V[..., 0]
        a = 0.5 * tau * (V @ k)
        exact = tau * np.cos(phi - a) * np.sinc(a / np.pi)
        err = np.max(np.abs(G[np.ix_(grid.x_active_idx, grid.v_active_idx)]
                            - exact))
        assert err <= bound, (n, err)


def _one_call_pair_tables(grid):
    """(tau (NVa, NXa), pair order, order groups) of every active pair,
    from one exit_times call over the full (NVa, NXa, dim) broadcast."""
    X = grid.x_nodes[grid.x_active_idx]
    V = grid.v_nodes[grid.v_active_idx]
    tau = exit_times(grid.domain, X[None, :, :], V[:, None, :], sign=-1)
    length = tau * np.linalg.norm(V, axis=1)[:, None]
    order = np.ceil(length / (solver._CHORD_SPACING * grid.h_x)).astype(
        np.int64) + 2
    order = np.clip(order, solver._CHORD_ORDER_MIN,
                    solver._CHORD_ORDER_MAX).ravel()
    pair_order = np.argsort(order, kind="stable")
    orders, starts = np.unique(order[pair_order], return_index=True)
    stops = np.append(starts[1:], order.size)
    return tau, pair_order, \
        list(zip(orders.tolist(), starts.tolist(), stops.tolist()))


def test_blocked_pair_tables_match_one_call_build():
    # the chord table builds exit times and chord orders _TAU_BLOCK v-nodes
    # at a time; the 16x16 disk has 256 active v-nodes (whole blocks), the
    # 32x32 disk 1020 and the 6x6x6 ball 216 (a short last block)
    ball3 = Domain("ball", dim=3, radius=1.0)
    grids = [PhaseGrid(DISK, 16, 16, R_v=2.0),
             PhaseGrid(DISK, 32, 32, R_v=2.0), PhaseGrid(ball3, 6, 6, R_v=2.0)]
    for grid in grids:
        chords = _ChordTable(grid)
        tau, pair_order, groups = _one_call_pair_tables(grid)
        assert chords.pair_order.dtype == np.int32
        assert np.array_equal(chords.pair_order, pair_order)
        assert chords.tau.shape == tau.shape
        assert chords.tau.tobytes() == tau.tobytes()
        assert chords.order_groups == groups
    assert grid.v_active_idx.size % solver._TAU_BLOCK != 0


def test_velocity_tables_build_no_chords_or_stencils(monkeypatch):
    # the velocity tables of the default grid on the (32, 9, 32) rule:
    # exit times belong to the chord table, and the CSR stencils are built
    # only by stencil_operators, which a phi-only user such as Q(phi, phi)
    # does not call; Q0 is bitwise the loss plus the per-tile gain sum
    # over the tables' tiles, cut once with slice node ranges
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(solver, "exit_times", forbidden)
    monkeypatch.setattr(_PicardTables, "stencil_operators", forbidden)
    grid = PhaseGrid(DISK, 16, 16, R_v=2.0)
    rule = QuadratureRule.build(2, sphere_order=32, radial_order=9,
                                angular_order=32, R_v=2.0)
    tables = _tables(KernelSpec("constant", dim=2, params={"value": 0.01}),
                     grid, rule)
    assert tables.shape == (grid.v_active_idx.size, 288, 32)
    F0V, F0U, F0UP, F0VP = F0 = tables.f0_tables_velocity_only(
        _bump_profile(3e-3))
    got = solver._collision_q0(tables, *F0)
    shape = (-1, tables.shape[1], tables.reps.size)
    want = -F0V * (tables.Bw_loss @ F0U)
    for js, iu, iv in tables.tiles:
        assert isinstance(js, slice)
        gain = (F0UP[iu] * F0VP[iv]).reshape(shape)
        want[js] += np.einsum("vur,vur->v", gain, tables.Bw_fold[js])
    assert len(tables.tiles) > 1 and np.max(np.abs(want)) > 1e-9
    assert got.tobytes() == want.tobytes()


def test_picard_solve_peak_memory():
    # forward-32's problem on a 24x24 grid: the traced peak of one solve,
    # set-up included, stays below 8 full (NXF, NVF) float64 arrays
    grid = PhaseGrid(DISK, 24, 24, R_v=2.0)
    spec = KernelSpec("constant", dim=2, params={"value": 0.01})
    g = _bump_profile(1e-2, width=0.7)
    # scipy.sparse, which the solver imports on first use, is already
    # loaded by this module (sp), so the traced peak is the solve's alone
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        picard_solve(spec, g, grid, _small_rule(), PicardOptions())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.NXF * grid.NVF * 8


def test_picard_solve_leaves_no_garbage_cycles():
    # a solve frees its temporaries by reference counting alone: a cycle
    # per chunk (a recursive closure, say) would hold its arrays until the
    # collector runs and raise the peak resident size
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    spec = KernelSpec("constant", dim=2, params={"value": 0.01})
    gc.collect()
    gc.disable()
    try:
        picard_solve(spec, _bump_profile(1e-2, width=0.7), grid, _small_rule())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_picard_residuals():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    g = _bump_profile(3e-3)
    solver_ = Solver(SMALL_KERNEL, grid, _small_rule(), PicardOptions())
    F, rep = solver_.solve(g)
    scale = max(1.0, rep.sup_F)
    assert solver_.defect(F) < 10 * 1e-12 * scale
    with pytest.raises(PreconditionError, match="grid"):
        Solver(SMALL_KERNEL, PhaseGrid(DISK, 12, 12, R_v=2.0),
               _small_rule()).defect(F)
    # the sampled transport residual probes interpolation error of the
    # gridded correction; it is small relative to the data, not to tol
    assert rep.residual_pde < 1e-3


def test_picard_residual_sampling_on_coarse_grid_returns():
    # 3 h_x = 1.2 exceeds the unit ball's depth of 1, so no point is 3 h_x
    # from the boundary; the residual points are drawn at half the depth
    ball3 = Domain("ball", dim=3, radius=1.0)
    grid = PhaseGrid(ball3, 6, 6, R_v=2.0)
    rule = QuadratureRule.build(3, sphere_order=2, radial_order=2,
                                angular_order=2, R_v=2.0)
    spec = KernelSpec("constant", dim=3, params={"value": 0.004})
    F, rep = picard_solve(spec, _bump_profile(3e-3, center=(0.6, 0.0, 0.0)),
                          grid, rule)
    assert 3 * grid.h_x > 1.0
    assert rep.converged and solver._residual_samples(grid)[0].shape[0] == 64
    assert np.isfinite(rep.residual_pde)


def test_residual_collision_matches_collision_q():
    # the residual's Q(F, F), read through one row of G per sample, against
    # collision_Q at each sample (x, v) on the field P -> F.eval(x, P): the
    # central difference dominates the residual's max, so the Q values are
    # compared
    rng = np.random.default_rng(17)
    for spec, grid, rule, center, _ in _stage_cases():
        g = _bump_profile(3e-3, center=center)
        X, V = solver._residual_samples(grid)
        tables = _PicardTables(spec, rule, V)
        F = PhaseField(grid, 1e-3 * rng.standard_normal((grid.NXF, grid.NVF)),
                       profile=g)
        want = np.empty(len(V))
        for i, (x, v) in enumerate(zip(X, V)):
            H = lambda P: F.eval(x, P)
            want[i] = collision_Q(H, H, v, spec, rule)[0]
        got = solver._residual_collision(F, X, tables)
        assert np.max(np.abs(want)) > 1e-9
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_picard_smallness_and_admissibility_guards():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _small_rule()
    with pytest.raises(PreconditionError):
        picard_solve(SMALL_KERNEL, _bump_profile(0.5), grid, rule)
    big = KernelSpec("constant", dim=2, params={"value": 10.0})
    with pytest.raises(PreconditionError):
        picard_solve(big, _bump_profile(0.01), grid, rule)


def test_solver_refuses_mixed_dimensions_by_name():
    # a 3D rule on a 2D grid used to fail at the first solve with numpy's
    # shape mismatch, and a 3D kernel on a 2D grid and rule solved silently
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule3 = QuadratureRule.build(3, sphere_order=4, radial_order=2,
                                 angular_order=4, R_v=2.0)
    spec3 = KernelSpec("constant", dim=3, params={"value": 0.002})
    for spec, rule, dims in ((SMALL_KERNEL, rule3, (2, 2, 3)),
                             (spec3, _small_rule(), (3, 2, 2))):
        with pytest.raises(PreconditionError,
                           match="kernel dim %d, grid dim %d and rule dim %d "
                                 "differ" % dims):
            Solver(spec, grid, rule)


def test_rule_beyond_the_grid_square_is_rejected_at_first_solve():
    # the rule's u-nodes reach past the grid's velocity square [-2, 2]^2:
    # the Solver builds, and its first solve raises
    wide = _small_rule(R_v=3.0)
    assert np.max(np.abs(wide.u_nodes)) > 2.0
    spec = KernelSpec("constant", dim=2, params={"value": 0.002})
    solver_ = Solver(spec, PhaseGrid(DISK, 10, 10, R_v=2.0), wide)
    with pytest.raises(PreconditionError, match="exceed the grid square"):
        solver_.solve(_bump_profile(3e-3))


def test_picard_nonconvergence_carries_report():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g = _bump_profile(0.02)
    with pytest.raises(ConvergenceError) as ei:
        picard_solve(SMALL_KERNEL, g, grid, _small_rule(),
                     PicardOptions(max_iter=1))
    rep = ei.value.report
    assert rep is not None and not rep.converged
    assert rep.deltas.size == 1 and rep.deltas[0] > 1e-12


# ---------------------------------------------------------------------------
# Solver: shared set-up, sources in lockstep
# ---------------------------------------------------------------------------


def _assert_same_solve(got, want):
    """Bitwise equality of two (PhaseField, ConvergenceReport) results."""
    (F, rep), (Fw, repw) = got, want
    assert np.array_equal(F.values, Fw.values)
    assert rep.iterations == repw.iterations
    assert rep.converged == repw.converged
    assert np.array_equal(rep.deltas, repw.deltas)
    for name in ("residual_pde", "sup_F", "ratio"):
        assert getattr(rep, name) == getattr(repw, name), name


def _default_setup():
    from boltzlab.config import load_config

    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "default.json"))
    return cfg, cfg.build_solver()


def test_solve_many_matches_independent_solves_on_default_triple(
        monkeypatch):
    # the default run's first linearize triple: combined, first and second
    # data at eps = (1e-2, 1e-2) need 4, 3 and 3 iterations; round 1 is
    # closed form, rounds 2 and 3 apply the map to all three sources and
    # round 4 to the first alone: 7 collision stages in 3 line stages
    from boltzlab.cli import _quartic_source
    from boltzlab.linearize import _scaled_source

    cfg, solver_ = _default_setup()
    lin = cfg.section("linearize")
    g1 = _quartic_source(lin["center1"], lin["width"], 1.0)
    g2 = _quartic_source(lin["center2"], lin["width"], 1.0)
    e1, e2 = lin["eps1"], lin["eps2"]
    triple = [_scaled_source(g1, g2, e1, e2), _scaled_source(g1, g2, e1, 0.0),
              _scaled_source(g1, g2, 0.0, e2)]
    calls = Counter()
    for name in ("_collision_stage_sparse", "_line_stage_np"):
        def counted(*args, _name=name, _stage=getattr(solver, name)):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(solver, name, counted)
    results = solver_.solve_many(triple)
    assert [rep.iterations for _, rep in results] == [4, 3, 3]
    assert calls == {"_collision_stage_sparse": 7, "_line_stage_np": 3}
    for g, got in zip(triple, results):
        _assert_same_solve(got, picard_solve(solver_.spec, g, solver_.grid,
                                             solver_.rule, solver_.opts))


def test_skipped_rows_change_no_bit_of_the_default_fd_triple(monkeypatch):
    # the default run's first FD-probe triple (mollifier bumps at v0 and u0,
    # amplitudes of cli._probe_value_fd), solved as is and with every row
    # of both stages live
    from boltzlab import cli

    cfg, solver_ = _default_setup()
    rec = cfg.section("reconstruct")
    probe = cli._generate_probes(np.random.default_rng(rec["probe_seed"]),
                                 rec["n_probes"], solver_.grid.dim,
                                 rec["etas"][0], solver_.grid.R_v,
                                 solver_.grid.v_min)[0]
    solve_many, live_mask = Solver.solve_many, solver._live_mask
    results, partial = [], []

    def recording(self, gs):
        results.append(solve_many(self, gs))
        return results[-1]

    def counting(mask):
        partial.append(not mask.all())
        return live_mask(mask)

    monkeypatch.setattr(Solver, "solve_many", recording)
    monkeypatch.setattr(solver, "_live_mask", counting)
    cli._probe_value_fd(cfg, solver_, probe)
    monkeypatch.setattr(solver, "_live_mask", lambda mask: None)
    cli._probe_value_fd(cfg, solver_, probe)
    assert len(results) == 2 and any(partial)
    for got, want in zip(*results):
        _assert_same_solve(got, want)


def test_solver_serves_successive_solves():
    # the second solve reuses the first one's tables and operators, whose
    # F0 column then holds the other source's data
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _small_rule()
    solver_ = Solver(SMALL_KERNEL, grid, rule)
    for g in (_bump_profile(3e-3), _bump_profile(2e-3, center=(0.0, -0.5))):
        _assert_same_solve(solver_.solve(g),
                           picard_solve(SMALL_KERNEL, g, grid, rule))


def test_solve_many_error_order():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _small_rule()
    # smallness of every source comes before the admissibility verdict
    big = KernelSpec("constant", dim=2, params={"value": 10.0})
    with pytest.raises(PreconditionError, match="smallness"):
        Solver(big, grid, rule).solve_many([_bump_profile(1e-3),
                                            _bump_profile(0.5)])
    with pytest.raises(PreconditionError, match="admissibility"):
        Solver(big, grid, rule).solve_many([_bump_profile(1e-3)])
    # the first source in input order that does not converge is reported,
    # with the report an independent solve gives
    opts = PicardOptions(max_iter=3)
    small, large = _bump_profile(1e-4), _bump_profile(0.02)
    with pytest.raises(ConvergenceError) as ei:
        Solver(SMALL_KERNEL, grid, rule, opts).solve_many([small, large])
    assert ei.value.index == 1
    with pytest.raises(ConvergenceError) as ref:
        picard_solve(SMALL_KERNEL, large, grid, rule, opts)
    assert str(ei.value) == str(ref.value)
    assert np.array_equal(ei.value.report.deltas, ref.value.report.deltas)


# ---------------------------------------------------------------------------
# traces and the boundary operator
# ---------------------------------------------------------------------------


def _outgoing_samples(count, seed=0, speed=(0.6, 1.4)):
    rng = np.random.default_rng(seed)
    from boltzlab.geometry import sample_outgoing

    return sample_outgoing(DISK, count, rng, speed_lo=speed[0],
                           speed_hi=speed[1], min_cosine=0.3)


def test_boundary_trace_free_transport():
    g = _bump_profile(0.5, center=(0.2, 0.3), width=0.8)
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    F = _profile_field(grid, g)
    X, V = _outgoing_samples(25, seed=9)
    tab = boundary_trace(F, X, V)
    expect = g(V)  # the trace carries phi(v) across
    assert np.max(np.abs(tab.value - expect)) < 1e-12
    assert np.max(tab.extrap_residual) < 1e-12


def test_boundary_trace_constant_and_chord_length():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    c_field = PhaseField(grid, values=np.full((grid.NXF, grid.NVF), 0.3))
    X, V = _outgoing_samples(20, seed=10)
    tab = boundary_trace(c_field, X, V)
    assert np.max(np.abs(tab.value - 0.3)) < 1e-12

    # a field linear in x on every node: bilinear interpolation reproduces
    # it, so the extrapolated trace is a.x at the boundary point
    a = np.array([0.7, -0.4])
    lin_field = PhaseField(grid, np.repeat((grid.x_nodes @ a)[:, None],
                                           grid.NVF, axis=1))
    tab2 = boundary_trace(lin_field, X, V)
    assert np.max(np.abs(tab2.value - X @ a)) < 1e-12


def test_boundary_trace_rejects_grazing_and_incoming():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    F = PhaseField(grid, values=np.zeros((grid.NXF, grid.NVF)))
    x = np.array([[1.0, 0.0]])
    with pytest.raises(PreconditionError):
        boundary_trace(F, x, np.array([[0.0, 1.0]]))  # tangential
    with pytest.raises(PreconditionError):
        boundary_trace(F, x, np.array([[-1.0, 0.0]]))  # incoming


def test_boundary_trace_names_first_sample_not_outgoing():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    F = PhaseField(grid, values=np.zeros((grid.NXF, grid.NVF)))
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    V = np.array([[1.0, 0.2], [0.5, -1.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError,
                       match="trace sample 1 is incoming, not outgoing"):
        boundary_trace(F, X, V)


def test_apply_A_zero_kernel_is_chord_transport():
    # the boundary map A: solve for g, then trace on Gamma_+
    spec = KernelSpec("constant", dim=2, params={"value": 0.0})
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    g = _bump_profile(0.02)
    X, V = _outgoing_samples(15, seed=11)
    F, _ = picard_solve(spec, g, grid, _small_rule())
    tab = boundary_trace(F, X, V)
    assert np.max(np.abs(tab.value - g(V))) < 1e-12


def test_apply_A_operator_norm_batch():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _small_rule()
    X, V = _outgoing_samples(15, seed=12)
    worst = 0.0
    for amp, seed in ((2e-3, 0), (1e-3, 1), (5e-4, 2)):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.4, 0.4, size=2)
        g = _bump_profile(amp, center=c, width=0.6)
        F, _ = picard_solve(SMALL_KERNEL, g, grid, rule, PicardOptions())
        tab = boundary_trace(F, X, V)
        worst = max(worst, np.max(np.abs(tab.value)) / amp)
    assert worst < 1.5


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_csv_export_deterministic(tmp_path):
    grid = PhaseGrid(DISK, 6, 6, R_v=1.5)
    rng = np.random.default_rng(13)
    F = PhaseField(grid, values=rng.normal(size=(grid.NXF, grid.NVF)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    field_to_csv(F, str(p1))
    field_to_csv(F, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "x0,x1,v0,v1,value"


def test_field_csv_matches_savetxt(tmp_path, monkeypatch):
    # coordinates formatted once per node and values per row give
    # np.savetxt's "%.17g" rows of (x, v, value), x-major over the active
    # spatial nodes, in 2D and 3D, on signed zeros and across row blocks
    ball3 = Domain("ball", dim=3, radius=1.0)
    rng = np.random.default_rng(23)
    for grid, rows in itertools.product((PhaseGrid(DISK, 7, 9, R_v=1.5),
                                         PhaseGrid(ball3, 4, 5, R_v=2.0)),
                                        (1, 300, 4096)):
        monkeypatch.setattr(solver, "_CSV_ROW_BLOCK", rows)
        G = rng.standard_normal((grid.NXF, grid.NVF))
        G[:, ::4] = -0.0
        G[::3, 1::4] = 0.0
        F = PhaseField(grid, G)
        xa = grid.x_nodes[grid.x_active_idx]
        data = np.column_stack([np.repeat(xa, grid.NVF, axis=0),
                                np.tile(grid.v_nodes, (xa.shape[0], 1)),
                                G[grid.x_active_idx].ravel()])
        cols = ["x%d" % a for a in range(grid.dim)] + \
               ["v%d" % a for a in range(grid.dim)] + ["value"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        np.savetxt(want, data, fmt="%.17g", delimiter=",",
                   header=",".join(cols), comments="")
        field_to_csv(F, str(got))
        assert got.read_bytes() == want.read_bytes()


def test_exports_of_a_solve_with_a_zero_velocity_node(tmp_path):
    # an odd nv puts a velocity node at v = 0, outside the active nodes but
    # written by the CSV export: F0 = phi(0) there, and G stays 0
    grid = PhaseGrid(DISK, 9, 9, R_v=2.0)
    zero = np.flatnonzero(np.all(grid.v_nodes == 0.0, axis=1))
    assert zero.size == 1 and zero[0] not in grid.v_active_idx
    g = _bump_profile(3e-3)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, _small_rule())
    assert rep.converged
    path = str(tmp_path / "field.csv")
    field_to_csv(F, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (grid.x_active_idx.size * grid.NVF, 5)
    at_zero = np.all(rows[:, 2:4] == 0.0, axis=1)
    assert np.count_nonzero(at_zero) == grid.x_active_idx.size
    assert np.all(rows[at_zero, 4] == g(np.zeros((1, 2)))[0])


def test_profile_is_evaluated_once_per_velocity_node(tmp_path):
    # phi does not depend on x: the sup and the CSV export call it with at
    # most one row per velocity node, not once per (x, v) node
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    g = _bump_profile(0.02)
    rows = []

    def counting(V):
        rows.append(V.shape[0])
        return g(V)

    rng = np.random.default_rng(16)
    F = PhaseField(grid, rng.normal(size=(grid.NXF, grid.NVF)),
                   profile=counting)
    F.sup_norm()
    field_to_csv(F, str(tmp_path / "field.csv"))
    assert rows == [grid.v_active_idx.size, grid.NVF]


def test_trace_csv(tmp_path):
    g = _bump_profile(0.01)
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    F = _profile_field(grid, g)
    X, V = _outgoing_samples(5, seed=15)
    tab = boundary_trace(F, X, V)
    path = tmp_path / "trace.csv"
    trace_to_csv(tab, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,v0,v1,value,extrap_residual"
    assert len(lines) == 6


def test_trace_csv_number_format(tmp_path):
    # shortest round-trip text of every double: 17 significant digits, a
    # signed zero and integers without exponent or trailing zeros
    tab = solver.TraceTable(x=np.array([[0.1, -0.0], [1e-300, 1.0 / 3.0]]),
                            v=np.array([[1.0, 2.0], [-0.5, 3.0]]),
                            value=np.array([1.0 / 3.0, -0.0]),
                            extrap_residual=np.array([0.0, 1e-300]))
    path = tmp_path / "trace.csv"
    trace_to_csv(tab, str(path))
    assert path.read_text() == (
        "x0,x1,v0,v1,value,extrap_residual\n"
        "0.10000000000000001,-0,1,2,0.33333333333333331,0\n"
        "1e-300,0.33333333333333331,-0.5,3,-0,1e-300\n")
