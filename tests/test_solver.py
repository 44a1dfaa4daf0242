import os

import numpy as np
import pytest
import scipy.sparse as sp

from boltzlab import solver
from boltzlab.collision import KernelSpec, QuadratureRule
from boltzlab.errors import (ConfigurationError, ConvergenceError,
                             PreconditionError)
from boltzlab.geometry import Domain, exit_times
from boltzlab.solver import (BoundarySource, PhaseField, PhaseGrid,
                             PicardOptions, Solver, _collision_stage_np,
                             _collision_stage_sparse, _line_stage_np,
                             _PicardTables, apply_A, boundary_trace,
                             field_to_csv, free_transport, load_field,
                             picard_solve, save_field, trace_to_csv)

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


# ---------------------------------------------------------------------------
# direct transport solves
# ---------------------------------------------------------------------------


def test_free_transport_constant():
    g = BoundarySource.constant(0.7)
    F = free_transport(g, DISK)
    rng = np.random.default_rng(0)
    X = _interior_points(DISK, 50, rng)
    V = rng.normal(size=(50, 2))
    assert np.max(np.abs(F.eval(X, V) - 0.7)) == 0.0


def test_free_transport_velocity_profile():
    phi = lambda V: np.exp(-np.sum((V - [0.3, 0.1]) ** 2, axis=-1))
    g = BoundarySource.from_velocity_profile(phi, sup=1.0)
    F = free_transport(g, DISK)
    rng = np.random.default_rng(1)
    X = _interior_points(DISK, 100, rng)
    V = rng.normal(size=(100, 2))
    assert np.max(np.abs(F.eval(X, V) - phi(V))) < 1e-14


def test_free_transport_corridor_oracle():
    # boundary data: 1 on the left-semicircle arc with |y| <= 0.5, streaming
    # right; the lit region is exactly the horizontal corridor through it
    def gfun(X, V):
        return np.where((X[:, 0] < 0) & (np.abs(X[:, 1]) <= 0.5), 1.0, 0.0)

    g = BoundarySource(func=gfun, velocity_only=False, sup_norm=1.0)
    F = free_transport(g, DISK)
    rng = np.random.default_rng(2)
    X = _interior_points(DISK, 1000, rng)
    V = np.tile([1.0, 0.0], (1000, 1))
    got = F.eval(X, V)
    # independent ray trace: the backward exit of (x, y) along (1, 0) is
    # (-sqrt(1-y^2), y), on the left semicircle; lit iff |y| <= 0.5
    expect = np.where(np.abs(X[:, 1]) <= 0.5, 1.0, 0.0)
    assert np.array_equal(got, expect)


def test_free_transport_sup_bound():
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    g = _bump_profile(0.02)
    F = free_transport(g, DISK, grid)
    assert F.sup_norm() <= 0.02 + 1e-15


# ---------------------------------------------------------------------------
# phase fields
# ---------------------------------------------------------------------------


def test_phase_field_node_reproduction_and_finiteness():
    grid = PhaseGrid(DISK, 8, 10, R_v=2.0)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(grid.NXF, grid.NVF))
    # the largest |value| sits on the last active node
    vals[grid.x_active_idx[-1], grid.v_active_idx[0]] = -9.0
    F = PhaseField(grid, values=vals, extension="zero")
    # interpolation at the nodes returns the stored values exactly
    for p in [0, 17, grid.NXF - 1]:
        for j in [0, 33, grid.NVF - 1]:
            assert F.eval(grid.x_nodes[p], grid.v_nodes[j]) == vals[p, j]
    # sup_norm, taken over blocks of spatial nodes, reaches the last block
    assert grid.x_active_idx.size > 16
    assert F.sup_norm() == 9.0
    # with an analytic part it reads both parts at the nodes; that equals
    # eval there, where the interpolation weights are exactly 0 and 1
    Fa = PhaseField(grid, values=vals,
                    analytic=lambda X, V: 5.0 * X[:, 0] * V[:, 1])
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
    Fz = PhaseField(grid, values=vals, extension="zero")
    assert Fz.eval(x, v_out) == 0.0
    assert Fz.oor_count == 1
    Fc = PhaseField(grid, values=vals, extension="clamp")
    assert Fc.eval(x, v_out) == 1.0
    Fa = PhaseField(grid, values=vals, extension="analytic",
                    analytic=lambda X, V: 0.25 * np.ones(X.shape[0]))
    # grid part vanishes outside, analytic part remains
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
    F0 = free_transport(g, DISK)
    assert np.max(np.abs(F.eval(X, V) - F0.eval(X, V))) == 0.0


def test_picard_constant_data_exact():
    spec = KernelSpec("constant", dim=2, params={"value": 0.005})
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g = BoundarySource.constant(0.01)
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
    """picard_solve with oracle(G, tables), a call of the per-node stage, in
    place of the sparse stage, so both solves share the tables, the line
    stage and the fringe fills."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_collision_stage_sparse",
                  lambda G, tables, *a, **kw: oracle(G, tables))
        return picard_solve(*args)


def _zero_f0(tables):
    NVa, NU, NW = tables.shape
    return (np.zeros(NVa), np.zeros(NU), np.zeros(NVa * NU * NW),
            np.zeros(NVa * NU * NW))


def _transported_per_x(g, tables):
    """per_x_f0 for the oracle stage: x-dependent data transported node by
    node with free_transport (0 at velocity 0, where some u' and v' of the
    test rules fall)."""
    transported = free_transport(g, tables.grid.domain)
    X = tables.grid.x_nodes[tables.grid.x_active_idx]

    def per_x_f0(pi):
        def f0(P):
            out = np.zeros(P.shape[0])
            nz = np.linalg.norm(P, axis=1) > 1e-14
            out[nz] = transported.eval(np.broadcast_to(X[pi], P[nz].shape),
                                       P[nz])
            return out

        UP, VP = _full_points(tables)
        return (f0(tables.Vg), f0(tables.U), f0(UP), f0(VP))

    return per_x_f0


def _full_points(tables):
    """u' and v' at every (v, u, omega), one row each."""
    UP, VP = solver._post_collision_velocities(tables.Vg, tables.U, tables.W)
    return UP.reshape(-1, tables.grid.dim), VP.reshape(-1, tables.grid.dim)


def _full_f0(g, tables):
    """The oracle stage's tables of velocity-only data: F0 at v, u and at
    u' and v' for every (v, u, omega)."""
    f0 = lambda P: g(np.zeros_like(P), P)
    return (f0(tables.Vg), f0(tables.U)) + tuple(map(f0, _full_points(tables)))


def test_picard_engines_agree(monkeypatch):
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _small_rule()
    g = _bump_profile(3e-3)
    Fn, rn = picard_solve(SMALL_KERNEL, g, grid, rule, PicardOptions())
    Fr, rr = _solve_with_oracle_stage(
        monkeypatch,
        lambda G, t: _collision_stage_np(G, t, *_full_f0(g, t)),
        SMALL_KERNEL, g, grid, rule, PicardOptions())
    assert rn.converged and rr.converged
    assert np.max(np.abs(Fn.values - Fr.values)) < 1e-15


def _stage_cases():
    # (spec, grid, rule, source centre, antipodal classes): the sparse stage
    # folds antipodal omega nodes, so these rules fold 7 -> 7 (odd 2D
    # order: no antipodes), 8 -> 4 with an omega-dependent kernel, and
    # 8 -> 4 in 3D
    ball3 = Domain("ball", dim=3, radius=1.0)
    return [
        (SMALL_KERNEL, PhaseGrid(DISK, 10, 10, R_v=2.0),
         QuadratureRule.build(2, sphere_order=7, radial_order=3,
                              angular_order=8, R_v=2.0), (0.6, 0.0), 7),
        (KernelSpec("angular_bump", dim=2, params={"amplitude": 0.01}),
         PhaseGrid(DISK, 10, 10, R_v=2.0), _small_rule(), (0.6, 0.0), 4),
        (KernelSpec("constant", dim=3, params={"value": 0.01}),
         PhaseGrid(ball3, 6, 6, R_v=2.0),
         QuadratureRule.build(3, sphere_order=2, radial_order=2,
                              angular_order=2, R_v=2.0), (0.6, 0.0, 0.0), 4),
    ]


def _stage_inputs(spec, grid, rule, center, opts=None):
    g = _bump_profile(3e-3, center=center)
    tables = _PicardTables(spec, grid, rule, opts or PicardOptions())
    return g, tables, tables.f0_tables_velocity_only(g), \
        tables.stencil_operators()


def _x_dependent_source(amp, center):
    def gfun(X, V):
        prof = np.exp(-np.sum((V - center) ** 2, axis=-1) / 0.25)
        return amp * (1.0 + 0.5 * X[:, 1]) * prof

    return BoundarySource(func=gfun, velocity_only=False, sup_norm=1.5 * amp)


def test_sparse_collision_stage_matches_reference():
    # one application of each stage on the same random state, with
    # velocity-only data and with x-dependent data
    rng = np.random.default_rng(5)
    for spec, grid, rule, center, n_classes in _stage_cases():
        g, tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        assert tables.reps.size == n_classes
        G = 1e-3 * rng.standard_normal((grid.NXF, grid.NVF))
        Qs = _collision_stage_sparse(G, tables, ops, *F0)
        Qr = _collision_stage_np(G, tables, *_full_f0(g, tables))
        assert np.max(np.abs(Qr)) > 1e-9
        assert np.max(np.abs(Qs - Qr)) < 1e-15

        gx = _x_dependent_source(2e-3, center)
        zeros = _zero_f0(tables)
        Qs = _collision_stage_sparse(G, tables, ops, *zeros[:2], g=gx)
        Qr = _collision_stage_np(G, tables, *zeros,
                                 per_x_f0=_transported_per_x(gx, tables))
        assert np.max(np.abs(Qr)) > 1e-9
        assert np.max(np.abs(Qs - Qr)) < 1e-15


def test_first_iterate_block_matches_full_stage():
    # at G = 0 the first-iterate path reuses one block per block width;
    # it must reproduce the full block loop bit for bit (the 10x10 disk
    # has 60 active nodes, so its short last block is 12 rows wide)
    cases = [c[:4] for c in _stage_cases()]
    cases.append((KernelSpec("constant", dim=2, params={"value": 0.01}),
                  PhaseGrid(DISK, 16, 16, R_v=2.0), _small_rule(), (0.3, 0.4)))
    for spec, grid, rule, center in cases:
        _, tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        G = np.zeros((grid.NXF, grid.NVF))
        full = _collision_stage_sparse(G, tables, ops, *F0)
        first = _collision_stage_sparse(G, tables, ops, *F0,
                                        first_iterate=True)
        assert np.max(np.abs(full)) > 1e-9
        assert np.array_equal(first, full)
        assert np.array_equal(np.signbit(first), np.signbit(full))


def _per_row_operator(tables, P, f0=None):
    """The stencil operator with one row per point of P, all corners kept,
    for a state with a row of ones appended at index NVF; with f0 (one
    value per point) every row ends with that value in column NVF."""
    NVF = tables.grid.NVF
    base, fracs = tables.grid.v_stencil(P, tables.opts.extension)
    pairs = list(solver._corner_weights(fracs, tables.v_strides))
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


def _per_row_stage(G, tables, f0v=None, gx=None):
    """The collision stage on one operator row per (v, u, representative),
    kept as the bitwise oracle of the stage on distinct points.  Per block
    of _X_BLOCK spatial rows and tile of _V_BLOCK velocity nodes, the
    per-row operators with F0 in a last column are applied to [G[rows].T;
    1].  f0v(P) gives velocity-only F0 at points P; with x-dependent data
    gx the F0 column holds zeros and each block adds F0 at its nodes to
    the tile products.  Neither: zero F0 (gridded policies)."""
    grid = tables.grid
    NVa, NU, NW = tables.shape
    NR = tables.reps.size
    NVF = grid.NVF
    vact, xact = grid.v_active_idx, grid.x_active_idx
    UP, VP = _full_points(tables)
    UPr, VPr = _at_reps(tables, UP), _at_reps(tables, VP)
    f0 = f0v or (lambda P: np.zeros(P.shape[0]))
    Su = _per_row_operator(tables, tables.U)
    Sup = _per_row_operator(tables, UPr, _at_reps(tables, f0(UP)))
    Svp = _per_row_operator(tables, VPr, _at_reps(tables, f0(VP)))
    F0V, F0U = f0(tables.Vg)[:, None], f0(tables.U)[:, None]
    Q = np.zeros((NVF, grid.NXF))
    for start in range(0, xact.size, solver._X_BLOCK):
        rows = xact[start:start + solver._X_BLOCK]
        if gx is not None:
            X = grid.x_nodes[rows]
            F0V, F0U = (solver._transported_at(gx, grid.domain, X, P)
                        for P in (tables.Vg, tables.U))
            F0UP, F0VP = (solver._transported_at(
                gx, grid.domain, X, P).reshape(NVa, NU, NR, -1)
                for P in (UPr, VPr))
        GT = np.empty((NVF + 1, rows.size))
        GT[:NVF] = G[rows].T
        GT[NVF] = 1.0
        HuT = F0U + Su @ GT
        QT = -(F0V + GT[vact]) * (tables.Bw_loss @ HuT)
        shape = (-1, NU, NR, rows.size)
        for j in range(0, NVa, solver._V_BLOCK):
            js = slice(j, j + solver._V_BLOCK)
            r = slice(j * NU * NR, (j + solver._V_BLOCK) * NU * NR)
            gain = (Sup[r] @ GT).reshape(shape)
            gvp = (Svp[r] @ GT).reshape(shape)
            if gx is not None:
                gain += F0UP[js]
                gvp += F0VP[js]
            gain *= gvp
            QT[js] += np.einsum("vurx,vur->vx", gain, tables.Bw_fold[js])
        Q[vact[:, None], rows] = QT
    return Q


def _assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_distinct_point_stage_matches_per_row_stage_bitwise():
    # every stage case with velocity-only and with x-dependent data, and a
    # gridded extension="zero" case, on a state with zeros of both signs
    rng = np.random.default_rng(17)
    cases = [(c[:4], PicardOptions()) for c in _stage_cases()]
    cases.append((_stage_cases()[0][:4], PicardOptions(extension="zero")))
    for (spec, grid, rule, center), opts in cases:
        g, tables, F0, ops = _stage_inputs(spec, grid, rule, center, opts)
        G = 1e-3 * rng.standard_normal((grid.NXF, grid.NVF))
        G[:, ::7] = 0.0
        G[:, 3::7] = -0.0
        zeros = _zero_f0(tables)[:2]
        if opts.extension == "analytic":
            f0v = lambda P: g(np.zeros_like(P), P)
            got = _collision_stage_sparse(G, tables, ops, *F0)
            want = _per_row_stage(G, tables, f0v=f0v)
            assert np.max(np.abs(want)) > 1e-9
            _assert_bitwise(got, want)
            gx = _x_dependent_source(2e-3, center)
            got = _collision_stage_sparse(G, tables, ops, *zeros, g=gx)
            want = _per_row_stage(G, tables, gx=gx)
        else:
            got = _collision_stage_sparse(G, tables, ops, *zeros)
            want = _per_row_stage(G, tables)
        assert np.max(np.abs(want)) > 1e-9
        _assert_bitwise(got, want)


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
    f0v = lambda P: g(np.zeros_like(P), P)
    for P, S, f0, index in zip(_rep_points(tables), (Sup, Svp), F0[2:],
                               (tables.up_index, tables.vp_index)):
        full = _per_row_operator(tables, P, f0v(P))
        assert np.count_nonzero(S.data == 0.0) == 0
        assert np.count_nonzero(full.data == 0.0) > 0
        _assert_bitwise((S @ GT + f0[:, None])[index], full @ GT1)


def test_line_stage_matches_per_pair_chord_loop():
    # independent evaluation: for each active (x, v), Gauss-Legendre over
    # the backward chord [0, tau_-] of the bilinear interpolant of Q(., v)
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    opts = PicardOptions()
    g = _bump_profile(3e-3)
    tables = _PicardTables(SMALL_KERNEL, grid, _small_rule(), opts)
    Q = np.random.default_rng(6).standard_normal((grid.NVF, grid.NXF))
    G = _line_stage_np([Q], tables)[0]

    lo = np.array([ax[0] for ax in grid.x_axes])
    h = np.array([ax[1] - ax[0] for ax in grid.x_axes])
    expected = np.zeros_like(G)
    for p in grid.x_active_idx:
        x = grid.x_nodes[p]
        for j in grid.v_active_idx:
            v = grid.v_nodes[j]
            tau = exit_times(DISK, x[None, :], v[None, :], sign=-1)[0]
            order = int(np.clip(np.ceil(tau * np.linalg.norm(v) /
                                        (opts.chord_spacing * grid.h_x)) + 2,
                                opts.chord_order_min, opts.chord_order_max))
            nodes, weights = np.polynomial.legendre.leggauss(order)
            for s_hat, w in zip(nodes, weights):
                y = x - 0.5 * tau * (1.0 + s_hat) * v
                f = (y - lo) / h
                i = np.clip(np.floor(f).astype(int), 0, grid.nx - 2)
                t = np.clip(f - i, 0.0, 1.0)
                Qv = Q[j].reshape(grid.nx, grid.nx)
                q = ((1 - t[0]) * (1 - t[1]) * Qv[i[0], i[1]] +
                     (1 - t[0]) * t[1] * Qv[i[0], i[1] + 1] +
                     t[0] * (1 - t[1]) * Qv[i[0] + 1, i[1]] +
                     t[0] * t[1] * Qv[i[0] + 1, i[1] + 1])
                expected[p, j] += 0.5 * tau * w * q
    assert np.max(np.abs(G - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_picard_general_boundary_data(monkeypatch):
    # x-dependent inflow exercises the per-block transported tables
    g = _x_dependent_source(2e-3, (0.5, 0.0))
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    rule = QuadratureRule.build(2, sphere_order=6, radial_order=2,
                                angular_order=6, R_v=2.0)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, rule, PicardOptions())
    assert rep.converged
    assert rep.residual_discrete < 10 * 1e-12 * max(1.0, rep.sup_F)
    # and reproduces the oracle stage fed node by node, iterate by iterate
    # (the 32 active nodes make two blocks, so a first iterate copied
    # across blocks would show in the deltas)
    Fr, rep_ref = _solve_with_oracle_stage(
        monkeypatch,
        lambda G, t: _collision_stage_np(G, t, *_zero_f0(t),
                                         per_x_f0=_transported_per_x(g, t)),
        SMALL_KERNEL, g, grid, rule, PicardOptions())
    assert rep_ref.converged
    assert np.max(np.abs(F.values - Fr.values)) < 1e-15
    assert np.max(np.abs(rep.deltas - rep_ref.deltas)) < 1e-15


def test_picard_grid_engine_policies(monkeypatch):
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _small_rule()
    g = _bump_profile(3e-3)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, rule,
                          PicardOptions(extension="zero"))
    assert rep.converged
    # everything gridded: the field carries no analytic part
    assert F.analytic is None
    # the gridded path of the sparse stage reproduces the oracle stage,
    # which then sees F0 only through the gridded state
    Fr, rep_ref = _solve_with_oracle_stage(
        monkeypatch, lambda G, t: _collision_stage_np(G, t, *_zero_f0(t)),
        SMALL_KERNEL, g, grid, rule, PicardOptions(extension="zero"))
    assert rep_ref.converged
    assert np.max(np.abs(F.values - Fr.values)) < 1e-15
    Fc, repc = picard_solve(SMALL_KERNEL, g, grid, rule,
                            PicardOptions(extension="clamp"))
    assert repc.converged


def test_picard_residuals():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    g = _bump_profile(3e-3)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, _small_rule(),
                          PicardOptions(residual_samples=32))
    scale = max(1.0, rep.sup_F)
    assert rep.residual_discrete < 10 * 1e-12 * scale
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
    assert rep.converged and rep.residual_points == 64
    assert np.isfinite(rep.residual_pde)


def test_picard_smallness_and_admissibility_guards():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _small_rule()
    with pytest.raises(PreconditionError):
        picard_solve(SMALL_KERNEL, _bump_profile(0.5), grid, rule)
    big = KernelSpec("constant", dim=2, params={"value": 10.0})
    with pytest.raises(PreconditionError):
        picard_solve(big, _bump_profile(0.01), grid, rule)


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
    for name in ("residual_discrete", "residual_pde", "sup_F", "sup_G",
                 "ratio"):
        assert getattr(rep, name) == getattr(repw, name), name


def _default_setup():
    from boltzlab.config import load_config

    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "default.json"))
    return cfg, (cfg.build_kernel(), cfg.build_grid(), cfg.build_rule(),
                 cfg.picard_options())


def test_solve_many_matches_independent_solves_on_default_triple():
    # the default run's first linearize triple: combined, first and second
    # data at eps = (1e-2, 1e-2) need 4, 3 and 3 iterations, so the rounds
    # run three, then one source, plus the defect applications
    from boltzlab.cli import _quartic_source
    from boltzlab.linearize import _scaled_source

    cfg, (spec, grid, rule, opts) = _default_setup()
    lin = cfg.section("linearize")
    g1 = _quartic_source(lin["center1"], lin["width"], 1.0)
    g2 = _quartic_source(lin["center2"], lin["width"], 1.0)
    e1, e2 = lin["eps1"], lin["eps2"]
    triple = [_scaled_source(g1, g2, e1, e2), _scaled_source(g1, g2, e1, 0.0),
              _scaled_source(g1, g2, 0.0, e2)]
    results = Solver(spec, grid, rule, opts).solve_many(triple)
    assert [rep.iterations for _, rep in results] == [4, 3, 3]
    for g, got in zip(triple, results):
        _assert_same_solve(got, picard_solve(spec, g, grid, rule, opts))


def test_solve_many_matches_independent_solves_x_dependent_and_gridded():
    # an x-dependent source next to a velocity-only one under the analytic
    # split, and the gridded extension="zero" policy
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    rule = QuadratureRule.build(2, sphere_order=6, radial_order=2,
                                angular_order=6, R_v=2.0)
    sources = [_x_dependent_source(2e-3, (0.5, 0.0)),
               _bump_profile(3e-3, center=(-0.3, 0.4))]
    for opts in (PicardOptions(), PicardOptions(extension="zero")):
        results = Solver(SMALL_KERNEL, grid, rule, opts).solve_many(sources)
        for g, got in zip(sources, results):
            _assert_same_solve(got, picard_solve(SMALL_KERNEL, g, grid, rule,
                                                 opts))
    assert results[0][0].analytic is None


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
    assert ei.value.report.residual_discrete == \
        ref.value.report.residual_discrete


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
    F = free_transport(g, DISK, grid)
    X, V = _outgoing_samples(25, seed=9)
    tab = boundary_trace(F, X, V)
    expect = g(X, V)  # velocity-only data: the trace carries phi(v) across
    assert np.max(np.abs(tab.value - expect)) < 1e-12
    assert np.max(tab.extrap_residual) < 1e-12


def test_boundary_trace_constant_and_chord_length():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    c_field = PhaseField(grid, values=np.full((grid.NXF, grid.NVF), 0.3),
                         extension="clamp")
    X, V = _outgoing_samples(20, seed=10)
    tab = boundary_trace(c_field, X, V)
    assert np.max(np.abs(tab.value - 0.3)) < 1e-12

    tau_field = PhaseField(
        None, analytic=lambda Xq, Vq: exit_times(DISK, Xq, Vq, sign=-1),
        domain=DISK)
    tab2 = boundary_trace(tau_field, X, V)
    chord = exit_times(DISK, X, V, sign=-1)
    assert np.max(np.abs(tab2.value - chord)) < 1e-12


def test_boundary_trace_rejects_grazing_and_incoming():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    F = PhaseField(grid, values=np.zeros((grid.NXF, grid.NVF)),
                   extension="zero")
    x = np.array([[1.0, 0.0]])
    with pytest.raises(PreconditionError):
        boundary_trace(F, x, np.array([[0.0, 1.0]]))  # tangential
    with pytest.raises(PreconditionError):
        boundary_trace(F, x, np.array([[-1.0, 0.0]]))  # incoming


def test_boundary_trace_names_first_sample_not_outgoing():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    F = PhaseField(grid, values=np.zeros((grid.NXF, grid.NVF)),
                   extension="zero")
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    V = np.array([[1.0, 0.2], [0.5, -1.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError,
                       match="trace sample 1 is incoming, not outgoing"):
        boundary_trace(F, X, V)


def test_apply_A_zero_kernel_is_chord_transport():
    spec = KernelSpec("constant", dim=2, params={"value": 0.0})
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    g = _bump_profile(0.02)
    X, V = _outgoing_samples(15, seed=11)
    tab, rep = apply_A(spec, g, grid, _small_rule(), X, V)
    assert np.max(np.abs(tab.value - g(X, V))) < 1e-12


def test_apply_A_operator_norm_batch():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _small_rule()
    X, V = _outgoing_samples(15, seed=12)
    worst = 0.0
    for amp, seed in ((2e-3, 0), (1e-3, 1), (5e-4, 2)):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.4, 0.4, size=2)
        g = _bump_profile(amp, center=c, width=0.6)
        tab, rep = apply_A(SMALL_KERNEL, g, grid, rule,
                           X, V, PicardOptions())
        worst = max(worst, np.max(np.abs(tab.value)) / amp)
    assert worst < 1.5


# ---------------------------------------------------------------------------
# export / cache
# ---------------------------------------------------------------------------


def test_csv_export_deterministic(tmp_path):
    grid = PhaseGrid(DISK, 6, 6, R_v=1.5)
    rng = np.random.default_rng(13)
    F = PhaseField(grid, values=rng.normal(size=(grid.NXF, grid.NVF)),
                   extension="zero")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    field_to_csv(F, str(p1))
    field_to_csv(F, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "x0,x1,v0,v1,value"


def test_field_cache_roundtrip(tmp_path):
    grid = PhaseGrid(DISK, 6, 6, R_v=1.5)
    rng = np.random.default_rng(14)
    F = PhaseField(grid, values=rng.normal(size=(grid.NXF, grid.NVF)),
                   extension="zero")
    path = str(tmp_path / "field.npz")
    save_field(F, path)
    F2 = load_field(path)
    assert np.array_equal(F2.values, F.values)
    assert F2.extension == "zero"
    assert F2.grid.nx == 6 and F2.grid.R_v == 1.5

    # tampering with the header version is rejected
    import json

    with np.load(path) as z:
        hdr = json.loads(bytes(z["header"].tobytes()).decode())
        vals = z["values"]
    hdr["version"] = 99
    np.savez(path, header=np.frombuffer(json.dumps(hdr).encode(),
                                        dtype=np.uint8), values=vals)
    with pytest.raises(ConfigurationError):
        load_field(path)


def test_trace_csv(tmp_path):
    g = _bump_profile(0.01)
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    F = free_transport(g, DISK, grid)
    X, V = _outgoing_samples(5, seed=15)
    tab = boundary_trace(F, X, V)
    path = tmp_path / "trace.csv"
    trace_to_csv(tab, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,v0,v1,value,extrap_residual"
    assert len(lines) == 6
