import os

import numpy as np
import pytest

from boltzlab.collision import KernelSpec, QuadratureRule
from boltzlab.errors import (ConfigurationError, ConvergenceError, DomainError,
                             PreconditionError)
from boltzlab.geometry import Domain, exit_times
from boltzlab.solver import (BoundarySource, PhaseField, PhaseGrid,
                             PicardOptions, _collision_stage_np,
                             _collision_stage_sparse, _line_stage_np,
                             _PicardTables, apply_A, attenuated_solve,
                             boundary_trace, field_to_csv, free_transport,
                             load_field, picard_solve, save_field,
                             source_solve, trace_to_csv)

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


def test_attenuated_closed_forms():
    rng = np.random.default_rng(3)
    X = _interior_points(DISK, 60, rng)
    V = rng.normal(size=(60, 2))
    tau = exit_times(DISK, X, V, sign=-1)

    g = BoundarySource.constant(0.4)
    F = attenuated_solve(1.0, None, g, DISK)
    assert np.max(np.abs(F.eval(X, V) - 0.4 * np.exp(-tau))) < 1e-13

    s0, c = 1.7, 0.3
    F2 = attenuated_solve(s0, lambda Xq, Vq: np.full(Xq.shape[0], s0 * c),
                          None, DISK)
    assert np.max(np.abs(F2.eval(X, V) - c * (1.0 - np.exp(-s0 * tau)))) < 1e-12

    F3 = attenuated_solve(2.0, None, None, DISK)
    assert np.max(np.abs(F3.eval(X, V))) == 0.0


def test_attenuated_error_cases():
    with pytest.raises(DomainError):
        attenuated_solve(0.0, None, BoundarySource.constant(0.1), DISK)
    with pytest.raises(DomainError):
        attenuated_solve(-1.0, None, None, DISK)
    with pytest.raises(DomainError):
        # callable sigma must come with an explicit floor
        attenuated_solve(lambda X: 1.0 + 0 * X[:, 0], None, None, DISK)


def test_attenuated_sup_bound():
    sigma = lambda X: 1.0 + np.sum(X * X, axis=-1)
    f = lambda X, V: 0.3 * np.cos(3 * X[:, 0])
    g = BoundarySource.constant(0.1)
    F = attenuated_solve(sigma, f, g, DISK, sigma0=1.0)
    rng = np.random.default_rng(4)
    X = _interior_points(DISK, 80, rng)
    V = rng.normal(size=(80, 2))
    assert np.max(np.abs(F.eval(X, V))) <= 0.1 + 0.3 / 1.0 + 1e-12


def test_attenuated_variable_sigma_oracle():
    # through-center chord with sigma = 1 + |x|^2/2 and f = 1:
    # F((0,0),(1,0)) = int_0^1 exp(-(s + s^3/6)) ds, integrated densely here
    sigma = lambda X: 1.0 + 0.5 * np.sum(X * X, axis=-1)
    F = attenuated_solve(sigma, lambda X, V: np.ones(X.shape[0]), None, DISK,
                         sigma0=1.0, order=24)
    xs, ws = np.polynomial.legendre.leggauss(200)
    s = 0.5 * (xs + 1.0)
    ref = float(np.sum(0.5 * ws * np.exp(-(s + s**3 / 6.0))))
    got = F.eval(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert abs(got - ref) < 1e-10


def test_source_solve_constant_and_profile():
    rng = np.random.default_rng(5)
    X = _interior_points(DISK, 60, rng)
    V = rng.normal(size=(60, 2))
    tau = exit_times(DISK, X, V, sign=-1)
    F = source_solve(lambda Xq, Vq: np.ones(Xq.shape[0]), DISK)
    assert np.max(np.abs(F.eval(X, V) - tau)) < 1e-13 * np.max(tau)

    h = lambda V_: 1.0 + V_[:, 0] ** 2
    F2 = source_solve(lambda Xq, Vq: h(Vq), DISK)
    assert np.max(np.abs(F2.eval(X, V) - tau * h(V))) < 1e-12 * np.max(tau * h(V))


def test_source_solve_half_domain_indicator():
    f = lambda X, V: np.where(X[:, 0] <= 0.0, 1.0, 0.0)
    F = source_solve(f, DISK, order=128)
    # chord entirely inside the support: exact
    x, v = np.array([-0.1, 0.0]), np.array([0.0, 1.0])
    chord_in = float(exit_times(DISK, x, v, sign=-1))
    assert abs(F.eval(x, v) - chord_in) < 1e-12
    # chord straddling the interface: analytic piece length
    x2, v2 = np.array([0.3, 0.0]), np.array([1.0, 0.0])
    # backward chord runs from (-1,0) to (0.3,0); the lit piece has length 1
    assert abs(F.eval(x2, v2) - 1.0) < 1e-2
    F_lo = source_solve(f, DISK, order=32)
    assert abs(F.eval(x2, v2) - 1.0) < abs(F_lo.eval(x2, v2) - 1.0)


# ---------------------------------------------------------------------------
# phase fields
# ---------------------------------------------------------------------------


def test_phase_field_node_reproduction_and_finiteness():
    grid = PhaseGrid(DISK, 8, 10, R_v=2.0)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(grid.NXF, grid.NVF))
    F = PhaseField(grid, values=vals, extension="zero")
    # interpolation at the nodes returns the stored values exactly
    for p in [0, 17, grid.NXF - 1]:
        for j in [0, 33, grid.NVF - 1]:
            assert F.eval(grid.x_nodes[p], grid.v_nodes[j]) == vals[p, j]
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
    opts = PicardOptions(engine="reference")
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


def test_picard_engines_agree():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _small_rule()
    g = _bump_profile(3e-3)
    Fn, rn = picard_solve(SMALL_KERNEL, g, grid, rule,
                          PicardOptions(engine="sparse"))
    Fr, rr = picard_solve(SMALL_KERNEL, g, grid, rule,
                          PicardOptions(engine="reference"))
    assert rn.engine == "sparse" and rr.engine == "reference"
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


def _stage_inputs(spec, grid, rule, center):
    g = _bump_profile(3e-3, center=center)
    tables = _PicardTables(spec, grid, rule, PicardOptions())
    F0 = tables.f0_tables_velocity_only(g)
    return tables, F0, tables.stencil_operators(*F0[2:])


def test_sparse_collision_stage_matches_reference():
    # one application of each stage on the same random state
    rng = np.random.default_rng(5)
    for spec, grid, rule, center, n_classes in _stage_cases():
        tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        assert tables.reps.size == n_classes
        G = 1e-3 * rng.standard_normal((grid.NXF, grid.NVF))
        Qs = _collision_stage_sparse(G, tables, ops, *F0[:2])
        Qr = _collision_stage_np(G, tables, *F0)
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
        tables, F0, ops = _stage_inputs(spec, grid, rule, center)
        G = np.zeros((grid.NXF, grid.NVF))
        full = _collision_stage_sparse(G, tables, ops, *F0[:2])
        first = _collision_stage_sparse(G, tables, ops, *F0[:2],
                                        first_iterate=True)
        assert np.max(np.abs(full)) > 1e-9
        assert np.array_equal(first, full)
        assert np.array_equal(np.signbit(first), np.signbit(full))


def test_stencil_rows_end_with_f0_column():
    # every u' and v' row stores its F0 value last, in column NVF, so the
    # products with [G; 1] add F0 after the corners
    spec, grid, rule, center, _ = _stage_cases()[1]
    tables, F0, (Su, tiles) = _stage_inputs(spec, grid, rule, center)
    NVa, NU, NW = tables.shape
    NVF = grid.NVF
    assert Su.shape == (NU, NVF + 1)
    assert not np.any(Su.indices == NVF)
    for js, Sup, Svp in tiles:
        for S, f0 in ((Sup, F0[2]), (Svp, F0[3])):
            expected = f0.reshape(NVa, NU, NW)[js][:, :, tables.reps].ravel()
            assert S.shape == (expected.size, NVF + 1)
            last = S.indptr[1:] - 1
            assert np.all(last >= S.indptr[:-1])
            assert np.all(S.indices[last] == NVF)
            assert np.array_equal(S.data[last], expected)
            # the corners all lie in the velocity columns
            assert np.count_nonzero(S.indices == NVF) == expected.size


def test_line_stage_matches_per_pair_chord_loop():
    # independent evaluation: for each active (x, v), Gauss-Legendre over
    # the backward chord [0, tau_-] of the bilinear interpolant of Q(., v)
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    opts = PicardOptions()
    g = _bump_profile(3e-3)
    tables = _PicardTables(SMALL_KERNEL, grid, _small_rule(), opts)
    Q = np.random.default_rng(6).standard_normal((grid.NVF, grid.NXF))
    G = _line_stage_np(Q, tables)

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


def test_picard_general_boundary_data():
    # x-dependent inflow exercises the per-node transported tables
    def gfun(X, V):
        prof = np.exp(-np.sum((V - [0.5, 0.0]) ** 2, axis=-1) / 0.25)
        return 2e-3 * (1.0 + 0.5 * X[:, 1]) * prof

    g = BoundarySource(func=gfun, velocity_only=False, sup_norm=3e-3)
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    rule = QuadratureRule.build(2, sphere_order=6, radial_order=2,
                                angular_order=6, R_v=2.0)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, rule, PicardOptions())
    assert rep.engine == "reference"
    assert rep.converged
    assert rep.residual_discrete < 10 * 1e-12 * max(1.0, rep.sup_F)


def test_picard_grid_engine_policies():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _small_rule()
    g = _bump_profile(3e-3)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, rule,
                          PicardOptions(extension="zero", engine="sparse"))
    assert rep.converged and rep.engine == "sparse"
    # everything gridded: the field carries no analytic part
    assert F.analytic is None
    # the gridded path of the sparse engine reproduces the reference engine
    Fr, rep_ref = picard_solve(SMALL_KERNEL, g, grid, rule,
                               PicardOptions(extension="zero",
                                             engine="reference"))
    assert rep_ref.engine == "reference"
    assert np.max(np.abs(F.values - Fr.values)) < 1e-15
    Fc, repc = picard_solve(SMALL_KERNEL, g, grid, rule,
                            PicardOptions(extension="clamp"))
    assert repc.converged


def test_picard_residuals():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    g = _bump_profile(3e-3)
    F, rep = picard_solve(SMALL_KERNEL, g, grid, _small_rule(),
                          PicardOptions(engine="reference",
                                        residual_samples=32))
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
                     PicardOptions(max_iter=1, engine="reference"))
    rep = ei.value.report
    assert rep is not None and not rep.converged
    assert rep.deltas.size == 1 and rep.deltas[0] > 1e-12


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
                           X, V, PicardOptions(engine="reference"))
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
