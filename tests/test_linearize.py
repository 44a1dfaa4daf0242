import numpy as np
import pytest

from boltzlab.collision import KernelSpec, QuadratureRule, kernel_eval
from boltzlab.errors import ConvergenceError, PreconditionError
from boltzlab.geometry import Domain, exit_times, sample_outgoing
from boltzlab.linearize import (FDConvergence, LinearizationConfig,
                                SecondOrderSource, convergence_to_csv,
                                first_linearization, p_function,
                                second_order_source, w_finite_difference,
                                w_quadrature)
from boltzlab.solver import (BoundarySource, PhaseGrid, PicardOptions,
                             free_transport, picard_solve)

DISK = Domain("ball", dim=2, radius=1.0)
POLY = KernelSpec("omega_independent_poly", dim=2,
                  params={"coeffs": (1.0, 0.0, 1.0)})
SMALL = KernelSpec("omega_independent_poly", dim=2,
                   params={"coeffs": (0.005, 0.0, 0.005)})


def _rule(R_v=2.0, sphere=8, radial=3, angular=8):
    return QuadratureRule.build(2, sphere_order=sphere, radial_order=radial,
                                angular_order=angular, R_v=R_v)


def _quartic(amp=1.0, center=(0.6, 0.0), width=0.7):
    c = np.asarray(center, dtype=float)

    def phi(V):
        r2 = np.sum((V - c) ** 2, axis=-1)
        return amp * np.exp(-((r2 / width**2) ** 2))

    return phi


# ---------------------------------------------------------------------------
# first linearization
# ---------------------------------------------------------------------------


def test_first_linearization_constant_and_profile():
    V1 = first_linearization(BoundarySource.constant(1.0), DISK)
    rng = np.random.default_rng(0)
    idx = 0
    X, Vv = [], []
    while idx < 50:
        x = rng.uniform(-1, 1, size=2)
        if DISK.contains(x) and DISK.boundary_distance(x) > 0.02:
            X.append(x)
            Vv.append(rng.normal(size=2))
            idx += 1
    X, Vv = np.array(X), np.array(Vv)
    assert np.max(np.abs(V1.eval(X, Vv) - 1.0)) == 0.0

    v0 = np.array([0.3, -0.2])
    phi = lambda V: np.exp(np.sum((V - v0) ** 2, axis=-1))
    g = BoundarySource.from_velocity_profile(phi, sup=np.exp(16.0))
    V2 = first_linearization(g, DISK)
    got = V2.eval(X, Vv)
    assert np.max(np.abs(got - phi(Vv)) / phi(Vv)) < 1e-14


def test_first_linearization_quotient_convergence():
    # eps^{-1} * (nonlinear solution at data eps*g) approaches the free
    # transport of g as eps shrinks
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _rule()
    phi = _quartic()
    Vlin = first_linearization(
        BoundarySource.from_velocity_profile(phi, sup=1.0), DISK)
    Vq = grid.v_nodes[grid.v_active_idx][::7]
    Xq = np.broadcast_to(np.array([0.15, -0.2]), Vq.shape)
    ref = Vlin.eval(Xq, Vq)
    errs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        g = BoundarySource.from_velocity_profile(
            lambda V, e=eps: e * phi(V), sup=eps)
        F, rep = picard_solve(SMALL, g, grid, rule, PicardOptions())
        assert rep.converged
        errs.append(np.max(np.abs(F.eval(Xq, Vq) / eps - ref)))
    assert errs[1] < errs[0] and errs[2] < errs[1]


# ---------------------------------------------------------------------------
# second-order source
# ---------------------------------------------------------------------------


def test_source_vanishes_on_constants():
    S = second_order_source(lambda V: np.full(len(V), 0.7),
                            lambda V: np.full(len(V), -0.2), POLY, _rule())
    V = np.array([[0.3, 0.1], [-0.5, 0.4], [0.0, 0.0]])
    assert np.array_equal(S.eval_v(V), np.zeros(3))


def test_source_vanishes_on_maxwellians():
    phi = lambda V: np.exp(-np.sum(V * V, axis=-1))
    S = second_order_source(phi, phi, POLY, _rule())
    rng = np.random.default_rng(1)
    V = rng.uniform(-1.5, 1.5, size=(40, 2))
    assert np.max(np.abs(S.eval_v(V))) < 1e-12


def test_source_matches_closed_form_bracket():
    # V1 = e^{|v-v0|^2}, V2 = 1: at v = v0 the bracket collapses to the
    # product form P, so quadrature of B*P must reproduce S(v0)
    v0 = np.array([0.3, -0.2])
    rule = _rule()
    V1 = lambda V: np.exp(np.sum((V - v0) ** 2, axis=-1))
    V2 = lambda V: np.ones(len(V))
    S = second_order_source(V1, V2, POLY, rule)
    got = S.eval_v(v0[None, :])[0]

    B = kernel_eval(POLY, v0[None, None, :], rule.u_nodes[:, None, :],
                    rule.omega_nodes[None, :, :])
    P = p_function(v0[None, None, :], rule.u_nodes[:, None, :],
                   rule.omega_nodes[None, :, :])
    ref = float(np.einsum("q,m,qm,qm->", rule.u_weights,
                          rule.omega_weights, B, P))
    assert ref < 0  # B >= 0 and P <= 0
    assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_p_function_sign_and_zero_set():
    rng = np.random.default_rng(2)
    v0 = rng.normal(size=2)
    u = rng.normal(size=2)
    d = v0 - u
    dn = d / np.linalg.norm(d)
    ang = rng.uniform(0, 2 * np.pi, size=200)
    W = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    P = p_function(v0, u, W)
    assert np.all(P <= 0)
    perp = np.array([-dn[1], dn[0]])
    for w in (perp, -perp, dn, -dn):
        assert abs(p_function(v0, u, w)) < 1e-10


def test_source_symmetry_in_the_two_fields():
    rule = _rule()
    f1 = _quartic(center=(0.5, 0.2))
    f2 = _quartic(center=(-0.4, 0.3), width=0.5)
    S12 = second_order_source(f1, f2, POLY, rule)
    S21 = second_order_source(f2, f1, POLY, rule)
    rng = np.random.default_rng(3)
    V = rng.uniform(-1.5, 1.5, size=(30, 2))
    a, b = S12.eval_v(V), S21.eval_v(V)
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(a - b)) < 1e-12 * scale


def test_source_velocity_only_vs_general_paths():
    rule = _rule()
    S = second_order_source(_quartic(), _quartic(center=(-0.3, 0.1)),
                            POLY, rule)
    rng = np.random.default_rng(4)
    V = rng.uniform(-1.2, 1.2, size=(20, 2))
    X = np.zeros((20, 2))
    assert np.max(np.abs(S.eval(X, V) - S.eval_v(V))) < 1e-12


def test_source_from_phase_fields_counts_out_of_range():
    grid = PhaseGrid(DISK, 8, 8, R_v=1.0)  # deliberately tight v-grid
    vals = np.ones((grid.NXF, grid.NVF))
    from boltzlab.solver import PhaseField

    F1 = PhaseField(grid, values=vals, extension="zero")
    F2 = PhaseField(grid, values=vals, extension="zero")
    S = second_order_source(F1, F2, POLY, _rule(R_v=2.0))
    val = S.eval(np.zeros((3, 2)), np.array([[0.2, 0.0], [0.0, 0.5],
                                             [0.9, 0.9]]))
    # post-collision velocities leave the grid; events are counted
    assert S.oor_count > 0
    assert np.all(np.isfinite(val))
    with pytest.raises(PreconditionError):
        S.eval_v(np.array([[0.2, 0.0]]))


# ---------------------------------------------------------------------------
# W by quadrature
# ---------------------------------------------------------------------------


def _outgoing(count, seed):
    rng = np.random.default_rng(seed)
    return sample_outgoing(DISK, count, rng, speed_lo=0.6, speed_hi=1.4,
                           min_cosine=0.3)


def test_w_quadrature_trivial_sources():
    X, V = _outgoing(15, 5)
    S0 = SecondOrderSource.from_function(lambda V_: np.zeros(len(V_)))
    assert np.array_equal(w_quadrature(S0, DISK, X, V).value, np.zeros(15))
    S1 = SecondOrderSource.from_function(lambda V_: np.ones(len(V_)))
    tab = w_quadrature(S1, DISK, X, V)
    tau = exit_times(DISK, X, V, sign=-1)
    assert np.max(np.abs(tab.value - tau)) < 1e-14
    assert tab.method == "shortcut"


def test_w_quadrature_shortcut_matches_quadrature():
    X, V = _outgoing(12, 6)
    S = second_order_source(_quartic(), _quartic(center=(-0.3, 0.1)),
                            POLY, _rule())
    fast = w_quadrature(S, DISK, X, V)
    slow = w_quadrature(S, DISK, X, V, force_quadrature=True)
    assert fast.method == "shortcut" and slow.method == "quadrature"
    scale = max(1.0, np.max(np.abs(fast.value)))
    assert np.max(np.abs(fast.value - slow.value)) < 1e-12 * scale


def test_w_quadrature_x_dependent_source():
    # S(x, v) = 1 - |x|^2 integrates in closed form along any chord:
    # with p(s) = x - s v, int_0^tau (1 - |p|^2) ds is a cubic polynomial
    X, V = _outgoing(10, 7)
    S = SecondOrderSource.from_function(
        lambda Xq, Vq: 1.0 - np.sum(Xq * Xq, axis=-1), velocity_only=False)
    tab = w_quadrature(S, DISK, X, V, order=12)
    tau = exit_times(DISK, X, V, sign=-1)
    a = np.sum(X * X, axis=-1)
    b = np.sum(X * V, axis=-1)
    c = np.sum(V * V, axis=-1)
    ref = (1.0 - a) * tau + b * tau**2 - c * tau**3 / 3.0
    # GL order 12 is exact for cubics
    assert np.max(np.abs(tab.value - ref)) < 1e-13


# ---------------------------------------------------------------------------
# W by finite differences of the boundary operator
# ---------------------------------------------------------------------------


def _two_sources():
    g1 = BoundarySource.from_velocity_profile(_quartic(), sup=1.0)
    g2 = BoundarySource.from_velocity_profile(
        _quartic(center=(-0.4, 0.2), width=0.6), sup=1.0)
    return g1, g2


def _outgoing_on_vnodes(grid, count, seed):
    # velocities exactly on grid nodes: the gridded correction is then read
    # off without velocity interpolation, isolating the amplitude remainder
    rng = np.random.default_rng(seed)
    Vn = grid.v_nodes[grid.v_active_idx]
    speed = np.linalg.norm(Vn, axis=1)
    ok = Vn[(speed > 0.5) & (speed < 1.6)]
    idx = rng.choice(len(ok), size=count, replace=False)
    V = ok[idx]
    ang = np.arctan2(V[:, 1], V[:, 0]) + rng.uniform(-1.0, 1.0, size=count)
    X = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return X, V


def test_config_defaults_and_validation():
    cfg = LinearizationConfig()
    assert len(cfg.pairs) == 3
    assert cfg.pairs[0] == (1e-2, 1e-2)
    assert cfg.pairs[2] == (2.5e-3, 2.5e-3)
    with pytest.raises(PreconditionError):
        LinearizationConfig(eps1=-1e-2)
    with pytest.raises(PreconditionError):
        LinearizationConfig(pairs=((1e-3, 1e-3), (2e-3, 2e-3)))
    with pytest.raises(PreconditionError):
        LinearizationConfig().check_smallness(10.0, 10.0, 0.03)


def test_fd_zero_kernel_gives_zero():
    spec = KernelSpec("constant", dim=2, params={"value": 0.0})
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g1, g2 = _two_sources()
    X, V = _outgoing(8, 8)
    conv = w_finite_difference(spec, g1, g2, LinearizationConfig(),
                               X, V, grid, _rule())
    assert np.max(np.abs(conv.W_fd)) < 1e-12
    assert np.max(np.abs(conv.W_quad)) == 0.0


def test_fd_converges_to_quadrature_route():
    grid = PhaseGrid(DISK, 20, 12, R_v=2.0)
    rule = _rule()
    kern = KernelSpec("omega_independent_poly", dim=2,
                      params={"coeffs": (0.02, 0.0, 0.005)})
    g1, g2 = _two_sources()
    X, V = _outgoing_on_vnodes(grid, 6, 9)
    conv = w_finite_difference(kern, g1, g2, LinearizationConfig(),
                               X, V, grid, rule)
    assert conv.errors[1] < conv.errors[0]
    assert conv.errors[2] < conv.errors[1]
    assert conv.errors[2] < conv.est_total
    assert conv.est_trace >= 0 and conv.est_quad >= 0
    assert conv.est_rem > 0


def test_fd_swap_symmetry():
    grid = PhaseGrid(DISK, 12, 12, R_v=2.0)
    rule = _rule()
    g1, g2 = _two_sources()
    X, V = _outgoing(6, 10)
    cfg = LinearizationConfig(pairs=((1e-2, 1e-2),))
    c12 = w_finite_difference(SMALL, g1, g2, cfg, X, V, grid, rule)
    c21 = w_finite_difference(SMALL, g2, g1, cfg, X, V, grid, rule)
    scale = max(1.0, np.max(np.abs(c12.W_fd)))
    assert np.max(np.abs(c12.W_fd - c21.W_fd)) < 1e-12 * scale
    assert np.max(np.abs(c12.W_quad - c21.W_quad)) < 1e-12 * scale


def test_fd_smallness_guard_and_failure_naming():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g1, g2 = _two_sources()
    X, V = _outgoing(4, 11)
    big = LinearizationConfig(eps1=0.5, eps2=0.5)
    with pytest.raises(PreconditionError):
        w_finite_difference(SMALL, g1, g2, big, X, V, grid, _rule())
    # a solve cut off after one sweep fails and names the amplitudes
    with pytest.raises(ConvergenceError) as ei:
        w_finite_difference(SMALL, g1, g2, LinearizationConfig(),
                            X, V, grid, _rule(),
                            options=PicardOptions(max_iter=1))
    assert "eps1" in str(ei.value)
    # all three fail; the first in input order is named, with its report
    assert "solve failed for the combined data" in str(ei.value)
    assert ei.value.report is not None and not ei.value.report.converged


def test_convergence_csv(tmp_path):
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g1, g2 = _two_sources()
    X, V = _outgoing(3, 12)
    cfg = LinearizationConfig(pairs=((1e-2, 1e-2), (5e-3, 5e-3)))
    conv = w_finite_difference(SMALL, g1, g2, cfg, X, V, grid, _rule())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    convergence_to_csv(conv, str(p1))
    convergence_to_csv(conv, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "eps1,eps2,sample,x0,x1,v0,v1,W_fd,W_quad,abs_err"
    assert len(lines) == 1 + 2 * 3
