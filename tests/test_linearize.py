import json

import numpy as np
import pytest

from boltzlab.cli import main
from boltzlab.collision import (KernelSpec, QuadratureRule, collision_Q,
                                kernel_eval)
from boltzlab.config import config_from_dict
from boltzlab.errors import (ConfigurationError, ConvergenceError,
                             PreconditionError)
from boltzlab.geometry import Domain, exit_times, sample_outgoing
from boltzlab.linearize import (_scaled_source, convergence_to_csv,
                                mixed_difference, second_order_source,
                                w_finite_difference, w_quadrature)
from boltzlab.reconstruct import monotonicity_P
from boltzlab.solver import (BoundarySource, PhaseGrid, PicardOptions,
                             Solver, picard_solve)

DISK = Domain("ball", dim=2, radius=1.0)
POLY = KernelSpec("omega_independent_poly", dim=2,
                  params={"coeffs": (1.0, 0.0, 1.0)})
SMALL = KernelSpec("omega_independent_poly", dim=2,
                   params={"coeffs": (0.005, 0.0, 0.005)})
# three halvings of (1e-2, 1e-2), the default linearize schedule
PAIRS = ((1e-2, 1e-2), (5e-3, 5e-3), (2.5e-3, 2.5e-3))


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


def test_first_linearization_quotient_convergence():
    # eps^{-1} * (nonlinear solution at data eps*g) approaches the free
    # transport of g, its profile phi(v), as eps shrinks
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    rule = _rule()
    phi = _quartic()
    Vq = grid.v_nodes[grid.v_active_idx][::7]
    Xq = np.broadcast_to(np.array([0.15, -0.2]), Vq.shape)
    ref = phi(Vq)
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


def _const(c):
    return lambda V: np.full(len(V), c)


def _rule3():
    return QuadratureRule.build(3, sphere_order=4, radial_order=3,
                                angular_order=4, R_v=2.0)


def test_source_vanishes_on_constants():
    V = np.array([[0.3, 0.1], [-0.5, 0.4], [0.0, 0.0]])
    S = second_order_source(_const(0.7), _const(-0.2), V, POLY, _rule())
    assert np.array_equal(S, np.zeros(3))
    V3 = np.array([[0.3, 0.1, -0.4], [-0.5, 0.4, 0.2], [0.0, 0.0, 0.0]])
    poly3 = KernelSpec("omega_independent_poly", dim=3,
                       params={"coeffs": (1.0, 0.0, 1.0)})
    S = second_order_source(_const(0.7), _const(-0.2), V3, poly3, _rule3())
    assert np.array_equal(S, np.zeros(3))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["constant", "angular_bump"])
def test_source_matches_collision_q_reference(dim, family):
    # S from the folded velocity tables against the unfolded reference
    # Q(phi1, phi2) + Q(phi2, phi1) of collision.collision_Q, for a pair of
    # quartics with different centres and widths (so S has no symmetry the
    # folding could lean on), within 1e-14 of sup |S|
    spec = KernelSpec(family, dim=dim)
    rule = _rule(sphere=16, radial=5, angular=16) if dim == 2 else _rule3()
    c1, c2 = np.zeros(dim), np.zeros(dim)
    c1[0], c2[0], c2[-1] = 0.5, 0.2, -0.4
    f1, f2 = _quartic(center=c1), _quartic(center=c2, width=0.5)
    V = np.random.default_rng(4).uniform(-1.4, 1.4, size=(30, dim))
    got = second_order_source(f1, f2, V, spec, rule)
    want = (collision_Q(f1, f2, V, spec, rule)
            + collision_Q(f2, f1, V, spec, rule))
    assert np.max(np.abs(want)) > 1e-3
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a profile may return any array-like, as collision_Q's fields may
    assert np.array_equal(
        second_order_source(lambda P: f1(P).tolist(), f2, V, spec, rule), got)


def test_source_vanishes_on_maxwellians():
    phi = lambda V: np.exp(-np.sum(V * V, axis=-1))
    rng = np.random.default_rng(1)
    V = rng.uniform(-1.5, 1.5, size=(40, 2))
    S = second_order_source(phi, phi, V, POLY, _rule())
    assert np.max(np.abs(S)) < 1e-12


def test_source_matches_closed_form_bracket():
    # V1 = e^{|v-v0|^2}, V2 = 1: at v = v0 the bracket collapses to the
    # product form P, so quadrature of B*P must reproduce S(v0)
    v0 = np.array([0.3, -0.2])
    rule = _rule()
    V1 = lambda V: np.exp(np.sum((V - v0) ** 2, axis=-1))
    V2 = lambda V: np.ones(len(V))
    got = second_order_source(V1, V2, v0[None, :], POLY, rule)[0]

    B = kernel_eval(POLY, v0[None, None, :], rule.u_nodes[:, None, :],
                    rule.omega_nodes[None, :, :])
    P = monotonicity_P(v0[None, None, :], rule.u_nodes[:, None, :],
                       rule.omega_nodes[None, :, :])
    ref = float(np.einsum("q,m,qm,qm->", rule.u_weights,
                          rule.omega_weights, B, P))
    assert ref < 0  # B >= 0 and P <= 0
    assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_monotonicity_P_sign_and_zero_set():
    rng = np.random.default_rng(2)
    v0 = rng.normal(size=2)
    u = rng.normal(size=2)
    d = v0 - u
    dn = d / np.linalg.norm(d)
    ang = rng.uniform(0, 2 * np.pi, size=200)
    W = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    P = monotonicity_P(v0, u, W)
    assert np.all(P <= 0)
    perp = np.array([-dn[1], dn[0]])
    for w in (perp, -perp, dn, -dn):
        assert abs(monotonicity_P(v0, u, w)) < 1e-10


def test_source_symmetry_in_the_two_fields():
    rule = _rule()
    f1 = _quartic(center=(0.5, 0.2))
    f2 = _quartic(center=(-0.4, 0.3), width=0.5)
    rng = np.random.default_rng(3)
    V = rng.uniform(-1.5, 1.5, size=(30, 2))
    a = second_order_source(f1, f2, V, POLY, rule)
    b = second_order_source(f2, f1, V, POLY, rule)
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(a - b)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# W by quadrature
# ---------------------------------------------------------------------------


def _outgoing(count, seed):
    rng = np.random.default_rng(seed)
    return sample_outgoing(DISK, count, rng, speed_lo=0.6, speed_hi=1.4,
                           min_cosine=0.3)


def test_w_quadrature_trivial_sources():
    X, V = _outgoing(15, 5)
    rule = _rule()
    # constant profiles have a zero source, so W is zero
    W0 = w_quadrature(_const(0.7), _const(-0.2), POLY, rule, DISK, X, V)
    assert np.array_equal(W0, np.zeros(15))
    # W is the exit time times the source, bit for bit
    f1, f2 = _quartic(center=(0.5, 0.2)), _quartic(center=(-0.4, 0.3))
    W = w_quadrature(f1, f2, POLY, rule, DISK, X, V)
    ref = (exit_times(DISK, X, V, sign=-1)
           * second_order_source(f1, f2, V, POLY, rule))
    assert np.any(W != 0.0)
    assert np.array_equal(W, ref)


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


def test_amplitude_pairs_from_config_and_their_validation(tmp_path):
    # a run halves (eps1, eps2) `levels` times and records the pairs
    out = tmp_path / "run"
    doc = {"version": 1, "output_dir": str(out),
           "grid": {"nx": 8, "nv": 8},
           "quadrature": {"sphere_order": 4, "radial_order": 2,
                          "angular_order": 4},
           "linearize": {"eps1": 0.01, "eps2": 0.004, "levels": 3,
                         "n_samples": 2},
           "stages": {"verify_geometry": False, "verify_collision": False,
                      "forward": False, "linearize": True,
                      "reconstruct": False}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    with open(out / "linearize_summary.json") as fh:
        pairs = json.load(fh)["pairs"]
    assert pairs == [[0.01, 0.004], [0.005, 0.002], [0.0025, 0.001]]

    with pytest.raises(ConfigurationError, match=r"^linearize\.eps1 "):
        config_from_dict({"version": 1, "linearize": {"eps1": -1e-2}})
    with pytest.raises(ConfigurationError, match=r"linearize\.levels"):
        config_from_dict({"version": 1, "linearize": {"levels": 0}})
    g1, g2 = _two_sources()
    X, V = _outgoing(2, 13)
    grid = PhaseGrid(DISK, 8, 8, R_v=2.0)
    with pytest.raises(PreconditionError, match="amplitude pair"):
        w_finite_difference(Solver(SMALL, grid, _rule()), g1, g2, [], X, V)


def test_scaled_source_skips_a_zero_amplitude_profile():
    # the first and second data of a triple evaluate one profile only, and
    # give the bits of the two-profile sum e1 g1 + 0.0 g2 on these
    # non-negative profiles
    calls = []

    def counted(phi, name):
        def f(V):
            calls.append(name)
            return phi(V)
        return BoundarySource.from_velocity_profile(f, sup=1.0)

    g1 = counted(_quartic(center=(0.6, 0.0)), "g1")
    g2 = counted(_quartic(center=(-0.3, 0.5)), "g2")
    V = np.random.default_rng(23).uniform(-2.0, 2.0, size=(200, 2))
    for (e1, e2), called in (((1e-2, 0.0), ["g1"]), ((0.0, 1e-2), ["g2"]),
                             ((1e-2, 5e-3), ["g1", "g2"])):
        calls.clear()
        got = _scaled_source(g1, g2, e1, e2)(V)
        assert calls == called
        want = e1 * g1(V) + e2 * g2(V)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fd_zero_kernel_gives_zero():
    spec = KernelSpec("constant", dim=2, params={"value": 0.0})
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g1, g2 = _two_sources()
    X, V = _outgoing(8, 8)
    conv = w_finite_difference(Solver(spec, grid, _rule()), g1, g2, PAIRS,
                               X, V)
    assert np.max(np.abs(conv.W_fd)) < 1e-12
    assert np.max(np.abs(conv.W_quad)) == 0.0


def test_fd_converges_to_quadrature_route():
    grid = PhaseGrid(DISK, 20, 12, R_v=2.0)
    rule = _rule()
    kern = KernelSpec("omega_independent_poly", dim=2,
                      params={"coeffs": (0.02, 0.0, 0.005)})
    g1, g2 = _two_sources()
    X, V = _outgoing_on_vnodes(grid, 6, 9)
    conv = w_finite_difference(Solver(kern, grid, rule), g1, g2, PAIRS,
                               X, V)
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
    solver = Solver(SMALL, grid, rule)
    c12 = w_finite_difference(solver, g1, g2, PAIRS[:1], X, V)
    c21 = w_finite_difference(solver, g2, g1, PAIRS[:1], X, V)
    scale = max(1.0, np.max(np.abs(c12.W_fd)))
    assert np.max(np.abs(c12.W_fd - c21.W_fd)) < 1e-12 * scale
    assert np.max(np.abs(c12.W_quad - c21.W_quad)) < 1e-12 * scale


def test_zero_amplitude_is_rejected_before_any_solve(monkeypatch):
    # the mixed difference divides by e1 * e2, so a pair with a zero
    # amplitude is refused, naming the pair, before any solve: unchecked it
    # gives all-NaN W, or a ZeroDivisionError after the solves
    solver_ = Solver(SMALL, PhaseGrid(DISK, 10, 10, R_v=2.0), _rule())
    g1, g2 = _two_sources()
    X, V = _outgoing(3, 13)

    def forbidden(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(solver_, "solve_many", forbidden)
    with pytest.raises(PreconditionError, match=r"pair \(0\.0, 0\.01\)"):
        mixed_difference(solver_, g1, g2, 0.0, 0.01, X, V)
    with pytest.raises(PreconditionError, match=r"pair \(0\.01, 0\.0\)"):
        w_finite_difference(solver_, g1, g2, [(0.02, 0.01), (0.01, 0.0)],
                            X, V)


def test_fd_smallness_guard_and_failure_naming():
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g1, g2 = _two_sources()
    X, V = _outgoing(4, 11)
    big = [(0.5, 0.5)]
    with pytest.raises(PreconditionError):
        w_finite_difference(Solver(SMALL, grid, _rule()), g1, g2, big, X, V)
    # a solve cut off after one sweep fails and names the amplitudes
    with pytest.raises(ConvergenceError) as ei:
        w_finite_difference(
            Solver(SMALL, grid, _rule(), PicardOptions(max_iter=1)),
            g1, g2, PAIRS, X, V)
    assert "eps1" in str(ei.value)
    # all three fail; the first in input order is named, with its report
    assert "solve failed for the combined data" in str(ei.value)
    assert ei.value.report is not None and not ei.value.report.converged


def test_convergence_csv(tmp_path):
    grid = PhaseGrid(DISK, 10, 10, R_v=2.0)
    g1, g2 = _two_sources()
    X, V = _outgoing(3, 12)
    conv = w_finite_difference(Solver(SMALL, grid, _rule()), g1, g2,
                               PAIRS[:2], X, V)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    convergence_to_csv(conv, str(p1))
    convergence_to_csv(conv, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "eps1,eps2,sample,x0,x1,v0,v1,W_fd,W_quad,abs_err"
    assert len(lines) == 1 + 2 * 3
