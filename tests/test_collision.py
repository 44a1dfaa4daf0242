import math

import numpy as np
import pytest

from boltzlab.collision import (
    KernelSpec,
    QuadratureRule,
    admissibility_check,
    ball_rule,
    collision_Q,
    gauss_legendre,
    kernel_eval,
    post_collision,
    sphere_rule,
)
from boltzlab.errors import PreconditionError
from boltzlab.geometry import Domain

RT2 = np.sqrt(2.0) / 2.0


def test_post_collision_example():
    up, vp = post_collision([1.0, 0.0], [-1.0, 0.0], [RT2, RT2])
    assert np.allclose(up, [0.0, -1.0], atol=1e-15)
    assert np.allclose(vp, [0.0, 1.0], atol=1e-15)


def test_post_collision_is_an_involution():
    # the inverse map is the same formula applied to the primed pair
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        up, vp = post_collision(u, v, w)
        u2, v2 = post_collision(up, vp, w)
        assert np.max(np.abs(u2 - u)) < 1e-13
        assert np.max(np.abs(v2 - v)) < 1e-13


def test_collision_conserves_momentum_energy():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(500, 2))
    v = rng.normal(size=(500, 2))
    th = rng.uniform(0, 2 * np.pi, size=500)
    w = np.stack([np.cos(th), np.sin(th)], axis=1)
    up, vp = post_collision(u, v, w)
    assert np.max(np.abs((up + vp) - (u + v))) < 1e-13
    e0 = np.sum(u * u, axis=1) + np.sum(v * v, axis=1)
    e1 = np.sum(up * up, axis=1) + np.sum(vp * vp, axis=1)
    assert np.max(np.abs(e1 - e0) / np.maximum(e0, 1.0)) < 1e-13


def test_collision_parities_bitwise():
    # flipping omega changes nothing; swapping arguments swaps outputs,
    # and both identities hold bit for bit in IEEE arithmetic
    rng = np.random.default_rng(5)
    u = rng.normal(size=(200, 2))
    v = rng.normal(size=(200, 2))
    th = rng.uniform(0, 2 * np.pi, size=200)
    w = np.stack([np.cos(th), np.sin(th)], axis=1)
    up, vp = post_collision(u, v, w)
    up2, vp2 = post_collision(u, v, -w)
    assert np.array_equal(up, up2) and np.array_equal(vp, vp2)
    vp3, up3 = post_collision(v, u, w)
    assert np.array_equal(up, up3) and np.array_equal(vp, vp3)


def test_post_collision_rejects_nonunit_omega():
    with pytest.raises(PreconditionError):
        post_collision([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])


def test_kernel_poly_example():
    spec = KernelSpec("omega_independent_poly", dim=2)
    val = kernel_eval(spec, [2.0, 0.0], [0.0, 0.0], [1.0, 0.0])
    assert abs(val - 5.0) < 1e-14  # 1 + |v-u|^2 at |v-u| = 2


def test_kernel_families_symmetry_and_parity():
    rng = np.random.default_rng(6)
    specs = [
        KernelSpec("constant", dim=2, params={"value": 0.7}),
        KernelSpec("omega_independent_poly", dim=2),
        KernelSpec("hard_potential_like", dim=2, params={"gamma": 0.5}),
        KernelSpec("gaussian_compact", dim=2),
        KernelSpec("angular_bump", dim=2),
    ]
    v = rng.normal(size=(50, 2))
    u = rng.normal(size=(50, 2))
    th = rng.uniform(0, 2 * np.pi, size=50)
    w = np.stack([np.cos(th), np.sin(th)], axis=1)
    for spec in specs:
        b = kernel_eval(spec, v, u, w)
        assert np.all(b >= 0)
        assert np.max(np.abs(kernel_eval(spec, u, v, w) - b)) < 1e-14
        assert np.max(np.abs(kernel_eval(spec, v, u, -w) - b)) < 1e-14


def test_angular_bump_support():
    spec = KernelSpec("angular_bump", dim=2, params={"center": 0.5, "halfwidth": 0.3})
    v = np.array([1.0, 0.0])
    u = np.array([0.0, 0.0])
    # omega parallel to v-u: c^2 = 1, outside the window
    assert kernel_eval(spec, v, u, np.array([1.0, 0.0])) == 0.0
    # omega orthogonal: c^2 = 0, outside
    assert kernel_eval(spec, v, u, np.array([0.0, 1.0])) == 0.0
    # c^2 = 0.5 at 45 degrees: center of the window
    assert kernel_eval(spec, v, u, np.array([RT2, RT2])) == pytest.approx(1.0)


def test_gaussian_compact_values_and_support():
    amp, support = 0.7, 1.5
    spec = KernelSpec("gaussian_compact", dim=2,
                      params={"amplitude": amp, "support": support})
    u = np.array([0.2, -0.1])
    om = np.array([1.0, 0.0])
    # the peak, at v = u
    assert kernel_eval(spec, u, u, om) == amp
    # exactly zero at and beyond |v - u| = support
    for r in (support, np.nextafter(support, np.inf), 1.2 * support, 50.0):
        assert kernel_eval(spec, u + np.array([0.0, r]), u, om) == 0.0
    # amplitude * exp(1 - 1/(1 - t^2)) at t = |v - u| / support = 0.5
    got = kernel_eval(spec, u + np.array([0.5 * support, 0.0]), u, om)
    want = amp * math.exp(1.0 - 1.0 / (1.0 - 0.25))
    assert abs(got - want) <= 1e-15 * want


def test_kernel_spec_validation():
    with pytest.raises(PreconditionError):
        KernelSpec("no_such_family", dim=2)
    with pytest.raises(PreconditionError):
        KernelSpec("hard_potential_like", dim=2, params={"gamma": 1.5})
    with pytest.raises(PreconditionError):
        KernelSpec("angular_bump", dim=2, params={"center": 0.9, "halfwidth": 0.3})
    # a misspelt key, a key of another family, and values that are not
    # finite numbers, each named as params.<key>
    for family, params, key in (
            ("constant", {"valu": 0.5}, "valu"),
            ("hard_potential_like", {"gama": 0.9}, "gama"),
            ("gaussian_compact", {"value": 0.5}, "value"),
            ("constant", {"value": "x"}, "value"),
            ("constant", {"value": True}, "value"),
            ("constant", {"value": float("nan")}, "value"),
            ("angular_bump", {"amplitude": None}, "amplitude"),
            ("omega_independent_poly", {"coeffs": (1.0, "2")}, "coeffs"),
            ("omega_independent_poly", {"coeffs": (1.0, False)}, "coeffs"),
            ("omega_independent_poly", {"coeffs": 1.0}, "coeffs")):
        with pytest.raises(PreconditionError, match=r"^params\.%s " % key):
            KernelSpec(family, dim=2, params=params)
    # omitted keys take their defaults; integers are numbers
    spec = KernelSpec("hard_potential_like", dim=3, params={"gamma": 1})
    assert spec.params == {"gamma": 1, "amplitude": 1.0}
    assert KernelSpec("omega_independent_poly", dim=2,
                      params={"coeffs": [1, 0, 2]}).params["coeffs"] == \
        (1.0, 0.0, 2.0)


def test_gauss_legendre_is_leggauss_built_once():
    for n in (1, 4, 20, 64):
        nodes, weights = gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        again = gauss_legendre(n)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_sphere_rule_measures():
    _, w2 = sphere_rule(2, 16)
    assert abs(np.sum(w2) - 2 * np.pi) < 1e-13
    n3, w3 = sphere_rule(3, 8)
    assert abs(np.sum(w3) - 4 * np.pi) < 1e-12
    assert np.max(np.abs(np.sum(n3 * n3, axis=1) - 1.0)) < 1e-13
    # first moment vanishes, second moment of one component is |S^2|/3
    assert np.max(np.abs(n3.T @ w3)) < 1e-12
    assert abs(np.sum(w3 * n3[:, 2] ** 2) - 4 * np.pi / 3) < 1e-12


def test_ball_rule_measures():
    for dim, vol in ((2, np.pi * 4.0), (3, 4.0 / 3.0 * np.pi * 8.0)):
        nodes, w = ball_rule(dim, 6, 12, 2.0)
        assert abs(np.sum(w) - vol) < 1e-8 * vol
        assert np.max(np.linalg.norm(nodes, axis=1)) <= 2.0 + 1e-12
        # int |u|^2 over the ball, exact for Gauss-Legendre at this order
        ref = np.pi * 2.0**4 / 2.0 if dim == 2 else 4.0 * np.pi * 2.0**5 / 5.0
        assert abs(np.sum(w * np.sum(nodes**2, axis=1)) - ref) < 1e-10 * ref


def test_admissibility_constant_kernel_closed_form():
    # every direction has a chord through the centre, so for a constant
    # kernel M = diam * value * |S^{d-1}| * |B_Rv| to rounding
    sphere = {2: 2 * np.pi, 3: 4 * np.pi}
    ball = {2: np.pi, 3: 4.0 / 3.0 * np.pi}
    for dim, radius in ((2, 1.0), (3, 1.0), (2, 0.7), (3, 0.7)):
        dom = Domain("ball", dim=dim, radius=radius)
        rule = QuadratureRule.build(dim, sphere_order=8, radial_order=4,
                                    angular_order=8, R_v=1.0)
        spec = KernelSpec("constant", dim=dim, params={"value": 0.1})
        M_exact = 2.0 * radius * 0.1 * sphere[dim] * ball[dim]
        rep = admissibility_check(spec, dom, rule, threshold=1.01 * M_exact)
        assert abs(rep.M_estimate - M_exact) < 1e-12 * M_exact
        assert rep.passed
        rep = admissibility_check(spec, dom, rule, threshold=0.99 * M_exact)
        assert not rep.passed


def test_admissibility_sum_matches_full_table():
    # every family's kernel mass agrees with the sum over the full (u, w)
    # table, and so does every verdict at thresholds just above and below it
    specs = {
        "constant": {"value": 0.1},
        "omega_independent_poly": {"coeffs": (0.005, 0.0, 0.005)},
        "hard_potential_like": {"gamma": 0.5, "amplitude": 0.02},
        "gaussian_compact": {"amplitude": 0.3, "support": 1.5},
        "angular_bump": {"amplitude": 0.2},
    }
    for dim in (2, 3):
        dom = Domain("ball", dim=dim, radius=0.8)
        rule = QuadratureRule.build(dim, sphere_order=6, radial_order=3,
                                    angular_order=6, R_v=2.0)
        W, U = rule.omega_nodes, rule.u_nodes
        wt = rule.u_weights[:, None] * rule.omega_weights[None, :]
        for family, params in specs.items():
            spec = KernelSpec(family, dim=dim, params=params)
            full = max(float(np.sum(np.abs(kernel_eval(
                spec, v, U[:, None, :], W[None, :, :])) * wt)) for v in W)
            M_full = dom.diameter() * full
            rep = admissibility_check(spec, dom, rule)
            assert abs(rep.M_estimate - M_full) <= 1e-14 * M_full, family
            for f in (1.0 + 1e-9, 1.0 - 1e-9):
                assert admissibility_check(spec, dom, rule,
                                           threshold=f * M_full).passed == \
                    (f > 1.0)


def test_collision_Q_annihilates_constants_and_maxwellian():
    rule = QuadratureRule.build(2, sphere_order=12, radial_order=5,
                                angular_order=12, R_v=2.0)
    spec = KernelSpec("omega_independent_poly", dim=2)
    V = np.array([[0.4, -0.1], [-1.2, 0.7], [0.0, 1.5]])
    const = lambda P: np.full(P.shape[0], 0.7)
    assert np.array_equal(collision_Q(const, const, V, spec, rule),
                          np.zeros(3))
    maxw = lambda P: np.exp(-np.sum(P * P, axis=-1))
    assert np.max(np.abs(collision_Q(maxw, maxw, V, spec, rule))) < 1e-12


def test_collision_Q_bilinear_closed_form():
    # H1 = 1 + v_x, H2 = 1 with a constant kernel:
    # bracket = u'_x - u_x; both integrals are low-degree polynomials, so the
    # product rule is exact and Q = value * pi^2 * R^2 * v_x
    rule = QuadratureRule.build(2, sphere_order=8, radial_order=3,
                                angular_order=8, R_v=1.0)
    spec = KernelSpec("constant", dim=2, params={"value": 1.0})
    H1 = lambda P: 1.0 + P[..., 0]
    H2 = lambda P: np.ones(P.shape[0])
    V = np.array([[0.3, -0.2], [-0.5, 0.1]])
    q = collision_Q(H1, H2, V, spec, rule)
    assert np.max(np.abs(q - np.pi**2 * V[:, 0])) < 1e-12

    # bilinearity in the first slot
    H1s = lambda P: 2.5 * (1.0 + P[..., 0])
    assert np.max(np.abs(collision_Q(H1s, H2, V, spec, rule) - 2.5 * q)) \
        < 1e-12

