"""Hand cases for the benchmark's own oracles.

    python3 -m pytest perfbench/test_oracles.py
"""
import math

import numpy as np
from scipy.integrate import quad

import oracles


def _disk_rule(n_angles=8, n_radial=3, radius=2.0):
    """A (u, omega) rule on the disk |u| <= radius and the unit circle."""
    r, wr = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * (r + 1.0) * radius
    wr = 0.5 * wr * radius
    th = 2.0 * np.pi * np.arange(n_angles) / n_angles
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    U = (r[:, None, None] * dirs[None]).reshape(-1, 2)
    wu = (wr[:, None] * r[:, None] * np.full(n_angles, 2 * np.pi / n_angles)).ravel()
    return U, wu, dirs, np.full(n_angles, 2 * np.pi / n_angles)


def test_disk_exit_time_is_inverse_speed_at_centre():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(50, 2))
    tau = oracles.disk_exit_time(np.zeros((50, 2)), V)
    np.testing.assert_allclose(tau, 1.0 / np.linalg.norm(V, axis=1),
                               rtol=1e-15)


def test_disk_exit_time_lands_on_the_boundary():
    rng = np.random.default_rng(1)
    X = rng.uniform(-0.7, 0.7, size=(50, 2))
    V = rng.normal(size=(50, 2))
    tau = oracles.disk_exit_time(X, V)
    foot = X - tau[:, None] * V
    assert np.all(tau > 0)
    np.testing.assert_allclose(np.linalg.norm(foot, axis=1), 1.0, rtol=1e-13)


def test_collision_bracket_vanishes_on_constant_data():
    U, wu, om, wom = _disk_rule()
    V = np.random.default_rng(2).uniform(-2, 2, size=(40, 2))
    const = lambda P: np.full(np.shape(P)[:-1], 0.37)
    Q = oracles.collision_Q(const, const, V, U, wu, om, wom, 0.01)
    assert np.all(Q == 0.0)


def test_collision_bracket_vanishes_on_maxwellians():
    # exp(-|v|^2) is a collision invariant: f(v')f(u') = f(v)f(u)
    U, wu, om, wom = _disk_rule()
    V = np.random.default_rng(3).uniform(-2, 2, size=(40, 2))
    M = lambda P: np.exp(-np.sum(np.asarray(P) ** 2, axis=-1))
    Q = oracles.collision_Q(M, M, V, U, wu, om, wom, 1.0)
    assert np.max(np.abs(Q)) < 1e-13


def test_bump_mass_matches_direct_integral():
    direct = 2 * math.pi * quad(lambda r: r * math.exp(-1 / (1 - r * r)),
                                0, 1, epsabs=1e-14, epsrel=1e-14)[0]
    assert abs(oracles.BUMP_MASS_2D - direct) < 1e-13


def test_marginal_reproduces_its_closed_form():
    # at t = 0 the marginal is the 1-D bump mass over (Z2 eta); it carries
    # unit mass in total
    eta = 0.3
    z1 = quad(lambda s: math.exp(-1 / (1 - s * s)), -1, 1, epsabs=1e-14,
              epsrel=1e-14)[0]
    m0 = float(oracles.bump2_marginal(0.0, eta)[0])
    assert abs(m0 - z1 / (oracles.BUMP_MASS_2D * eta)) < 1e-9 * m0
    t, w = np.polynomial.legendre.leggauss(200)
    mass = float(np.sum(eta * w * oracles.bump2_marginal(eta * t, eta)))
    assert abs(mass - 1.0) < 1e-9
    assert np.all(oracles.bump2_marginal(np.array([-eta, eta, 2 * eta]), eta) == 0.0)


def test_gain_oracle_scales_with_the_kernel_and_swaps_targets():
    vs, v0, u0 = np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0])
    a = oracles.gain_oracle(vs, v0, u0, 0.2, 1.0)
    assert a > 0
    assert abs(oracles.gain_oracle(vs, v0, u0, 0.2, 0.01) - 0.01 * a) < 1e-15 * a
    # the symmetric probe: both gain terms agree by the mirror v -> (v_y, v_x)
    b = oracles.gain_oracle(vs, u0, v0, 0.2, 1.0)
    assert abs(a - b) < 1e-9 * a
