import math

import numpy as np
import pytest

from boltzlab import reconstruct as rc
from boltzlab.collision import (KernelSpec, QuadratureRule, kernel_eval,
                                post_collision)
from boltzlab.errors import ConfigurationError, PreconditionError

CONST = KernelSpec(dim=2, family="constant", params={"value": 1.0})
POLY = KernelSpec(dim=2, family="omega_independent_poly",
                  params={"coeffs": (1.0, 0.0, 1.0)})

# canonical probe: v* on the circle with diameter (v0, u0)
VS = np.array([1.0, 0.0])
V0 = np.array([0.0, 0.0])
U0 = np.array([1.0, 1.0])


def thales_triples(rng, count, dim=2):
    """Random triples satisfying the orthogonality relation: v_star drawn on
    the sphere with diameter segment (v0, u0), kept away from its poles."""
    v0 = rng.normal(size=(count, dim))
    axis = rng.normal(size=(count, dim))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    u0 = v0 + (0.5 + rng.uniform(0.0, 1.5, size=count))[:, None] * axis
    mid = 0.5 * (v0 + u0)
    rad = 0.5 * np.linalg.norm(u0 - v0, axis=1)
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    e = (u0 - v0) / (2.0 * rad[:, None])
    for _ in range(100):
        bad = np.abs(np.sum(d * e, axis=1)) > 0.9
        if not np.any(bad):
            break
        d[bad] = rng.normal(size=(int(bad.sum()), dim))
        d[bad] /= np.linalg.norm(d[bad], axis=1, keepdims=True)
    v_star = mid + rad[:, None] * d
    return v_star, v0, u0


# ---------------------------------------------------------------------------
# bump normalization
# ---------------------------------------------------------------------------


def test_bump_mass_matches_independent_quadrature():
    # same integrals under a different substitution and a different order
    t, w = np.polynomial.legendre.leggauss(400)
    r = 0.5 * (t + 1.0)
    wr = 0.5 * w
    z2 = 2.0 * np.pi * np.sum(wr * r * np.exp(-1.0 / (1.0 - r * r)))
    psi = 0.25 * np.pi * (t + 1.0)
    wpsi = 0.25 * np.pi * w
    s = np.sin(psi)
    z3 = 4.0 * np.pi * np.sum(
        wpsi * s * s * np.cos(psi) * np.exp(-1.0 / np.cos(psi) ** 2))
    assert abs(rc.bump_mass(2) - z2) < 1e-13
    assert abs(rc.bump_mass(3) - z3) < 1e-13
    assert round(rc.bump_mass(2), 8) == 0.46651239


def test_mollifier_unit_mass_and_support():
    eta = 0.3
    t, w = np.polynomial.legendre.leggauss(90)
    x = eta * t
    wx = eta * w
    XX, YY = np.meshgrid(x, x, indexing="ij")
    vals = rc.mollifier(np.stack([XX, YY], axis=-1), eta)
    mass = float(np.sum(vals * np.outer(wx, wx)))
    assert abs(mass - 1.0) < 1e-8
    outside = rc.mollifier(np.array([[0.3, 0.0], [0.0, -0.31], [5.0, 5.0]]), eta)
    assert np.array_equal(outside, np.zeros(3))
    assert rc.mollifier(np.zeros((1, 2)), eta)[0] > 0.0


# ---------------------------------------------------------------------------
# probe relations and geometry
# ---------------------------------------------------------------------------


def test_check_relations_hand_examples():
    rels = rc.check_relations(VS, V0, U0)
    assert rels == {"rel1": True, "rel2": True, "rel3": True}
    rels = rc.check_relations(VS, V0, np.array([2.0, 0.0]))
    assert rels == {"rel1": False, "rel2": False, "rel3": False}
    # residual is -1 on the unit scale, so a huge tolerance flips it
    assert rc.check_relations(VS, V0, np.array([2.0, 0.0]), tol=2.0)["rel3"]


def test_check_relations_three_forms_agree_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        v_star, v0, u0 = rng.normal(size=(3, 2))
        rels = rc.check_relations(v_star, v0, u0)
        assert rels["rel1"] == rels["rel2"] == rels["rel3"]


def test_check_relations_rejects_coincident_velocities():
    with pytest.raises(PreconditionError, match="coincident"):
        rc.check_relations(VS, VS, U0)


def test_thales_triples_satisfy_all_relations():
    rng = np.random.default_rng(5)
    v_star, v0, u0 = thales_triples(rng, 10_000)
    for i in range(10_000):
        rels = rc.check_relations(v_star[i], v0[i], u0[i])
        assert rels == {"rel1": True, "rel2": True, "rel3": True}


def test_omega_pair_hand_example():
    w1, w2 = rc.omega_pair(VS, V0, U0)
    assert np.allclose(w1, [1.0, 0.0], atol=1e-15)
    assert np.allclose(w2, [0.0, -1.0], atol=1e-15)


def test_omega_pair_orthonormal_on_manifold():
    rng = np.random.default_rng(7)
    v_star, v0, u0 = thales_triples(rng, 2000)
    for i in range(2000):
        w1, w2 = rc.omega_pair(v_star[i], v0[i], u0[i])
        assert abs(float(w1 @ w2)) < 1e-12
        assert abs(np.linalg.norm(w1) - 1.0) < 1e-14
        assert abs(np.linalg.norm(w2) - 1.0) < 1e-14


def test_omega_pair_rejects_off_manifold():
    with pytest.raises(PreconditionError, match="orthogonality"):
        rc.omega_pair(VS, V0, np.array([2.0, 0.0]))


def test_single_scattering_connects_probe_velocities():
    # one collision along omega1 sends (u0, v0) to (partner, v_star) and one
    # along omega2 sends it to (v_star, partner)
    rng = np.random.default_rng(19)
    v_star, v0, u0 = thales_triples(rng, 800)
    for i in range(800):
        vs, a0, b0 = v_star[i], v0[i], u0[i]
        partner = a0 + b0 - vs
        w1, w2 = rc.omega_pair(vs, a0, b0)
        scale = max(1.0, float(np.linalg.norm(b0 - a0)))
        up, vp = post_collision(b0, a0, w1)
        assert np.linalg.norm(vp - vs) < 1e-12 * scale
        assert np.linalg.norm(up - partner) < 1e-12 * scale
        up, vp = post_collision(b0, a0, w2)
        assert np.linalg.norm(up - vs) < 1e-12 * scale
        assert np.linalg.norm(vp - partner) < 1e-12 * scale


def test_probe_from_abtheta_hand_example():
    v_star, v0, u0 = rc.probe_from_abtheta(
        np.array([2.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    assert np.array_equal(v_star, [2.0, 1.0])
    assert np.array_equal(v0, [2.0, 0.0])
    assert np.array_equal(u0, [0.0, 1.0])
    # collision partner lands back on b
    assert np.array_equal(u0 + v0 - v_star, [0.0, 0.0])


def test_probe_from_abtheta_round_trip():
    rng = np.random.default_rng(23)
    v_star, v0, u0 = thales_triples(rng, 500)
    for i in range(500):
        probe = rc.Probe(v_star[i], v0[i], u0[i], eta=0.1)
        a, b, theta = probe.abtheta()
        vs2, v02, u02 = rc.probe_from_abtheta(a, b, theta)
        scale = max(1.0, float(np.max(np.abs(u0[i]))))
        assert np.linalg.norm(vs2 - v_star[i]) < 1e-12 * scale
        assert np.linalg.norm(v02 - v0[i]) < 1e-12 * scale
        assert np.linalg.norm(u02 - u0[i]) < 1e-12 * scale


def test_probe_from_abtheta_rejects_degenerate_data():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    with pytest.raises(PreconditionError, match="unit"):
        rc.probe_from_abtheta(a, b, np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError, match=r"\(a-b\).theta = 0"):
        rc.probe_from_abtheta(a, b, np.array([1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(PreconditionError, match="parallel"):
        rc.probe_from_abtheta(a, b, np.array([1.0, -1.0]) / np.sqrt(2.0))
    with pytest.raises(PreconditionError, match="coincide"):
        rc.probe_from_abtheta(a, a, np.array([1.0, 0.0]))


def test_probe_validation_and_properties():
    probe = rc.Probe(VS, V0, U0, eta=0.2)
    assert probe.dim == 2
    assert np.array_equal(probe.partner, [0.0, 1.0])
    seps = probe.separations()
    assert seps[0] == 1.0 and seps[1] == 1.0 and abs(seps[2] - np.sqrt(2)) < 1e-15
    assert probe.relations()["rel3"]
    with pytest.raises(PreconditionError, match="positive"):
        rc.Probe(VS, V0, U0, eta=0.0)
    with pytest.raises(PreconditionError, match="coincident"):
        rc.Probe(VS, VS, U0, eta=0.1)
    with pytest.raises(PreconditionError, match="shape"):
        rc.Probe(VS, V0, np.array([1.0, 1.0, 0.0]), eta=0.1)
    with pytest.raises(PreconditionError, match="dim"):
        rc.Probe(np.ones(4), np.zeros(4), np.full(4, 2.0), eta=0.1)


# ---------------------------------------------------------------------------
# mollified probe functional
# ---------------------------------------------------------------------------


def test_loss_terms_are_bitwise_zero():
    res = rc.mollified_S(rc.Probe(VS, V0, U0, eta=0.3), CONST,
                         nr=8, na=16, nw=16)
    assert res.I3 == 0.0
    assert res.I4 == 0.0
    assert res.S_eta == res.I1 + res.I2


def test_loss_term_nonzero_for_overlapping_centres():
    # the early return for disjoint supports must not hide a genuine loss
    # integral: with the v-bump centre inside the v_star bump, a constant
    # kernel gives -|S^1| * sum(f_v) * sum(f_u) on the same nodes
    eta = 0.3
    center_v = VS + np.array([0.5 * eta, 0.0])
    value = rc._loss_term(CONST, VS, U0, center_v, eta, 8, 16, 16)
    vpts, vw = rc._shifted_ball(VS, eta, 8, 16)
    upts, uw = rc._shifted_ball(U0, eta, 8, 16)
    fv = rc.mollifier(vpts - center_v, eta) * rc.mollifier(vpts - VS, eta) * vw
    fu = rc.mollifier(upts - U0, eta) * uw
    expected = -2.0 * math.pi * CONST.params["value"] * fv.sum() * fu.sum()
    assert value < 0.0
    assert abs(value - expected) <= 1e-12 * abs(expected)


def test_off_manifold_probe_value_is_exactly_zero():
    # orthogonality violated by a margin huge against eta: no scattering
    # direction can connect the bumps, so every quadrature summand is zero
    probe = rc.Probe(VS, V0, np.array([2.0, 0.0]), eta=0.15)
    res = rc.mollified_S(probe, CONST, nr=10, na=20, nw=24)
    assert res.S_eta == 0.0
    assert res.I1 == 0.0 and res.I2 == 0.0
    assert not res.rel3_satisfied
    assert res.jacobian_factors == {}
    assert res.omega1 is None and res.omega2 is None


def test_gain_terms_match_marginalized_oracle():
    # independent evaluation: integrate in post-collision variables, collapse
    # the two outer bumps to 1D marginals, then a 2D bump-weighted integral
    # per scattering direction; valid for a constant kernel
    eta = 0.2
    vs = VS
    v0 = V0
    u0 = np.array([1.0, 2.0])  # asymmetric: distances 1 and 2
    z2 = rc.bump_mass(2)

    def phi2(x, y):
        r2 = (x * x + y * y) / eta**2
        return np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)) / (z2 * eta**2)

    gs, gws = np.polynomial.legendre.leggauss(64)

    def marginal(t):
        t = np.atleast_1d(t)
        half = np.sqrt(np.maximum(eta**2 - t * t, 0.0))
        s = 0.5 * half[:, None] * (gs[None, :] + 1.0)
        return 2.0 * np.sum(phi2(s, t[:, None])
                            * (0.5 * half[:, None] * gws[None, :]), axis=1)

    gx, gwx = np.polynomial.legendre.leggauss(72)
    X = eta * gx
    XX, YY = np.meshgrid(X, X, indexing="ij")
    WW = np.outer(eta * gwx, eta * gwx)
    PHI = phi2(XX, YY)

    def G(A, B):
        mx = marginal((XX - A).ravel()).reshape(XX.shape)
        my = marginal((YY - B).ravel()).reshape(YY.shape)
        return float(np.sum(mx * my * PHI * WW))

    def oracle_gain(tv, tu):
        D = tv - vs
        k = tu - tv
        d0 = float(np.linalg.norm(D))
        base = math.atan2(-D[1], -D[0])
        half = math.asin(min(1.0, eta / (d0 - eta))) + math.asin(eta / d0)
        half = min(math.pi / 2.0, 1.3 * half)
        ga, gwa = np.polynomial.legendre.leggauss(96)
        total = 0.0
        for b0 in (base, base + math.pi):
            for ang, wa in zip(b0 + half * ga, half * gwa):
                w = np.array([math.cos(ang), math.sin(ang)])
                M = D + float(k @ w) * w
                total += wa * G(float(M @ w), float(M @ np.array([-w[1], w[0]])))
        return total

    res = rc.mollified_S(rc.Probe(vs, v0, u0, eta), CONST, nr=16, na=32, nw=40)
    ref1 = oracle_gain(v0, u0)
    ref2 = oracle_gain(u0, v0)
    assert abs(res.I1 - ref1) < 1e-3 * abs(ref1)
    assert abs(res.I2 - ref2) < 1e-3 * abs(ref2)


def _gain_term_full_product(spec, v_star, target_v, target_u, eta, nr, na,
                            nw):
    # the per-omega loop over the full (v, u) product that _gain_term
    # replaced, kept as its oracle: same windows, balls and weights
    d0 = float(np.linalg.norm(target_v - v_star))
    axis = (v_star - target_v) / d0
    half = math.asin(min(1.0, eta / max(d0 - eta, 1e-12))) \
        + math.asin(min(1.0, eta / d0))
    half = min(math.pi / 2.0, 1.2 * half)
    om, wom = rc._omega_windows(axis, half, nw)
    partner = target_u + target_v - v_star
    vpts, vw = rc._shifted_ball(v_star, eta, nr, na)
    upts, uw = rc._shifted_ball(partner, 3.0 * eta, nr, na)
    bv = rc.mollifier(vpts - v_star, eta) * vw
    total = 0.0
    for i in range(om.shape[0]):
        w = om[i]
        c = (upts[None, :, :] - vpts[:, None, :]) @ w
        vp = vpts[:, None, :] + c[..., None] * w
        up = upts[None, :, :] - c[..., None] * w
        f = rc.mollifier(vp - target_v, eta) * rc.mollifier(up - target_u, eta)
        B = kernel_eval(spec, vpts[:, None, :], upts[None, :, :],
                        w[None, None, :])
        total += wom[i] * float(np.sum(f * B * (bv[:, None] * uw[None, :])))
    return total


@pytest.mark.parametrize("case", ["2d_eta0.4", "2d_eta0.1", "angular_bump",
                                  "3d", "off_manifold"])
def test_gain_term_matches_full_product(case):
    # dropping the pairs outside the bump support only reorders the sum
    u0 = np.array([1.0, 2.0])
    spec, eta, orders = CONST, 0.4, (10, 20, 20)
    vs, v0 = VS, V0
    if case == "2d_eta0.1":
        eta = 0.1
    elif case == "angular_bump":
        # cos^2 between v0 - u0 and omega1 is 0.5, the centre of the bump
        spec, u0, eta = KernelSpec(dim=2, family="angular_bump"), U0, 0.2
    elif case == "3d":
        spec, eta = KernelSpec(dim=3, family="constant"), 0.25
        orders = (4, 6, 6)
        vs, v0 = np.array([1.0, 0.0, 0.0]), np.zeros(3)
        u0 = np.array([1.0, 2.0, 0.0])
    elif case == "off_manifold":
        u0, eta = np.array([2.0, 0.0]), 0.15
    pairs = [(v0, u0), (u0, v0)] if case != "3d" else [(v0, u0)]
    for tv, tu in pairs:
        new = rc._gain_term(spec, vs, tv, tu, eta, *orders)
        ref = _gain_term_full_product(spec, vs, tv, tu, eta, *orders)
        if case == "off_manifold":
            assert new == 0.0 and ref == 0.0
        else:
            assert ref > 0.0
            assert abs(new - ref) <= 1e-13 * abs(ref)


def test_gain_terms_swap_under_target_exchange():
    probe = rc.Probe(VS, V0, np.array([1.0, 2.0]), eta=0.2)
    swapped = rc.Probe(VS, np.array([1.0, 2.0]), V0, eta=0.2)
    res = rc.mollified_S(probe, POLY, nr=8, na=16, nw=16)
    res_sw = rc.mollified_S(swapped, POLY, nr=8, na=16, nw=16)
    assert res.I1 == res_sw.I2
    assert res.I2 == res_sw.I1
    assert res.S_eta == res_sw.S_eta


def test_kernel_weight_enters_at_probe_point():
    # ratio against the constant kernel isolates the B factor; it approaches
    # B(a, b) = 1 + |a-b|^2 = 3 as the bumps localize
    errs = []
    for eta in (0.2, 0.1):
        r1 = rc.mollified_S(rc.Probe(VS, V0, U0, eta), CONST, nr=10, na=20, nw=20)
        rb = rc.mollified_S(rc.Probe(VS, V0, U0, eta), POLY, nr=10, na=20, nw=20)
        errs.append(abs(rb.S_eta / r1.S_eta - 3.0))
    assert errs[1] < errs[0]
    assert errs[1] < 0.01


def test_probe_value_scales_inverse_eta():
    etas = (0.4, 0.2, 0.1)
    vals = [rc.mollified_S(rc.Probe(VS, V0, U0, e), CONST, nr=8, na=16, nw=16).S_eta
            for e in etas]
    slope = np.polyfit(np.log(etas), np.log(vals), 1)[0]
    assert abs(slope + 1.0) < 0.05
    assert abs(etas[2] * vals[2] / (etas[1] * vals[1]) - 1.0) < 0.02


def test_mollified_preconditions():
    with pytest.raises(PreconditionError, match="overlap"):
        rc.mollified_S(rc.Probe(VS, V0, U0, eta=0.6), CONST)
    spec3 = KernelSpec(dim=3, family="constant")
    with pytest.raises(PreconditionError, match="dimension"):
        rc.mollified_S(rc.Probe(VS, V0, U0, eta=0.1), spec3)


def test_mollified_3d_smoke():
    spec3 = KernelSpec(dim=3, family="constant")
    vs = np.array([1.0, 0.0, 0.0])
    v0 = np.zeros(3)
    u0 = np.array([1.0, 2.0, 0.0])
    res = rc.mollified_S(rc.Probe(vs, v0, u0, eta=0.25), spec3,
                         nr=4, na=6, nw=6)
    assert np.isfinite(res.S_eta) and res.S_eta > 0.0
    assert res.I3 == 0.0 and res.I4 == 0.0
    # kappa1 = 1, kappa2 = 2: the two exponent conventions now differ
    f1 = res.jacobian_factors["theorem_minus2"]
    f2 = res.jacobian_factors["proposition_minus_n"]
    assert abs(f1[1] - 0.25) < 1e-12
    assert abs(f2[1] - 0.125) < 1e-12
    off = rc.mollified_S(rc.Probe(vs, v0, np.array([2.0, 0.0, 0.0]), eta=0.15),
                         spec3, nr=4, na=6, nw=6)
    assert off.S_eta == 0.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_hand_values():
    a, b = VS, np.array([0.0, 1.0])
    theta = np.array([1.0, 0.0])
    # kappa1 = kappa2 = 1
    assert rc.closed_form_S(a, b, theta, CONST) == 2.0
    assert abs(rc.closed_form_S(a, b, theta, POLY) - 6.0) < 1e-14
    a2 = np.array([2.0, 0.0])  # kappa1 = 2, kappa2 = 1
    both = rc.closed_form_both(a2, b, theta, CONST)
    assert abs(both["theorem_minus2"] - 1.25) < 1e-15
    # in dimension 2 the conventions coincide
    assert both["proposition_minus_n"] == both["theorem_minus2"]


def test_closed_form_modes_differ_in_3d():
    spec3 = KernelSpec(dim=3, family="constant")
    a = np.array([2.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    theta = np.array([1.0, 0.0, 0.0])
    both = rc.closed_form_both(a, b, theta, spec3)
    assert abs(both["theorem_minus2"] - 1.25) < 1e-15
    assert abs(both["proposition_minus_n"] - 1.125) < 1e-15


def test_closed_form_invariant_under_theta_sign():
    a, b = np.array([2.0, 1.0]), np.array([0.0, 0.0])
    theta = np.array([3.0, 4.0]) / 5.0
    bump = KernelSpec(dim=2, family="angular_bump",
                      params={"center": 0.5, "halfwidth": 0.3})
    for spec in (POLY, bump):
        one = rc.closed_form_both(a, b, theta, spec)
        other = rc.closed_form_both(a, b, -theta, spec)
        assert one == other


def test_closed_form_validates_inputs():
    a, b = VS, np.array([0.0, 1.0])
    with pytest.raises(PreconditionError, match="unit"):
        rc.closed_form_S(a, b, np.array([2.0, 0.0]), CONST)
    with pytest.raises(PreconditionError, match="theta"):
        rc.closed_form_S(a, b, np.array([1.0, 1.0]) / np.sqrt(2), CONST)
    with pytest.raises(ConfigurationError, match="exponent_mode"):
        rc.closed_form_S(a, b, np.array([1.0, 0.0]), CONST, exponent_mode="x")


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_recovery_round_trip_omega_independent():
    rng = np.random.default_rng(31)
    v_star, v0, u0 = thales_triples(rng, 6)
    probes = [rc.Probe(v_star[i], v0[i], u0[i], eta=0.1) for i in range(6)]
    for spec, B_of in ((CONST, lambda a, b: 1.0),
                       (POLY, lambda a, b: 1.0 + np.sum((a - b) ** 2))):
        for mode in rc.EXPONENT_MODES:
            S = [rc.closed_form_S(*p.abtheta(), spec, exponent_mode=mode)
                 for p in probes]
            rows = rc.recover_omega_independent_B(S, probes, mode, spec=spec)
            for row in rows:
                target = B_of(row.a, row.b)
                assert abs(row.estimate - target) < 1e-10 * abs(target)
                assert abs(row.residual) < 1e-12 * abs(row.S_value)


def test_recovery_pools_probes_sharing_endpoints():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    thetas = [np.array([1.0, 0.0]),
              np.array([1.0, -2.0]) / np.sqrt(5.0)]
    probes = [rc.Probe.from_abtheta(a, b, th, eta=0.1) for th in thetas]
    S = [rc.closed_form_S(a, b, th, POLY) for th in thetas]
    rows = rc.recover_omega_independent_B(S, probes, "theorem_minus2")
    assert rows[0].estimate == rows[1].estimate
    assert abs(rows[0].estimate - 3.0) < 1e-10


def test_recovery_rejections():
    probe = rc.Probe(VS, V0, U0, eta=0.1)
    bump = KernelSpec(dim=2, family="angular_bump")
    with pytest.raises(PreconditionError, match="omega-independent"):
        rc.recover_omega_independent_B([2.0], [probe], "theorem_minus2",
                                       spec=bump)
    with pytest.raises(PreconditionError, match="one S value"):
        rc.recover_omega_independent_B([1.0, 2.0], [probe], "theorem_minus2")
    with pytest.raises(ConfigurationError, match="exponent_mode"):
        rc.recover_omega_independent_B([2.0], [probe], "bogus")
    # v_star a hair away from v0 makes one Jacobian factor vanish
    thin = rc.Probe(np.array([0.0, 1e-7]), V0, np.array([1.0, 0.0]), eta=0.1)
    assert thin.relations()["rel3"]
    with pytest.raises(PreconditionError, match="degenerate"):
        rc.recover_omega_independent_B([1.0], [thin], "theorem_minus2")


# ---------------------------------------------------------------------------
# monotonicity probe
# ---------------------------------------------------------------------------


def test_monotonicity_P_hand_values():
    v0 = np.array([1.0, 0.0])
    u = np.array([0.0, 0.0])
    # orthogonal and parallel directions are exact zeros of both factors
    assert rc.monotonicity_P(v0, u, np.array([0.0, 1.0])) == 0.0
    assert rc.monotonicity_P(v0, u, np.array([1.0, 0.0])) == 0.0
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    val = float(rc.monotonicity_P(v0, u, w))
    c2 = float(((v0 - u) @ w) ** 2)
    expected = (1.0 - np.exp(-c2)) * (np.exp(c2) - np.exp(1.0))
    assert abs(val - expected) < 1e-12
    assert -0.43 < val < -0.41


def test_monotonicity_P_nonpositive_and_forms_agree():
    rng = np.random.default_rng(17)
    V = rng.uniform(-1.5, 1.5, size=(500, 2))
    U = rng.uniform(-1.5, 1.5, size=(500, 2))
    W = rng.normal(size=(500, 2))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    fac = rc.monotonicity_P(V, U, W)
    exp = rc.monotonicity_P(V, U, W, form="expanded")
    assert np.all(fac <= 1e-15)
    # the expanded form cancels on the scale of e^{m^2}
    m2 = np.sum((V - U) ** 2, axis=1)
    assert np.all(np.abs(fac - exp) < 1e-13 * (1.0 + np.exp(m2)))
    with pytest.raises(ConfigurationError, match="form"):
        rc.monotonicity_P(V, U, W, form="other")


def _small_rule():
    return QuadratureRule.build(dim=2, sphere_order=16, radial_order=5,
                                angular_order=12, R_v=2.0)


def test_certificate_identical_kernels_indistinguishable():
    report = rc.monotonicity_certificate(CONST, CONST, _small_rule())
    assert report.indistinguishable
    assert report.separating_v0 is None
    assert np.array_equal(report.values, np.zeros_like(report.values))
    assert "indistinguishable" in report.message


def test_certificate_separates_ordered_kernels():
    lower = KernelSpec(dim=2, family="gaussian_compact",
                       params={"amplitude": 1.0, "support": 4.0})
    report = rc.monotonicity_certificate(CONST, lower, _small_rule())
    assert not report.indistinguishable
    assert report.separating_value < 0.0
    assert report.separating_v0 is not None
    assert "separating" in report.message
    # every probe integral respects the sign constraint
    assert np.all(report.values <= report.tol * (1.0 + report.abs_scale))


def test_certificate_rejects_unordered_pair():
    with pytest.raises(PreconditionError, match="monotonicity"):
        rc.monotonicity_certificate(CONST, POLY, _small_rule())


# ---------------------------------------------------------------------------
# exponent experiment
# ---------------------------------------------------------------------------


def _two_datapoints():
    return [
        (VS, np.array([0.0, 1.0]), np.array([1.0, 0.0])),
        (np.array([0.5, -0.5]), np.array([-1.0, 0.5]),
         np.array([0.0, 1.0])),
    ]


def test_exponent_experiment_reports_divergence_honestly():
    report = rc.exponent_experiment(_two_datapoints(), CONST,
                                    etas=(0.4, 0.2, 0.1),
                                    nr=8, na=16, nw=16)
    assert report.S_table.shape == (2, 3)
    assert np.all(np.isfinite(report.S_table))
    # the probe values grow like 1/eta ...
    assert np.all(np.abs(report.slopes + 1.0) < 0.1)
    # ... so no finite extrapolation matches either closed form
    for mode in rc.EXPONENT_MODES:
        assert report.closed_forms[mode].shape == (2,)
        assert np.all(report.mismatch[mode] > report.rel_tol)
    assert report.winner_per_probe == [None, None]
    assert report.winner is None
    assert len(report.results) == 2 and len(report.results[0]) == 3


def test_exponent_experiment_validates_etas():
    with pytest.raises(PreconditionError, match="decreasing"):
        rc.exponent_experiment(_two_datapoints(), CONST, etas=(0.1, 0.2))


def test_experiment_csv_deterministic(tmp_path):
    report = rc.exponent_experiment(_two_datapoints()[:1], CONST,
                                    etas=(0.4, 0.2), nr=6, na=12, nw=12)
    p1 = tmp_path / "probes1.csv"
    p2 = tmp_path / "probes2.csv"
    rc.experiment_to_csv(report, str(p1))
    rc.experiment_to_csv(report, str(p2))
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().strip().split("\n")
    assert lines[0] == ("probe,eta,a0,a1,b0,b1,theta0,theta1,"
                       "S_eta,I1,I2,I3,I4,"
                       "closed_theorem_minus2,closed_proposition_minus_n,"
                       "resid_theorem_minus2,resid_proposition_minus_n")
    assert len(lines) == 1 + 2
