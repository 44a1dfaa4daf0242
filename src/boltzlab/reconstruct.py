"""Kernel recovery from the second-order boundary data.

The probe functional concentrates the second-order source at three chosen
velocities (v*, v0, u0) using mollified deltas of width eta.  Its value
splits into four integrals: the two gain-type terms I1, I2 localize at the
scattering directions

    omega1 = unit(v* - v0),    omega2 = unit(v* - u0),

and are nonzero only on the resonance manifold (v*-v0).(v*-u0) = 0, while
the loss-type terms I3, I4 vanish outright for separated probes.  On the
manifold the surviving sum carries the kernel B evaluated at the probe, up
to Jacobian factors; two candidate exponent conventions for those factors
are implemented side by side and discriminated empirically, never assumed.

All mollified integrals are computed by localized quadrature over the
support of the bump product: a velocity ball around v*, a ball around the
collision partner u0 + v0 - v*, and sphere windows around the resonant
directions.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .collision import (KernelSpec, _bump_exponent, ball_rule, gauss_legendre,
                        kernel_eval)
from .errors import ConfigurationError, PreconditionError

__all__ = [
    "Probe", "ProbeResult", "RecoveryRow", "CertificateReport",
    "ExponentReport", "EXPONENT_MODES", "RELATION_TOL", "MATCH_TOL",
    "bump_mass", "mollifier", "check_relations", "omega_pair",
    "probe_from_abtheta", "mollified_S", "closed_form_both",
    "recover_omega_independent_B", "monotonicity_P",
    "monotonicity_certificate", "exponent_experiment", "experiment_to_csv",
    "recovery_to_csv",
]

RELATION_TOL = 1e-10
# relative mismatch within which an extrapolated S matches a closed form
MATCH_TOL = 0.05
DEGENERATE_KAPPA = 1e-6
EXPONENT_MODES = ("theorem_minus2", "proposition_minus_n")


def _jacobian_exponent(mode: str, dim: int) -> float:
    """The exponent e of the Jacobian factors kappa ** -e under an
    exponent mode in dimension dim."""
    return 2.0 if mode == "theorem_minus2" else float(dim)


@lru_cache(maxsize=None)
def bump_mass(dim: int) -> float:
    """Total mass of exp(-1/(1-|z|^2)) over the unit ball in R^dim."""
    t, w = gauss_legendre(200)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    if dim == 2:
        # 2 pi int_0^1 r e^{-1/(1-r^2)} dr = pi int_0^1 e^{-1/s} ds
        return float(np.pi * np.sum(w * np.exp(-1.0 / t)))
    if dim == 3:
        r2 = t * t
        return float(4.0 * np.pi * np.sum(w * r2 * np.exp(-1.0 / (1.0 - r2))))
    raise ConfigurationError("bump mass implemented for dim 2 and 3")


def _dot(a, b):
    """a.b over the last axis, adding the column products in order: bitwise
    equal to np.sum(a * b, axis=-1) for 2 and 3 columns, and 3-5x faster;
    one vector (d,) and each row of an (N, d) batch get the same sum."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _sq_norm(z):
    """|z|^2 over the last axis (see _dot)."""
    return _dot(z, z)


def mollifier(z, eta: float):
    """Unit-mass C-infinity bump of width eta, evaluated at displacements z.

    Outside |z| >= eta the value is exactly 0.0: the clamped exponent
    underflows, so support disjointness arguments hold bitwise.
    """
    z = np.asarray(z, dtype=float)
    dim = z.shape[-1]
    out = np.exp(_bump_exponent(_sq_norm(z) / eta**2))
    return out / (bump_mass(dim) * eta**dim)


# ---------------------------------------------------------------------------
# probe geometry
# ---------------------------------------------------------------------------


def _norm(a):
    return np.sqrt(_sq_norm(a))


def _distinct_or_raise(v_star, v0, u0):
    scale = np.maximum(1.0, np.max(np.abs([v_star, v0, u0]), axis=(0, -1)))
    for x, y, name in ((v_star, v0, "v_star, v0"), (v_star, u0, "v_star, u0"),
                       (v0, u0, "v0, u0")):
        if np.any(_norm(x - y) <= 1e-14 * scale):
            raise PreconditionError(f"coincident probe velocities: {name}")


def check_relations(v_star, v0, u0) -> dict:
    """The three equivalent probe relations, each tested on its own algebra.

    rel1: (v*-v0).(u0-v0) = |v*-v0|^2
    rel2: (v*-u0).(v0-u0) = |v*-u0|^2
    rel3: (v*-v0).(v*-u0) = 0

    Residuals are normalized by the squared probe diameter so one tolerance,
    RELATION_TOL, fits all scales; the three booleans agree for every
    triple.  The velocities are one triple (d,), giving bools, or rows of
    triples (N, d), giving one boolean array per relation; a row is tested
    with the same arithmetic as the triple on its own.
    """
    v_star = np.asarray(v_star, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    _distinct_or_raise(v_star, v0, u0)
    p = v_star - v0
    q = v_star - u0
    k = u0 - v0
    scale = np.maximum(np.maximum(_sq_norm(p), _sq_norm(q)), _sq_norm(k))
    r1 = _dot(p, u0 - v0) - _sq_norm(p)
    r2 = _dot(q, v0 - u0) - _sq_norm(q)
    r3 = _dot(p, q)
    tol = RELATION_TOL * scale
    rels = {"rel1": np.abs(r1) <= tol, "rel2": np.abs(r2) <= tol,
            "rel3": np.abs(r3) <= tol}
    if np.ndim(r3) == 0:
        rels = {key: bool(val) for key, val in rels.items()}
    return rels


def omega_pair(v_star, v0, u0):
    """The two scattering directions that connect (v0, u0) to v*: unit
    vectors (d,) for one triple, rows (N, d) for rows of triples."""
    v_star = np.asarray(v_star, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if not np.all(check_relations(v_star, v0, u0)["rel3"]):
        raise PreconditionError(
            "probe violates the orthogonality relation; no scattering "
            "direction maps (v0, u0) onto v_star")
    w1 = v_star - v0
    w2 = v_star - u0
    return w1 / _norm(w1)[..., None], w2 / _norm(w2)[..., None]


def probe_from_abtheta(a, b, theta):
    """Probe triple aligned with a data point (a, b, theta).

    v* = a, v0 = a - [(a-b).theta] theta, u0 = b + [(a-b).theta] theta.
    The output satisfies the orthogonality relation by construction, with
    collision partner u0 + v0 - v* = b.  Degenerate inputs are rejected
    clause by clause.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise PreconditionError("theta must be a unit vector")
    d = a - b
    dn = float(np.linalg.norm(d))
    if dn <= 1e-14:
        raise PreconditionError("a and b coincide")
    k = float(d @ theta)
    if abs(k) <= 1e-12 * dn:
        raise PreconditionError("(a-b).theta = 0: probe triple degenerates "
                                "(v_star = v0)")
    perp = d - k * theta
    if np.linalg.norm(perp) <= 1e-12 * dn:
        raise PreconditionError("a-b parallel to theta: probe triple "
                                "degenerates (v_star = u0)")
    if np.linalg.norm(d - 2.0 * k * theta) <= 1e-12 * dn:
        raise PreconditionError("a-b = 2[(a-b).theta] theta: probe triple "
                                "degenerates (v0 = u0)")
    return a.copy(), a - k * theta, b + k * theta


@dataclass(frozen=True)
class Probe:
    """Velocity triple plus mollification width.

    The bump profile is fixed: exp(-1/(1-r^2)) scaled to width eta and unit
    mass.  Pairwise separations must exceed 2 eta for the support-disjointness
    arguments to apply; mollified_S enforces that.
    """

    v_star: np.ndarray
    v0: np.ndarray
    u0: np.ndarray
    eta: float

    def __post_init__(self):
        vs = np.asarray(self.v_star, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        u0 = np.asarray(self.u0, dtype=float)
        if not (vs.shape == v0.shape == u0.shape) or vs.ndim != 1:
            raise PreconditionError("probe velocities must share one shape")
        if vs.shape[0] not in (2, 3):
            raise PreconditionError("probes support dim 2 and 3")
        if not self.eta > 0:
            raise PreconditionError("eta must be positive")
        _distinct_or_raise(vs, v0, u0)
        object.__setattr__(self, "v_star", vs)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "eta", float(self.eta))

    @property
    def dim(self) -> int:
        return self.v_star.shape[0]

    @property
    def partner(self) -> np.ndarray:
        return self.u0 + self.v0 - self.v_star

    def separations(self):
        return (float(np.linalg.norm(self.v_star - self.v0)),
                float(np.linalg.norm(self.v_star - self.u0)),
                float(np.linalg.norm(self.u0 - self.v0)))

    def abtheta(self):
        """Data-point coordinates (a, b, theta); requires the orthogonality
        relation (theta is only defined on the resonance manifold)."""
        w1, _ = omega_pair(self.v_star, self.v0, self.u0)
        return self.v_star.copy(), self.partner, w1


@dataclass
class ProbeResult:
    S_eta: float
    I1: float
    I2: float
    I3: float
    I4: float
    eta: float


# ---------------------------------------------------------------------------
# localized quadrature for the mollified integrals
# ---------------------------------------------------------------------------


def _shifted_ball(center, radius, nr, na):
    nodes, weights = ball_rule(center.shape[0], nr, na, radius)
    return center[None, :] + nodes, weights


def _omega_windows(axis, half, nw):
    """Quadrature over the two sphere caps of half-angle `half` around
    +-axis (all of the resonant set lives there)."""
    dim = axis.shape[0]
    if dim == 2:
        base = math.atan2(axis[1], axis[0])
        g, wg = gauss_legendre(nw)
        ang = np.concatenate([base + half * g, base + np.pi + half * g])
        w = np.concatenate([half * wg, half * wg])
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), w
    # dim 3: GL in the polar cosine on [cos(half), 1], uniform azimuth
    t, wt = gauss_legendre(nw)
    c0 = math.cos(half)
    t = 0.5 * (t + 1.0) * (1.0 - c0) + c0
    wt = 0.5 * wt * (1.0 - c0)
    nphi = 2 * nw
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = 2.0 * np.pi / nphi
    helper = np.array([1.0, 0.0, 0.0])
    if abs(axis[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    ring = (np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2)
    caps, ws = [], []
    for sgn in (1.0, -1.0):
        om = sgn * t[:, None, None] * axis + s[:, None, None] * ring
        caps.append(om.reshape(-1, 3))
        ws.append((wt[:, None] * wphi * np.ones(nphi)[None, :]).ravel())
    return np.concatenate(caps), np.concatenate(ws)


# largest (v, u) kernel table _gain_term evaluates in one kernel_eval call
# (8 MB, with (v, u, d) temporaries of up to 24 MB); a larger one is left to
# the per-omega evaluation
_KERNEL_TABLE_CELLS = 1 << 20


def _line_dist2(x, om):
    """The (omega, x) table of |x - (x.w) w|^2 over the rows w of om and
    the rows of x: the squared distance of the origin from the line
    x + t w, formed from the perpendicular vector."""
    xw = om @ x.T
    return _sq_norm(x[None, :, :] - xw[:, :, None] * om[:, None, :])


def _gain_term(spec, v_star, target_v, target_u, eta, nr, na, nw):
    """One gain-type integral: the primed pair must land in the bumps at
    (target_v, target_u) while v stays in the bump at v_star.

    Support analysis fixes the quadrature region: omega within computable
    windows around +-unit(v_star - target_v), u within 3 eta of the
    collision partner, v within eta of v_star.  Within it, the integrand
    is formed only on each omega node's candidate table.

    Both bump radii are sums of a per-(omega, v) and a per-(omega, u)
    scalar.  With v' = v + c w, u' = u - c w, c = (u - v).w,
    a = v - target_v and b = u - target_u:

        |v' - target_v|^2 = ((u - target_v).w)^2 + |a - (a.w) w|^2
        |u' - target_u|^2 = ((target_u - v).w)^2 + |b - (b.w) w|^2

    The second terms are the squared distances of target_v from the line
    v + t w and of target_u from the line u + t w.  So per omega, a v can
    be in a landing triple only if both of its scalars are below eta^2,
    and so can a u.  Each omega node with candidates on both sides gets
    one dense table, candidate v rows by candidate u columns: the two
    bump radii are outer sums of the candidates' scalars, one exp of the
    summed bump exponents per cell gives the bump product, and the table
    times B reduces as bv @ (f * B) @ uw, times the omega weight.  The
    bump normalisation (bump_mass eta^d)^2 is applied once at the end.
    The result agrees with the sum over the full (v, u, omega) product to
    within 1e-14 relative (rounding and summation order differ), and an
    integral that is exactly 0.0 there stays exactly 0.0.

    A kernel that does not depend on omega is evaluated once, on the
    (v, u) table of the two balls' nodes, and each candidate table reads
    its cells from it; any other kernel is evaluated per omega node on the
    candidate table.  B is an elementwise function of the same v and u
    bits either way, so every cell, and the sum, is bitwise the same.
    """
    dim = v_star.shape[0]
    d0 = float(np.linalg.norm(target_v - v_star))
    axis = (v_star - target_v) / d0
    half = math.asin(min(1.0, eta / max(d0 - eta, 1e-12))) \
        + math.asin(min(1.0, eta / d0))
    half = min(math.pi / 2.0, 1.2 * half)
    om, wom = _omega_windows(axis, half, nw)

    partner = target_u + target_v - v_star
    vpts, vw = _shifted_ball(v_star, eta, nr, na)
    upts, uw = _shifted_ball(partner, 3.0 * eta, nr, na)
    bv = mollifier(vpts - v_star, eta) * vw

    # Why a table cell outside the landing set changes nothing but rounding
    # and the order of summation: the bump exp(-1/(1 - r^2)) is exactly 0.0
    # once 1 - r^2 < 1.34e-3, where the exponent passes -745 and exp
    # underflows, and the clamped exponent is -1e300 for r^2 >= 1, so every
    # cell whose v' or u' is outside its target bump holds exactly 0.0, and
    # so does every (v, u, omega) summand the tables leave out.
    #
    # The line distances come from the perpendicular vectors a - (a.w) w,
    # not from |a|^2 - (a.w)^2, which cancels: |a| is of the order of the
    # probe separations and the distance is below eta.  With that form, the
    # 2d_eta0.03 case of test_gain_term_matches_full_product is 1.4e-12
    # relative off, against 4.8e-16 with the perpendicular vectors.
    n_om, nv, nu = om.shape[0], vpts.shape[0], upts.shape[0]
    a = vpts - target_v
    b = upts - target_u
    eta2 = eta * eta
    # squared bump radii in units of eta^2, flat in (omega, v) or
    # (omega, u): p* along w, l* off the line
    lv = (_line_dist2(a, om) / eta2).ravel()
    lu = (_line_dist2(b, om) / eta2).ravel()
    pv = ((om @ (upts - target_v).T) ** 2 / eta2).ravel()
    pu = ((om @ (target_u - vpts).T) ** 2 / eta2).ravel()
    # per omega, the v and the u that can be part of a landing triple, as
    # flat indices k * nv + iv and k * nu + iu in ascending order; the
    # candidates of omega node k sit at positions vb[k]:vb[k + 1] of jv
    # and ub[k]:ub[k + 1] of ju
    jv = np.flatnonzero((lv < 1.0) & (pu < 1.0))
    ju = np.flatnonzero((lu < 1.0) & (pv < 1.0))
    kv, ivc = np.divmod(jv, nv)
    ku, iuc = np.divmod(ju, nu)
    vb = np.searchsorted(kv, np.arange(n_om + 1))
    ub = np.searchsorted(ku, np.arange(n_om + 1))
    lvc, puc, luc, pvc = lv[jv], pu[jv], lu[ju], pv[ju]
    bvc, uwc = bv[ivc], uw[iuc]
    Bvu = None
    if spec.is_omega_independent() and nv * nu <= _KERNEL_TABLE_CELLS:
        # flat, so a cell (iv, iu) reads iv * nu + iu
        Bvu = kernel_eval(spec, vpts[:, None, :], upts[None, :, :],
                          om[0]).ravel()
        rowc = ivc * nu
    total = 0.0
    # the kinematics stay here rather than in collision.collision_Q, which
    # forms every (v, u, omega) triple: only the candidate tables are formed
    for k in np.flatnonzero((np.diff(vb) > 0) & (np.diff(ub) > 0)).tolist():
        sv, su = slice(vb[k], vb[k + 1]), slice(ub[k], ub[k + 1])
        r2v = pvc[su][None, :] + lvc[sv][:, None]
        r2u = puc[sv][:, None] + luc[su][None, :]
        f = np.exp(_bump_exponent(r2v) + _bump_exponent(r2u))
        if Bvu is None:
            B = kernel_eval(spec, vpts[ivc[sv], None, :],
                            upts[None, iuc[su], :], om[k:k + 1])
        else:
            B = np.take(Bvu, rowc[sv][:, None] + iuc[su][None, :])
        total += float(bvc[sv] @ (f * B) @ uwc[su] * wom[k])
    return total / (bump_mass(dim) * eta**dim) ** 2


def _loss_term(v_star, center_v, eta):
    """One loss-type integral (sign included by the caller).  Its bump
    factors sit at the unprimed velocities, so the v-integrand carries the
    bumps at v_star and at center_v, each exactly 0.0 at distance >= eta:
    once |v_star - center_v| > 2 eta their supports are disjoint and the
    integral is exactly 0.0.  mollified_S refuses probes with separations
    <= 2 eta, so that is the only case it meets; any other raises."""
    if float(np.linalg.norm(v_star - center_v)) > 2.0 * eta:
        return 0.0
    raise PreconditionError(
        "loss term of overlapping mollifier supports: |v_star - center_v| "
        f"must exceed 2*eta = {2.0 * eta:.3g}")


def mollified_S(probe: Probe, spec: KernelSpec, nr: int = 14, na: int = 28,
                nw: int = 32) -> ProbeResult:
    """Evaluate the probe functional S_eta = I1 + I2 + I3 + I4.

    Preconditions: pairwise probe separations above 2 eta (otherwise the
    mollifier supports overlap and the loss terms stop vanishing).  The
    orthogonality relation is NOT required; off-manifold probes return
    values consistent with zero, which is itself a tested prediction.
    """
    if spec.dim != probe.dim:
        raise PreconditionError("kernel and probe dimensions differ")
    if nw < 1:
        raise PreconditionError("omega window order nw must be >= 1")
    eta = probe.eta
    if min(probe.separations()) <= 2.0 * eta:
        raise PreconditionError(
            "mollifier supports overlap: probe separations must exceed "
            f"2*eta = {2.0 * eta:.3g}")

    vs, v0, u0 = probe.v_star, probe.v0, probe.u0
    I1 = _gain_term(spec, vs, v0, u0, eta, nr, na, nw)
    I2 = _gain_term(spec, vs, u0, v0, eta, nr, na, nw)
    # I3 carries bumps at (u - v0, v - u0); I4 swaps the two centers.
    I3 = _loss_term(vs, u0, eta)
    I4 = _loss_term(vs, v0, eta)
    return ProbeResult(S_eta=I1 + I2 + I3 + I4, I1=I1, I2=I2, I3=I3, I4=I4,
                       eta=eta)


# ---------------------------------------------------------------------------
# closed forms and recovery
# ---------------------------------------------------------------------------


def _kappa_pair(a, b, theta):
    """Jacobian factors of a data point: kappa1 = |(a-b).theta| and kappa2
    the length of the part of a-b orthogonal to theta."""
    d = a - b
    kap1 = abs(float(d @ theta))
    return kap1, math.sqrt(max(float(d @ d) - kap1 * kap1, 0.0))


def closed_form_both(a, b, theta, spec: KernelSpec) -> dict:
    """Both candidate combinations of the kernel with Jacobian factors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = np.asarray(theta, dtype=float)
    probe_from_abtheta(a, b, theta)  # validates membership clause by clause
    kap1, kap2 = _kappa_pair(a, b, theta)
    d = a - b
    perp = d - float(d @ theta) * theta
    B1 = float(kernel_eval(spec, a, b, theta))
    B2 = float(kernel_eval(spec, a, b, perp / np.linalg.norm(perp)))
    e = {m: _jacobian_exponent(m, spec.dim) for m in EXPONENT_MODES}
    return {m: kap1 ** -e[m] * B1 + kap2 ** -e[m] * B2 for m in EXPONENT_MODES}


@dataclass
class RecoveryRow:
    a: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    kappa1: float
    kappa2: float
    S_value: float
    estimate: float
    residual: float


def recover_omega_independent_B(S_values, probes, exponent_mode: str,
                                spec: KernelSpec):
    """Invert the closed-form combination for one unknown B(a, b) per probe.

    For omega-independent kernels both closed-form kernel evaluations equal
    B(a, b), so S = B * (f1 + f2) with the mode's Jacobian factors.  Probes
    sharing (a, b) are pooled into one least-squares estimate; each row
    reports the estimate and its residual S - B_hat * (f1 + f2).
    """
    if exponent_mode not in EXPONENT_MODES:
        raise ConfigurationError(f"unknown exponent_mode '{exponent_mode}'")
    if not spec.is_omega_independent():
        raise PreconditionError(
            "recovery assumes an omega-independent kernel; "
            f"family '{spec.family}' is not")
    S_values = np.asarray(S_values, dtype=float)
    if S_values.shape[0] != len(probes):
        raise PreconditionError("one S value per probe required")

    rows = []
    groups = {}
    for S, probe in zip(S_values, probes):
        a, b, theta = probe.abtheta()
        kap1, kap2 = _kappa_pair(a, b, theta)
        if min(kap1, kap2) < DEGENERATE_KAPPA:
            raise PreconditionError(
                f"near-degenerate Jacobian factor {min(kap1, kap2):.3e}")
        e = _jacobian_exponent(exponent_mode, probe.dim)
        denom = kap1 ** -e + kap2 ** -e
        row = RecoveryRow(a=a, b=b, theta=theta, kappa1=kap1, kappa2=kap2,
                          S_value=float(S), estimate=0.0, residual=0.0)
        key = (tuple(np.round(a, 9)), tuple(np.round(b, 9)))
        groups.setdefault(key, []).append((row, denom))
        rows.append(row)

    for members in groups.values():
        d = np.array([m[1] for m in members])
        s = np.array([m[0].S_value for m in members])
        est = float(np.sum(s * d) / np.sum(d * d))
        for (row, denom) in members:
            row.estimate = est
            row.residual = row.S_value - est * denom
    return rows


# ---------------------------------------------------------------------------
# monotonicity probe
# ---------------------------------------------------------------------------


def monotonicity_P(v0, u, omega):
    """The sign-definite weight from the uniqueness argument,

        P(v0, u, omega) = (1 - e^{-c^2}) (e^{c^2} - e^{m^2}),

    with c = (v0-u).omega and m = |u - v0|.  It is also the collision
    bracket of the pair (e^{|v-v0|^2}, 1) at v = v0.  Since c^2 <= m^2 the
    second factor is <= 0 and the first is >= 0, so P <= 0 everywhere;
    P = 0 exactly when omega is orthogonal to v0-u or parallel to it.
    """
    v0 = np.asarray(v0, dtype=float)
    u = np.asarray(u, dtype=float)
    omega = np.asarray(omega, dtype=float)
    d = v0 - u
    c2 = np.sum(d * omega, axis=-1) ** 2
    m2 = np.sum(d * d, axis=-1)
    return (1.0 - np.exp(-c2)) * (np.exp(c2) - np.exp(m2))


@dataclass
class CertificateReport:
    v0_nodes: np.ndarray
    values: np.ndarray
    abs_scale: np.ndarray
    tol: float
    separating_v0: np.ndarray
    separating_value: float
    indistinguishable: bool
    n_checked: int
    message: str


def monotonicity_certificate(spec1: KernelSpec, spec2: KernelSpec, rule,
                             v0_nodes=None, n_check: int = 4096,
                             seed: int = 0,
                             tol: float = 1e-10) -> CertificateReport:
    """Sign test separating an ordered kernel pair through one velocity.

    Requires B1 >= B2 pointwise (verified on seeded samples; a violation is
    reported with its witness).  For each candidate v0 the integral
    T(v0) = sum (B1-B2) P over (u, omega) is <= 0; a strictly negative value
    certifies that the kernels produce different boundary data, while all
    values within tolerance of zero leave them indistinguishable by this
    probe.
    """
    if spec1.dim != spec2.dim:
        raise PreconditionError("kernel dimensions differ")
    dim = spec1.dim
    rng = np.random.default_rng(seed)
    V = rng.uniform(-rule.R_v, rule.R_v, size=(n_check, dim))
    U = rng.uniform(-rule.R_v, rule.R_v, size=(n_check, dim))
    W = rng.normal(size=(n_check, dim))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    B1 = kernel_eval(spec1, V, U, W)
    B2 = kernel_eval(spec2, V, U, W)
    bad = B2 > B1 + 1e-12 * (1.0 + np.abs(B1))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PreconditionError(
            "monotonicity B1 >= B2 fails at v=%s u=%s omega=%s "
            "(B1=%.6g B2=%.6g)" % (V[i], U[i], W[i], B1[i], B2[i]))

    if v0_nodes is None:
        stride = max(1, rule.u_nodes.shape[0] // 24)
        v0_nodes = rule.u_nodes[::stride]
    v0_nodes = np.atleast_2d(np.asarray(v0_nodes, dtype=float))

    Uq = rule.u_nodes
    Wq = rule.omega_nodes
    D1 = kernel_eval(spec1, v0_nodes[:, None, None, :],
                     Uq[None, :, None, :], Wq[None, None, :, :])
    D2 = kernel_eval(spec2, v0_nodes[:, None, None, :],
                     Uq[None, :, None, :], Wq[None, None, :, :])
    P = monotonicity_P(v0_nodes[:, None, None, :], Uq[None, :, None, :],
                       Wq[None, None, :, :])
    vals = np.einsum("q,m,pqm->p", rule.u_weights, rule.omega_weights,
                     (D1 - D2) * P)
    scale = np.einsum("q,m,pqm->p", rule.u_weights, rule.omega_weights,
                      np.abs((D1 - D2) * P))

    sep = vals < -tol * (1.0 + scale)
    if np.any(sep):
        i = int(np.argmin(vals))
        return CertificateReport(
            v0_nodes=v0_nodes, values=vals, abs_scale=scale, tol=tol,
            separating_v0=v0_nodes[i], separating_value=float(vals[i]),
            indistinguishable=False, n_checked=n_check,
            message="separating velocity found: the kernels differ on data")
    return CertificateReport(
        v0_nodes=v0_nodes, values=vals, abs_scale=scale, tol=tol,
        separating_v0=None, separating_value=float(np.min(vals)),
        indistinguishable=True, n_checked=n_check,
        message="kernels indistinguishable by this probe")


# ---------------------------------------------------------------------------
# exponent-oracle experiment
# ---------------------------------------------------------------------------


@dataclass
class ExponentReport:
    probes: list
    etas: tuple
    S_table: np.ndarray          # (n_probes, n_etas)
    extrapolated: np.ndarray     # polynomial extrapolation to eta = 0
    slopes: np.ndarray           # d log|S| / d log eta
    closed_forms: dict           # mode -> (n_probes,)
    mismatch: dict               # mode -> relative |extrapolated - closed|
    winner_per_probe: list
    winner: str
    results: list


def exponent_experiment(probes, spec: KernelSpec,
                        etas=(0.4, 0.2, 0.1), nr: int = 14, na: int = 28,
                        nw: int = 32) -> ExponentReport:
    """Discriminate the two Jacobian-exponent conventions empirically.

    For each probe, tabulate S_eta along the shrinking eta sequence (the
    probe's own velocities at each eta; its own eta is not used),
    extrapolate to eta = 0 with the full-degree polynomial through the
    points, and compare it with both closed forms at the probe's data
    point.  A convention wins at a probe when it alone matches within
    MATCH_TOL; the overall winner must win at every probe.  The raw table,
    the log-log slopes, and the per-probe outcomes are all retained so the
    evidence stays inspectable.
    """
    etas = tuple(float(e) for e in etas)
    if len(etas) < 2 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise PreconditionError("etas must be strictly decreasing")
    results = [[mollified_S(replace(p, eta=eta), spec, nr=nr, na=na, nw=nw)
                for eta in etas] for p in probes]
    S_table = np.array([[res.S_eta for res in row] for row in results])

    extrapolated = np.array([
        float(np.polynomial.polynomial.polyfit(etas, row, len(etas) - 1)[0])
        for row in S_table])
    both = [closed_form_both(*p.abtheta(), spec) for p in probes]
    closed = {m: np.array([c[m] for c in both]) for m in EXPONENT_MODES}
    mismatch = {m: np.abs(extrapolated - closed[m])
                / np.maximum(np.abs(closed[m]), 1e-300)
                for m in EXPONENT_MODES}
    winner_per_probe = []
    for i in range(len(probes)):
        ok = [m for m in EXPONENT_MODES if mismatch[m][i] < MATCH_TOL]
        winner_per_probe.append(ok[0] if len(ok) == 1 else None)
    winner = winner_per_probe[0] if len(set(winner_per_probe)) == 1 else None

    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(S_table))
    slopes = np.array([np.polyfit(np.log(etas), row, 1)[0] for row in logs])
    return ExponentReport(
        probes=list(probes), etas=etas, S_table=S_table,
        extrapolated=extrapolated, slopes=slopes, closed_forms=closed,
        mismatch=mismatch, winner_per_probe=winner_per_probe, winner=winner,
        results=results)


def abtheta_columns(dim: int) -> list:
    """CSV column names of a data point (a, b, theta): a0, ..., theta{dim-1}."""
    return [f"{name}{i}" for name in ("a", "b", "theta") for i in range(dim)]


def experiment_to_csv(report: ExponentReport, path: str):
    """One row per (probe, eta) with the closed forms and residuals."""
    cols = ["probe", "eta", *abtheta_columns(report.probes[0].dim), "S_eta",
            "I1", "I2", "I3", "I4"]
    cols += [f"closed_{m}" for m in EXPONENT_MODES]
    cols += [f"resid_{m}" for m in EXPONENT_MODES]
    rows = []
    for i, probe in enumerate(report.probes):
        a, b, theta = probe.abtheta()
        closed = [report.closed_forms[m][i] for m in EXPONENT_MODES]
        for j, eta in enumerate(report.etas):
            res = report.results[i][j]
            rows.append([i, eta, *a, *b, *theta, res.S_eta, res.I1, res.I2,
                         res.I3, res.I4, *closed,
                         *(res.S_eta - c for c in closed)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header=",".join(cols), comments="")


def recovery_to_csv(rows, path: str):
    """One row per RecoveryRow: the data point, the Jacobian factors, the S
    value, the pooled estimate of B and the residual."""
    cols = [*abtheta_columns(rows[0].a.shape[0]), "kappa1", "kappa2",
            "S_value", "estimate", "residual"]
    table = [[*r.a, *r.b, *r.theta, r.kappa1, r.kappa2, r.S_value,
              r.estimate, r.residual] for r in rows]
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(cols), comments="")
