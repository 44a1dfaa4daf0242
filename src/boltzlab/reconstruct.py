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
from dataclasses import dataclass, field

import numpy as np

from .collision import KernelSpec, kernel_eval, ball_rule, sphere_rule
from .errors import ConfigurationError, PreconditionError
from .linearize import p_function

__all__ = [
    "Probe", "ProbeResult", "RecoveryRow", "CertificateReport",
    "ExponentReport", "EXPONENT_MODES", "RELATION_TOL",
    "bump_mass", "mollifier", "check_relations", "omega_pair",
    "probe_from_abtheta", "mollified_S", "closed_form_S", "closed_form_both",
    "recover_omega_independent_B", "monotonicity_P",
    "monotonicity_certificate", "exponent_verdict", "exponent_experiment",
    "experiment_to_csv",
]

RELATION_TOL = 1e-10
DEGENERATE_KAPPA = 1e-6
EXPONENT_MODES = ("theorem_minus2", "proposition_minus_n")

_BUMP_MASS = {}


def bump_mass(dim: int) -> float:
    """Total mass of exp(-1/(1-|z|^2)) over the unit ball in R^dim."""
    if dim not in _BUMP_MASS:
        t, w = np.polynomial.legendre.leggauss(200)
        t = 0.5 * (t + 1.0)
        w = 0.5 * w
        if dim == 2:
            # 2 pi int_0^1 r e^{-1/(1-r^2)} dr = pi int_0^1 e^{-1/s} ds
            _BUMP_MASS[2] = float(np.pi * np.sum(w * np.exp(-1.0 / t)))
        elif dim == 3:
            r2 = t * t
            _BUMP_MASS[3] = float(
                4.0 * np.pi * np.sum(w * r2 * np.exp(-1.0 / (1.0 - r2))))
        else:
            raise ConfigurationError("bump mass implemented for dim 2 and 3")
    return _BUMP_MASS[dim]


def mollifier(z, eta: float):
    """Unit-mass C-infinity bump of width eta, evaluated at displacements z.

    Outside |z| >= eta the value is exactly 0.0: the clamped exponent
    underflows, so support disjointness arguments hold bitwise.
    """
    z = np.asarray(z, dtype=float)
    dim = z.shape[-1]
    r2 = np.sum(z * z, axis=-1) / eta**2
    out = np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300))
    return out / (bump_mass(dim) * eta**dim)


# ---------------------------------------------------------------------------
# probe geometry
# ---------------------------------------------------------------------------


def _distinct_or_raise(v_star, v0, u0):
    scale = max(1.0, float(np.max(np.abs([v_star, v0, u0]))))
    for x, y, name in ((v_star, v0, "v_star, v0"), (v_star, u0, "v_star, u0"),
                       (v0, u0, "v0, u0")):
        if np.linalg.norm(x - y) <= 1e-14 * scale:
            raise PreconditionError(f"coincident probe velocities: {name}")


def check_relations(v_star, v0, u0, tol: float = RELATION_TOL) -> dict:
    """The three equivalent probe relations, each tested on its own algebra.

    rel1: (v*-v0).(u0-v0) = |v*-v0|^2
    rel2: (v*-u0).(v0-u0) = |v*-u0|^2
    rel3: (v*-v0).(v*-u0) = 0

    Residuals are normalized by the squared probe diameter so one tolerance
    fits all scales; the three booleans agree for every triple.
    """
    v_star = np.asarray(v_star, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    _distinct_or_raise(v_star, v0, u0)
    p = v_star - v0
    q = v_star - u0
    k = u0 - v0
    scale = max(float(p @ p), float(q @ q), float(k @ k))
    r1 = float(p @ (u0 - v0)) - float(p @ p)
    r2 = float(q @ (v0 - u0)) - float(q @ q)
    r3 = float(p @ q)
    return {"rel1": abs(r1) <= tol * scale,
            "rel2": abs(r2) <= tol * scale,
            "rel3": abs(r3) <= tol * scale}


def omega_pair(v_star, v0, u0, tol: float = RELATION_TOL):
    """The two scattering directions that connect (v0, u0) to v*."""
    v_star = np.asarray(v_star, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if not check_relations(v_star, v0, u0, tol)["rel3"]:
        raise PreconditionError(
            "probe violates the orthogonality relation; no scattering "
            "direction maps (v0, u0) onto v_star")
    w1 = v_star - v0
    w2 = v_star - u0
    return w1 / np.linalg.norm(w1), w2 / np.linalg.norm(w2)


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

    @classmethod
    def from_abtheta(cls, a, b, theta, eta: float) -> "Probe":
        v_star, v0, u0 = probe_from_abtheta(a, b, theta)
        return cls(v_star, v0, u0, eta)

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

    def relations(self, tol: float = RELATION_TOL) -> dict:
        return check_relations(self.v_star, self.v0, self.u0, tol)

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
    rel3_satisfied: bool
    omega1: np.ndarray
    omega2: np.ndarray
    jacobian_factors: dict
    eta: float
    meta: dict = field(default_factory=dict)


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
        g, wg = np.polynomial.legendre.leggauss(nw)
        ang = np.concatenate([base + half * g, base + np.pi + half * g])
        w = np.concatenate([half * wg, half * wg])
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), w
    # dim 3: GL in the polar cosine on [cos(half), 1], uniform azimuth
    t, wt = np.polynomial.legendre.leggauss(nw)
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


# (v, u, omega) triples per block of omega nodes in _gain_term: each
# full-product temporary of a block holds at most this many floats (2 MiB)
_TRIPLE_BLOCK = 1 << 18


def _gain_term(spec, v_star, target_v, target_u, eta, nr, na, nw):
    """One gain-type integral: the primed pair must land in the bumps at
    (target_v, target_u) while v stays in the bump at v_star.

    Support analysis fixes the quadrature region: omega within computable
    windows around +-unit(v_star - target_v), u within 3 eta of the
    collision partner, v within eta of v_star.  Within it, the mollifiers
    and the kernel are evaluated only on the (v, u, omega) triples whose
    primed pair lands inside both target bumps.
    """
    d0 = float(np.linalg.norm(target_v - v_star))
    axis = (v_star - target_v) / d0
    half = math.asin(min(1.0, eta / max(d0 - eta, 1e-12))) \
        + math.asin(min(1.0, eta / d0))
    half = min(math.pi / 2.0, 1.2 * half)
    om, wom = _omega_windows(axis, half, nw)

    partner = target_u + target_v - v_star
    vpts, vw = _shifted_ball(v_star, eta, nr, na)
    upts, uw = _shifted_ball(partner, 3.0 * eta, nr, na)
    bvu = ((mollifier(vpts - v_star, eta) * vw)[:, None] * uw[None, :]).ravel()

    # Why dropping pairs changes nothing but the order of summation: the
    # bump exp(-1/(1 - r^2)) is exactly 0.0 once 1 - r^2 < 1.34e-3, where
    # the exponent passes -745 and exp underflows, so every (v, u, omega)
    # summand with v' or u' outside its target bump was exactly 0.0.
    #
    # With a = v - target_v, |v' - target_v|^2 = |a + c w|^2
    # = (c + a.w)^2 + |a|^2 - (a.w)^2, so v' lies in the bump iff
    # |c + a.w| < h = sqrt(eta^2 - |a|^2 + (a.w)^2).  Rounding moves that
    # test by ~1e-12 eta^2, far inside the 1.34e-3 eta^2 where the bump is
    # already 0.0.  The u' bump is then read off the mollifier itself.
    nv, nu = vpts.shape[0], upts.shape[0]
    diff = (upts[None, :, :] - vpts[:, None, :]).reshape(nv * nu, -1).T
    a = vpts - target_v
    a2 = np.sum(a * a, axis=1)
    step = max(1, _TRIPLE_BLOCK // (nv * nu))
    total = 0.0
    for s in range(0, om.shape[0], step):
        w = om[s:s + step]
        c = w @ diff                                     # (omega, pair)
        aw = w @ a.T                                     # (omega, v)
        h = np.sqrt(np.maximum(eta * eta - a2 + aw * aw, 0.0))
        t = c.reshape(-1, nv, nu) + aw[:, :, None]
        np.abs(t, out=t)
        q = np.flatnonzero(t < h[:, :, None])
        k, p = np.divmod(q, nv * nu)
        ck = c.ravel()[q][:, None] * w[k]
        fu = mollifier(upts[p % nu] - ck - target_u, eta)
        keep = np.flatnonzero(fu)
        k, p, ck, fu = k[keep], p[keep], ck[keep], fu[keep]
        iv, iu = np.divmod(p, nu)
        f = mollifier(vpts[iv] + ck - target_v, eta) * fu
        B = kernel_eval(spec, vpts[iv], upts[iu], w[k])
        total += float(np.sum(f * B * bvu[p] * wom[s + k]))
    return total


def _loss_term(spec, v_star, center_u, center_v, eta, nr, na, nw):
    """One loss-type integral (sign included by the caller): bump factors
    at the unprimed velocities only.  For separated probes the v-bump at
    v_star and the one at center_v have disjoint supports, so every
    accumulated summand is exactly zero."""
    dim = v_star.shape[0]
    om, wom = sphere_rule(dim, nw)
    vpts, vw = _shifted_ball(v_star, eta, nr, na)
    upts, uw = _shifted_ball(center_u, eta, nr, na)
    fv = mollifier(vpts - center_v, eta) * mollifier(vpts - v_star, eta) * vw
    fu = mollifier(upts - center_u, eta) * uw
    if not (np.any(fv) and np.any(fu)):
        # every summand below is B * 0.0 = 0.0 (B is finite)
        return 0.0
    total = 0.0
    for i in range(om.shape[0]):
        B = kernel_eval(spec, vpts[:, None, :], upts[None, :, :],
                        om[i][None, None, :])
        total += wom[i] * float(np.sum(B * (fv[:, None] * fu[None, :])))
    return -total if total != 0.0 else 0.0


def mollified_S(probe: Probe, spec: KernelSpec, nr: int = 14, na: int = 28,
                nw: int = 32, tol: float = RELATION_TOL) -> ProbeResult:
    """Evaluate the probe functional S_eta = I1 + I2 + I3 + I4.

    Preconditions: pairwise probe separations above 2 eta (otherwise the
    mollifier supports overlap and the loss terms stop vanishing).  The
    orthogonality relation is NOT required; off-manifold probes return
    values consistent with zero, which is itself a tested prediction.
    """
    if spec.dim != probe.dim:
        raise PreconditionError("kernel and probe dimensions differ")
    eta = probe.eta
    if min(probe.separations()) <= 2.0 * eta:
        raise PreconditionError(
            "mollifier supports overlap: probe separations must exceed "
            f"2*eta = {2.0 * eta:.3g}")

    vs, v0, u0 = probe.v_star, probe.v0, probe.u0
    I1 = _gain_term(spec, vs, v0, u0, eta, nr, na, nw)
    I2 = _gain_term(spec, vs, u0, v0, eta, nr, na, nw)
    # I3 carries bumps at (u - v0, v - u0); I4 swaps the two centers.
    I3 = _loss_term(spec, vs, v0, u0, eta, nr, na, nw)
    I4 = _loss_term(spec, vs, u0, v0, eta, nr, na, nw)

    rel3 = check_relations(vs, v0, u0, tol)["rel3"]
    if rel3:
        w1, w2 = omega_pair(vs, v0, u0, tol)
        k = u0 - v0
        kap1 = abs(float(k @ w1))
        kap2 = abs(float(k @ w2))
        n = probe.dim
        jac = {"theorem_minus2": (kap1 ** -2, kap2 ** -2),
               "proposition_minus_n": (kap1 ** -float(n), kap2 ** -float(n))}
    else:
        w1 = w2 = None
        jac = {}
    return ProbeResult(
        S_eta=I1 + I2 + I3 + I4, I1=I1, I2=I2, I3=I3, I4=I4,
        rel3_satisfied=rel3, omega1=w1, omega2=w2, jacobian_factors=jac,
        eta=eta, meta={"nr": nr, "na": na, "nw": nw})


# ---------------------------------------------------------------------------
# closed forms and recovery
# ---------------------------------------------------------------------------


def _closed_form_pieces(a, b, theta, spec: KernelSpec):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = np.asarray(theta, dtype=float)
    probe_from_abtheta(a, b, theta)  # validates membership clause by clause
    d = a - b
    kap1 = abs(float(d @ theta))
    kap2 = math.sqrt(max(float(d @ d) - kap1 * kap1, 0.0))
    perp = d - float(d @ theta) * theta
    omega2 = perp / np.linalg.norm(perp)
    B1 = float(kernel_eval(spec, a, b, theta))
    B2 = float(kernel_eval(spec, a, b, omega2))
    return kap1, kap2, B1, B2


def closed_form_both(a, b, theta, spec: KernelSpec) -> dict:
    """Both candidate combinations of the kernel with Jacobian factors."""
    kap1, kap2, B1, B2 = _closed_form_pieces(a, b, theta, spec)
    n = float(spec.dim)
    return {
        "theorem_minus2": kap1 ** -2 * B1 + kap2 ** -2 * B2,
        "proposition_minus_n": kap1 ** -n * B1 + kap2 ** -n * B2,
    }


def closed_form_S(a, b, theta, spec: KernelSpec,
                  exponent_mode: str = "theorem_minus2") -> float:
    """Predicted probe value at data point (a, b, theta) under one exponent
    convention (see closed_form_both for the side-by-side values)."""
    if exponent_mode not in EXPONENT_MODES:
        raise ConfigurationError(f"unknown exponent_mode '{exponent_mode}'")
    return closed_form_both(a, b, theta, spec)[exponent_mode]


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
                                spec: KernelSpec = None):
    """Invert the closed-form combination for one unknown B(a, b) per probe.

    For omega-independent kernels both closed-form kernel evaluations equal
    B(a, b), so S = B * (f1 + f2) with the mode's Jacobian factors.  Probes
    sharing (a, b) are pooled into one least-squares estimate; each row
    reports the estimate and its residual S - B_hat * (f1 + f2).
    """
    if exponent_mode not in EXPONENT_MODES:
        raise ConfigurationError(f"unknown exponent_mode '{exponent_mode}'")
    if spec is not None and not spec.is_omega_independent():
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
        k = probe.u0 - probe.v0
        w1, w2 = omega_pair(probe.v_star, probe.v0, probe.u0)
        kap1 = abs(float(k @ w1))
        kap2 = abs(float(k @ w2))
        if min(kap1, kap2) < DEGENERATE_KAPPA:
            raise PreconditionError(
                f"near-degenerate Jacobian factor {min(kap1, kap2):.3e}")
        e = 2.0 if exponent_mode == "theorem_minus2" else float(probe.dim)
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


def monotonicity_P(v0, u, omega, form: str = "factored"):
    """The sign-definite weight from the uniqueness argument.

    factored:  (1 - e^{-c^2}) (e^{c^2} - e^{m^2})
    expanded:  e^{m^2-c^2} + e^{c^2} - 1 - e^{m^2}

    with c = (v0-u).omega and m = |u-v0|; both are <= 0, vanishing exactly
    when omega is orthogonal or parallel to v0-u.
    """
    if form == "factored":
        return p_function(v0, u, omega)
    if form != "expanded":
        raise ConfigurationError(f"unknown form '{form}'")
    v0 = np.asarray(v0, dtype=float)
    u = np.asarray(u, dtype=float)
    omega = np.asarray(omega, dtype=float)
    d = v0 - u
    c2 = np.sum(d * omega, axis=-1) ** 2
    m2 = np.sum(d * d, axis=-1)
    return np.exp(m2 - c2) + np.exp(c2) - 1.0 - np.exp(m2)


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
    abthetas: list
    etas: tuple
    S_table: np.ndarray          # (n_probes, n_etas)
    extrapolated: np.ndarray     # polynomial extrapolation to eta = 0
    slopes: np.ndarray           # d log|S| / d log eta
    closed_forms: dict           # mode -> (n_probes,)
    mismatch: dict               # mode -> relative |extrapolated - closed|
    winner_per_probe: list
    winner: str
    results: list
    rel_tol: float


def exponent_verdict(abthetas, etas, S_table, spec: KernelSpec,
                     rel_tol: float = 0.05):
    """Extrapolate each probe's row of S_table to eta = 0 (the full-degree
    polynomial through the points) and compare it with both closed forms.

    Returns (extrapolated, closed_forms, mismatch, winner_per_probe,
    winner).  A convention wins at a probe when it alone matches within
    rel_tol; the overall winner must win at every probe.
    """
    extrapolated = np.array([
        float(np.polynomial.polynomial.polyfit(etas, row, len(etas) - 1)[0])
        for row in S_table])
    closed = {m: np.empty(len(abthetas)) for m in EXPONENT_MODES}
    for i, (a, b, theta) in enumerate(abthetas):
        both = closed_form_both(a, b, theta, spec)
        for m in EXPONENT_MODES:
            closed[m][i] = both[m]
    mismatch = {m: np.abs(extrapolated - closed[m])
                / np.maximum(np.abs(closed[m]), 1e-300)
                for m in EXPONENT_MODES}

    winner_per_probe = []
    for i in range(len(abthetas)):
        ok = [m for m in EXPONENT_MODES if mismatch[m][i] < rel_tol]
        winner_per_probe.append(ok[0] if len(ok) == 1 else None)
    first = winner_per_probe[0]
    winner = first if (first is not None
                       and all(w == first for w in winner_per_probe)) else None
    return extrapolated, closed, mismatch, winner_per_probe, winner


def exponent_experiment(abthetas, spec: KernelSpec,
                        etas=(0.4, 0.2, 0.1), nr: int = 14, na: int = 28,
                        nw: int = 32, rel_tol: float = 0.05) -> ExponentReport:
    """Discriminate the two Jacobian-exponent conventions empirically.

    For each data point (a, b, theta), tabulate S_eta along the shrinking
    eta sequence, extrapolate to eta = 0, and compare against both closed
    forms (exponent_verdict).  The raw table, the log-log slopes, and the
    per-probe outcomes are all retained so the evidence stays inspectable.
    """
    etas = tuple(float(e) for e in etas)
    if len(etas) < 2 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise PreconditionError("etas must be strictly decreasing")
    S_table = np.empty((len(abthetas), len(etas)))
    results = []
    for i, (a, b, theta) in enumerate(abthetas):
        per_eta = []
        for j, eta in enumerate(etas):
            res = mollified_S(Probe.from_abtheta(a, b, theta, eta), spec,
                              nr=nr, na=na, nw=nw)
            S_table[i, j] = res.S_eta
            per_eta.append(res)
        results.append(per_eta)

    extrapolated, closed, mismatch, winner_per_probe, winner = \
        exponent_verdict(abthetas, etas, S_table, spec, rel_tol)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(S_table))
    slopes = np.array([np.polyfit(np.log(etas), row, 1)[0] for row in logs])
    return ExponentReport(
        abthetas=list(abthetas), etas=etas, S_table=S_table,
        extrapolated=extrapolated, slopes=slopes, closed_forms=closed,
        mismatch=mismatch, winner_per_probe=winner_per_probe, winner=winner,
        results=results, rel_tol=rel_tol)


def experiment_to_csv(report: ExponentReport, path: str):
    """One row per (probe, eta) with the closed forms and residuals."""
    dim = np.asarray(report.abthetas[0][0]).shape[0]
    cols = ["probe", "eta"]
    for name in ("a", "b", "theta"):
        cols += [f"{name}{i}" for i in range(dim)]
    cols += ["S_eta", "I1", "I2", "I3", "I4"]
    cols += [f"closed_{m}" for m in EXPONENT_MODES]
    cols += [f"resid_{m}" for m in EXPONENT_MODES]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i, (a, b, theta) in enumerate(report.abthetas):
            for j, eta in enumerate(report.etas):
                res = report.results[i][j]
                vals = [float(i), eta]
                vals += list(np.asarray(a, dtype=float))
                vals += list(np.asarray(b, dtype=float))
                vals += list(np.asarray(theta, dtype=float))
                vals += [res.S_eta, res.I1, res.I2, res.I3, res.I4]
                vals += [report.closed_forms[m][i] for m in EXPONENT_MODES]
                vals += [res.S_eta - report.closed_forms[m][i]
                         for m in EXPONENT_MODES]
                fh.write(",".join("%.17g" % v for v in vals) + "\n")
