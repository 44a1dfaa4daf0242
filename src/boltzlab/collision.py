"""Binary collision kinematics, kernel families, and the collision operator.

The pre/post collision maps share one closed form

    u' = u - [(u - v).w] w,      v' = v + [(u - v).w] w,

which conserves momentum and kinetic energy and is an involution, so the
inverse map is the same formula applied to the primed pair.

The collision operator is kept in its two-field (bilinear) form

    Q(H1, H2)(v) = int int B(v, u, w) [H1(u') H2(v') - H1(u) H2(v)] dw du,

with Q(F, F) as the diagonal; the linearization machinery needs the
off-diagonal evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError

OMEGA_UNIT_TOL = 1e-12


def _check_unit(omega):
    nrm2 = np.sum(omega * omega, axis=-1)
    if np.any(np.abs(nrm2 - 1.0) > 2 * OMEGA_UNIT_TOL):
        raise PreconditionError("omega must be a unit vector (|1 - |w|^2| > tol)")


def post_collision(u, v, omega):
    """Map incoming velocities (u, v) to outgoing (u', v') for direction omega.

    All arguments broadcast over leading axes; omega must be unit length
    within 1e-12.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    omega = np.asarray(omega, dtype=float)
    _check_unit(omega)
    c = np.sum((u - v) * omega, axis=-1, keepdims=True)
    return u - c * omega, v + c * omega


def pre_collision(u_prime, v_prime, omega):
    """Recover incoming velocities from outgoing ones (inverse of post_collision).

    The collision map is an involution, so this is the same reflection applied
    to the primed pair.
    """
    return post_collision(u_prime, v_prime, omega)


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------

KERNEL_FAMILIES = (
    "constant",
    "omega_independent_poly",
    "hard_potential_like",
    "gaussian_compact",
    "angular_bump",
)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative collision-kernel description.

    family : one of ``KERNEL_FAMILIES``
    params : family-specific parameters (validated on construction)
    dim    : velocity-space dimension (2 or 3)
    symmetric / even_in_omega : declared structural flags, B(v,u,w) = B(u,v,w)
        and B(v,u,-w) = B(v,u,w).  All shipped families satisfy both.
    """

    family: str
    dim: int
    params: dict = field(default_factory=dict)
    symmetric: bool = True
    even_in_omega: bool = True

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise PreconditionError("unknown kernel family %r" % (self.family,))
        if self.dim not in (2, 3):
            raise PreconditionError("kernel dim must be 2 or 3")
        p = dict(self.params)
        if self.family == "constant":
            p.setdefault("value", 1.0)
        elif self.family == "omega_independent_poly":
            # coefficients of powers of |v - u|; default 1 + |v-u|^2
            p.setdefault("coeffs", (1.0, 0.0, 1.0))
            p["coeffs"] = tuple(float(c) for c in p["coeffs"])
        elif self.family == "hard_potential_like":
            p.setdefault("gamma", 0.5)
            p.setdefault("amplitude", 1.0)
            if not 0.0 < p["gamma"] <= 1.0:
                raise PreconditionError("hard_potential_like needs gamma in (0, 1]")
        elif self.family == "gaussian_compact":
            p.setdefault("amplitude", 1.0)
            p.setdefault("support", 4.0)
            if not p["support"] > 0:
                raise PreconditionError("gaussian_compact needs positive support")
        elif self.family == "angular_bump":
            # bump in the squared cosine between v-u and omega, centered away
            # from both 0 and 1 so the support avoids the degenerate directions
            p.setdefault("amplitude", 1.0)
            p.setdefault("center", 0.5)
            p.setdefault("halfwidth", 0.3)
            if not 0 < p["halfwidth"] <= min(p["center"], 1 - p["center"]):
                raise PreconditionError("angular_bump window must stay inside (0, 1)")
        object.__setattr__(self, "params", p)

    def is_omega_independent(self) -> bool:
        return self.family in ("constant", "omega_independent_poly",
                               "hard_potential_like", "gaussian_compact")


def _smooth_bump(t):
    """exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside; peak value 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    m = np.abs(t) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


def kernel_eval(spec: KernelSpec, v, u, omega):
    """Evaluate B(v, u, omega) with numpy broadcasting over leading axes."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    fam = spec.family
    p = spec.params
    if fam == "constant":
        # no relative velocity needed, only the broadcast shape
        shape = np.broadcast_shapes(v.shape, u.shape)[:-1]
        shape = np.broadcast_shapes(shape, np.shape(omega)[:-1])
        return np.full(shape, float(p["value"]))
    rel = v - u
    r = np.sqrt(np.sum(rel * rel, axis=-1))
    if fam == "angular_bump":
        omega = np.asarray(omega, dtype=float)
        dot = np.sum(rel * omega, axis=-1)
        r_safe = np.where(r > 0, r, 1.0)
        c2 = np.where(r > 0, (dot / r_safe) ** 2, 0.0)
        return p["amplitude"] * _smooth_bump((c2 - p["center"]) / p["halfwidth"])
    if fam == "omega_independent_poly":
        out = np.zeros(r.shape)
        for k, c in enumerate(p["coeffs"]):
            if c != 0.0:
                out = out + c * r**k
    elif fam == "hard_potential_like":
        # q0 == 1: no angular factor
        out = p["amplitude"] * r ** p["gamma"]
    elif fam == "gaussian_compact":
        out = p["amplitude"] * _smooth_bump(r / p["support"])
    else:
        raise PreconditionError("unknown kernel family %r" % (fam,))
    # the omega-independent families repeat over omega's leading axes
    shape = np.broadcast_shapes(np.shape(out), np.shape(omega)[:-1])
    return np.broadcast_to(out, shape).copy()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def sphere_rule(dim: int, order: int):
    """Nodes / weights on S^{n-1}; weights sum to the sphere measure.

    dim=2: ``order`` equispaced angles with equal weights (trapezoid rule on
    a periodic integrand, spectrally accurate).
    dim=3: Gauss-Legendre in the polar cosine (``order`` nodes) times
    ``2*order`` equispaced azimuths.
    """
    if order < 1:
        raise PreconditionError("sphere order must be >= 1")
    if dim == 2:
        th = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
        weights = np.full(order, 2.0 * np.pi / order)
        return nodes, weights
    if dim == 3:
        mu, wmu = np.polynomial.legendre.leggauss(order)
        naz = 2 * order
        phi = 2.0 * np.pi * np.arange(naz) / naz
        s = np.sqrt(1.0 - mu**2)
        nodes = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.outer(mu, np.ones(naz)).ravel(),
            ],
            axis=1,
        )
        weights = np.outer(wmu, np.full(naz, 2.0 * np.pi / naz)).ravel()
        return nodes, weights
    raise PreconditionError("dim must be 2 or 3")


def ball_rule(dim: int, radial_order: int, angular_order: int, radius: float):
    """Product Gauss-Legendre rule over the ball |u| <= radius.

    Radial Gauss-Legendre nodes carry the r^{n-1} Jacobian, tensored with a
    sphere rule, so the weights sum to the exact ball volume (the radial rule
    integrates r^{n-1} exactly).
    """
    if radial_order < 1:
        raise PreconditionError("radial order must be >= 1")
    r, wr = np.polynomial.legendre.leggauss(radial_order)
    r = 0.5 * (r + 1.0) * radius
    wr = 0.5 * wr * radius
    dirs, wd = sphere_rule(dim, angular_order)
    nodes = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    weights = (wr[:, None] * r[:, None] ** (dim - 1) * wd[None, :]).reshape(-1)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Sphere x velocity-ball quadrature used by every collision integral."""

    dim: int
    R_v: float
    omega_nodes: np.ndarray
    omega_weights: np.ndarray
    u_nodes: np.ndarray
    u_weights: np.ndarray
    sphere_order: int = 0
    radial_order: int = 0
    angular_order: int = 0

    @classmethod
    def build(cls, dim: int, sphere_order: int, radial_order: int,
              angular_order: int, R_v: float) -> "QuadratureRule":
        if R_v <= 0:
            raise PreconditionError("R_v must be positive")
        on, ow = sphere_rule(dim, sphere_order)
        un, uw = ball_rule(dim, radial_order, angular_order, R_v)
        return cls(dim, float(R_v), on, ow, un, uw,
                   sphere_order, radial_order, angular_order)

    def sphere_measure(self) -> float:
        return 2.0 * np.pi if self.dim == 2 else 4.0 * np.pi

    def ball_volume(self) -> float:
        if self.dim == 2:
            return np.pi * self.R_v**2
        return 4.0 / 3.0 * np.pi * self.R_v**3


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    M_estimate: float
    threshold: float
    passed: bool
    argmax_x: np.ndarray
    argmax_v: np.ndarray
    max_integral: float      # max over sampled v of int int |B| dw du
    M_active_bound: float    # worst case over the active speed range, if given
    n_samples: int


def admissibility_check(spec: KernelSpec, domain, rule: QuadratureRule,
                        threshold: float = np.inf, seed: int = 0,
                        n_x: int = 64, speeds=(1.0,), v_min: float | None = None
                        ) -> AdmissibilityReport:
    """Sampled bound on tau(x, v) * int int |B(v, u, w)| dw du.

    Directions are taken from the sphere rule at the given speeds; spatial
    samples combine boundary points paired with inward normals (for balls this
    captures the full diameter chord exactly) with seeded interior draws.
    Passing ``v_min`` additionally reports the worst-case bound
    diam/v_min * max_v (integral), the slowest active speed the solver grid
    will use.
    """
    rng = np.random.default_rng(seed)
    dirs = rule.omega_nodes
    vs = np.concatenate([s * dirs for s in speeds], axis=0)

    # velocity-dependent collision mass
    integ = np.empty(vs.shape[0])
    for i, v in enumerate(vs):
        B = kernel_eval(spec, v, rule.u_nodes[:, None, :], rule.omega_nodes[None, :, :])
        integ[i] = float(np.sum(np.abs(B) * rule.u_weights[:, None] * rule.omega_weights[None, :]))

    # spatial samples: boundary points moving inward (long chords) + interior
    from .geometry import exit_times, sample_boundary

    xb = sample_boundary(domain, max(8, n_x // 2), rng)
    nb = domain.unit_normal(xb)
    lo, hi = domain.bounding_box()
    xi = []
    while len(xi) < n_x // 2:
        x = rng.uniform(lo, hi)
        if domain.contains(x):
            xi.append(x)
    xi = np.array(xi)

    best = -1.0
    arg_x = arg_v = None
    for j, v in enumerate(vs):
        sp = float(np.linalg.norm(v))
        tau_b = exit_times(domain, xb, -sp * nb, sign=1)
        tau_i = exit_times(domain, xi, np.broadcast_to(v, xi.shape), sign=1) + \
            exit_times(domain, xi, np.broadcast_to(v, xi.shape), sign=-1)
        tmax = max(float(np.max(tau_b)), float(np.max(tau_i)))
        val = tmax * integ[j]
        if val > best:
            best = val
            k = int(np.argmax(tau_b))
            arg_x, arg_v = xb[k], v

    max_integral = float(np.max(integ))
    bound = np.inf
    if v_min is not None and v_min > 0:
        bound = domain.diameter() / v_min * max_integral
    return AdmissibilityReport(
        M_estimate=float(best),
        threshold=float(threshold),
        passed=bool(best < threshold),
        argmax_x=np.asarray(arg_x),
        argmax_v=np.asarray(arg_v),
        max_integral=max_integral,
        M_active_bound=float(bound),
        n_samples=vs.shape[0] * (xb.shape[0] + xi.shape[0]),
    )


# ---------------------------------------------------------------------------
# collision operator
# ---------------------------------------------------------------------------


def collision_Q_bilinear(H1_at_x, H2_at_x, v, spec: KernelSpec,
                         rule: QuadratureRule, return_nodes: bool = False):
    """Two-field collision integral Q(H1, H2)(v) at one velocity.

    ``H1_at_x`` / ``H2_at_x`` are velocity-function handles (vectorized
    callables mapping (N, dim) arrays to (N,) values); they must be evaluable
    at all post-collision velocities the rule generates (up to sqrt(2) times
    the largest input speed).

    With ``return_nodes=True`` also returns the per-node gain and loss
    integrand values (before weighting), used by conservation diagnostics.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.dim,):
        raise PreconditionError("v must be a single velocity of length dim")
    u = rule.u_nodes[:, None, :]
    om = rule.omega_nodes[None, :, :]
    c = np.sum((u - v) * om, axis=-1, keepdims=True)
    up = u - c * om
    vp = v + c * om
    nu, nw = rule.u_nodes.shape[0], rule.omega_nodes.shape[0]

    H1up = np.asarray(H1_at_x(up.reshape(-1, spec.dim))).reshape(nu, nw)
    H2vp = np.asarray(H2_at_x(vp.reshape(-1, spec.dim))).reshape(nu, nw)
    H1u = np.asarray(H1_at_x(rule.u_nodes)).reshape(nu, 1)
    H2v = float(np.asarray(H2_at_x(v.reshape(1, -1)))[0])

    B = kernel_eval(spec, v, u, om)
    w = rule.u_weights[:, None] * rule.omega_weights[None, :]
    gain = H1up * H2vp
    loss = H1u * H2v
    Q = float(np.sum(B * w * (gain - loss)))
    if return_nodes:
        return Q, gain, np.broadcast_to(loss, gain.shape).copy()
    return Q


def collision_Q(F_at_x, v, spec: KernelSpec, rule: QuadratureRule,
                return_nodes: bool = False):
    """Diagonal collision integral Q(F, F)(v); see collision_Q_bilinear."""
    return collision_Q_bilinear(F_at_x, F_at_x, v, spec, rule,
                                return_nodes=return_nodes)
