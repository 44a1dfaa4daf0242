"""Binary collision kinematics, kernel families, and the collision operator.

The pre/post collision maps share one closed form

    u' = u - [(u - v).w] w,      v' = v + [(u - v).w] w,

which conserves momentum and kinetic energy and is an involution, so the
inverse map is the same formula applied to the primed pair.

The collision operator is kept in its two-field (bilinear) form

    Q(H1, H2)(v) = int int B(v, u, w) [H1(u') H2(v') - H1(u) H2(v)] dw du,

with Q(F, F) as the diagonal; the linearization machinery needs the
off-diagonal sum.  The program sums Q on the solver's folded velocity
tables; `collision_Q`, the sum over the full (v, u, w) product, is their
reference, called only by the solver's reference collision stage.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PreconditionError

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


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------

# each family's parameters and their defaults
KERNEL_PARAMS = {
    "constant": {"value": 1.0},
    # coefficients of powers of |v - u|; default 1 + |v-u|^2
    "omega_independent_poly": {"coeffs": (1.0, 0.0, 1.0)},
    "hard_potential_like": {"gamma": 0.5, "amplitude": 1.0},
    "gaussian_compact": {"amplitude": 1.0, "support": 4.0},
    # bump in the squared cosine between v-u and omega, centered away from
    # both 0 and 1 so the support avoids the degenerate directions
    "angular_bump": {"amplitude": 1.0, "center": 0.5, "halfwidth": 0.3},
}
KERNEL_FAMILIES = tuple(KERNEL_PARAMS)


def _is_number(x) -> bool:
    """A finite real number that is not a bool."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        # an int too large for a float
        return False


@dataclass(frozen=True)
class KernelSpec:
    """Declarative collision-kernel description.

    family : one of ``KERNEL_FAMILIES``
    params : family-specific parameters, keys of ``KERNEL_PARAMS[family]``
             (validated on construction; omitted keys take the defaults)
    dim    : velocity-space dimension (2 or 3)

    A parameter error is a PreconditionError whose message starts with
    ``params.<key>``.
    """

    family: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise PreconditionError("unknown kernel family %r" % (self.family,))
        if self.dim not in (2, 3):
            raise PreconditionError("kernel dim must be 2 or 3")
        known = KERNEL_PARAMS[self.family]
        p = dict(known)
        for key, val in dict(self.params).items():
            if key not in known:
                raise PreconditionError(
                    "params.%s is not a parameter of the %s kernel (its "
                    "parameters: %s)" % (key, self.family, ", ".join(known)))
            if key == "coeffs":
                if not (isinstance(val, (list, tuple, np.ndarray))
                        and all(_is_number(c) for c in val)):
                    raise PreconditionError(
                        "params.coeffs must be a list of finite numbers, "
                        "not %r" % (val,))
                val = tuple(float(c) for c in val)
            elif not _is_number(val):
                raise PreconditionError(
                    "params.%s must be a finite number, not %r" % (key, val))
            p[key] = val
        if self.family == "hard_potential_like":
            if not 0.0 < p["gamma"] <= 1.0:
                raise PreconditionError(
                    "params.gamma of hard_potential_like must be in (0, 1]")
        elif self.family == "gaussian_compact":
            if not p["support"] > 0:
                raise PreconditionError(
                    "params.support of gaussian_compact must be positive")
        elif self.family == "angular_bump":
            if not 0 < p["halfwidth"] <= min(p["center"], 1 - p["center"]):
                raise PreconditionError(
                    "params.halfwidth of angular_bump must keep the window "
                    "center +- halfwidth inside (0, 1)")
        object.__setattr__(self, "params", p)

    def is_omega_independent(self) -> bool:
        return self.family in ("constant", "omega_independent_poly",
                               "hard_potential_like", "gaussian_compact")


def _bump_exponent(r2):
    """The exponent -1/(1 - r^2) of the unit bump at squared radius r2,
    clamped so that its exp is exactly 0.0 for r2 >= 1."""
    return -1.0 / np.maximum(1.0 - r2, 1e-300)


def _smooth_bump(t):
    """exp(1 - 1/(1 - t^2)) on |t| < 1, exactly zero outside; peak value 1
    at t = 0."""
    a = np.minimum(np.abs(t), 1.0)  # so that t * t cannot overflow
    return np.exp(1.0 + _bump_exponent(a * a))


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
    else:  # gaussian_compact
        out = p["amplitude"] * _smooth_bump(r / p["support"])
    # the omega-independent families repeat over omega's leading axes
    shape = np.broadcast_shapes(np.shape(out), np.shape(omega)[:-1])
    return np.broadcast_to(out, shape).copy()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre (nodes, weights) on [-1, 1], bitwise
    np.polynomial.legendre.leggauss(n), built once per n (each build solves
    an eigenvalue problem).  The arrays are shared, so they are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
        mu, wmu = gauss_legendre(order)
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
    r, wr = gauss_legendre(radial_order)
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
    sphere_order: int
    radial_order: int
    angular_order: int

    @classmethod
    def build(cls, dim: int, sphere_order: int, radial_order: int,
              angular_order: int, R_v: float) -> "QuadratureRule":
        if R_v <= 0:
            raise PreconditionError("R_v must be positive")
        on, ow = sphere_rule(dim, sphere_order)
        un, uw = ball_rule(dim, radial_order, angular_order, R_v)
        return cls(dim, float(R_v), on, ow, un, uw,
                   sphere_order, radial_order, angular_order)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    M_estimate: float
    threshold: float
    passed: bool


def admissibility_check(spec: KernelSpec, domain, rule: QuadratureRule,
                        threshold: float = np.inf) -> AdmissibilityReport:
    """Bound on tau(x, v) * int int |B(v, u, w)| dw du over the ball domain.

    Velocities are the sphere rule's directions at unit speed, and
    tau(x, v) = tau_-(x, v) + tau_+(x, v) is the length of the chord
    through x along v.  In a ball every chord is at most the diameter and
    the one through the centre attains it, in every direction, so the
    supremum over x is exact, not sampled:

        M = diam * max over directions v of the (u, w) quadrature of |B|.
    """
    W = rule.omega_nodes
    integ = np.empty(W.shape[0])
    for i, v in enumerate(W):
        B = kernel_eval(spec, v, rule.u_nodes[:, None, :], W[None, :, :])
        integ[i] = rule.u_weights @ np.abs(B) @ rule.omega_weights
    M = domain.diameter() * float(np.max(integ))
    return AdmissibilityReport(M_estimate=M, threshold=float(threshold),
                               passed=bool(M < threshold))


# ---------------------------------------------------------------------------
# collision operator
# ---------------------------------------------------------------------------


def collision_Q(H1, H2, V, spec: KernelSpec, rule: QuadratureRule):
    """Two-field collision integral Q(H1, H2) at a batch of velocities V
    (N, dim), under the rule's (u, omega) quadrature; returns (N,).

    ``H1`` / ``H2`` are fields of velocity: callables P (M, dim) -> (M,)
    values, any array-like, evaluable at every post-collision velocity the
    rule generates (up to sqrt(2) times the largest speed).
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, d = V.shape
    U = rule.u_nodes
    nu, nw = U.shape[0], rule.omega_nodes.shape[0]
    u = U[None, :, None, :]
    om = rule.omega_nodes[None, None, :, :]
    v = V[:, None, None, :]
    up, vp = post_collision(u, v, om)

    def at(H, P, shape):
        return np.asarray(H(P), dtype=float).reshape(shape)

    gain = (at(H1, up.reshape(-1, d), (n, nu, nw))
            * at(H2, vp.reshape(-1, d), (n, nu, nw)))
    loss = at(H1, U, (1, nu, 1)) * at(H2, V, (n, 1, 1))
    B = kernel_eval(spec, v, u, om)
    w = rule.u_weights[:, None] * rule.omega_weights[None, :]
    return np.sum(B * w * (gain - loss), axis=(1, 2))
