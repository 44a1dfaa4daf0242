"""The spatial domain, exit times, and boundary sampling.

The domain is a centred ball in R^n (n = 2 or 3).  Its outward normal
n(x) = x / |x| is unique at every boundary point, so the incoming and
outgoing sets Gamma_+- = {(x, v) : +-n(x).v > 0} are well defined.  Free
transport moves along straight characteristics x - s v, so the only
geometric quantities the rest of the laboratory needs are exit times
through the boundary and outward normals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

INTERIOR = "interior"
INCOMING = "incoming"
OUTGOING = "outgoing"
GRAZING = "grazing"

# |n(x) . v| <= GRAZING_RTOL * |v| counts as tangential.
GRAZING_RTOL = 1e-12
# a point within BOUNDARY_TOL of the boundary lies on it
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Domain:
    """Centred ball of the given radius in R^dim.

    Parameters
    ----------
    shape : str
        Must be ``"ball"``, the only domain.
    dim : int
        Spatial dimension, 2 or 3.
    radius : float
        Ball radius.
    """

    shape: str
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.shape != "ball":
            raise DomainError("unknown domain shape %r" % (self.shape,))
        if self.dim not in (2, 3):
            raise DomainError("dim must be 2 or 3, got %r" % (self.dim,))
        if not self.radius > 0:
            raise DomainError("ball radius must be positive")

    # -- basic queries ---------------------------------------------------

    def bounding_box(self):
        r = self.radius
        return -r * np.ones(self.dim), r * np.ones(self.dim)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x, tol: float = 0.0):
        """Boolean mask: points inside the closed domain (inflated by tol)."""
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1) <= (self.radius + tol) ** 2

    def boundary_distance(self, x):
        """Distance from interior points to the boundary (negative outside)."""
        x = np.asarray(x, dtype=float)
        return self.radius - np.sqrt(np.sum(x * x, axis=-1))

    def unit_normal(self, x):
        """Outward unit normal x / |x| at boundary points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
        if np.any(r <= 0):
            raise DomainError("normal undefined at the center")
        return x / r


def exit_times(domain: Domain, x, v, sign: int = 1):
    """Travel time to the boundary along ``x + sign*s*v``, vectorized.

    ``sign=+1`` gives tau_plus (forward exit), ``sign=-1`` gives tau_minus
    (backward exit).  Inputs broadcast against each other over leading axes.

    Raises
    ------
    DomainError
        If any velocity vanishes or any point lies outside the closure.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    w = sign * v
    speed2 = np.sum(w * w, axis=-1)
    if np.any(speed2 == 0.0):
        raise DomainError("exit time undefined for zero velocity")

    R2 = domain.radius**2
    b = np.sum(x * w, axis=-1)
    c = np.sum(x * x, axis=-1) - R2
    if np.any(c > 1e-12 * max(R2, 1.0)):
        raise DomainError("point outside the closed ball")
    c = np.minimum(c, 0.0)
    disc = np.sqrt(b * b - speed2 * c)
    # positive quadratic root, written to avoid cancellation for b > 0
    pos = b > 0.0
    denom = np.where(pos, b + disc, speed2)
    return np.where(pos, -c, disc - b) / denom


def classify_boundaries(domain: Domain, X, V):
    """Classify phase points (X, V), (N, d) each, as interior / incoming /
    outgoing / grazing; returns an (N,) array of class names.

    A point is interior when its distance to the boundary exceeds
    ``BOUNDARY_TOL``.
    On the boundary, the sign of n(x).v decides the class; |n.v| below
    ``GRAZING_RTOL * |v|`` is reported as grazing.

    Raises
    ------
    DomainError
        Naming the first point outside the closed domain or with zero
        velocity.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    outside = np.flatnonzero(~domain.contains(X, tol=BOUNDARY_TOL))
    if outside.size:
        raise DomainError("point %d outside the closed domain" % outside[0])
    speed = np.linalg.norm(V, axis=-1)
    still = np.flatnonzero(speed == 0.0)
    if still.size:
        raise DomainError("zero velocity at point %d cannot be classified"
                          % still[0])
    out = np.full(X.shape[0], INTERIOR, dtype=object)
    on = np.flatnonzero(domain.boundary_distance(X) <= BOUNDARY_TOL)
    s = np.sum(domain.unit_normal(X[on]) * V[on], axis=-1)
    out[on] = np.where(np.abs(s) <= GRAZING_RTOL * speed[on], GRAZING,
                       np.where(s > 0, OUTGOING, INCOMING))
    return out


def sample_boundary(domain: Domain, count: int, rng) -> np.ndarray:
    """Draw boundary points, uniform on the sphere."""
    if domain.dim == 2:
        th = rng.uniform(0.0, 2 * np.pi, count)
        return domain.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    z = rng.uniform(-1.0, 1.0, count)
    phi = rng.uniform(0.0, 2 * np.pi, count)
    s = np.sqrt(1.0 - z * z)
    return domain.radius * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def sample_outgoing(domain: Domain, count: int, rng, speed_lo=0.5, speed_hi=2.0,
                    min_cosine=0.2):
    """Outgoing boundary phase points (x, v) with n(x).v >= min_cosine*|v|.

    The cosine floor keeps samples away from grazing directions where traces
    degenerate.  Returns (X, V) arrays of shape (count, dim).
    """
    xs, vs = [], []
    while len(xs) < count:
        x = sample_boundary(domain, 1, rng)[0]
        n = domain.unit_normal(x)[0]
        d = rng.normal(size=domain.dim)
        d /= np.linalg.norm(d)
        if np.dot(d, n) < 0:
            d = -d
        if np.dot(d, n) < min_cosine:
            continue
        speed = rng.uniform(speed_lo, speed_hi)
        xs.append(x)
        vs.append(speed * d)
    return np.array(xs), np.array(vs)
