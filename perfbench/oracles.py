"""Reference values the benchmark checks boltzlab's outputs against.

Everything here is plain numpy (and scipy.special for one closed form); no
boltzlab code is imported, so a fault in the program cannot hide in its own
reference.
"""
import math

import numpy as np
from scipy.special import exp1


def disk_exit_time(X, V, radius=1.0):
    """Backward exit time tau_-(x, v) of the disk |x| < radius.

    The positive root s of |x - s v| = radius:
    s = (x.v + sqrt((x.v)^2 + |v|^2 (radius^2 - |x|^2))) / |v|^2.
    """
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    xv = np.sum(X * V, axis=-1)
    v2 = np.sum(V * V, axis=-1)
    x2 = np.sum(X * X, axis=-1)
    return (xv + np.sqrt(xv * xv + v2 * (radius**2 - x2))) / v2


def collision_Q(f, g, V, U, u_weights, omega, omega_weights, kernel_value):
    """Q(f, g)(v) = sum_u sum_omega B [f(v') g(u') - f(v) g(u)] for a
    constant kernel B, with v' = v + ((u-v).omega) omega and
    u' = u - ((u-v).omega) omega, on the given (u, omega) rule.

    f and g are vectorized callables of velocity rows (..., d).
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    c = np.einsum("pqd,md->pqm", U[None, :, :] - V[:, None, :], omega)
    vp = V[:, None, None, :] + c[..., None] * omega[None, None, :, :]
    up = U[None, :, None, :] - c[..., None] * omega[None, None, :, :]
    gain = f(vp) * g(up)
    loss = f(V)[:, None, None] * g(U)[None, :, None]
    w = u_weights[:, None] * omega_weights[None, :]
    return kernel_value * np.sum(w[None] * (gain - loss), axis=(1, 2))


def quartic_profile(amplitude, center, width):
    """phi(v) = amplitude * exp(-(|v - center|^2 / width^2)^2)."""
    center = np.asarray(center, dtype=float)

    def phi(V):
        r2 = np.sum((np.asarray(V) - center) ** 2, axis=-1)
        return amplitude * np.exp(-((r2 / width**2) ** 2))

    return phi


# ---------------------------------------------------------------------------
# marginalized gain oracle (2D, constant kernel)
# ---------------------------------------------------------------------------

# mass of exp(-1/(1-|z|^2)) over the unit disk:
# 2 pi int_0^1 r e^{-1/(1-r^2)} dr = pi int_0^1 e^{-1/s} ds = pi (1/e - E1(1))
BUMP_MASS_2D = math.pi * (math.exp(-1.0) - float(exp1(1.0)))

_MARGINAL_NODES = np.polynomial.legendre.leggauss(64)
_GRID_NODES = np.polynomial.legendre.leggauss(72)
_ANGLE_NODES = np.polynomial.legendre.leggauss(96)


def bump2(x, y, eta):
    """Unit-mass 2D bump of width eta at (x, y)."""
    r2 = (x * x + y * y) / eta**2
    return np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)) / (BUMP_MASS_2D * eta**2)


def bump2_marginal(t, eta):
    """1-D marginal m(t) = int bump2(s, t, eta) ds, by Gauss-Legendre over
    the chord |s| <= sqrt(eta^2 - t^2)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    gs, gw = _MARGINAL_NODES
    half = np.sqrt(np.maximum(eta**2 - t * t, 0.0))
    s = 0.5 * half[:, None] * (gs[None, :] + 1.0)
    return 2.0 * np.sum(bump2(s, t[:, None], eta)
                        * (0.5 * half[:, None] * gw[None, :]), axis=1)


def gain_oracle(v_star, target_v, target_u, eta, kernel_value):
    """One gain-type term of the 2D probe functional for a constant kernel.

    Integrates in post-collision variables: for each scattering direction w
    the two outer bumps collapse to 1-D marginals along w and its normal,
    leaving a bump-weighted 2D integral G(A, B) over the v_star bump.  The
    directions cover the two windows around -+(target_v - v_star) that hold
    the whole resonant set.
    """
    D = np.asarray(target_v, float) - np.asarray(v_star, float)
    k = np.asarray(target_u, float) - np.asarray(target_v, float)
    d0 = float(np.linalg.norm(D))
    base = math.atan2(-D[1], -D[0])
    half = math.asin(min(1.0, eta / (d0 - eta))) + math.asin(eta / d0)
    half = min(math.pi / 2.0, 1.3 * half)
    ga, gwa = _ANGLE_NODES
    ang = np.concatenate([base + half * ga, base + math.pi + half * ga])
    wang = np.concatenate([half * gwa, half * gwa])
    w = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    n = np.stack([-w[:, 1], w[:, 0]], axis=1)
    M = D[None, :] + (w @ k)[:, None] * w
    A = np.sum(M * w, axis=1)
    B = np.sum(M * n, axis=1)

    gx, gwx = _GRID_NODES
    X = eta * gx
    PW = bump2(X[:, None], X[None, :], eta) * np.outer(eta * gwx, eta * gwx)
    # m(X_i - A) and m(X_j - B) for every direction: (n_dir, 72) each
    mA = bump2_marginal((X[None, :] - A[:, None]).ravel(), eta).reshape(A.size, -1)
    mB = bump2_marginal((X[None, :] - B[:, None]).ravel(), eta).reshape(B.size, -1)
    G = np.einsum("ai,ij,aj->a", mA, PW, mB)
    return kernel_value * float(np.sum(wang * G))
