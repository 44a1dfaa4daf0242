"""Transport solves along characteristics, the Picard fixed-point solver,
boundary traces, and the incoming-to-outgoing boundary operator.

The nonlinear problem v.grad F = Q(F,F), F = g on the incoming boundary, is
solved as F = F0 + G where F0 is free transport of g (always evaluated
analytically by backtracing, never gridded) and G is the fixed point of

    G  <-  int_0^{tau_-(x,v)} Q(F0 + G)(x - s v, v) ds

iterated on a phase grid.  Small boundary data makes this map a contraction;
the solver reports the empirical contraction ratio rather than trying to
reproduce the analytic constants.
"""
from __future__ import annotations

import io
import itertools
import json
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .collision import KernelSpec, QuadratureRule, admissibility_check, kernel_eval
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     PreconditionError)
from .geometry import (OUTGOING, Domain, classify_boundary, exit_times,
                       sample_boundary)

FIELD_CACHE_VERSION = 1

# snap tolerance for interpolation weights, so grid nodes reproduce exactly
_SNAP = 1e-12


def _locate_axis(axis: np.ndarray, q, snap: bool = True):
    """Cell index and fractional coordinate of queries on a uniform axis.

    Returns (i, t, oor): the cell i is clipped to [0, n-2], t to [0, 1], and
    oor flags queries outside the axis range.  With snap=True, t within
    1e-12 of a node is rounded onto it.
    """
    q = np.asarray(q, dtype=float)
    h = axis[1] - axis[0]
    f = (q - axis[0]) / h
    n = axis.size
    oor = (f < -_SNAP) | (f > (n - 1) + _SNAP)
    i = np.floor(f).astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    t = f - i
    if snap:
        t = np.where(np.abs(t) < _SNAP, 0.0, t)
        t = np.where(np.abs(t - 1.0) < _SNAP, 1.0, t)
    t = np.clip(t, 0.0, 1.0)
    return i, t, oor


def _gauss_tables(max_order: int):
    """Packed Gauss-Legendre nodes/weights for all orders up to max_order."""
    xs, ws, off = [], [], np.zeros(max_order + 1, dtype=np.int64)
    pos = 0
    for o in range(1, max_order + 1):
        x, w = np.polynomial.legendre.leggauss(o)
        off[o] = pos
        xs.append(x)
        ws.append(w)
        pos += o
    return np.concatenate(xs), np.concatenate(ws), off


# ---------------------------------------------------------------------------
# phase grid and fields
# ---------------------------------------------------------------------------


class PhaseGrid:
    """Tensor phase grid: spatial nodes over the domain's bounding box masked
    to the domain, velocity nodes on the square [-R_v, R_v]^dim.

    The velocity state is stored on the full square (the collision integral
    truncates u to the ball |u| <= R_v through the quadrature rule, but
    post-collision velocities spill past the ball, so the square keeps them
    interpolable).  Nodes with |v| < v_min are excluded from updates since
    characteristics degenerate at v = 0.
    """

    def __init__(self, domain: Domain, nx: int, nv: int, R_v: float,
                 v_min: float | None = None):
        if nx < 4 or nv < 4:
            raise PreconditionError("phase grid needs at least 4 nodes per axis")
        if R_v <= 0:
            raise PreconditionError("R_v must be positive")
        self.domain = domain
        self.dim = domain.dim
        self.nx = int(nx)
        self.nv = int(nv)
        self.R_v = float(R_v)
        self.v_min = float(0.05 * R_v if v_min is None else v_min)

        lo, hi = domain.bounding_box()
        self.x_axes = tuple(np.linspace(lo[a], hi[a], nx) for a in range(self.dim))
        self.v_axes = tuple(np.linspace(-R_v, R_v, nv) for _ in range(self.dim))
        self.h_x = float(max(ax[1] - ax[0] for ax in self.x_axes))
        self.h_v = float(self.v_axes[0][1] - self.v_axes[0][0])

        self.x_nodes = self._tensor_nodes(self.x_axes)
        self.v_nodes = self._tensor_nodes(self.v_axes)
        self.NXF = self.x_nodes.shape[0]
        self.NVF = self.v_nodes.shape[0]

        self.x_active = domain.contains(self.x_nodes, tol=1e-12)
        self.v_active = np.sqrt(np.sum(self.v_nodes**2, axis=1)) >= self.v_min
        self.x_active_idx = np.nonzero(self.x_active)[0].astype(np.int64)
        self.v_active_idx = np.nonzero(self.v_active)[0].astype(np.int64)
        if self.x_active_idx.size == 0:
            raise PreconditionError("no spatial grid node falls inside the domain")

        self._build_fringe()

    @staticmethod
    def _tensor_nodes(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _build_fringe(self):
        """Out-of-domain nodes within two cells of the domain, paired with an
        interior source node (and its mirror for linear extrapolation)."""
        shape = (self.nx,) * self.dim
        act = self.x_active.reshape(shape)
        idx_grid = np.arange(self.NXF).reshape(shape)
        fringe, src, src2 = [], [], []
        if not np.all(act):
            coords = np.argwhere(~act)
            active_coords = np.argwhere(act)
            for c in coords:
                window = 2
                lo = np.maximum(c - window, 0)
                hi = np.minimum(c + window, self.nx - 1)
                sel = active_coords
                for a in range(self.dim):
                    sel = sel[(sel[:, a] >= lo[a]) & (sel[:, a] <= hi[a])]
                if sel.shape[0] == 0:
                    continue
                d2 = np.sum((sel - c) ** 2, axis=1)
                best = sel[np.argmin(d2)]
                mirror = 2 * best - c
                ok = np.all(mirror >= 0) and np.all(mirror <= self.nx - 1) \
                    and act[tuple(mirror)]
                fringe.append(idx_grid[tuple(c)])
                src.append(idx_grid[tuple(best)])
                src2.append(idx_grid[tuple(mirror)] if ok else -1)
        self.x_fringe_idx = np.array(fringe, dtype=np.int64)
        self.x_fringe_src = np.array(src, dtype=np.int64)
        self.x_fringe_src2 = np.array(src2, dtype=np.int64)

    def fill_fringe(self, A: np.ndarray):
        """Extend rows of A (NXF, ...) from the domain onto the fringe by
        linear extrapolation (falls back to copying where no mirror exists)."""
        f, s, s2 = self.x_fringe_idx, self.x_fringe_src, self.x_fringe_src2
        if f.size == 0:
            return A
        lin = s2 >= 0
        A[f[lin]] = 2.0 * A[s[lin]] - A[np.maximum(s2[lin], 0)]
        A[f[~lin]] = A[s[~lin]]
        return A

    def v_stencil(self, P: np.ndarray, policy: str):
        """Flattened bilinear stencil of velocity points P into the v-square.

        Returns (base, fracs...) arrays; base = -1 marks out-of-range points
        under the zero/analytic policies (clamp never produces -1).
        """
        parts = [_locate_axis(ax, P[..., a]) for a, ax in enumerate(self.v_axes)]
        base = parts[0][0]
        for a in range(1, self.dim):
            base = base * self.nv + parts[a][0]
        if policy != "clamp":
            oor = parts[0][2]
            for a in range(1, self.dim):
                oor = oor | parts[a][2]
            base = np.where(oor, -1, base)
        fracs = [p[1] for p in parts]
        return base.astype(np.int64), fracs


def _corner_weights(fracs, strides, comps=None):
    """(weight, offset) of each corner of a multilinear stencil, in a fixed
    corner order.

    comps, when given, holds 1 - f for each f in fracs.  Without it each
    corner forms its own, so the complements of a large stencil are never
    all held at once.
    """
    def factor(a, c):
        if c:
            return fracs[a]
        return comps[a] if comps is not None else 1.0 - fracs[a]

    for corner in itertools.product((0, 1), repeat=len(fracs)):
        w = factor(0, corner[0])
        for a in range(1, len(corner)):
            w = w * factor(a, corner[a])
        yield w, sum(c * s for c, s in zip(corner, strides))


def _interp_flat(values_row: np.ndarray, base: np.ndarray, fracs, strides):
    """Multilinear gather from a flattened tensor row; base=-1 contributes 0."""
    b = np.maximum(base, 0)
    out = np.zeros(np.broadcast(b, fracs[0]).shape)
    for w, off in _corner_weights(fracs, strides):
        out += w * values_row[b + off]
    return np.where(base < 0, 0.0, out)


def _stencil_csr(base: np.ndarray, fracs, strides, ncols: int, last=None):
    """The gather of _interp_flat as a CSR operator, one row per point.

    Each row stores its corners in _interp_flat's order, so applying the
    operator accumulates the same products in the same order; base = -1
    points get no corners.  With `last` (one value per point) every row
    ends with one more entry, in column ncols - 1, holding that value.
    """
    pairs = list(_corner_weights(fracs, strides))
    data = [w for w, _ in pairs]
    cols = [base + off for _, off in pairs]
    mask = [base >= 0] * len(pairs)
    if last is not None:
        data.append(last)
        cols.append(np.full(base.shape, ncols - 1))
        mask.append(np.ones(base.shape, dtype=bool))
    mask = np.stack(mask, axis=-1)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=-1))])
    return sp.csr_matrix((np.stack(data, axis=-1)[mask],
                          np.stack(cols, axis=-1)[mask], indptr),
                         shape=(base.size, ncols))


EXTENSION_POLICIES = ("zero", "analytic", "clamp")


class PhaseField:
    """Distribution function on a phase grid, optionally split into an
    analytic part (evaluable anywhere) and a gridded part.

    values : (NXF, NVF) array or None
    analytic : callable (X, V) -> values, or None
    extension : policy for velocity queries outside the stored square;
        "zero" and "analytic" zero the grid part there (the analytic part,
        when present, still contributes), "clamp" evaluates at the nearest
        square point.
    """

    def __init__(self, grid: PhaseGrid | None, values=None, analytic=None,
                 extension: str = "analytic", domain: Domain | None = None):
        if extension not in EXTENSION_POLICIES:
            raise PreconditionError("unknown extension policy %r" % (extension,))
        if values is not None:
            if grid is None:
                raise PreconditionError("gridded values need a grid")
            values = np.asarray(values, dtype=float)
            if values.shape != (grid.NXF, grid.NVF):
                raise PreconditionError("values must have shape (NXF, NVF)")
            if not np.all(np.isfinite(values)):
                raise PreconditionError("field values must all be finite")
        if values is None and analytic is None:
            raise PreconditionError("field needs values or an analytic part")
        self.grid = grid
        self.domain = domain if domain is not None else (grid.domain if grid else None)
        self.values = values
        self.analytic = analytic
        self.extension = extension
        self.oor_count = 0
        self._sup = None

    def eval(self, x, v):
        """Evaluate at points; x and v broadcast ((d,) or (N,d))."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        V = np.atleast_2d(np.asarray(v, dtype=float))
        scalar = X.shape[0] == 1 and V.shape[0] == 1 and \
            np.asarray(x).ndim == 1 and np.asarray(v).ndim == 1
        if X.shape[0] != V.shape[0]:
            X, V = np.broadcast_arrays(X, V)
        out = np.zeros(X.shape[0])
        if self.analytic is not None:
            out = out + np.asarray(self.analytic(X, V), dtype=float)
        if self.values is not None:
            g = self.grid
            xs = [_locate_axis(ax, X[:, a]) for a, ax in enumerate(g.x_axes)]
            vs = [_locate_axis(ax, V[:, a]) for a, ax in enumerate(g.v_axes)]
            base_x = xs[0][0]
            for a in range(1, g.dim):
                base_x = base_x * g.nx + xs[a][0]
            base_v = vs[0][0]
            for a in range(1, g.dim):
                base_v = base_v * g.nv + vs[a][0]
            base = base_x * g.NVF + base_v
            oor = np.zeros(X.shape[0], dtype=bool)
            for a in range(g.dim):
                oor |= vs[a][2]
            self.oor_count += int(np.sum(oor))
            if self.extension != "clamp":
                base = np.where(oor, -1, base)
            strides = [g.nx ** (g.dim - 1 - a) * g.NVF for a in range(g.dim)] + \
                      [g.nv ** (g.dim - 1 - a) for a in range(g.dim)]
            fracs = [s[1] for s in xs] + [s[1] for s in vs]
            out = out + _interp_flat(self.values.ravel(), base, fracs, strides)
        if scalar:
            return float(out[0])
        return out

    def sup_norm(self) -> float:
        """Sup of |F| over the grid nodes (cached)."""
        if self._sup is None:
            if self.grid is None:
                raise PreconditionError("sup_norm needs a grid; pass one at build")
            g = self.grid
            X = np.repeat(g.x_nodes[g.x_active_idx], g.v_active_idx.size, axis=0)
            V = np.tile(g.v_nodes[g.v_active_idx], (g.x_active_idx.size, 1))
            vals = np.abs(self.eval(X, V))
            self._sup = float(np.max(vals))
        return self._sup


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------


@dataclass
class BoundarySource:
    """Incoming boundary data g on Gamma_-.

    func : vectorized callable (X, V) -> values.  With velocity_only=True the
        solver may evaluate it at arbitrary x (the value must not depend on
        x), which unlocks the exact analytic handling of free transport at
        every quadrature point.
    sup_norm : recorded estimate of sup |g|; estimated by sampling when None.
    """

    func: callable
    velocity_only: bool = False
    sup_norm: float | None = None

    def __call__(self, X, V):
        return np.asarray(self.func(np.asarray(X, float), np.asarray(V, float)),
                          dtype=float)

    def estimate_sup(self, domain: Domain, R_v: float, n: int = 4096,
                     seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        xb = sample_boundary(domain, n, rng)
        V = rng.normal(size=(n, domain.dim))
        V *= (R_v * rng.uniform(0.05, 1.0, n) /
              np.linalg.norm(V, axis=1))[:, None]
        # keep only genuinely incoming pairs
        nrm = domain.unit_normal(xb)
        inc = np.sum(nrm * V, axis=1) < 0
        est = float(np.max(np.abs(self(xb[inc], V[inc]))))
        if self.sup_norm is None:
            self.sup_norm = est
        return est

    @classmethod
    def constant(cls, c: float):
        return cls(func=lambda X, V: np.full(X.shape[0], float(c)),
                   velocity_only=True, sup_norm=abs(float(c)))

    @classmethod
    def from_velocity_profile(cls, phi, sup: float | None = None):
        """Velocity-only data g(x, v) = phi(v); phi vectorized over (N, d)."""
        return cls(func=lambda X, V: np.asarray(phi(V), dtype=float),
                   velocity_only=True, sup_norm=sup)


# ---------------------------------------------------------------------------
# direct transport solves (closed formulas along chords, evaluated lazily)
# ---------------------------------------------------------------------------


def free_transport(g: BoundarySource, domain: Domain,
                   grid: PhaseGrid | None = None) -> PhaseField:
    """Solution of v.grad F = 0, F = g on Gamma_-: pure backtracing.

    The returned field is analytic; no values are gridded, so later
    evaluations are exact wherever g is.
    """

    def _eval(X, V):
        tau = exit_times(domain, X, V, sign=-1)
        return g(X - tau[:, None] * V, V)

    return PhaseField(grid, values=None, analytic=_eval, domain=domain)


def source_solve(f, domain: Domain, grid: PhaseGrid | None = None,
                 order: int = 16) -> PhaseField:
    """Solution of v.grad F = f with zero inflow: characteristic integral.

    f is a vectorized callable (X, V) -> values (a PhaseField works too).
    |F(x,v)| <= tau_-(x,v) * sup|f| by construction of the quadrature.
    """
    feval = f.eval if isinstance(f, PhaseField) else f
    gx, gw = np.polynomial.legendre.leggauss(order)

    def _eval(X, V):
        tau = exit_times(domain, X, V, sign=-1)
        out = np.zeros(X.shape[0])
        for i in range(order):
            s = 0.5 * tau * (1.0 + gx[i])
            out += 0.5 * tau * gw[i] * np.asarray(feval(X - s[:, None] * V, V))
        return out

    return PhaseField(grid, values=None, analytic=_eval, domain=domain)


def attenuated_solve(sigma, f, g: BoundarySource | None, domain: Domain,
                     sigma0: float | None = None, grid: PhaseGrid | None = None,
                     order: int = 16) -> PhaseField:
    """Attenuated transport sigma F + v.grad F = f, F = g on Gamma_-.

    sigma is a positive scalar or a vectorized callable sigma(X) >= sigma0.
    The explicit characteristic formula is evaluated lazily with nested
    Gauss-Legendre quadrature (the inner rule integrates the attenuation
    exponent; for scalar sigma the exponent is exact).
    """
    if np.isscalar(sigma):
        if sigma0 is None:
            sigma0 = float(sigma)
    elif sigma0 is None:
        raise DomainError("callable sigma requires an explicit sigma0")
    if not sigma0 > 0.0:
        raise DomainError("attenuated solve needs sigma0 > 0")

    gx, gw = np.polynomial.legendre.leggauss(order)

    def _optical_depth(X, V, S):
        # int_0^S sigma(x - r v) dr for each row
        if np.isscalar(sigma):
            return float(sigma) * S
        out = np.zeros(S.shape)
        for i in range(order):
            r = 0.5 * S * (1.0 + gx[i])
            out += 0.5 * S * gw[i] * np.asarray(sigma(X - r[:, None] * V))
        return out

    def _eval(X, V):
        tau = exit_times(domain, X, V, sign=-1)
        out = np.zeros(X.shape[0])
        if g is not None:
            out += np.exp(-_optical_depth(X, V, tau)) * g(X - tau[:, None] * V, V)
        if f is not None:
            feval = f.eval if isinstance(f, PhaseField) else f
            for i in range(order):
                s = 0.5 * tau * (1.0 + gx[i])
                atten = np.exp(-_optical_depth(X, V, s))
                out += 0.5 * tau * gw[i] * atten * \
                    np.asarray(feval(X - s[:, None] * V, V))
        return out

    return PhaseField(grid, values=None, analytic=_eval, domain=domain)


# ---------------------------------------------------------------------------
# Picard solver
# ---------------------------------------------------------------------------


# "auto" takes "sparse" wherever the transported data F0 does not depend on
# x (velocity-only data, or F0 gridded like G) and "reference" otherwise
ENGINES = ("auto", "sparse", "reference")

# tile of the sparse collision stage: spatial rows x active velocity nodes;
# small enough that a tile's _X_BLOCK * _V_BLOCK * NU * (omega classes)
# temporaries stay in cache
_X_BLOCK = 16
_V_BLOCK = 16
# (x, v) pairs per chunk of the line stage; a chunk's temporaries are
# _PAIR_BLOCK * (chord order) values each
_PAIR_BLOCK = 2048


@dataclass
class PicardOptions:
    tol: float = 1e-12
    max_iter: int = 30
    smallness_threshold: float = 0.03
    check_smallness: bool = True
    check_admissibility: bool = True
    admissibility_threshold: float | None = None  # None: 1/(4*smallness)
    extension: str = "analytic"
    engine: str = "auto"  # one of ENGINES
    chord_spacing: float = 1.5  # chord nodes every chord_spacing * h_x
    chord_order_min: int = 4
    chord_order_max: int = 24
    residual_samples: int = 64
    residual_seed: int = 0


@dataclass
class ConvergenceReport:
    iterations: int
    deltas: np.ndarray
    converged: bool
    ratio: float
    residual_discrete: float
    residual_pde: float
    residual_points: int
    sup_F: float
    sup_G: float
    engine: str
    runtime: float
    message: str = ""


def _contraction_ratio(deltas) -> float:
    """Geometric mean of successive delta quotients (0 when too few)."""
    d = np.asarray(deltas, dtype=float)
    d = d[d > 0]
    if d.size < 2:
        return 0.0
    q = d[1:] / d[:-1]
    return float(np.exp(np.mean(np.log(q))))


class _PicardTables:
    """Per-solve precomputed quantities shared by both engines."""

    def __init__(self, spec, grid, rule, opts):
        self.grid = grid
        self.opts = opts
        dim = grid.dim
        vact = grid.v_active_idx
        xact = grid.x_active_idx
        Vg = grid.v_nodes[vact]
        U = rule.u_nodes
        W = rule.omega_nodes
        NVa, NU, NW = vact.size, U.shape[0], W.shape[0]

        c = np.einsum("qa,ma->qm", U, W)[None, :, :] - \
            np.einsum("ja,ma->jm", Vg, W)[:, None, :]
        UP = U[None, :, None, :] - c[..., None] * W[None, None, :, :]
        VP = Vg[:, None, None, :] + c[..., None] * W[None, None, :, :]
        self.B = np.ascontiguousarray(
            kernel_eval(spec, Vg[:, None, None, :], U[None, :, None, :],
                        W[None, None, :, :]).reshape(-1))
        self.WU = rule.u_weights
        self.WW = rule.omega_weights
        self.UP = UP.reshape(-1, dim)
        self.VP = VP.reshape(-1, dim)
        self.U = U
        self.W = W
        self.Vg = Vg
        self.shape = (NVa, NU, NW)

        # omega and -omega give the same (u', v') pair: the sparse engine
        # evaluates the gain once per antipodal class, at its first node,
        # with the class's summed weights B * w_u * w_omega (any kernel; a
        # rule without antipodes keeps singleton classes)
        antipodal = np.max(np.abs(W[:, None, :] + W[None, :, :]), axis=-1) \
            <= 1e-12
        rep_of = np.arange(NW)
        for m in range(NW):
            hit = np.flatnonzero(antipodal[m, :m] & (rep_of[:m] == np.arange(m)))
            if hit.size:
                rep_of[m] = hit[0]
        self.reps = np.unique(rep_of)
        Bw = self.B.reshape(NVa, NU, NW) * \
            (self.WU[:, None] * self.WW[None, :])[None, :, :]
        self.Bw_fold = np.stack([Bw[:, :, rep_of == r].sum(axis=2)
                                 for r in self.reps], axis=2)
        # loss weights sum_omega B * w_u * w_omega, shape (NVa, NU)
        self.Bw_loss = Bw.sum(axis=2)

        policy = opts.extension
        self.ub, self.ufr = grid.v_stencil(U, policy)
        if np.any(self.ub < 0):
            raise PreconditionError("quadrature velocities exceed the grid square")
        self.upb, self.upfr = grid.v_stencil(self.UP, policy)
        self.vpb, self.vpfr = grid.v_stencil(self.VP, policy)
        self.v_strides = [grid.nv ** (dim - 1 - a) for a in range(dim)]

        # exit times and chord quadrature orders for every active pair,
        # v-major (NVa, NXa) like the collision stage's output
        X = grid.x_nodes[xact]
        self.TAU = exit_times(grid.domain, X[None, :, :], Vg[:, None, :],
                              sign=-1)
        speed = np.linalg.norm(Vg, axis=1)
        length = self.TAU * speed[:, None]
        ORD = np.ceil(length / (opts.chord_spacing * grid.h_x)).astype(np.int64) + 2
        self.ORD = np.clip(ORD, opts.chord_order_min, opts.chord_order_max)
        self.glx, self.glw, self.gloff = _gauss_tables(opts.chord_order_max)
        # flat pair indices (v-major) sorted by chord order, so each order
        # runs by (v, x), and the (order, start, stop) run of each order in
        # that sequence
        flat = self.ORD.ravel()
        self.pair_order = np.argsort(flat, kind="stable")
        orders, starts = np.unique(flat[self.pair_order], return_index=True)
        stops = np.append(starts[1:], flat.size)
        self.order_groups = list(zip(orders.tolist(), starts.tolist(),
                                     stops.tolist()))

    def stencil_operators(self, F0UP, F0VP):
        """CSR operators of the u, u' and v' velocity stencils.

        The stencils do not depend on x, so one set serves every spatial
        row.  The operators take a state with one more row, of ones, at
        index NVF.  Every u' and v' row ends with the transported data F0UP
        or F0VP at its point, stored in column NVF after the corners, so a
        product gives F0 + G at u' and v', with F0 added last as before.
        The u' and v' operators hold the representative omega nodes only
        (rows ordered v, u, representative) and come cut into tiles of
        _V_BLOCK velocity nodes: (slice of active v-nodes, u' rows, v' rows).
        """
        NVa, NU, NW = self.shape
        NR = self.reps.size
        ncols = self.grid.NVF + 1

        def rep_rows(a):
            return a.reshape(NVa, NU, NW)[:, :, self.reps].ravel()

        def csr(b, fr, f0):
            return _stencil_csr(rep_rows(b), [rep_rows(f) for f in fr],
                                self.v_strides, ncols, rep_rows(f0))

        Sup = csr(self.upb, self.upfr, F0UP)
        Svp = csr(self.vpb, self.vpfr, F0VP)
        tiles = []
        for j in range(0, NVa, _V_BLOCK):
            r = slice(j * NU * NR, (j + _V_BLOCK) * NU * NR)
            tiles.append((slice(j, j + _V_BLOCK), Sup[r], Svp[r]))
        return _stencil_csr(self.ub, self.ufr, self.v_strides, ncols), tiles

    def f0_tables_velocity_only(self, g):
        Xd = np.zeros((1, self.grid.dim))
        f0 = lambda P: g(np.broadcast_to(Xd, P.shape), P)
        return (f0(self.Vg), f0(self.U),
                f0(self.UP).reshape(self.shape).reshape(-1),
                f0(self.VP).reshape(self.shape).reshape(-1))

    def f0_tables_at_x(self, g, x):
        """Exact transported data at one spatial node (general g)."""
        domain = self.grid.domain

        def f0(P):
            P = P.reshape(-1, self.grid.dim)
            out = np.zeros(P.shape[0])
            speed = np.linalg.norm(P, axis=1)
            nz = speed > 1e-14
            Xr = np.broadcast_to(x, P[nz].shape)
            tau = exit_times(domain, Xr, P[nz], sign=-1)
            out[nz] = g(Xr - tau[:, None] * P[nz], P[nz])
            return out

        return (f0(self.Vg), f0(self.U), f0(self.UP), f0(self.VP))


def _collision_stage_np(G, tables, F0V, F0U, F0UP, F0VP, per_x_f0=None):
    """Reference collision stage: one spatial node at a time, the oracle the
    sparse engine is checked against.  Returns Q v-major, (NVF, NXF)."""
    grid = tables.grid
    NVa, NU, NW = tables.shape
    strides = [grid.nv ** (grid.dim - 1 - a) for a in range(grid.dim)]
    Q = np.zeros((grid.NVF, grid.NXF))
    wqm = (tables.WU[:, None] * tables.WW[None, :])[None, :, :]
    for pi, p in enumerate(grid.x_active_idx):
        if per_x_f0 is not None:
            F0V, F0U, F0UP, F0VP = per_x_f0(pi)
        Gr = G[p]
        gu = _interp_flat(Gr, tables.ub, tables.ufr, strides)
        gup = _interp_flat(Gr, tables.upb, tables.upfr, strides).reshape(NVa, NU, NW)
        gvp = _interp_flat(Gr, tables.vpb, tables.vpfr, strides).reshape(NVa, NU, NW)
        Hu = F0U + gu
        Hv = F0V + Gr[grid.v_active_idx]
        gain = (F0UP.reshape(NVa, NU, NW) + gup) * (F0VP.reshape(NVa, NU, NW) + gvp)
        loss = Hu[None, :, None] * Hv[:, None, None]
        Q[grid.v_active_idx, p] = np.sum(
            tables.B.reshape(NVa, NU, NW) * wqm * (gain - loss), axis=(1, 2))
    return Q


def _collision_stage_sparse(G, tables, ops, F0V, F0U, first_iterate=False):
    """Collision stage on tiles of (spatial rows, velocity nodes).

    The velocity stencils are applied as the CSR operators `ops` (see
    _PicardTables.stencil_operators, which carry F0 at u' and v') to
    _X_BLOCK rows of G at once, as GT = [G[rows].T; 1], and reduced in the
    (v, u, representative, row) layout the products come in: the gain
    against the folded weights, the loss as Hv * ((sum_omega B w) @ Hu).
    Returns Q v-major, (NVF, NXF), the layout the blocks come in.  Agrees
    with _collision_stage_np to rounding.  Needs F0 tables that do not
    depend on x.

    first_iterate says G = 0.  With F0 independent of x, a block's result
    then depends on its width only, so each width is evaluated once and
    copied to the other blocks of that width.  (Widths are not merged: the
    BLAS product of the loss term can round the last columns of a short
    block differently in the last bit.)
    """
    grid = tables.grid
    NVF = grid.NVF
    NU = tables.shape[1]
    Su, tiles = ops
    vact, xact = grid.v_active_idx, grid.x_active_idx
    Q = np.zeros((NVF, grid.NXF))
    by_width = {}
    for start in range(0, xact.size, _X_BLOCK):
        rows = xact[start:start + _X_BLOCK]
        QT = by_width.get(rows.size)
        if QT is None:
            GT = np.empty((NVF + 1, rows.size))
            GT[:NVF] = G[rows].T
            GT[NVF] = 1.0
            HuT = F0U[:, None] + Su @ GT
            QT = -(F0V[:, None] + GT[vact]) * (tables.Bw_loss @ HuT)
            shape = (-1, NU, tables.reps.size, rows.size)
            for js, Sup, Svp in tiles:
                # gain = (F0UP + G(u')) * (F0VP + G(v')), in place
                gain = (Sup @ GT).reshape(shape)
                gain *= (Svp @ GT).reshape(shape)
                QT[js] += np.einsum("vurx,vur->vx", gain, tables.Bw_fold[js])
            if first_iterate:
                by_width[rows.size] = QT
        Q[vact[:, None], rows] = QT
    return Q


def _line_stage_np(Q, tables):
    """Characteristic-integral stage, shared by both engines.

    Q is v-major, (NVF, NXF); the result G is (NXF, NVF).  Pairs (x node,
    v node) come grouped by chord quadrature order and, within an order,
    by (v, x) (see _PicardTables), so a chunk gathers from few rows of Q;
    each group is evaluated in chunks of _PAIR_BLOCK pairs.  The locate is
    truncation + clip, no node snapping.
    """
    grid = tables.grid
    x_lo = np.array([ax[0] for ax in grid.x_axes])
    h = np.array([ax[1] - ax[0] for ax in grid.x_axes])
    nxs = [ax.size for ax in grid.x_axes]
    xstr = [int(np.prod(nxs[a + 1:])) for a in range(grid.dim)]
    NXF, NVF = grid.NXF, grid.NVF
    NXa = grid.x_active_idx.size
    Qflat = Q.ravel()
    Gout = np.zeros(Q.size)
    TAU = tables.TAU.ravel()
    for o, first, last in tables.order_groups:
        off = tables.gloff[o]
        gx = tables.glx[off:off + o]
        gw = tables.glw[off:off + o]
        for start in range(first, last, _PAIR_BLOCK):
            k = tables.pair_order[start:min(start + _PAIR_BLOCK, last)]
            vi = grid.v_active_idx[k // NXa]
            xi = grid.x_active_idx[k % NXa]
            tau = TAU[k]
            S = 0.5 * tau[:, None] * (1.0 + gx[None, :])
            Wt = 0.5 * tau[:, None] * gw[None, :]
            xp, vj = grid.x_nodes[xi], grid.v_nodes[vi]
            base = (vi * NXF)[:, None]
            fracs = []
            for a in range(grid.dim):
                Y = xp[:, a, None] - S * vj[:, a, None]
                f = (Y - x_lo[a]) / h[a]
                # truncation equals floor wherever the clip leaves i alone
                i = np.clip(f.astype(np.int64), 0, nxs[a] - 2)
                fracs.append(np.clip(f - i, 0.0, 1.0))
                base = base + i * xstr[a]
            # _interp_flat's gather; every chord node lies in range
            comps = [1.0 - f for f in fracs]
            qv = np.zeros(S.shape)
            for w, off in _corner_weights(fracs, xstr, comps):
                qv += w * Qflat[base + off]
            Gout[xi * NVF + vi] = np.sum(Wt * qv, axis=1)
    return Gout.reshape(NXF, NVF)


def picard_solve(spec: KernelSpec, g: BoundarySource, grid: PhaseGrid,
                 rule: QuadratureRule,
                 options: PicardOptions | None = None):
    """Fixed-point solve of the nonlinear transport problem.

    Returns (PhaseField, ConvergenceReport).  Raises ConvergenceError (with
    the report attached) when max_iter is exhausted, PreconditionError
    when the boundary data violates the smallness threshold or the kernel
    fails the admissibility check, and ConfigurationError for an unknown
    engine or engine="sparse" on x-dependent data with the analytic split.
    """
    opts = options or PicardOptions()
    t_start = time.perf_counter()
    split = opts.extension == "analytic"
    sparse_ok = g.velocity_only or not split
    if opts.engine not in ENGINES:
        raise ConfigurationError("unknown engine %r; expected one of %s"
                                 % (opts.engine, ENGINES))
    if opts.engine == "sparse" and not sparse_ok:
        raise ConfigurationError(
            "sparse engine needs velocity-only boundary data or a gridded "
            "extension policy")
    engine = "sparse" if sparse_ok and opts.engine != "reference" \
        else "reference"

    if g.sup_norm is None:
        g.estimate_sup(grid.domain, grid.R_v)
    if opts.check_smallness and g.sup_norm > opts.smallness_threshold:
        raise PreconditionError(
            "boundary data sup %.3g exceeds the smallness threshold %.3g"
            % (g.sup_norm, opts.smallness_threshold))
    if opts.check_admissibility:
        thr = opts.admissibility_threshold
        if thr is None:
            thr = 1.0 / (4.0 * opts.smallness_threshold)
        rep = admissibility_check(spec, grid.domain, rule, threshold=thr,
                                  v_min=grid.v_min)
        if not rep.passed:
            raise PreconditionError(
                "kernel mass estimate %.3g fails the admissibility threshold %.3g"
                % (rep.M_estimate, rep.threshold))

    F0 = free_transport(g, grid.domain, grid)
    tables = _PicardTables(spec, grid, rule, opts)

    NVa = grid.v_active_idx.size
    per_x_f0 = None
    if split:
        if g.velocity_only:
            F0V, F0U, F0UP, F0VP = tables.f0_tables_velocity_only(g)
        else:
            # general boundary data: exact transported tables, per x node
            X = grid.x_nodes[grid.x_active_idx]
            cache = {}

            def per_x_f0(pi):
                if pi not in cache:
                    cache[pi] = tables.f0_tables_at_x(g, X[pi])
                return cache[pi]

            F0V = F0U = F0UP = F0VP = None
        F0G = None
    else:
        # grid engine: F0 is sampled on the grid and interpolated like G
        X = np.repeat(grid.x_nodes[grid.x_active_idx], grid.NVF, axis=0)
        V = np.tile(grid.v_nodes, (grid.x_active_idx.size, 1))
        F0G = np.zeros((grid.NXF, grid.NVF))
        F0G[grid.x_active_idx] = F0.eval(X, V).reshape(-1, grid.NVF)
        grid.fill_fringe(F0G)
        NU, NW = tables.shape[1], tables.shape[2]
        F0V, F0U, F0UP, F0VP = (np.zeros(NVa), np.zeros(NU),
                                np.zeros(NVa * NU * NW), np.zeros(NVa * NU * NW))
    ops = tables.stencil_operators(F0UP, F0VP) if engine == "sparse" else None

    def _one_iteration(G, first=False):
        # under the split the first iterate starts from G = 0
        state = G if split else F0G + G
        if engine == "sparse":
            Q = _collision_stage_sparse(state, tables, ops, F0V, F0U,
                                        first_iterate=first and split)
        else:
            Q = _collision_stage_np(state, tables, F0V, F0U, F0UP, F0VP,
                                    per_x_f0=per_x_f0)
        grid.fill_fringe(Q.T)
        Gn = _line_stage_np(Q, tables)
        grid.fill_fringe(Gn)
        return Gn

    G = np.zeros((grid.NXF, grid.NVF))
    deltas = []
    converged = False
    for k in range(1, opts.max_iter + 1):
        Gn = _one_iteration(G, first=k == 1)
        delta = float(np.max(np.abs(Gn - G)))
        deltas.append(delta)
        G = Gn
        if delta <= opts.tol:
            converged = True
            iterations = k
            break
    else:
        iterations = opts.max_iter

    if split:
        field = PhaseField(grid, values=G, analytic=F0.analytic,
                           extension="analytic")
    else:
        field = PhaseField(grid, values=F0G + G, analytic=None,
                           extension=opts.extension)

    # discrete fixed-point defect: one more application of the map
    resid_disc = float(np.max(np.abs(_one_iteration(G) - G)))

    sup_G = float(np.max(np.abs(G)))
    sup_F = field.sup_norm()
    resid_pde, n_res = _sample_pde_residual(field, spec, tables, opts)
    report = ConvergenceReport(
        iterations=iterations, deltas=np.array(deltas), converged=converged,
        ratio=_contraction_ratio(deltas), residual_discrete=resid_disc,
        residual_pde=resid_pde, residual_points=n_res, sup_F=sup_F,
        sup_G=sup_G, engine=engine,
        runtime=time.perf_counter() - t_start)
    if not converged:
        raise ConvergenceError(
            "no contraction to tol=%g within %d iterations (last delta %.3g); "
            "boundary data may be too large for this kernel mass"
            % (opts.tol, opts.max_iter, deltas[-1]), report=report)
    return field, report


def _sample_pde_residual(field: PhaseField, spec, tables, opts):
    """|v.grad F - Q(F,F)| at random interior phase points.

    The directional derivative uses central differences along the
    characteristic, so the analytic part drops out exactly and the estimate
    probes the gridded correction plus interpolation error.
    """
    n = opts.residual_samples
    if n <= 0:
        return 0.0, 0
    grid = tables.grid
    rng = np.random.default_rng(opts.residual_seed)
    lo, hi = grid.domain.bounding_box()
    # points keep 3 h_x clear of the boundary; where that reaches into the
    # last tenth of the domain's depth (reached at the box centre) the draws
    # would rarely or never pass, so those coarse grids use half the depth
    margin = 3 * grid.h_x
    depth = float(grid.domain.boundary_distance(0.5 * (lo + hi)))
    if margin > 0.9 * depth:
        margin = 0.5 * depth
    pts = []
    while len(pts) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, grid.dim))
        keep = grid.domain.boundary_distance(cand) > margin
        pts.extend(cand[keep])
    X = np.array(pts[:n])
    V = rng.normal(size=(n, grid.dim))
    V *= (rng.uniform(grid.v_min + 2 * grid.h_v, 0.9 * grid.R_v, n)
          / np.linalg.norm(V, axis=1))[:, None]

    # central difference along the characteristic, one step per point
    t = 0.5 * grid.h_x / np.linalg.norm(V, axis=1)
    cd = (field.eval(X + t[:, None] * V, V) -
          field.eval(X - t[:, None] * V, V)) / (2.0 * t)

    # Q(F, F)(x, v) with the solve's own rule, all points at once
    U, W = tables.U, tables.W
    nu, nw, d = U.shape[0], W.shape[0], grid.dim
    u = U[None, :, None, :]
    om = W[None, None, :, :]
    v = V[:, None, None, :]
    c = np.sum((u - v) * om, axis=-1, keepdims=True)
    H = lambda P, k: field.eval(np.repeat(X, k, axis=0), P.reshape(-1, d))
    Hup = H(u - c * om, nu * nw).reshape(n, nu, nw)
    Hvp = H(v + c * om, nu * nw).reshape(n, nu, nw)
    Hu = H(np.broadcast_to(U, (n, nu, d)), nu).reshape(n, nu, 1)
    Hv = field.eval(X, V).reshape(n, 1, 1)
    B = kernel_eval(spec, v, u, om)
    w = tables.WU[:, None] * tables.WW[None, :]
    qv = np.sum(B * w * (Hup * Hvp - Hu * Hv), axis=(1, 2))
    return float(np.max(np.abs(cd - qv))), n


# ---------------------------------------------------------------------------
# boundary traces and the boundary operator
# ---------------------------------------------------------------------------


@dataclass
class TraceTable:
    """Outgoing boundary data sampled at phase points on Gamma_+."""

    x: np.ndarray
    v: np.ndarray
    value: np.ndarray
    extrap_residual: np.ndarray
    meta: dict = dc_field(default_factory=dict)


def boundary_trace(field: PhaseField, X, V, t_scale: float | None = None
                   ) -> TraceTable:
    """One-sided trace on Gamma_+ by short inward steps along the chord.

    The field is evaluated at x - t v for t = t1, 2 t1 and extrapolated
    linearly to t = 0; t1 is a small multiple of the grid spacing capped by a
    quarter of the chord.  The extrapolation residual |F(t1) - F(2 t1)| is
    reported per sample since no convergence order is guaranteed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    domain = field.domain
    if t_scale is None:
        t_scale = 1.5 * field.grid.h_x if field.grid is not None \
            else domain.diameter() / 64.0
    for i in range(X.shape[0]):
        cls = classify_boundary(domain, X[i], V[i])
        if cls != OUTGOING:
            raise PreconditionError(
                "trace sample %d is %s, not outgoing" % (i, cls))
    speed = np.linalg.norm(V, axis=1)
    tau = exit_times(domain, X, V, sign=-1)
    t1 = np.minimum(t_scale / speed, 0.25 * tau)
    F1 = field.eval(X - t1[:, None] * V, V)
    F2 = field.eval(X - 2.0 * t1[:, None] * V, V)
    value = 2.0 * F1 - F2
    resid = np.abs(F1 - F2)
    return TraceTable(x=X, v=V, value=value, extrap_residual=resid)


def apply_A(spec: KernelSpec, g: BoundarySource, grid: PhaseGrid,
            rule: QuadratureRule, X, V,
            options: PicardOptions | None = None):
    """Boundary operator: solve the nonlinear problem for g, trace on Gamma_+.

    Returns (TraceTable, ConvergenceReport).
    """
    field, report = picard_solve(spec, g, grid, rule, options)
    table = boundary_trace(field, X, V)
    table.meta["iterations"] = report.iterations
    table.meta["ratio"] = report.ratio
    return table, report


# ---------------------------------------------------------------------------
# export / cache
# ---------------------------------------------------------------------------


def field_to_csv(field: PhaseField, path: str):
    """Write grid values as CSV rows x..., v..., value (full float precision).

    Only in-domain spatial nodes are exported; fringe nodes are bookkeeping
    for interpolation, not field states.
    """
    if field.grid is None:
        raise PreconditionError("CSV export needs a gridded field")
    g = field.grid
    xa = g.x_nodes[g.x_active_idx]
    X = np.repeat(xa, g.NVF, axis=0)
    V = np.tile(g.v_nodes, (xa.shape[0], 1))
    vals = field.eval(X, V)
    cols = ["x%d" % a for a in range(g.dim)] + \
           ["v%d" % a for a in range(g.dim)] + ["value"]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    data = np.column_stack([X, V, vals])
    for row in data:
        buf.write(",".join("%.17g" % c for c in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def trace_to_csv(table: TraceTable, path: str):
    dim = table.x.shape[1]
    cols = ["x%d" % a for a in range(dim)] + ["v%d" % a for a in range(dim)] + \
           ["value", "extrap_residual"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        data = np.column_stack([table.x, table.v, table.value,
                                table.extrap_residual])
        for row in data:
            fh.write(",".join("%.17g" % c for c in row) + "\n")


def save_field(field: PhaseField, path: str):
    """Binary cache with a versioned header.

    Fields with an analytic part are baked onto the grid first (the cache
    holds node values only), so reloading reproduces node values exactly and
    off-node values to interpolation accuracy.
    """
    if field.grid is None:
        raise PreconditionError("caching needs a gridded field")
    g = field.grid
    if field.analytic is not None:
        xa = g.x_nodes[g.x_active_idx]
        X = np.repeat(xa, g.NVF, axis=0)
        V = np.tile(g.v_nodes, (xa.shape[0], 1))
        values = np.zeros((g.NXF, g.NVF))
        values[g.x_active_idx] = field.eval(X, V).reshape(-1, g.NVF)
        g.fill_fringe(values)
    else:
        values = field.values
    header = dict(version=FIELD_CACHE_VERSION, shape=g.domain.shape,
                  dim=g.dim, radius=getattr(g.domain, "radius", None),
                  lo=g.domain.lo, hi=g.domain.hi, nx=g.nx, nv=g.nv,
                  R_v=g.R_v, v_min=g.v_min, extension=field.extension)
    np.savez(path, header=np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8), values=values)


def load_field(path: str) -> PhaseField:
    with np.load(path) as z:
        header = json.loads(bytes(z["header"].tobytes()).decode())
        values = z["values"]
    if header.get("version") != FIELD_CACHE_VERSION:
        raise ConfigurationError(
            "field cache version %r not supported" % (header.get("version"),))
    if header["shape"] == "ball":
        domain = Domain("ball", dim=header["dim"], radius=header["radius"])
    else:
        domain = Domain("box", dim=header["dim"], lo=tuple(header["lo"]),
                        hi=tuple(header["hi"]))
    grid = PhaseGrid(domain, header["nx"], header["nv"], header["R_v"],
                     header["v_min"])
    return PhaseField(grid, values=values, analytic=None,
                      extension=header["extension"])
