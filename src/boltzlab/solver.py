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
from .errors import ConfigurationError, ConvergenceError, PreconditionError
from .geometry import (OUTGOING, Domain, classify_boundaries, exit_times,
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


def _corner_weights(fracs, strides):
    """(weight, offset) of each corner of a multilinear stencil, in a fixed
    corner order."""
    factors = [(1.0 - f, f) for f in fracs]
    for corner in itertools.product((0, 1), repeat=len(fracs)):
        w = factors[0][corner[0]]
        for a in range(1, len(corner)):
            w = w * factors[a][corner[a]]
        yield w, sum(c * s for c, s in zip(corner, strides))


def _interp_flat(values_row: np.ndarray, base: np.ndarray, fracs, strides):
    """Multilinear gather from a flattened tensor row; base=-1 contributes 0."""
    b = np.maximum(base, 0)
    out = np.zeros(np.broadcast(b, fracs[0]).shape)
    for w, off in _corner_weights(fracs, strides):
        out += w * values_row[b + off]
    return np.where(base < 0, 0.0, out)


def _stencil_csr(base: np.ndarray, fracs, strides, ncols: int):
    """The gather of _interp_flat as a CSR operator, one row per point.

    Each row stores its corners in _interp_flat's order, so applying the
    operator accumulates the same products in the same order; base = -1
    points get no corners.  Corners of weight exactly 0.0 are left out:
    the product's row sums start at +0.0 and never become -0.0, so adding
    the +-0.0 such a corner gives (for finite data) changes no bit.
    """
    pairs = list(_corner_weights(fracs, strides))
    data = np.stack([w for w, _ in pairs], axis=-1)
    cols = np.stack([base + off for _, off in pairs], axis=-1)
    mask = (base >= 0)[..., None] & (data != 0.0)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=-1))])
    return sp.csr_matrix((data[mask], cols[mask], indptr),
                         shape=(base.size, ncols))


def _distinct_points(P: np.ndarray):
    """Distinct rows of P (n, d) by bit pattern, so -0.0 and +0.0 stay
    apart, in order of first occurrence; returns (points, inverse) with
    points[inverse] bitwise equal to P."""
    bits = np.ascontiguousarray(P).view(np.uint64)
    order = np.lexsort(bits.T[::-1])
    s = bits[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    # lexsort is stable, so the first row of each run is its first occurrence
    firsts = order[new]
    rank = np.empty(firsts.size, dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(firsts.size)
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = rank[np.cumsum(new) - 1]
    return P[np.sort(firsts)], inverse


def _post_collision_velocities(Vg, U, W):
    """u' = u - ((u - v).omega) omega and v' = v + ((u - v).omega) omega for
    every (v, u, omega) of the active v-nodes Vg, the u-nodes U and the
    omega-nodes W; each (NVa, NU, NW, d)."""
    c = np.einsum("qa,ma->qm", U, W)[None, :, :] - \
        np.einsum("ja,ma->jm", Vg, W)[:, None, :]
    UP = U[None, :, None, :] - c[..., None] * W[None, None, :, :]
    VP = Vg[:, None, None, :] + c[..., None] * W[None, None, :, :]
    return UP, VP


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
        """Sup of |F| over the active grid nodes (cached), evaluated in
        blocks of _X_BLOCK spatial nodes.

        At a grid node the interpolation weights are exactly 0 and 1, so
        eval returns the analytic part plus the stored value there; both
        are read directly, without the interpolation.
        """
        if self._sup is None:
            if self.grid is None:
                raise PreconditionError("sup_norm needs a grid; pass one at build")
            g = self.grid
            Va = g.v_nodes[g.v_active_idx]
            sup = 0.0
            for start in range(0, g.x_active_idx.size, _X_BLOCK):
                rows = g.x_active_idx[start:start + _X_BLOCK]
                out = np.zeros(rows.size * Va.shape[0])
                if self.analytic is not None:
                    X = np.repeat(g.x_nodes[rows], Va.shape[0], axis=0)
                    V = np.tile(Va, (rows.size, 1))
                    out = out + np.asarray(self.analytic(X, V), dtype=float)
                if self.values is not None:
                    out = out + self.values[np.ix_(rows, g.v_active_idx)].ravel()
                sup = max(sup, float(np.max(np.abs(out))))
            self._sup = sup
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


# ---------------------------------------------------------------------------
# Picard solver
# ---------------------------------------------------------------------------


# tile of the collision stage: spatial rows x active velocity nodes; small
# enough that a tile's _X_BLOCK * _V_BLOCK * NU * (omega classes)
# temporaries stay in cache (PhaseField.sup_norm takes the same row blocks)
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
    """Per-solve precomputed quantities of the collision and line stages."""

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

        self.B = np.ascontiguousarray(
            kernel_eval(spec, Vg[:, None, None, :], U[None, :, None, :],
                        W[None, None, :, :]).reshape(-1))
        self.WU = rule.u_weights
        self.WW = rule.omega_weights
        self.U = U
        self.W = W
        self.Vg = Vg
        self.shape = (NVa, NU, NW)

        # omega and -omega give the same (u', v') pair: the collision stage
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

        self.ub, self.ufr = grid.v_stencil(U, opts.extension)
        if np.any(self.ub < 0):
            raise PreconditionError("quadrature velocities exceed the grid square")
        self.v_strides = [grid.nv ** (dim - 1 - a) for a in range(dim)]

        # for fixed (v, omega) v' depends on u only through u.omega, and for
        # fixed (u, omega) u' on v only through v.omega, so the rows (v, u,
        # representative) of the gain repeat their points: keep each
        # distinct u' and v' point once, and the index of every row's point
        UP, VP = _post_collision_velocities(Vg, U, W)
        self.up_points, self.up_index = _distinct_points(
            UP[:, :, self.reps].reshape(-1, dim))
        self.vp_points, self.vp_index = _distinct_points(
            VP[:, :, self.reps].reshape(-1, dim))

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

    def stencil_operators(self):
        """CSR operators of the u, u' and v' velocity stencils.

        The stencils do not depend on x, so one set serves every spatial
        row.  Returns (Su, [(tiles, Sup, Svp)]): Su has one row per u-node;
        Sup and Svp have one row per distinct u' and v' point (up_points,
        vp_points).  tiles cut the gain rows (v, u, representative) into
        _V_BLOCK velocity nodes, as (slice of active v-nodes, rows of Sup,
        rows of Svp), the indices of each row's point.
        """
        NRow = self.shape[1] * self.reps.size
        policy = self.opts.extension
        ncols = self.grid.NVF

        def csr(P):
            base, fracs = self.grid.v_stencil(P, policy)
            return _stencil_csr(base, fracs, self.v_strides, ncols)

        tiles = []
        for j in range(0, self.shape[0], _V_BLOCK):
            r = slice(j * NRow, (j + _V_BLOCK) * NRow)
            tiles.append((slice(j, j + _V_BLOCK), self.up_index[r],
                          self.vp_index[r]))
        return (_stencil_csr(self.ub, self.ufr, self.v_strides, ncols),
                [(tiles, csr(self.up_points), csr(self.vp_points))])

    def f0_tables_velocity_only(self, g):
        """Transported velocity-only data at v, u and the distinct u' and
        v' points: (F0V, F0U, F0UP, F0VP)."""
        Xd = np.zeros((1, self.grid.dim))
        f0 = lambda P: g(np.broadcast_to(Xd, P.shape), P)
        return (f0(self.Vg), f0(self.U), f0(self.up_points),
                f0(self.vp_points))

    def f0_tables_at_x(self, g, X):
        """Exact transported data at the spatial nodes X (n, d), general g.

        Returns F0V (NVa, n), F0U (NU, n) and F0UP, F0VP (distinct u' and
        v' points, n): one column per node, the layout of a collision-stage
        block.
        """
        return tuple(_transported_at(g, self.grid.domain, X, P)
                     for P in (self.Vg, self.U, self.up_points,
                               self.vp_points))


def _transported_at(g, domain, X, P):
    """Free transport of boundary data g, g(x - tau_-(x, p) p, p), at every
    velocity point p of P (m, d) and spatial node x of X (n, d); (m, n),
    0 where |p| <= 1e-14."""
    out = np.zeros((P.shape[0], X.shape[0]))
    nz = np.linalg.norm(P, axis=1) > 1e-14
    Pn = P[nz][:, None, :]
    tau = exit_times(domain, X[None, :, :], Pn, sign=-1)
    feet = X[None, :, :] - tau[..., None] * Pn
    V = np.broadcast_to(Pn, feet.shape)
    out[nz] = g(feet.reshape(-1, X.shape[1]),
                V.reshape(-1, X.shape[1])).reshape(tau.shape)
    return out


def _collision_stage_np(G, tables, F0V, F0U, F0UP, F0VP, per_x_f0=None):
    """Reference collision stage: one spatial node at a time, over every
    omega node, the oracle the sparse stage is checked against.  It builds
    its own u' and v' stencils, at every (v, u, omega) of
    _post_collision_velocities; F0UP and F0VP hold the transported data at
    those points.  per_x_f0(i), when given, returns the tables of the i-th
    active node instead.  Returns Q v-major, (NVF, NXF)."""
    grid = tables.grid
    NVa, NU, NW = tables.shape
    strides = [grid.nv ** (grid.dim - 1 - a) for a in range(grid.dim)]
    UP, VP = _post_collision_velocities(tables.Vg, tables.U, tables.W)
    upb, upfr = grid.v_stencil(UP.reshape(-1, grid.dim), tables.opts.extension)
    vpb, vpfr = grid.v_stencil(VP.reshape(-1, grid.dim), tables.opts.extension)
    Q = np.zeros((grid.NVF, grid.NXF))
    wqm = (tables.WU[:, None] * tables.WW[None, :])[None, :, :]
    for pi, p in enumerate(grid.x_active_idx):
        if per_x_f0 is not None:
            F0V, F0U, F0UP, F0VP = per_x_f0(pi)
        Gr = G[p]
        gu = _interp_flat(Gr, tables.ub, tables.ufr, strides)
        gup = _interp_flat(Gr, upb, upfr, strides).reshape(NVa, NU, NW)
        gvp = _interp_flat(Gr, vpb, vpfr, strides).reshape(NVa, NU, NW)
        Hu = F0U + gu
        Hv = F0V + Gr[grid.v_active_idx]
        gain = (F0UP.reshape(NVa, NU, NW) + gup) * (F0VP.reshape(NVa, NU, NW) + gvp)
        loss = Hu[None, :, None] * Hv[:, None, None]
        Q[grid.v_active_idx, p] = np.sum(
            tables.B.reshape(NVa, NU, NW) * wqm * (gain - loss), axis=(1, 2))
    return Q


def _collision_stage_sparse(G, tables, ops, F0V, F0U, F0UP=None, F0VP=None,
                            first_iterate=False, g=None):
    """Collision stage on blocks of _X_BLOCK spatial rows.

    The velocity stencils are applied as the CSR operators `ops` (see
    _PicardTables.stencil_operators) to a block's rows of G at once, as
    GT = G[rows].T: Su @ GT gives G at u, and Sup @ GT and Svp @ GT give G
    at every distinct u' and v' point, to which F0 is added after the
    corners.  Tile by tile of _V_BLOCK velocity nodes, the gain gathers its
    rows (v, u, representative) from those two products and is reduced
    against the folded weights; the loss is Hv * ((sum_omega B w) @ Hu).
    Returns Q v-major, (NVF, NXF), the layout the blocks come in.  Agrees
    with _collision_stage_np to rounding.

    F0V, F0U, F0UP and F0VP are the transported data at v, u and the
    distinct u' and v' points when they do not depend on x (see
    _PicardTables.f0_tables_velocity_only); without F0UP and F0VP nothing
    is added at u' and v' (gridded policies carry F0 in G).  For boundary
    data g that depends on x (under the analytic split), pass zero F0V and
    F0U and g: each block then adds its own tables
    (_PicardTables.f0_tables_at_x) after the products, so every sum F0 + G
    is the oracle's.  Nothing is kept across calls.

    first_iterate says G = 0.  With F0 independent of x, a block's result
    then depends on its width only, so each width is evaluated once and
    copied to the other blocks of that width.  (Widths are not merged: the
    BLAS product of the loss term can round the last columns of a short
    block differently in the last bit.)
    """
    grid = tables.grid
    NU = tables.shape[1]
    Su, [(tiles, Sup, Svp)] = ops
    vact, xact = grid.v_active_idx, grid.x_active_idx
    if g is None:
        F0V, F0U = F0V[:, None], F0U[:, None]
        if F0UP is not None:
            F0UP, F0VP = F0UP[:, None], F0VP[:, None]
    Q = np.zeros((grid.NVF, grid.NXF))
    by_width = {}
    for start in range(0, xact.size, _X_BLOCK):
        rows = xact[start:start + _X_BLOCK]
        QT = by_width.get(rows.size)
        if QT is None:
            if g is not None:
                F0V, F0U, F0UP, F0VP = tables.f0_tables_at_x(
                    g, grid.x_nodes[rows])
            GT = np.ascontiguousarray(G[rows].T)
            HuT = F0U + Su @ GT
            QT = -(F0V + GT[vact]) * (tables.Bw_loss @ HuT)
            # F0 + G at the distinct u' and v' points
            Hup = Sup @ GT
            Hvp = Svp @ GT
            if F0UP is not None:
                Hup += F0UP
                Hvp += F0VP
            shape = (-1, NU, tables.reps.size, rows.size)
            for js, iu, iv in tiles:
                gain = np.take(Hup, iu, axis=0).reshape(shape)
                gain *= np.take(Hvp, iv, axis=0).reshape(shape)
                QT[js] += np.einsum("vurx,vur->vx", gain, tables.Bw_fold[js])
            if first_iterate:
                by_width[rows.size] = QT
        Q[vact[:, None], rows] = QT
    return Q


def _line_stage_np(Qs, tables):
    """Characteristic-integral stage of several sources at once.

    Each Q of Qs is v-major, (NVF, NXF); the result is one G per Q, (NXF,
    NVF).  Pairs (x node, v node) come grouped by chord quadrature order
    and, within an order, by (v, x) (see _PicardTables), so a chunk gathers
    from few rows of Q; each group is evaluated in chunks of _PAIR_BLOCK
    pairs.  The locate is truncation + clip, no node snapping.  A chunk's
    chord nodes, cells and corner weights depend on the grid only, so they
    are computed once and serve every Q; each Q's gather and sum are those
    of a stage run on it alone.
    """
    grid = tables.grid
    x_lo = np.array([ax[0] for ax in grid.x_axes])
    h = np.array([ax[1] - ax[0] for ax in grid.x_axes])
    nxs = [ax.size for ax in grid.x_axes]
    xstr = [int(np.prod(nxs[a + 1:])) for a in range(grid.dim)]
    NXF, NVF = grid.NXF, grid.NVF
    NXa = grid.x_active_idx.size
    Qflats = [Q.ravel() for Q in Qs]
    Gouts = [np.zeros(NXF * NVF) for _ in Qs]
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
            qvs = [np.zeros(S.shape) for _ in Qs]
            for w, off in _corner_weights(fracs, xstr):
                idx = base + off
                for Qflat, qv in zip(Qflats, qvs):
                    qv += w * Qflat[idx]
            for Gout, qv in zip(Gouts, qvs):
                Gout[xi * NVF + vi] = np.sum(Wt * qv, axis=1)
    return [G.reshape(NXF, NVF) for G in Gouts]


class Solver:
    """Picard solves of any number of boundary data under one (spec, grid,
    rule, options).

    The set-up that does not depend on the data is built once, on the
    first solve, after the first data have passed the smallness check: the
    _PicardTables, the admissibility verdict, the CSR stencil operators
    (sparsity pattern and corner weights) and the residual sample points
    with their rule and kernel weights.  Each source keeps its own
    transported data F0, which its collision stages add after the
    products, and its own first-iterate shortcut, stopping test and defect
    application, so a source's iterates do not depend on the other sources
    solved with it.
    """

    def __init__(self, spec: KernelSpec, grid: PhaseGrid,
                 rule: QuadratureRule, options: PicardOptions | None = None):
        self.spec = spec
        self.grid = grid
        self.rule = rule
        self.opts = options or PicardOptions()
        self._admissibility = None
        self._tables = self._ops = self._samples = None

    def solve(self, g: BoundarySource):
        """(PhaseField, ConvergenceReport) of one source; see solve_many."""
        return self.solve_many([g])[0]

    def solve_many(self, gs):
        """Solve the sources gs in lockstep; one (PhaseField,
        ConvergenceReport) per source, in order.

        Each round applies the map once to every source that is still
        iterating or still owes its defect application: the collision stage
        source by source, the line stage for all of them at once.

        Raises PreconditionError for the first source above the smallness
        threshold, then for a kernel that fails the admissibility check.
        When sources do not converge, every source still runs to the end,
        and ConvergenceError is raised for the first of them in input order,
        with its report attached and its position in `index`.
        """
        t_start = time.perf_counter()
        gs = list(gs)
        for g in gs:
            self._check_smallness(g)
        self._check_admissibility()
        tables, ops = self._setup()
        grid, opts = self.grid, self.opts
        runs = [_SourceRun(g, grid, tables, opts) for g in gs]

        def collision(run, first):
            Q = _collision_stage_sparse(
                run.state(), tables, ops, *run.f0_tables,
                first_iterate=first and run.shortcut, g=run.g_x)
            grid.fill_fringe(Q.T)
            return Q

        live = runs
        k = 0
        while live:
            k += 1
            Gs = _line_stage_np([collision(run, k == 1) for run in live],
                                tables)
            for run, Gn in zip(live, Gs):
                grid.fill_fringe(Gn)
                run.advance(Gn, k)
            live = [run for run in live if run.resid_disc is None]

        results = [run.result(self._samples, t_start) for run in runs]
        for i, (run, (_, report)) in enumerate(zip(runs, results)):
            if not report.converged:
                raise ConvergenceError(
                    "no contraction to tol=%g within %d iterations (last "
                    "delta %.3g); boundary data may be too large for this "
                    "kernel mass" % (opts.tol, opts.max_iter, run.deltas[-1]),
                    report=report, index=i)
        return results

    def _check_smallness(self, g):
        opts = self.opts
        if g.sup_norm is None:
            g.estimate_sup(self.grid.domain, self.grid.R_v)
        if opts.check_smallness and g.sup_norm > opts.smallness_threshold:
            raise PreconditionError(
                "boundary data sup %.3g exceeds the smallness threshold %.3g"
                % (g.sup_norm, opts.smallness_threshold))

    def _check_admissibility(self):
        opts = self.opts
        if not opts.check_admissibility:
            return
        if self._admissibility is None:
            thr = opts.admissibility_threshold
            if thr is None:
                thr = 1.0 / (4.0 * opts.smallness_threshold)
            self._admissibility = admissibility_check(
                self.spec, self.grid.domain, self.rule, threshold=thr,
                v_min=self.grid.v_min)
        rep = self._admissibility
        if not rep.passed:
            raise PreconditionError(
                "kernel mass estimate %.3g fails the admissibility threshold %.3g"
                % (rep.M_estimate, rep.threshold))

    def _setup(self):
        if self._tables is None:
            tables = _PicardTables(self.spec, self.grid, self.rule, self.opts)
            self._ops = tables.stencil_operators()
            self._samples = _residual_samples(self.spec, tables, self.opts)
            self._tables = tables
        return self._tables, self._ops


class _SourceRun:
    """One source of a lockstep solve: its transported data and its
    iteration state."""

    def __init__(self, g, grid, tables, opts):
        self.g = g
        self.grid = grid
        self.opts = opts
        self.split = opts.extension == "analytic"
        self.F0 = free_transport(g, grid.domain, grid)
        NVa, NU = tables.shape[:2]
        self.F0G = None
        # F0 is analytic and independent of x: the first iterate may take
        # the collision stage's G = 0 shortcut
        self.shortcut = self.split and g.velocity_only
        if self.shortcut:
            self.f0_tables = tables.f0_tables_velocity_only(g)
        else:
            # zero F0 tables: under the split the collision stage adds each
            # block's own tables; gridded policies sample F0 on the grid and
            # interpolate it like G
            self.f0_tables = (np.zeros(NVa), np.zeros(NU))
            if not self.split:
                X = np.repeat(grid.x_nodes[grid.x_active_idx], grid.NVF, axis=0)
                V = np.tile(grid.v_nodes, (grid.x_active_idx.size, 1))
                self.F0G = np.zeros((grid.NXF, grid.NVF))
                self.F0G[grid.x_active_idx] = self.F0.eval(X, V).reshape(
                    -1, grid.NVF)
                grid.fill_fringe(self.F0G)
        self.g_x = g if self.split and not g.velocity_only else None
        self.G = np.zeros((grid.NXF, grid.NVF))
        self.deltas = []
        self.iterations = None
        self.converged = False
        self.resid_disc = None

    def state(self):
        # under the split the first iterate starts from G = 0
        return self.G if self.split else self.F0G + self.G

    def advance(self, Gn, k):
        """Take the map's output of round k: an iterate until the source
        stops, then its discrete fixed-point defect."""
        if self.iterations is not None:
            self.resid_disc = float(np.max(np.abs(Gn - self.G)))
            return
        delta = float(np.max(np.abs(Gn - self.G)))
        self.deltas.append(delta)
        self.G = Gn
        if delta <= self.opts.tol:
            self.converged = True
            self.iterations = k
        elif k >= self.opts.max_iter:
            self.iterations = k

    def result(self, samples, t_start):
        grid, G = self.grid, self.G
        if self.split:
            field = PhaseField(grid, values=G, analytic=self.F0.analytic,
                               extension="analytic")
        else:
            field = PhaseField(grid, values=self.F0G + G, analytic=None,
                               extension=self.opts.extension)
        sup_G = float(np.max(np.abs(G)))
        sup_F = field.sup_norm()
        resid_pde, n_res = _sample_pde_residual(field, samples)
        report = ConvergenceReport(
            iterations=self.iterations, deltas=np.array(self.deltas),
            converged=self.converged, ratio=_contraction_ratio(self.deltas),
            residual_discrete=self.resid_disc, residual_pde=resid_pde,
            residual_points=n_res, sup_F=sup_F, sup_G=sup_G,
            runtime=time.perf_counter() - t_start)
        return field, report


def picard_solve(spec: KernelSpec, g: BoundarySource, grid: PhaseGrid,
                 rule: QuadratureRule,
                 options: PicardOptions | None = None):
    """Fixed-point solve of the nonlinear transport problem, on a Solver of
    its own.

    Returns (PhaseField, ConvergenceReport).  Raises ConvergenceError (with
    the report attached) when max_iter is exhausted, PreconditionError
    when the boundary data violates the smallness threshold or the kernel
    fails the admissibility check.
    """
    return Solver(spec, grid, rule, options).solve(g)


@dataclass
class _ResidualSamples:
    """Phase points of the sampled PDE residual with everything about them
    that does not depend on the field: the central-difference points, the
    collision points of the solve's rule at each, and B * w_u * w_omega."""

    X: np.ndarray
    V: np.ndarray
    X_fwd: np.ndarray
    X_bwd: np.ndarray
    two_t: np.ndarray
    X_uw: np.ndarray
    UP: np.ndarray
    VP: np.ndarray
    X_u: np.ndarray
    U: np.ndarray
    Bw: np.ndarray


def _residual_samples(spec, tables, opts):
    """The _ResidualSamples of a solver (None when opts.residual_samples is
    0): opts.residual_samples random interior phase points, drawn from
    opts.residual_seed."""
    n = opts.residual_samples
    if n <= 0:
        return None
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

    # Q(F, F)(x, v) with the solve's own rule, all points at once
    U, W = tables.U, tables.W
    nu, nw, d = U.shape[0], W.shape[0], grid.dim
    u = U[None, :, None, :]
    om = W[None, None, :, :]
    v = V[:, None, None, :]
    c = np.sum((u - v) * om, axis=-1, keepdims=True)
    B = kernel_eval(spec, v, u, om)
    w = tables.WU[:, None] * tables.WW[None, :]
    return _ResidualSamples(
        X=X, V=V, X_fwd=X + t[:, None] * V, X_bwd=X - t[:, None] * V,
        two_t=2.0 * t, X_uw=np.repeat(X, nu * nw, axis=0),
        UP=(u - c * om).reshape(-1, d), VP=(v + c * om).reshape(-1, d),
        X_u=np.repeat(X, nu, axis=0),
        U=np.broadcast_to(U, (n, nu, d)).reshape(-1, d), Bw=B * w)


def _sample_pde_residual(field: PhaseField, samples):
    """|v.grad F - Q(F,F)| at the points of samples (_residual_samples);
    returns (max, number of points).

    The directional derivative uses central differences along the
    characteristic, so the analytic part drops out exactly and the estimate
    probes the gridded correction plus interpolation error.
    """
    if samples is None:
        return 0.0, 0
    s = samples
    n, nu, nw = s.Bw.shape
    cd = (field.eval(s.X_fwd, s.V) - field.eval(s.X_bwd, s.V)) / s.two_t
    Hup = field.eval(s.X_uw, s.UP).reshape(n, nu, nw)
    Hvp = field.eval(s.X_uw, s.VP).reshape(n, nu, nw)
    Hu = field.eval(s.X_u, s.U).reshape(n, nu, 1)
    Hv = field.eval(s.X, s.V).reshape(n, 1, 1)
    qv = np.sum(s.Bw * (Hup * Hvp - Hu * Hv), axis=(1, 2))
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
    cls = classify_boundaries(domain, X, V)
    bad = np.flatnonzero(cls != OUTGOING)
    if bad.size:
        raise PreconditionError(
            "trace sample %d is %s, not outgoing" % (bad[0], cls[bad[0]]))
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
