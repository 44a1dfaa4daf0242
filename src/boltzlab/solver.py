"""Transport solves along characteristics, the Picard fixed-point solver,
boundary traces, and the incoming-to-outgoing boundary operator.

The nonlinear problem v.grad F = Q(F,F), F = g on the incoming boundary, is
solved as F = F0 + G where F0 is free transport of g and G is the fixed
point of

    G  <-  int_0^{tau_-(x,v)} Q(F0 + G)(x - s v, v) ds

iterated on a phase grid.  Small boundary data makes this map a contraction;
the solver reports the empirical contraction ratio rather than trying to
reproduce the analytic constants.

The boundary data is a velocity profile phi(v), the same at every incoming
boundary point, so free transport carries it unchanged: F0(x, v) = phi(v).
A solve's field is PhaseField(grid, G, profile=phi): the gridded G plus phi,
which is evaluated where it is needed and never gridded.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .collision import (KernelSpec, QuadratureRule, admissibility_check,
                        collision_Q, gauss_legendre, kernel_eval)
from .errors import ConvergenceError, PreconditionError
from .geometry import OUTGOING, Domain, classify_boundaries, exit_times

# snap tolerance for interpolation weights, so grid nodes reproduce exactly
_SNAP = 1e-12
# a phase grid's default v_min, as a fraction of R_v
_V_MIN_FRACTION = 0.05


def _locate_axis(axis: np.ndarray, q):
    """Cell index and fractional coordinate of queries on a uniform axis.

    Returns (i, t, oor): the cell i is clipped to [0, n-2], t to [0, 1], and
    oor flags queries outside the axis range.  t within 1e-12 of a node is
    rounded onto it; t is computed in place, in one copy of the queries.
    """
    h = axis[1] - axis[0]
    t = np.subtract(q, axis[0], dtype=float)
    t /= h
    n = axis.size
    oor = (t < -_SNAP) | (t > (n - 1) + _SNAP)
    i = np.floor(t).astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    t -= i
    t[np.abs(t) < _SNAP] = 0.0
    t[np.abs(t - 1.0) < _SNAP] = 1.0
    np.clip(t, 0.0, 1.0, out=t)
    return i, t, oor


def _sup_abs(A: np.ndarray) -> float:
    """max |A| without an |A| temporary; bitwise np.max(np.abs(A)) for
    finite A (+ 0.0 turns a -0.0 sup of a zero array into +0.0)."""
    return float(max(A.max(), -A.min())) + 0.0


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
        self.v_min = float(_V_MIN_FRACTION * R_v if v_min is None else v_min)

        # the centred ball's bounding cube and the velocity square have the
        # same linspace on every axis
        r = domain.radius
        self.x_axis = np.linspace(-r, r, nx)
        self.v_axis = np.linspace(-R_v, R_v, nv)
        self.h_x = float(self.x_axis[1] - self.x_axis[0])
        self.h_v = float(self.v_axis[1] - self.v_axis[0])

        self.x_nodes = self._tensor_nodes(self.x_axis, self.dim)
        self.v_nodes = self._tensor_nodes(self.v_axis, self.dim)
        self.NXF = self.x_nodes.shape[0]
        self.NVF = self.v_nodes.shape[0]
        # flat index steps of the spatial and the velocity axes: node
        # (i_0, ..., i_{d-1}) is sum_a i_a * strides[a] in its own tensor
        self.x_strides = [self.nx ** (self.dim - 1 - a)
                          for a in range(self.dim)]
        self.v_strides = [self.nv ** (self.dim - 1 - a)
                          for a in range(self.dim)]

        self.x_active = domain.contains(self.x_nodes, tol=1e-12)
        self.v_active = np.sqrt(np.sum(self.v_nodes**2, axis=1)) >= self.v_min
        self.x_active_idx = np.nonzero(self.x_active)[0].astype(np.int64)
        self.v_active_idx = np.nonzero(self.v_active)[0].astype(np.int64)
        if self.x_active_idx.size == 0:
            raise PreconditionError("no spatial grid node falls inside the domain")

        self._build_fringe()

    @staticmethod
    def _tensor_nodes(axis, dim):
        mesh = np.meshgrid(*(axis,) * dim, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _build_fringe(self):
        """Out-of-domain nodes within two cells of the domain, paired with an
        interior source node, the nearest in-domain node of the 5^d window
        and the first in C order among equals (the window's offsets are
        walked by length, then in C order, which is the neighbours' C
        order), and the source's mirror for linear extrapolation."""
        act = self.x_active.reshape((self.nx,) * self.dim)
        cells = np.argwhere(~act)
        best = np.empty_like(cells)
        found = np.zeros(cells.shape[0], dtype=bool)
        offsets = np.array(list(itertools.product(range(-2, 3),
                                                  repeat=self.dim)))
        for o in offsets[np.argsort(np.sum(offsets**2, axis=1),
                                    kind="stable")]:
            n = cells + o
            hit = ~found & np.all((n >= 0) & (n < self.nx), axis=1)
            hit[hit] = act[tuple(n[hit].T)]
            best[hit] = n[hit]
            found |= hit
        cells, best = cells[found], best[found]
        mirror = 2 * best - cells
        ok = np.all((mirror >= 0) & (mirror < self.nx), axis=1)
        ok[ok] = act[tuple(mirror[ok].T)]
        self.x_fringe_idx = cells @ self.x_strides
        self.x_fringe_src = best @ self.x_strides
        self.x_fringe_src2 = np.where(ok, mirror @ self.x_strides, -1)

    def fill_fringe(self, A: np.ndarray, axis: int = 0):
        """Extend A from the domain onto the fringe along its spatial axis
        (axis 0 of an (NXF, ...) array, axis 1 of a v-major (NVF, NXF) one)
        by linear extrapolation (falls back to copying where no mirror
        exists)."""
        f, s, s2 = self.x_fringe_idx, self.x_fringe_src, self.x_fringe_src2
        lin = s2 >= 0
        at = (slice(None),) * axis
        A[at + (f[lin],)] = 2.0 * np.take(A, s[lin], axis=axis) - \
            np.take(A, s2[lin], axis=axis)
        A[at + (f[~lin],)] = np.take(A, s[~lin], axis=axis)
        return A

    def v_stencil(self, P: np.ndarray):
        """Flattened bilinear stencil of velocity points P into the v-square.

        Returns (base, fracs) arrays; base = -1 marks points outside the
        square.
        """
        i, t, oor = _locate_axis(self.v_axis, P)
        base = np.where(oor.any(axis=-1), -1, i @ self.v_strides)
        return base, [t[..., a] for a in range(self.dim)]


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
        out += w * np.take(values_row, b + off)
    return np.where(base < 0, 0.0, out)


def _stencil_csr(base: np.ndarray, fracs, strides, ncols: int):
    """The gather of _interp_flat as a CSR operator, one row per point.

    Each row stores its corners in _interp_flat's order, so applying the
    operator accumulates the same products in the same order; base = -1
    points get no corners.  Corners of weight exactly 0.0 are left out:
    the product's row sums start at +0.0 and never become -0.0, so adding
    the +-0.0 such a corner gives (for finite data) changes no bit.
    """
    import scipy.sparse as sp  # only use: importing boltzlab loads no scipy
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
    every (v, u, omega) of the velocities Vg, the u-nodes U and the
    omega-nodes W; each (n, NU, NW, d)."""
    # u.omega - v.omega, not (u - v).omega as in collision.post_collision:
    # it rounds repeated points to equal bits, so the distinct-point keying
    # finds them (with (u - v).omega the stencil operators grow)
    c = np.einsum("qa,ma->qm", U, W)[None, :, :] - \
        np.einsum("ja,ma->jm", Vg, W)[:, None, :]
    UP = U[None, :, None, :] - c[..., None] * W[None, None, :, :]
    VP = Vg[:, None, None, :] + c[..., None] * W[None, None, :, :]
    return UP, VP


class PhaseField:
    """Distribution function on a phase grid: the gridded values G plus,
    when given, the boundary profile phi(v), the same at every x.

    values : (NXF, NVF) array; G is zero at velocities outside the stored
        square, where phi, when present, still contributes
    profile : callable V (N, d) -> phi(V), or None
    """

    def __init__(self, grid: PhaseGrid, values, profile=None):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.NXF, grid.NVF):
            raise PreconditionError("values must have shape (NXF, NVF)")
        if not np.all(np.isfinite(values)):
            raise PreconditionError("field values must all be finite")
        self.grid = grid
        self.values = values
        self.profile = profile

    def eval(self, x, v):
        """Evaluate at points; x and v broadcast ((d,) or (N,d)).  Returns
        an (N,) array, (1,) for a single point."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        V = np.atleast_2d(np.asarray(v, dtype=float))
        g = self.grid
        ix, tx, _ = _locate_axis(g.x_axis, X)
        base_v, vfracs = g.v_stencil(V)
        base = np.where(base_v < 0, -1, (ix @ g.x_strides) * g.NVF + base_v)
        strides = [s * g.NVF for s in g.x_strides] + g.v_strides
        fracs = [tx[:, a] for a in range(g.dim)] + vfracs
        out = _interp_flat(self.values.ravel(), base, fracs, strides)
        if self.profile is not None:
            out = np.asarray(self.profile(V), dtype=float) + out
        return out

    def _node_values(self, v_idx):
        """F at every active spatial node times the velocity nodes v_idx,
        (NXa, len(v_idx)).

        At a grid node the interpolation weights are exactly 0 and 1, so
        this is what eval returns there: G is read at the nodes directly,
        and phi, which does not depend on x, is evaluated once per velocity
        node.
        """
        g = self.grid
        F = self.values[np.ix_(g.x_active_idx, v_idx)]
        if self.profile is not None:
            F += np.asarray(self.profile(g.v_nodes[v_idx]), dtype=float)
        return F

    def sup_norm(self) -> float:
        """Sup of |F| over the active grid nodes."""
        return _sup_abs(self._node_values(self.grid.v_active_idx))


def _profile_or_zero(field: PhaseField):
    """A field's profile phi, or phi = 0 for a field without one."""
    return field.profile or (lambda P: np.zeros(P.shape[0]))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------


@dataclass
class BoundarySource:
    """Incoming boundary data on Gamma_-: a velocity profile g(x, v) = phi(v),
    the same at every boundary point.

    func : phi, a callable vectorized over velocities V (N, d).
    sup_norm : sup |phi|, checked against the smallness threshold.
    """

    func: callable
    sup_norm: float

    def __call__(self, V):
        return np.asarray(self.func(np.asarray(V, float)), dtype=float)

    @classmethod
    def from_velocity_profile(cls, phi, sup: float):
        """Data g(x, v) = phi(v); phi vectorized over (N, d)."""
        return cls(func=phi, sup_norm=sup)


# ---------------------------------------------------------------------------
# Picard solver
# ---------------------------------------------------------------------------


# tile of the collision stage: _X_BLOCK spatial rows x the active velocity
# nodes of about _GAIN_ROW_BLOCK gain rows (v, u, omega class), that is
# max(1, _GAIN_ROW_BLOCK // (NU * classes)) nodes, so a tile's temporaries
# are about _X_BLOCK * _GAIN_ROW_BLOCK values each and stay in cache
_X_BLOCK = 16
_GAIN_ROW_BLOCK = 1536
# chord nodes per chunk of the line stage: a chunk of an order-o group
# takes max(1, _CHORD_NODE_BLOCK // o) (x, v) pairs, so its temporaries are
# about _CHORD_NODE_BLOCK values each, whatever the order
_CHORD_NODE_BLOCK = 16384
# chord quadrature: nodes every _CHORD_SPACING * h_x, order clipped to
# [_CHORD_ORDER_MIN, _CHORD_ORDER_MAX]
_CHORD_SPACING = 3.0
_CHORD_ORDER_MIN = 4
_CHORD_ORDER_MAX = 24
# active v-nodes per block of the exit-time and chord-order build, whose
# temporaries are a few _TAU_BLOCK * NXa * dim values
_TAU_BLOCK = 64
# random interior phase points of the sampled PDE residual, and their seed
_RESIDUAL_SAMPLES = 64
_RESIDUAL_SEED = 0


@dataclass
class PicardOptions:
    """Settable options of a Picard solve.  The kernel must pass the
    admissibility check at 1 / (4 * smallness_threshold)."""

    tol: float = 1e-12
    max_iter: int = 30
    smallness_threshold: float = 0.03


@dataclass
class ConvergenceReport:
    """A solve's iteration record and residuals: deltas[k - 1] = sup|G_k -
    G_{k-1}| of each round k, their contraction ratio, the sampled PDE
    residual and the sup of F.  The discrete fixed-point defect
    sup|T(G) - G| is not part of it: it costs one more map application,
    which Solver.defect makes on request."""

    iterations: int
    deltas: np.ndarray
    converged: bool
    ratio: float
    residual_pde: float
    sup_F: float


def _contraction_ratio(deltas) -> float:
    """Geometric mean of successive delta quotients (0 when too few)."""
    d = np.asarray(deltas, dtype=float)
    d = d[d > 0]
    if d.size < 2:
        return 0.0
    q = d[1:] / d[:-1]
    return float(np.exp(np.mean(np.log(q))))


class _PicardTables:
    """The collision rule's velocity tables at the velocities V (n, d) where
    Q is evaluated, kept as Vg: the omega classes (reps), the folded gain
    weights Bw_fold (n, NU, classes), the loss weights Bw_loss (n, NU), the
    distinct points u' and v' of the gain rows (v, u, class) with each
    row's index into them, and the tiles of those rows (_cut_tiles).  They
    read the kernel, the rule and V, and no grid."""

    def __init__(self, spec, rule, V):
        dim = rule.dim
        self.U = U = rule.u_nodes
        self.W = W = rule.omega_nodes
        self.Vg = V
        NV, NU, NW = self.shape = (V.shape[0], U.shape[0], W.shape[0])

        # omega and -omega give the same (u', v') pair, and in 2D, where
        # omega omega^T + omega_perp omega_perp^T = I, a quarter turn of
        # omega gives it swapped, (v', u'): the gain H(u') H(v') is the same
        # at every node of such a class, so the collision stage evaluates it
        # once per class, at its first node, with the class's summed
        # weights B * w_u * w_omega (any kernel; a rule without antipodes
        # or quarter turns keeps singleton classes)
        same_pair = np.max(np.abs(W[:, None, :] + W[None, :, :]), axis=-1) \
            <= 1e-12
        if dim == 2:
            same_pair |= np.abs(W @ W.T) <= 1e-12
        # same_pair is an orbit relation, so each node's class is
        # represented by the first node of its orbit
        rep_of = np.argmax(same_pair | np.eye(NW, dtype=bool), axis=1)
        self.reps = np.unique(rep_of)
        self.v_block = max(1, _GAIN_ROW_BLOCK // (NU * self.reps.size))
        Bw = kernel_eval(spec, V[:, None, None, :], U[None, :, None, :],
                         W[None, None, :, :])
        Bw *= (rule.u_weights[:, None] * rule.omega_weights[None, :])[None, :, :]
        self.Bw_fold = np.stack([Bw[:, :, rep_of == r].sum(axis=2)
                                 for r in self.reps], axis=2)
        # loss weights sum_omega B * w_u * w_omega, shape (n, NU)
        self.Bw_loss = Bw.sum(axis=2)
        del Bw

        # for fixed (v, omega) v' depends on u only through u.omega, and for
        # fixed (u, omega) u' on v only through v.omega, so the rows (v, u,
        # representative) of the gain repeat their points: keep each
        # distinct u' and v' point once, and the index of every row's point
        UP, VP = _post_collision_velocities(V, U, W)
        UP = UP[:, :, self.reps]
        VP = VP[:, :, self.reps]
        self.up_points, self.up_index = _distinct_points(UP.reshape(-1, dim))
        self.vp_points, self.vp_index = _distinct_points(VP.reshape(-1, dim))
        self.tiles = _cut_tiles(self, self.up_index, self.vp_index)

    def stencil_operators(self, grid):
        """CSR operators of the u, u' and v' velocity stencils into the
        grid's velocity square, which must hold every u-node.  The stencils
        do not depend on x, so one set serves every spatial row.  Returns
        (Su, [(tiles, Sup, Svp)]): Su has one row per u-node; Sup and Svp
        have one row per distinct u' and v' point (up_points, vp_points),
        the rows the tables' tiles index."""
        def csr(P):
            return _stencil_csr(*grid.v_stencil(P), grid.v_strides, grid.NVF)

        if np.any(grid.v_stencil(self.U)[0] < 0):
            raise PreconditionError("quadrature velocities exceed the grid square")
        return (csr(self.U),
                [(self.tiles, csr(self.up_points), csr(self.vp_points))])

    def f0_tables_velocity_only(self, g):
        """Transported data F0 = phi at v, u and the distinct u' and v'
        points, as float arrays: (F0V, F0U, F0UP, F0VP)."""
        return tuple(np.asarray(g(P), dtype=float) for P in
                     (self.Vg, self.U, self.up_points, self.vp_points))


def _cut_tiles(tables, iu, iv, nodes=None):
    """Tiles of v_block velocity nodes, (nodes, iu, iv) with iu and iv the
    indices of their gain rows (v, u, representative) into the u' and v'
    points, from the indices of all rows of `nodes` (by default every node
    of the tables, as slices, which read Bw_fold and Q as views)."""
    NRow = tables.shape[1] * tables.reps.size
    vb = tables.v_block
    n = tables.shape[0] if nodes is None else nodes.size
    return [(slice(j, j + vb) if nodes is None else nodes[j:j + vb],
             iu[j * NRow:(j + vb) * NRow], iv[j * NRow:(j + vb) * NRow])
            for j in range(0, n, vb)]


def _add_folded_gain(Q, tables, tiles, Hup, Hvp):
    """Add the gain to Q at each tile's velocity nodes: the products
    Hup[iu] * Hvp[iv] of its rows (v, u, representative), reduced against
    the folded weights Bw_fold.  Hup and Hvp hold H at the distinct u' and
    v' points, one column (n,) or a block of spatial columns (n, x)."""
    shape = (-1, tables.shape[1], tables.reps.size) + Hup.shape[1:]
    for js, iu, iv in tiles:
        gain = np.take(Hup, iu, axis=0).reshape(shape)
        gain *= np.take(Hvp, iv, axis=0).reshape(shape)
        Q[js] += np.einsum("vur...,vur->v...", gain, tables.Bw_fold[js])


class _ChordTable:
    """Exit times and chord orders of a grid's active (x, v) pairs, built
    _TAU_BLOCK v-nodes at a time: tau, the exit times, (NVa, NXa);
    pair_order (int32 where it fits), the flat v-major pair indices sorted
    by chord order, so each order runs by (v, x); order_groups, the
    (order, start, stop) run of each order in it; and gauss, the
    Gauss-Legendre (nodes, weights) of each order in use."""

    def __init__(self, grid):
        self.grid = grid
        X = grid.x_nodes[grid.x_active_idx]
        Vg = grid.v_nodes[grid.v_active_idx]
        NVa, NXa = Vg.shape[0], X.shape[0]
        speed = np.linalg.norm(Vg, axis=1)
        TAU = np.empty((NVa, NXa))
        ORD = np.empty((NVa, NXa), dtype=np.int8)
        counts = np.zeros(_CHORD_ORDER_MAX + 1, dtype=np.int64)
        for j in range(0, NVa, _TAU_BLOCK):
            r = slice(j, j + _TAU_BLOCK)
            TAU[r] = exit_times(grid.domain, X[None, :, :], Vg[r, None, :],
                                sign=-1)
            length = TAU[r] * speed[r, None]
            length /= _CHORD_SPACING * grid.h_x
            np.ceil(length, out=length)
            length += 2
            ORD[r] = np.clip(length, _CHORD_ORDER_MIN, _CHORD_ORDER_MAX,
                             out=length)
            counts += np.bincount(ORD[r].ravel(), minlength=counts.size)
        index_type = np.int32 if ORD.size < 2**31 else np.int64
        self.pair_order = np.argsort(ORD.ravel(), kind="stable").astype(
            index_type, copy=False)
        stops = np.cumsum(counts)
        self.order_groups = [(o, int(stops[o] - counts[o]), int(stops[o]))
                             for o in np.flatnonzero(counts).tolist()]
        self.tau = TAU
        self.gauss = {o: gauss_legendre(o) for o, _, _ in self.order_groups}


def _tau_q0(Q0, chords):
    """The first iterate from G = 0: F0 = phi does not depend on x, so it
    is tau_-(x, v) * Q0(v), with Q0 = Q(phi, phi) at the active v-nodes
    (_collision_q0) and tau_- from the chord table."""
    grid = chords.grid
    G1 = np.zeros((grid.NXF, grid.NVF))
    G1[np.ix_(grid.x_active_idx, grid.v_active_idx)] = \
        (chords.tau * Q0[:, None]).T
    return grid.fill_fringe(G1)


def _collision_stage_np(G, grid, g, spec, rule):
    """Reference collision stage: collision.collision_Q(F, F) at every
    active (x, v) node, with F(P) = g(P) + G[p] read through the grid's
    velocity stencil, the oracle the sparse stage is checked against.  It
    takes no velocity table: its kinematics, kernel values and stencils
    are its own.  Returns Q v-major, (NVF, NXF)."""
    V = grid.v_nodes[grid.v_active_idx]
    Q = np.zeros((grid.NVF, grid.NXF))
    for p in grid.x_active_idx:
        def F(P, Gr=G[p]):
            return g(P) + _interp_flat(Gr, *grid.v_stencil(P),
                                       grid.v_strides)
        Q[grid.v_active_idx, p] = collision_Q(F, F, V, spec, rule)
    return Q


def _live_mask(mask):
    """mask, or None when all of it is set (the stages' full-support path)."""
    return None if mask.all() else mask


def _gain_live_nodes(G, tables, Sup, Svp, F0UP, F0VP):
    """Mask of the active v-nodes with a gain row whose H(u') and H(v') can
    both be nonzero, or None when all can.  A distinct point is live when
    phi is nonzero there or a corner (all have positive weights) reads a
    column where G is nonzero; any term added to H must count here too."""
    col = np.any(G != 0.0, axis=0).astype(float)
    up = (F0UP != 0.0) | (Sup @ col > 0.0)
    vp = (F0VP != 0.0) | (Svp @ col > 0.0)
    rows = up[tables.up_index] & vp[tables.vp_index]
    return _live_mask(rows.reshape(tables.shape[0], -1).any(axis=1))


def _live_tiles(tables, live, Sup, Svp, F0UP, F0VP):
    """(tiles, Sup, Svp, F0UP, F0VP) as stencil_operators has them, on the
    live active v-nodes (indices) and the point rows they read, renumbered."""
    NRow = tables.shape[1] * tables.reps.size
    picked = []
    for index, S, f0 in ((tables.up_index, Sup, F0UP),
                         (tables.vp_index, Svp, F0VP)):
        rows = index.reshape(-1, NRow)[live].ravel()
        read = np.zeros(S.shape[0], dtype=bool)
        read[rows] = True
        picked.append(((np.cumsum(read) - 1)[rows], S[read], f0[read]))
    (iu, Sup, F0UP), (iv, Svp, F0VP) = picked
    return _cut_tiles(tables, iu, iv, live), Sup, Svp, F0UP, F0VP


def _collision_stage_sparse(G, grid, tables, ops, F0V, F0U, F0UP, F0VP):
    """Collision stage on blocks of _X_BLOCK spatial rows of the grid.

    The velocity stencils are applied as the CSR operators `ops` (see
    _PicardTables.stencil_operators) to a block's rows of G at once, as
    GT = G[rows].T: Su @ GT gives G at u, and Sup @ GT and Svp @ GT give G
    at every distinct u' and v' point, to which F0 is added after the
    products.  Tile by tile of v_block velocity nodes, the gain gathers its
    rows (v, u, representative) from those two products and is reduced
    against the folded weights after the loss Hv * ((sum_omega B w) @ Hu).
    Returns Q v-major, (NVF, NXF), the layout the blocks come in.  Agrees
    with _collision_stage_np to rounding.

    The gain skips the v-nodes where every row has H(u') or H(v') +-0.0
    at every x (_gain_live_nodes) and adds their einsum's +0.0 to the loss;
    live tiles apply only the Sup and Svp rows they read, each summed as in
    the full tiles.  The loss stays one BLAS product on every node: its
    rounding depends on the block's shape.

    F0V, F0U, F0UP and F0VP are the transported data at v, u and the
    distinct u' and v' points, the tables of _PicardTables.
    """
    Su, [(tiles, Sup, Svp)] = ops
    vact, xact = grid.v_active_idx, grid.x_active_idx
    live = _gain_live_nodes(G, tables, Sup, Svp, F0UP, F0VP)
    dead = []
    if live is not None:
        dead = np.flatnonzero(~live)
        tiles, Sup, Svp, F0UP, F0VP = _live_tiles(
            tables, np.flatnonzero(live), Sup, Svp, F0UP, F0VP)
    F0V, F0U, F0UP, F0VP = (a[:, None] for a in (F0V, F0U, F0UP, F0VP))
    Q = np.zeros((grid.NVF, grid.NXF))
    for start in range(0, xact.size, _X_BLOCK):
        rows = xact[start:start + _X_BLOCK]
        GT = np.ascontiguousarray(G[rows].T)
        HuT = F0U + Su @ GT
        QT = -(F0V + GT[vact]) * (tables.Bw_loss @ HuT)
        QT[dead] += 0.0
        # F0 + G at the distinct u' and v' points
        Hup = Sup @ GT
        Hvp = Svp @ GT
        Hup += F0UP
        Hvp += F0VP
        _add_folded_gain(QT, tables, tiles, Hup, Hvp)
        Q[vact[:, None], rows] = QT
    return Q


def _collision_q0(tables, F0V, F0U, F0UP, F0VP):
    """Q(phi, phi) at the tables' velocities, (n,): the sum of
    _collision_stage_sparse at G = 0, where every spatial row reads the
    transported data F0 = phi alone.  The loss is -F0V * (Bw_loss @ F0U),
    then the gain of the tables' tiles on F0 at the distinct u' and v'
    points; it reads the velocity tables and no stencil operator."""
    Q0 = -F0V * (tables.Bw_loss @ F0U)
    _add_folded_gain(Q0, tables, tables.tiles, F0UP, F0VP)
    return Q0


def _collision_pair(tables, A, B):
    """Q(a, b) + Q(b, a) at the tables' velocities, (n,), from the F0
    tables A and B of two profiles: per gain row (v, u, class), Bw_fold
    times a(u')b(v') + b(u')a(v') - a(u)b(v) - b(u)a(v), a bracket that a
    swap of u' and v' keeps, with the loss inside so constants give 0.0."""
    (AV, AU, AUP, AVP), (BV, BU, BUP, BVP) = A, B
    iu, iv = tables.up_index, tables.vp_index
    gain = AUP[iu] * BVP[iv] + BUP[iu] * AVP[iv]
    loss = AU[None, :] * BV[:, None] + BU[None, :] * AV[:, None]
    bracket = gain.reshape(tables.Bw_fold.shape) - loss[:, :, None]
    return np.einsum("vur,vur->v", tables.Bw_fold, bracket)


def _lerp_cell(Qflat, base, fracs, strides, corner=0):
    """Multilinear value of the flat tensor Qflat in the cells `base`, at
    fractional coordinates `fracs` along axes of `strides`, by successive
    lerps: lo + t (hi - lo) along the first axis, each face read the same
    way along the others.  Corner c is read as np.take(Qflat[c:], base),
    with no index add; mode "clip" changes no index, since every base + c
    is in range."""
    if not fracs:
        return np.take(Qflat[corner:], base, mode="clip")
    lo = _lerp_cell(Qflat, base, fracs[1:], strides[1:], corner)
    hi = _lerp_cell(Qflat, base, fracs[1:], strides[1:], corner + strides[0])
    hi -= lo
    hi *= fracs[0]
    lo += hi
    return lo


def _line_stage_np(Qs, chords):
    """Characteristic-integral stage of several sources at once.

    Each Q of Qs is v-major, (NVF, NXF); the result is one G per Q, (NXF,
    NVF).  Pairs (x node, v node) come grouped by chord quadrature order
    and, within an order, by (v, x) (see _ChordTable), so a chunk gathers
    from few rows of Q; each group is evaluated in chunks of about
    _CHORD_NODE_BLOCK chord nodes, laid out (Gauss node, pair) so that
    every elementwise step runs along the pairs.  Chord nodes are located
    in grid units, x^ - s v^ with x^ = (x - x_lo) / h and v^ = v / h, by
    floor + clip, with no node snapping.  A chunk's cells and fractions
    depend on the grid only, so they are computed once and serve every Q;
    each Q's lerps and sum are those of a stage run on it alone.  A pair's
    sum adds its weighted Gauss nodes one after the other, elementwise with
    no BLAS and no reduction, so it does not depend on the chunk it falls
    in.

    A pair whose Q row (v, every x) is +-0.0 in every source would get
    +0.0 from its lerps and sum, so it is skipped and its G stays +0.0:
    a selection within its order group, which changes no other pair.
    """
    grid = chords.grid
    nx = grid.nx
    NXF, NVF = grid.NXF, grid.NVF
    NXa = grid.x_active_idx.size
    live = _live_mask(np.logical_or.reduce(
        [np.any(Q != 0.0, axis=1)[grid.v_active_idx] for Q in Qs]))
    keep = None if live is None else live[chords.pair_order // NXa]
    tau = chords.tau.ravel()
    h = grid.x_axis[1] - grid.x_axis[0]
    # (dim, nodes), so a chunk gathers one contiguous row per axis
    x_hat = ((grid.x_nodes - grid.x_axis[0]) / h).T.copy()
    v_hat = (grid.v_nodes / h).T.copy()
    Qflats = [Q.ravel() for Q in Qs]
    Gouts = [np.zeros(NXF * NVF) for _ in Qs]
    for o, first, last in chords.order_groups:
        gx, gw = chords.gauss[o]
        gx1 = 1.0 + gx[:, None]
        gw = gw[:, None]
        step = max(1, _CHORD_NODE_BLOCK // o)
        if keep is None:
            chunks = [slice(j, min(j + step, last))
                      for j in range(first, last, step)]
        else:
            at = first + np.flatnonzero(keep[first:last])
            chunks = [at[j:j + step] for j in range(0, at.size, step)]
        for chunk in chunks:
            pairs = chords.pair_order[chunk]
            vk, xk = np.divmod(pairs, NXa)
            vi = grid.v_active_idx[vk]
            xi = grid.x_active_idx[xk]
            half_tau = 0.5 * np.take(tau, pairs)
            S = gx1 * half_tau
            xp, vp = x_hat[:, xi], v_hat[:, vi]
            # the flat cell index is summed in floats, exact for integers
            # below 2**53, and converted once
            cell = vi * float(NXF)
            fracs = []
            for a in range(grid.dim):
                # f = x^ - S v^, one buffer for every step, and its cell
                # floor(f) clipped to [0, nx - 2]
                f = S * vp[a]
                np.subtract(xp[a], f, out=f)
                i = np.floor(f)
                np.maximum(i, 0.0, out=i)
                np.minimum(i, nx - 2.0, out=i)
                f -= i
                np.maximum(f, 0.0, out=f)
                fracs.append(np.minimum(f, 1.0, out=f))
                i *= grid.x_strides[a]
                i += cell
                cell = i
            base = cell.astype(np.int64)
            dest = xi * NVF + vi
            for Qflat, Gout in zip(Qflats, Gouts):
                q = _lerp_cell(Qflat, base, fracs, grid.x_strides)
                q *= gw
                acc = q[0]
                for k in range(1, o):
                    acc += q[k]
                acc *= half_tau
                Gout[dest] = acc
    return [G.reshape(NXF, NVF) for G in Gouts]


class Solver:
    """Picard solves of any number of boundary data under one (spec, grid,
    rule, options).

    The set-up that does not depend on the data is built once, on first
    use (for a solve, after the first data have passed the smallness
    check): the admissibility verdict, the velocity tables of the active
    v-nodes (_PicardTables) with their CSR stencil operators (sparsity
    pattern and corner weights), the chord table of the grid
    (_ChordTable), and the residual sample points with the velocity tables
    at their velocities (_residual_samples, _sample_pde_residual).  Each
    source keeps its own transported data F0, which its collision stages
    add after the products and its first iterate sums alone, and its own
    stopping test, at which it stops, so a source's iterates do not depend
    on the other sources solved with it.  The discrete fixed-point defect
    of a field is one more map application, made on request (defect).
    """

    def __init__(self, spec: KernelSpec, grid: PhaseGrid,
                 rule: QuadratureRule, options: PicardOptions | None = None):
        if not spec.dim == grid.dim == rule.dim:
            raise PreconditionError("kernel dim %d, grid dim %d and rule dim "
                                    "%d differ" % (spec.dim, grid.dim, rule.dim))
        self.spec = spec
        self.grid = grid
        self.rule = rule
        self.opts = options or PicardOptions()
        self._tables = self._ops = self._chords = self._residual = None

    def solve(self, g: BoundarySource):
        """(PhaseField, ConvergenceReport) of one source; see solve_many."""
        return self.solve_many([g])[0]

    def solve_many(self, gs):
        """Solve the sources gs in lockstep; one (PhaseField,
        ConvergenceReport) per source, in order.

        Round 1 is closed form: tau_- times Q(phi, phi), which
        _collision_q0 sums from the source's F0 tables on the collision
        stage's folded rule (_tau_q0).  Each later round applies the map
        once to every source still iterating (_apply_map); a source leaves
        the rounds at its stopping test, so a source that stops at round k
        costs k - 1 map applications.  Every report keeps the deltas and
        their ratio; the fixed-point defect of a result is defect(field).

        Raises PreconditionError for the first source above the smallness
        threshold, then for a kernel that fails the admissibility check.
        When sources do not converge, every source still runs to the end,
        and ConvergenceError is raised for the first of them in input order,
        with its report attached and its position in `index`.
        """
        gs = list(gs)
        for g in gs:
            self._check_smallness(g)
        tables, _ = self._setup()
        opts = self.opts
        runs = [_SourceRun(g, self.grid, tables, opts) for g in gs]
        for run in runs:
            Q0 = _collision_q0(tables, *run.f0_tables)
            run.advance(_tau_q0(Q0, self._chords), 1)

        live, k = runs, 1
        while live := [run for run in live if run.iterations is None]:
            k += 1
            Gs = self._apply_map([(run.G, run.f0_tables) for run in live])
            for run, Gn in zip(live, Gs):
                run.advance(Gn, k)

        results = [run.result(self._residual) for run in runs]
        for i, (run, (_, report)) in enumerate(zip(runs, results)):
            if not report.converged:
                raise ConvergenceError(
                    "no contraction to tol=%g within %d iterations (last "
                    "delta %.3g); boundary data may be too large for this "
                    "kernel mass" % (opts.tol, opts.max_iter, run.deltas[-1]),
                    report=report, index=i)
        return results

    def defect(self, field: PhaseField) -> float:
        """The discrete fixed-point defect sup|T(G) - G| of a field on this
        solver's grid, G its values and phi its profile (none: phi = 0),
        from one map application (_apply_map)."""
        if field.grid is not self.grid:
            raise PreconditionError("the field is not on this solver's grid")
        tables, _ = self._setup()
        f0_tables = tables.f0_tables_velocity_only(_profile_or_zero(field))
        (Gn,) = self._apply_map([(field.values, f0_tables)])
        return _sup_abs(Gn - field.values)

    def _apply_map(self, fields):
        """The Picard map T at each (G, F0 tables) of `fields`: a collision
        stage per field and one line stage for all, each Q and each output
        filled onto the fringe; returns the outputs in order."""
        grid, tables, ops = self.grid, self._tables, self._ops
        Qs = [grid.fill_fringe(
            _collision_stage_sparse(G, grid, tables, ops, *f0), axis=1)
            for G, f0 in fields]
        Gs = _line_stage_np(Qs, self._chords)
        for Gn in Gs:
            grid.fill_fringe(Gn)
        return Gs

    def _check_smallness(self, g):
        opts = self.opts
        if g.sup_norm > opts.smallness_threshold:
            raise PreconditionError(
                "boundary data sup %.3g exceeds the smallness threshold %.3g"
                % (g.sup_norm, opts.smallness_threshold))

    def _setup(self):
        if self._tables is None:
            grid = self.grid
            rep = admissibility_check(
                self.spec, grid.domain, self.rule,
                threshold=1.0 / (4.0 * self.opts.smallness_threshold))
            if not rep.passed:
                raise PreconditionError(
                    "kernel mass estimate %.3g fails the admissibility "
                    "threshold %.3g" % (rep.M_estimate, rep.threshold))
            tables = _PicardTables(self.spec, self.rule,
                                   grid.v_nodes[grid.v_active_idx])
            self._ops = tables.stencil_operators(grid)
            self._chords = _ChordTable(grid)
            X, V = _residual_samples(grid)
            self._residual = X, _PicardTables(self.spec, self.rule, V)
            self._tables = tables
        return self._tables, self._ops


class _SourceRun:
    """One source of a lockstep solve: its boundary profile, transported
    data tables and iteration state."""

    def __init__(self, g, grid, tables, opts):
        self.grid = grid
        self.opts = opts
        self.g = g
        self.f0_tables = tables.f0_tables_velocity_only(g)
        self.G = np.zeros((grid.NXF, grid.NVF))
        self.deltas = []
        self.iterations = None
        self.converged = False

    def advance(self, Gn, k):
        """Take the iterate of round k and apply the stopping test."""
        delta = _sup_abs(Gn - self.G)
        self.deltas.append(delta)
        self.G = Gn
        if delta <= self.opts.tol:
            self.converged = True
            self.iterations = k
        elif k >= self.opts.max_iter:
            self.iterations = k

    def result(self, residual):
        field = PhaseField(self.grid, self.G, profile=self.g)
        report = ConvergenceReport(
            iterations=self.iterations, deltas=np.array(self.deltas),
            converged=self.converged, ratio=_contraction_ratio(self.deltas),
            residual_pde=_sample_pde_residual(field, *residual),
            sup_F=field.sup_norm())
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


def _residual_speed_range(R_v, nv, v_min=None):
    """Speeds (lo, hi) of the residual samples on PhaseGrid(domain, nx, nv,
    R_v, v_min): from 2 cells above v_min, clear of the nodes the solve
    leaves out, to 0.9 R_v; a PreconditionError when there are none."""
    v_min = _V_MIN_FRACTION * R_v if v_min is None else v_min
    v_axis = np.linspace(-R_v, R_v, nv)
    lo, hi = v_min + 2 * float(v_axis[1] - v_axis[0]), 0.9 * R_v
    if not lo < hi:
        raise PreconditionError(
            "grid.v_min %.3g leaves the residual samples no speed: v_min + "
            "2 h_v = %.3g must be below 0.9 R_v = %.3g" % (v_min, lo, hi))
    return lo, hi


def _residual_samples(grid):
    """The phase points (X, V) of a solver's sampled PDE residual:
    _RESIDUAL_SAMPLES random interior points, drawn from _RESIDUAL_SEED."""
    n = _RESIDUAL_SAMPLES
    rng = np.random.default_rng(_RESIDUAL_SEED)
    lo, hi = grid.domain.bounding_box()
    # points keep 3 h_x clear of the boundary; where that reaches into the
    # last tenth of the domain's depth (its radius, reached at the centre)
    # the draws would rarely or never pass, so those coarse grids use half
    # the depth
    margin = 3 * grid.h_x
    depth = float(grid.domain.radius)
    if margin > 0.9 * depth:
        margin = 0.5 * depth
    pts = []
    while len(pts) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, grid.dim))
        keep = grid.domain.boundary_distance(cand) > margin
        pts.extend(cand[keep])
    X = np.array(pts[:n])
    V = rng.normal(size=(n, grid.dim))
    lo, hi = _residual_speed_range(grid.R_v, grid.nv, grid.v_min)
    V *= (rng.uniform(lo, hi, n) / np.linalg.norm(V, axis=1))[:, None]
    return X, V


def _residual_collision(field: PhaseField, X, tables):
    """Q(F, F) at the residual samples (X, V), (n,), from `tables`, the
    velocity tables at V = tables.Vg: per sample (x, v), collision_Q at v
    on the field P -> field.eval(x, P), to rounding, by _collision_q0's
    formula with H = F0 + G.  G is read once per sample in x, into a table
    with one row per sample, (n, NVF), and at each collision velocity from
    its sample's row through its velocity stencil (2^d corners)."""
    G, grid = field.values, field.grid
    n, NVF = tables.Vg.shape[0], grid.NVF
    ix, tx, _ = _locate_axis(grid.x_axis, X)
    x_base = ix @ grid.x_strides
    T = np.zeros((n, NVF))
    for w, off in _corner_weights(tx.T, grid.x_strides):
        T += w[:, None] * G[x_base + off]
    T = T.ravel()
    F0V, F0U, F0UP, F0VP = tables.f0_tables_velocity_only(
        _profile_or_zero(field))
    # the first entry of each sample's row of T, per velocity read
    row = np.arange(n) * NVF

    def H(f0, stencil, index, at):
        """F0 + G at the points of `stencil` (base, fracs) picked by index,
        G read at the rows `at` of T."""
        base, fracs = stencil
        base, fracs = base[index], [f[index] for f in fracs]
        return f0[index] + _interp_flat(T, np.where(base < 0, -1, base + at),
                                        fracs, grid.v_strides)

    Hv = H(F0V, grid.v_stencil(tables.Vg), np.arange(n), row)
    Hu = H(F0U, grid.v_stencil(tables.U), np.arange(F0U.size)[None, :],
           row[:, None])
    rows = np.repeat(row, tables.up_index.size // n)
    gain = H(F0UP, grid.v_stencil(tables.up_points), tables.up_index, rows)
    gain *= H(F0VP, grid.v_stencil(tables.vp_points), tables.vp_index, rows)
    q = -Hv * np.einsum("vu,vu->v", tables.Bw_loss, Hu)
    q += np.einsum("vur,vur->v", gain.reshape(tables.Bw_fold.shape),
                   tables.Bw_fold)
    return q


def _sample_pde_residual(field: PhaseField, X, tables):
    """|v.grad F - Q(F,F)| at the residual samples (X, tables.Vg), with Q
    under the solve's kernel and rule from the velocity tables at those
    velocities (_residual_collision); returns the max.

    The directional derivative uses central differences along the
    characteristic, where v is fixed, so the profile phi(v) drops out
    exactly and the estimate probes the gridded correction plus
    interpolation error.
    """
    V = tables.Vg
    # one step along the characteristic each way, half a spatial cell long
    t = 0.5 * field.grid.h_x / np.linalg.norm(V, axis=1)
    tV = t[:, None] * V
    cd = (field.eval(X + tV, V) - field.eval(X - tV, V)) / (2.0 * t)
    return float(np.max(np.abs(cd - _residual_collision(field, X, tables))))


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


def boundary_trace(field: PhaseField, X, V) -> TraceTable:
    """One-sided trace on Gamma_+ by short inward steps along the chord.

    The field is evaluated at x - t v for t = t1, 2 t1 and extrapolated
    linearly to t = 0; t1 is the time to cover 1.5 grid spacings, capped by
    a quarter of the chord.  The extrapolation residual |F(t1) - F(2 t1)| is
    reported per sample since no convergence order is guaranteed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    domain = field.grid.domain
    cls = classify_boundaries(domain, X, V)
    bad = np.flatnonzero(cls != OUTGOING)
    if bad.size:
        raise PreconditionError(
            "trace sample %d is %s, not outgoing" % (bad[0], cls[bad[0]]))
    speed = np.linalg.norm(V, axis=1)
    tau = exit_times(domain, X, V, sign=-1)
    t1 = np.minimum(1.5 * field.grid.h_x / speed, 0.25 * tau)
    F1 = field.eval(X - t1[:, None] * V, V)
    F2 = field.eval(X - 2.0 * t1[:, None] * V, V)
    value = 2.0 * F1 - F2
    resid = np.abs(F1 - F2)
    return TraceTable(x=X, v=V, value=value, extrap_residual=resid)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


# rows per bulk % of the field CSV writer, so its template, values and
# text stay below 1 MiB each
_CSV_ROW_BLOCK = 4096


def field_to_csv(field: PhaseField, path: str):
    """CSV rows x..., v..., value at every in-domain spatial node (fringe
    nodes are interpolation bookkeeping) times every velocity node, x-major:
    bitwise np.savetxt(fmt="%.17g", delimiter=","), but each node's
    coordinates are formatted once and the rows of _CSV_ROW_BLOCK at a
    time by one %."""
    g = field.grid
    cols = [c + str(a) for c in "xv" for a in range(g.dim)] + ["value"]
    fmt = ",".join(["%.17g"] * g.dim) + ","
    rows_v = [fmt % tuple(v) + "%.17g\n" for v in g.v_nodes.tolist()]
    xs = [fmt % tuple(x) for x in g.x_nodes[g.x_active_idx].tolist()]
    values = field._node_values(np.arange(g.NVF))
    step = max(1, _CSV_ROW_BLOCK // g.NVF)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for j in range(0, len(xs), step):
            rows = "".join(x + x.join(rows_v) for x in xs[j:j + step])
            fh.write(rows % tuple(values[j:j + step].ravel().tolist()))


def trace_to_csv(table: TraceTable, path: str):
    dim = table.x.shape[1]
    cols = ["x%d" % a for a in range(dim)] + ["v%d" % a for a in range(dim)] + \
           ["value", "extrap_residual"]
    np.savetxt(path, np.column_stack([table.x, table.v, table.value,
                                      table.extrap_residual]),
               fmt="%.17g", delimiter=",", header=",".join(cols), comments="")
