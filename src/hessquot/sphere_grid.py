"""Sphere discretizations producing pointwise jets of scalar fields.

Two grids are provided: a 1-D colatitude grid on [0, pi] for axisymmetric
fields in any dimension, and a full latitude-longitude grid on the 2-sphere.
Each grid builds its 2nd-order central-difference stencils once, a block per
frame row (empty for grad_2 and hess_12 on the axisymmetric grid), whose
entries already carry the frame's node-wise coefficients, so the frame jets
of a field, rho and its covariant gradient and Hessian in two frame
directions, are one (6, N) array indexed by frame row (see jet_arrays): the
product of the (6N, N) jet operator with the field.  The stencil weights are
the only place the discretization lives.  Jets are linear in rho, so the
same stencils also serve the solver's Jacobian (see linearize).  The
axisymmetric grid includes the poles and closes stencils by even reflection
(rho(-theta) = rho(theta)); the 2-D grid offsets nodes half a spacing off the
poles and closes stencils with the antipodal rule (crossing a pole lands at
phi + pi).

Each row's entries are in the order its grid's docstring states, and the
results depend on it to the last bit: a row's product sums its entries in it
(the jets of a constant field are exactly 0), and linearize's duplicate
sums, and with them J and every output, follow it.  It is the order of the
sparse-algebra build (stencil matrices, diagonal products and a vstack) that
tests/oracles.py keeps as the reference.  The axisymmetric grid writes its
operator's CSR arrays by index arithmetic; the 2-D grid keeps each row's
stencil as offsets and ring weights, makes its jets from them without scipy,
bit for bit the CSR product (see SphereGrid2D.frame_jets), and builds its
CSR only when asked for it.

Each grid also hands the Newton corrector its solver of J_u = J diag(rho)
(see log_solver): on the axisymmetric grid J_u's sparse LU, exact; on the
2-D grid GMRES on the matrix-free J_u, preconditioned with the phi-Fourier
factor of its ring average (see _RingKrylov), so that an s2 Newton step is
exact only to the Krylov tolerance _KRYLOV_RTOL.  That factor is numpy's
own (see _TridiagonalLU).  scipy.sparse is imported only where a CSR matrix
is built and scipy.sparse.linalg only for the axisymmetric LU, so a process
that solves on the 2-D grid imports no scipy.

The 2-D grid also halves: coarsened() is the grid of half the rows and half
the columns, and prolong interpolates a field from it to 4th order, so the
solver can follow its path on a coarse grid and correct on the fine one.  The
axisymmetric grid does not halve (its coarsened() is None): a solve there
costs mostly fixed overhead per step, which a coarse path does not save.

The polar axis is the first ambient coordinate, so x1 = rho cos(theta).
Node ordering on the 2-D grid is theta-major: index = i * n_phi + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SizeMismatch, TooCoarse

__all__ = [
    "AxisymGrid",
    "SphereGrid2D",
    "build_axisym_grid",
    "build_s2_grid",
    "jet_arrays",
]

MIN_AXISYM_NODES = 16
MIN_S2_THETA = 16
MIN_S2_PHI = 32
# azimuthal samples when an axisymmetric profile is revolved into a surface
REVOLVE_SAMPLES = 128
# GMRES on the 2-D grid stops once ||b - J_u x||_2 <= _KRYLOV_RTOL ||b||_2, or
# after _KRYLOV_MAXITER iterations
_KRYLOV_RTOL = 1e-3
_KRYLOV_MAXITER = 20


def _check_field(field_values, count: int) -> np.ndarray:
    f = np.asarray(field_values, dtype=float).reshape(-1)
    if f.size != count:
        raise SizeMismatch(f"field has {f.size} values, grid has {count} nodes")
    return f


def _operator_arrays(sizes, count: int):
    """Unfilled CSR arrays of a (6 count, count) jet operator whose block b
    holds sizes[b] entries in each row (one number, or one per row): indptr,
    indices, data, and each block's (indices, data) slices, for the grid to
    fill row by row."""
    per_row = np.empty((6, count), dtype=np.int32)
    for row, size in zip(per_row, sizes):
        row[:] = size
    indptr = np.zeros(6 * count + 1, dtype=np.int32)
    np.cumsum(per_row, out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    ends = indptr[::count]
    return indptr, indices, data, [(indices[lo:hi], data[lo:hi])
                                   for lo, hi in zip(ends[:-1], ends[1:])]


class _StencilGrid:
    """Frame jets and their linearization from a grid's stacked jet operator.

    Frame jets are one (6, N) array indexed by frame row: 0 rho, 1 grad_1,
    2 grad_2, 3 hess_11, 4 hess_12 (which is also hess_21) and 5 hess_22.
    A grid provides `node_count`, `jet_operator` (the (6N, N) stack of one
    (N, N) CSR block D_r per frame row r, in row order, with D_0 the identity
    and an empty block for a row that is 0 for every field) and
    `check_dimension(n)`, which raises ValueError unless the grid discretizes
    S^n.  `frame_jets(w)` makes the jets of a field, by default the product
    with jet_operator; the 2-D grid makes them by stencil slices, bit for bit
    that product, and imports no scipy.  For output it provides `columns` and
    `angles()`, the CSV coordinate names and the (N, len(columns)) node
    coordinates, and `surface_rings(rho)`, the surface points X = rho x as
    (R, M, 3) rings from north to south plus the (2, 3) north and south pole
    points.
    `coarsened()` is the next coarser grid of a sequenced solve, or None, and
    `newton_tol` the default Newton tolerance, which its round-off floor allows.
    For the Newton corrector, `jacobian(partials)` is J = sum_r
    diag(partials[r]) D_r and `log_solver(J, rho)` the held solver of
    J diag(rho), with solve(b); by default linearize's CSR matrix and its LU.
    A grid compares and hashes by identity, so it can key a dict.
    """

    def frame_jets(self, w):
        """The (6, N) frame jets of a field w (N,): jet_operator @ w."""
        return (self.jet_operator @ w).reshape(6, -1)

    def linearize(self, partials):
        """CSR matrix of w -> sum_r partials[r] j_r(w), for node-wise partials
        (6, N) over the frame rows: diag(partials[r]) D_r summed over the
        rows.  hess_12 and hess_21 are one row, so partials[4] is the partial
        over both together.

        scipy's duplicate sum keeps explicit zeros, so J's pattern, and with it
        the fill of log_solver's LU, is the union of the D_r patterns at every
        state.
        """
        import scipy.sparse

        op, n = self.jet_operator, self.node_count
        counts = np.diff(op.indptr)
        values = np.repeat(partials.reshape(-1), counts) * op.data
        rows = np.repeat(np.arange(6 * n) % n, counts)
        return scipy.sparse.csr_matrix((values, (rows, op.indices)), shape=(n, n))

    def jacobian(self, partials):
        """J = sum_r diag(partials[r]) D_r for log_solver: linearize's CSR."""
        return self.linearize(partials)

    @staticmethod
    def log_solver(J, rho):
        """The held solver of J_u = J diag(rho), the Jacobian over u = log rho:
        J_u's sparse LU.  J's pattern is structurally symmetric (central
        stencils, symmetric pole closures), and scaling its columns keeps it,
        so the columns are ordered by minimum degree on J_u^T + J_u."""
        import scipy.sparse.linalg

        J = J.tocsc()
        J.data *= np.repeat(rho, np.diff(J.indptr))
        return scipy.sparse.linalg.splu(J, permc_spec="MMD_AT_PLUS_A")

    @property
    def gradient_rows(self) -> tuple:
        """The gradient rows (1 grad_1, 2 grad_2) whose operator block is not
        empty; the others are 0 for every field."""
        block_sizes = np.diff(self.jet_operator.indptr[::self.node_count])
        return tuple(r for r in (1, 2) if block_sizes[r])


@dataclass(eq=False)
class AxisymGrid(_StencilGrid):
    """Uniform colatitude nodes theta_m = m pi/(N-1), m = 0..N-1, poles included;
    newton_tol 1e-10 is above the residual's round-off floor (~ h^-2) up to N = 1025."""

    node_count: int
    theta: np.ndarray
    spacing: float
    _frame_cache: dict = field(default_factory=dict, init=False, repr=False)
    columns = ("theta",)
    newton_tol = 1e-10

    def angles(self) -> np.ndarray:
        return self.theta[:, None]

    def surface_rings(self, rho):
        """Interior nodes revolved with REVOLVE_SAMPLES azimuths; for n > 2 this
        is the 3-D section of revolution of the meridian profile."""
        rho = _check_field(rho, self.node_count)
        phi = 2.0 * math.pi * np.arange(REVOLVE_SAMPLES) / REVOLVE_SAMPLES
        r, theta = rho[1:-1, None], self.theta[1:-1, None]
        axial = np.broadcast_to(r * np.cos(theta), (r.size, phi.size))
        radial = r * np.sin(theta)
        rings = np.stack([axial, radial * np.cos(phi), radial * np.sin(phi)], axis=-1)
        return rings, np.array([[rho[0], 0.0, 0.0], [-rho[-1], 0.0, 0.0]])

    @staticmethod
    def check_dimension(n: int):
        if n < 2:
            raise ValueError(f"dimension n must be >= 2, got {n}")

    def node_frames(self, n: int):
        """Meridian points (cos t, sin t, 0, ...) of S^n in R^{n+1}, shape (N, n+1),
        and the two frame directions, shape (N, 2, n+1): d/dtheta and one orbit
        direction; the normal has no component along the others.  Both are
        views of one (3, n+1, N) array, each coordinate contiguous over nodes."""
        self.check_dimension(n)
        if n not in self._frame_cache:
            rows = np.zeros((3, n + 1, self.node_count))
            rows[0, 0] = rows[1, 1] = np.cos(self.theta)
            rows[0, 1] = np.sin(self.theta)
            rows[1, 0] = -np.sin(self.theta)
            rows[2, 2] = 1.0
            self._frame_cache[n] = (rows[0].T, rows[1:].transpose(2, 0, 1))
        return self._frame_cache[n]

    def quadrature_weights(self, n: int) -> np.ndarray:
        # area of S^{n-1} times the colatitude measure; trapezoidal ends
        self.check_dimension(n)
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        w = np.sin(self.theta) ** (n - 1) * self.spacing * area
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def jet_operator(self):
        """Frame rows rho, grad_1 = d/dtheta, hess_11 = d^2/dtheta^2 and
        hess_22, the orbit term cot(theta) d/dtheta, whose pole rows take its
        limit d^2/dtheta^2, under even reflection.

        Frame: e_1 is the meridian direction and e_2 stands for each of the
        n - 1 orbit directions, where the gradient vanishes and the covariant
        Hessian is the orbit term with no cross terms, so the rows do not
        depend on n.

        Each row's entries are in ascending column order.  At a pole the two
        reflected neighbours cancel in d/dtheta, so its rows there are empty,
        and add up to one entry in d^2/dtheta^2, also the orbit term's limit.
        """
        N, dt = self.node_count, self.spacing
        h1, h2 = 0.5 / dt, dt**-2
        inner = np.arange(1, N - 1)[:, None]
        cot = 1.0 / np.tan(self.theta[1:-1, None])

        def sizes(pole, interior):
            return np.concatenate([[pole], np.full(N - 2, interior), [pole]])

        indptr, indices, data, blocks = _operator_arrays(
            (1, sizes(0, 2), 0, sizes(2, 3), 0, 2), N)
        (cols, vals), d1, _, d2, _, orbit = blocks
        cols[:], vals[:] = np.arange(N), 1.0

        def fill(cols, vals, offsets, weights):
            cols.reshape(N - 2, -1)[:] = inner + offsets
            vals.reshape(N - 2, -1)[:] = weights

        fill(*d1, [-1, 1], [-h1, h1])
        for (cols, vals), offsets, weights in ((d2, [-1, 0, 1], [h2, -2.0 * h2, h2]),
                                               (orbit, [-1, 1], cot * [-h1, h1])):
            cols[:2], vals[:2] = [0, 1], [-2.0 * h2, 2.0 * h2]
            cols[-2:], vals[-2:] = [N - 2, N - 1], [2.0 * h2, -2.0 * h2]
            fill(cols[2:-2], vals[2:-2], offsets, weights)
        import scipy.sparse

        return scipy.sparse.csr_matrix((data, indices, indptr), shape=(6 * N, N))

    def coarsened(self):
        """None: the axisymmetric grid is not halved (see the module docstring)."""
        return None


@dataclass(eq=False)
class SphereGrid2D(_StencilGrid):
    """Pole-offset latitude-longitude grid: theta_i = (i + 1/2) pi / n_theta;
    newton_tol is 1e-8: the round-off floor, ~ h^-4 at the pole rows (hess_22 weighs r_pp
    by 1/sin^2 theta), is above 1e-10 from 64x128 on and below 1e-8 up to 128x256."""

    n_theta: int
    n_phi: int
    theta: np.ndarray
    phi: np.ndarray
    dtheta: float
    dphi: float
    columns = ("theta", "phi")
    newton_tol = 1e-8

    @property
    def node_count(self) -> int:
        return self.n_theta * self.n_phi

    def angles(self) -> np.ndarray:
        return np.stack(
            [np.repeat(self.theta, self.n_phi), np.tile(self.phi, self.n_theta)], axis=1
        )

    def surface_rings(self, rho):
        """One ring per theta row; each pole sits at the mean radius of its
        nearest ring."""
        rho = _check_field(rho, self.node_count)
        rings = (rho[:, None] * self._node_frames[0]).reshape(self.n_theta, self.n_phi, 3)
        north, south = rho[: self.n_phi].mean(), rho[-self.n_phi:].mean()
        return rings, np.array([[north, 0.0, 0.0], [-south, 0.0, 0.0]])

    @staticmethod
    def check_dimension(n: int):
        if n != 2:
            raise ValueError(f"the 2-sphere grid requires n = 2, got n = {n}")

    def node_frames(self, n: int):
        """Node positions (N, 3) and orthonormal frames (N, 2, 3) whose rows are
        d/dtheta and (1/sin t) d/dphi; views of one (3, 3, N) array, each
        coordinate contiguous over nodes."""
        self.check_dimension(n)
        return self._node_frames

    @cached_property
    def _node_frames(self):
        tt, pp = np.meshgrid(self.theta, self.phi, indexing="ij")
        st, ct = np.sin(tt), np.cos(tt)
        sp, cp = np.sin(pp), np.cos(pp)
        rows = np.stack([[ct, st * cp, st * sp], [-st, ct * cp, ct * sp],
                         [np.zeros_like(sp), -sp, cp]]).reshape(3, 3, -1)
        return rows[0].T, rows[1:].transpose(2, 0, 1)

    def quadrature_weights(self, n: int) -> np.ndarray:
        self.check_dimension(n)
        return np.repeat(np.sin(self.theta) * self.dtheta * self.dphi, self.n_phi)

    @cached_property
    def _stencils(self):
        """Frame rows rho and, from the partials r_t, r_p, r_tt, r_tp, r_pp
        (periodic in phi, crossing the poles by the antipodal rule), the rest,
        one _Stencil per frame row.

        In the frame e_1 = d/dtheta, e_2 = (1/sin t) d/dphi the gradient and
        covariant Hessian of a scalar are
            grad_1 = r_t                    grad_2 = r_p / sin t
            hess_11 = r_tt                  hess_12 = (r_tp - cot t r_p) / sin t
            hess_22 = r_pp / sin^2 t + cot t r_t

        Entry order within a row, by block: grad_1 and hess_11 ascending in
        column; grad_2 descending; hess_12 the four r_tp entries ascending,
        then the two r_p entries descending; hess_22 the two r_t entries
        ascending, then the three r_pp entries ascending.
        """
        nt, nphi, dt, dp = self.n_theta, self.n_phi, self.dtheta, self.dphi
        # only rows on the first or last ring or column cross a pole or wrap in
        # phi; every other row is its node plus the offsets, which each call
        # lists in that row's entry order, so only the edge rows are sorted
        i, j = np.divmod(self._edge, nphi)
        ei, ej = i[:, None], j[:, None]

        def stencil(di, dj, weights, descending=False):
            """The offsets (di, dj) with their weights, one set per ring, and
            the edge rows' columns sorted, descending if asked."""
            weights = np.broadcast_to(weights, (nt, len(di)))
            ii, jj = ei + di, ej + dj
            jj = np.where((ii < 0) | (ii >= nt), jj + nphi // 2, jj) % nphi
            edge_cols = np.clip(ii, 0, nt - 1) * nphi + jj
            order = np.argsort(-edge_cols if descending else edge_cols, axis=1)
            return _Stencil(np.array(di), np.array(dj), weights,
                            np.take_along_axis(edge_cols, order, 1),
                            np.take_along_axis(weights[i], order, 1))

        def joined(first, second):
            return _Stencil(*(np.concatenate(part, axis=-1) for part in zip(first, second)))

        st = np.sin(self.theta)[:, None]
        cot, inv_st = np.cos(self.theta)[:, None] / st, 1.0 / st
        c = 0.25 / (dt * dp)
        w_t, w_p = np.array([-0.5 / dt, 0.5 / dt]), np.array([0.5 / dp, -0.5 / dp])
        t, p = ([-1, 1], [0, 0]), ([0, 0], [1, -1])
        return (stencil([0], [0], 1.0),
                stencil(*t, w_t),
                stencil(*p, inv_st * w_p, descending=True),
                stencil([-1, 0, 1], [0, 0, 0], [dt**-2, -2.0 * dt**-2, dt**-2]),
                joined(stencil([-1, -1, 1, 1], [-1, 1, -1, 1], inv_st * [c, -c, -c, c]),
                       stencil(*p, inv_st * -(cot * w_p), descending=True)),
                joined(stencil(*t, cot * w_t),
                       stencil([0, 0, 0], [-1, 0, 1],
                               st**-2 * [dp**-2, -2.0 * dp**-2, dp**-2])))

    @cached_property
    def _edge(self):
        """The nodes on the first or last ring or column, ascending."""
        i, j = np.divmod(np.arange(self.node_count), self.n_phi)
        return np.flatnonzero((i == 0) | (i == self.n_theta - 1) | (j == 0)
                              | (j == self.n_phi - 1))

    @cached_property
    def _terms(self):
        """The stencils' entries, stacked entry position by entry position:
        per position a, the frame rows with an a-th entry, consecutive (0-5,
        1-5, 3-5, 4-5, 4-5 and 4), as a slice; and per entry, its ring and
        column offsets plus 1, its weights on rings 1..n_theta-2, (., 1), and
        its edge columns and weights, (E,)."""
        positions, entries = [], []
        for a in range(max(len(s.di) for s in self._stencils)):
            rows = [r for r, s in enumerate(self._stencils) if len(s.di) > a]
            positions.append(slice(rows[0], rows[-1] + 1))
            entries += [(s.di[a] + 1, s.dj[a] + 1, s.weights[1:-1, a, None], s.edge_cols[:, a],
                         s.edge_weights[:, a]) for s in self._stencils[positions[-1]]]
        return (positions,) + tuple(np.array(part) for part in zip(*entries))

    def frame_jets(self, w):
        """The (6, N) frame jets of a field w (N,), bit for bit the product of
        jet_operator: each row sums its weighted entries in their stored
        order, from 0.0 as scipy's csr_matvec does.  The rows of rings
        1..n_theta-2 take their entries as shifted slices of the field in
        flat index, which wrap wrongly only at the first and last column;
        those rows and the pole rings are edge rows, recomputed by a gather of
        their own columns."""
        nt, nphi, N = self.n_theta, self.n_phi, self.node_count
        positions, di, dj, weights, edge_cols, edge_weights = self._terms
        padded = np.zeros(N + 2)
        padded[1:-1] = w
        # shifted[di + 1, dj + 1] is w shifted by di rings and dj columns on
        # the flat rings 1..nt-2; an entry's terms are one copy of it
        step = padded.itemsize
        shifted = np.ndarray((3, 3, N - 2 * nphi), buffer=padded,
                             strides=(nphi * step, step, step))
        terms = shifted[di, dj].reshape(len(di), nt - 2, nphi)
        terms *= weights
        edge_terms = edge_weights * w[edge_cols]
        jets, edge = np.zeros((6, N)), np.zeros((6, edge_cols.shape[1]))
        inner, start = jets[:, nphi:-nphi], 0
        for rows in positions:
            stop = start + rows.stop - rows.start
            inner[rows] += terms[start:stop].reshape(stop - start, -1)
            edge[rows] += edge_terms[start:stop]
            start = stop
        jets[:, self._edge] = edge
        return jets

    @cached_property
    def jet_operator(self):
        """The stencils as a (6N, N) CSR matrix, each row's entries in their
        stored order (see _stencils), built on first use: frame_jets is its
        product, and a solve reads neither it nor scipy."""
        import scipy.sparse

        N, nphi = self.node_count, self.n_phi
        nodes = np.arange(N, dtype=np.int32)[:, None]
        indices, data = [], []
        for s in self._stencils:
            cols = nodes + (s.di * nphi + s.dj).astype(np.int32)
            vals = np.repeat(s.weights, nphi, axis=0)
            cols[self._edge], vals[self._edge] = s.edge_cols, s.edge_weights
            indices.append(cols.reshape(-1))
            data.append(vals.reshape(-1))
        indptr = np.zeros(6 * N + 1, dtype=np.int32)
        np.cumsum(np.repeat([len(s.di) for s in self._stencils], N), out=indptr[1:])
        return scipy.sparse.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                                       shape=(6 * N, N))

    @property
    def gradient_rows(self) -> tuple:
        return tuple(r for r in (1, 2) if len(self._stencils[r].di))

    def jacobian(self, partials):
        """The Jacobian, matrix-free: each product is one of frame_jets."""
        return _FrameJacobian(self, partials)

    def log_solver(self, J, rho):
        """The held solver of J_u = J diag(rho): GMRES preconditioned with the
        factor of its ring average (see _RingKrylov)."""
        return _RingKrylov(J, rho, self.n_theta, self.n_phi, self._ring_symbols)

    @cached_property
    def _ring_symbols(self):
        """The stencils in the rfft modes of phi, as (weights, phases):
        weights[r, i, k, c] sums the entries of frame row r at node (i, 0) in
        column (i + k - 1, cols[c]), the few columns that ring rows reach, and
        phases[c, m] = exp(2 pi i m cols[c]/n_phi).  A row's weights depend
        only on its ring, and a pole crossing lands on the same ring at
        phi + pi, which adds the factor (-1)^m; so block r maps mode m of ring
        i + k - 1 to mode m of ring i with the symbol weights[r, i, k] @
        phases[:, m]."""
        nt, nphi = self.n_theta, self.n_phi
        # the nodes (i, 0) are edge nodes: one row of the edge tables per ring
        first = self._edge % nphi == 0
        target, col = np.divmod(np.hstack([s.edge_cols[first] for s in self._stencils]), nphi)
        row = np.repeat(np.arange(6), [len(s.di) for s in self._stencils])
        ring = np.arange(nt)[:, None]
        cols, at = np.unique(col, return_inverse=True)
        weights = np.zeros((6, nt, 3, cols.size))
        np.add.at(weights, (row, ring, target - ring + 1, at.reshape(col.shape)),
                  np.hstack([s.edge_weights[first] for s in self._stencils]))
        turns = np.outer(cols, np.arange(nphi // 2 + 1)) % nphi
        return weights, np.exp(2j * math.pi / nphi * turns)

    def coarsened(self):
        """The grid of n_theta/2 rows and n_phi/2 columns that prolong
        interpolates from, or None when n_theta is odd, n_phi is not a multiple
        of 4 (the half must stay even) or a half is below MIN_S2_*."""
        if self.n_theta % 2 or self.n_phi % 4:
            return None
        if self.n_theta // 2 < MIN_S2_THETA or self.n_phi // 2 < MIN_S2_PHI:
            return None
        return build_s2_grid(self.n_theta // 2, self.n_phi // 2)

    def prolong(self, coarse_values) -> np.ndarray:
        """A field on coarsened() interpolated to this grid: 4-point Lagrange,
        tensor product in theta and phi.

        In coarse index units fine row 2i sits at i - 1/4 and row 2i + 1 at
        i + 1/4, with weights (-5, 35, 105, -7)/128 and (-7, 105, 35, -5)/128;
        two ghost rows past each pole follow the antipodal rule.  Fine column
        2j is coarse column j and column 2j + 1 the periodic midpoint rule
        (-1, 9, 9, -1)/16.
        """
        nt, nphi = self.n_theta // 2, self.n_phi // 2
        c = _check_field(coarse_values, nt * nphi).reshape(nt, nphi)
        # g[r + 2] is coarse row r; row -1 - m is row m turned by pi in phi
        g = np.concatenate([np.roll(c[1::-1], nphi // 2, axis=1), c,
                            np.roll(c[:-3:-1], nphi // 2, axis=1)])
        w = np.array([-7.0, 105.0, 35.0, -5.0]) / 128.0
        rows = np.empty((2 * nt, nphi))
        rows[0::2] = sum(w[a] * g[3 - a:3 - a + nt] for a in range(4))
        rows[1::2] = sum(w[a] * g[1 + a:1 + a + nt] for a in range(4))
        fine = np.empty((2 * nt, 2 * nphi))
        fine[:, 0::2] = rows
        fine[:, 1::2] = (9.0 * (rows + np.roll(rows, -1, axis=1))
                         - np.roll(rows, 1, axis=1) - np.roll(rows, -2, axis=1)) / 16.0
        return fine.reshape(-1)


class _FrameJacobian:
    """J = sum_r diag(partials[r]) D_r applied without assembling it, as
    J @ w = sum_r partials[r] (D_r w), from the grid's frame jets of w."""

    def __init__(self, grid, partials):
        self.grid, self.partials = grid, partials

    def __matmul__(self, w):
        return np.einsum("rn,rn->n", self.partials, self.grid.frame_jets(w))


class _Stencil(NamedTuple):
    """A frame row of the 2-D grid, entries in stored order: ring and column
    offsets (k,), weights (n_theta, k) by ring, and the columns and weights
    (E, k) of the edge rows (SphereGrid2D._edge), which may differ."""

    di: np.ndarray
    dj: np.ndarray
    weights: np.ndarray
    edge_cols: np.ndarray
    edge_weights: np.ndarray


class _RingKrylov:
    """The held solver of J_u = J diag(rho) on the 2-D grid.

    solve runs GMRES (see _gmres) on the product J_u w = J (rho w),
    preconditioned with M, J_u with its partials and rho averaged over each
    theta ring.  Every stencil weight depends only on the ring, and a pole
    crossing shifts phi by pi, so M commutes with shifts in phi: it is
    block-diagonal in the rfft modes of phi, one tridiagonal theta system per
    mode, as in the fast Poisson solvers on the sphere (Swarztrauber 1974).
    Its entries are the ring symbols (SphereGrid2D._ring_symbols) weighted by
    the ring-mean partials and rho.  _TridiagonalLU factors all blocks at
    once, an (n_theta, n_modes) batch that the rfft of a field's rings feeds
    directly; the factor and the product serve every later solve, chord
    steps included.  For a field and partials constant on every ring M is
    J_u, and GMRES ends after one iteration.  The held solver references no
    bound method of its own, so it is freed without the cycle collector.
    """

    def __init__(self, J, rho, n_theta, n_phi, symbols):
        self.J, self.rho, self.shape = J, rho, (n_theta, n_phi)
        weights, phases = symbols
        partials = J.partials.reshape(6, n_theta, n_phi).mean(axis=2)
        ring_rho = np.pad(rho.reshape(n_theta, n_phi).mean(axis=1), 1)
        ring_weights = np.einsum("ri,rikc->ikc", partials, weights) * np.stack(
            [ring_rho[:-2], ring_rho[1:-1], ring_rho[2:]], axis=1)[:, :, None]
        bands = (ring_weights.reshape(-1, phases.shape[0]) @ phases).reshape(n_theta, 3, -1)
        self.factor = _TridiagonalLU(bands.transpose(1, 0, 2))
        self.iterations = 0

    def precondition(self, r):
        """M^{-1} r: rfft in phi, the mode blocks' factor, irfft."""
        n_theta, n_phi = self.shape
        modes = self.factor.solve(np.fft.rfft(r.reshape(n_theta, n_phi), axis=1))
        return np.fft.irfft(modes, n=n_phi, axis=1).reshape(-1)

    def apply(self, w):
        """J_u w."""
        return self.J @ (self.rho * w)

    def solve(self, b):
        x, self.iterations = _gmres(self.apply, self.precondition, b)
        return x


def _abs1(z):
    """|Re z| + |Im z|, the modulus by which zgttrf (and SuperLU) rank pivots."""
    return np.abs(z.real) + np.abs(z.imag)


class _TridiagonalLU:
    """The LU factors of a batch of m tridiagonal n x n systems, with the row
    partial pivoting of LAPACK's ?gttrf (Anderson et al., LAPACK Users'
    Guide): at column i, rows i and i + 1 trade places where the entry below
    the pivot is the larger by _abs1, and the row that moves up brings its
    A[i, i+2] fill as a second superdiagonal.

    bands is (3, n, m), system j in column j: bands[0, i] = A[i, i-1],
    bands[1, i] = A[i, i] and bands[2, i] = A[i, i+1]; bands[0, 0] and
    bands[2, n-1] are not read.  The factor and each solve are one Python
    loop over the n rows, vectorized over the systems.  An exactly zero pivot
    raises RuntimeError, as splu does, and never a floating-point warning.
    """

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def __init__(self, bands):
        lower, diag, upper = (np.array(band, dtype=complex) for band in bands)
        n = diag.shape[0]
        upper[-1] = 0.0
        below = _abs1(lower)
        # per row i: the systems that swap rows i and i + 1, and their fill
        self.swaps = np.zeros((n - 1,) + diag.shape[1:], dtype=bool)
        self.fill = np.zeros_like(upper[1:])
        for i in range(n - 1):
            swap = self.swaps[i] = below[i + 1] > _abs1(diag[i])
            pivot = np.where(swap, lower[i + 1], diag[i])
            lower[i + 1] = np.where(swap, diag[i], lower[i + 1]) / pivot
            kept = np.where(swap, diag[i + 1], upper[i])
            diag[i + 1] = np.where(swap, upper[i], diag[i + 1]) - lower[i + 1] * kept
            diag[i], upper[i] = pivot, kept
            self.fill[i] = np.where(swap, upper[i + 1], 0.0)
            upper[i + 1] = np.where(swap, -lower[i + 1] * upper[i + 1], upper[i + 1])
        if not diag.all():
            raise RuntimeError("Factor is exactly singular")
        # U is kept scaled by its pivots: solve divides the forward result by
        # them in one product, and each back row subtracts (U_ij / U_ii) x_j
        self.inverse = 1.0 / diag
        self.multipliers, self.upper = lower[1:], upper * self.inverse
        self.fill *= self.inverse[:-1]

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def solve(self, b):
        """A^{-1} b for b (n, m), column j solved with system j."""
        n = len(self.inverse)
        x = np.zeros((n + 1, b.shape[1]), dtype=complex)
        x[:n] = b
        rows = list(x)
        for i, (swap, multiplier) in enumerate(zip(self.swaps, self.multipliers)):
            top, bottom = rows[i], rows[i + 1]
            top[...], bottom[...] = np.where(swap, bottom, top), np.where(swap, top, bottom)
            bottom -= multiplier * top
        x[:n] *= self.inverse
        for i in range(n - 2, -1, -1):
            rows[i] -= self.upper[i] * rows[i + 1]
            rows[i] -= self.fill[i] * rows[i + 2]
        return x[:n]


def _gmres(apply, precondition, b):
    """(x, iterations): GMRES from x = 0 (Saad & Schultz 1986), unrestarted,
    for A x = b with A = apply and M^{-1} = precondition on the right, so that
    it minimizes the true residual ||b - A x||_2 and stops when that is at
    most _KRYLOV_RTOL ||b||_2, or after _KRYLOV_MAXITER iterations.  Raises
    RuntimeError when A M^{-1} annihilates a Krylov vector, or on a NaN."""
    beta = np.linalg.norm(b)
    basis, preconditioned = [b / beta], []
    H, g = np.zeros((_KRYLOV_MAXITER + 1, _KRYLOV_MAXITER)), np.zeros(_KRYLOV_MAXITER + 1)
    cos, sin = np.zeros(_KRYLOV_MAXITER), np.zeros(_KRYLOV_MAXITER)
    g[0] = beta
    for k in range(_KRYLOV_MAXITER):
        preconditioned.append(precondition(basis[k]))
        w = apply(preconditioned[k])
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            H[i, k] = v @ w
            w -= H[i, k] * v
        h = np.linalg.norm(w)
        for i in range(k):  # the earlier Givens rotations
            H[i, k], H[i + 1, k] = (cos[i] * H[i, k] + sin[i] * H[i + 1, k],
                                    cos[i] * H[i + 1, k] - sin[i] * H[i, k])
        r = math.hypot(H[k, k], h)
        if not r > 0.0:
            raise RuntimeError(f"GMRES breakdown at iteration {k + 1}")
        cos[k], sin[k], H[k, k] = H[k, k] / r, h / r, r
        g[k + 1], g[k] = -sin[k] * g[k], cos[k] * g[k]
        if abs(g[k + 1]) <= _KRYLOV_RTOL * beta or k + 1 == _KRYLOV_MAXITER:
            break
        basis.append(w / h)
    y = np.linalg.solve(np.triu(H[:k + 1, :k + 1]), g[:k + 1])
    return y @ np.array(preconditioned), k + 1


def build_axisym_grid(N: int) -> AxisymGrid:
    if N < MIN_AXISYM_NODES:
        raise TooCoarse(f"axisymmetric grid needs N >= {MIN_AXISYM_NODES}, got {N}")
    theta = np.linspace(0.0, math.pi, N)
    return AxisymGrid(node_count=N, theta=theta, spacing=math.pi / (N - 1))


def build_s2_grid(n_theta: int, n_phi: int) -> SphereGrid2D:
    if n_theta < MIN_S2_THETA or n_phi < MIN_S2_PHI:
        raise TooCoarse(
            f"sphere grid needs n_theta >= {MIN_S2_THETA} and n_phi >= {MIN_S2_PHI}, "
            f"got ({n_theta}, {n_phi})"
        )
    if n_phi % 2 != 0:
        raise TooCoarse(f"n_phi must be even for antipodal pole stencils, got {n_phi}")
    dtheta = math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dtheta
    dphi = 2.0 * math.pi / n_phi
    phi = np.arange(n_phi) * dphi
    return SphereGrid2D(
        n_theta=n_theta, n_phi=n_phi, theta=theta, phi=phi, dtheta=dtheta, dphi=dphi
    )


def jet_arrays(field_values, grid, n: int):
    """Frame jets (6, N) of a nodal field on S^n, indexed by frame row, on
    either grid: the grid's jet operator applied to it."""
    grid.check_dimension(n)
    return grid.frame_jets(_check_field(field_values, grid.node_count))
