"""Sphere discretizations producing pointwise jets of scalar fields.

Two grids are provided: a 1-D colatitude grid on [0, pi] for axisymmetric
fields in any dimension, and a full latitude-longitude grid on the 2-sphere.
Each grid builds its 2nd-order central-difference stencils once, as sparse
matrices stacked into one jet operator whose rows already carry the frame's
node-wise coefficients, so the frame jets of a field, rho and its covariant
gradient and Hessian in two frame directions, are a single product
`jet_operator @ rho`, returned as one (6, N) array indexed by frame row (see
jet_arrays).  The stencil weights are the only place the discretization
lives.  Jets are linear in rho, so the same operator also serves the solver's
Jacobian (see linearize).  The axisymmetric grid includes the poles and closes
stencils by even reflection (rho(-theta) = rho(theta)); the 2-D grid offsets
nodes half a spacing off the poles and closes stencils with the antipodal rule
(crossing a pole lands at phi + pi).

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

import numpy as np
import scipy.sparse

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


def _check_field(field_values, count: int) -> np.ndarray:
    f = np.asarray(field_values, dtype=float).reshape(-1)
    if f.size != count:
        raise SizeMismatch(f"field has {f.size} values, grid has {count} nodes")
    return f


def _stencil(columns, weights: dict, count: int):
    """Sparse (count, count) matrix with, for each offset, its weight at
    column columns(offset)[row] of every row; coinciding columns add up."""
    rows = np.tile(np.arange(count), len(weights))
    cols = np.concatenate([columns(offset) for offset in weights])
    vals = np.repeat(np.fromiter(weights.values(), dtype=float), count)
    op = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(count, count))
    op.eliminate_zeros()
    return op


class _StencilGrid:
    """Frame jets and their linearization from a grid's stacked jet operator.

    Frame jets are one (6, N) array indexed by frame row: 0 rho, 1 grad_1,
    2 grad_2, 3 hess_11, 4 hess_12 (which is also hess_21) and 5 hess_22.
    A grid provides `node_count`, `frame_rows` (the frame rows its operator
    makes, 0 first; the others are 0 for every field), `jet_operator` (one
    (N, N) sparse block D_r per frame row r, stacked in that order, with D_0
    the identity) and `check_dimension(n)`, which raises ValueError unless the
    grid discretizes S^n.  For output it provides `columns` and `angles()`,
    the CSV coordinate names and the (N, len(columns)) node coordinates, and
    `surface_rings(rho)`, the surface points X = rho x as (R, M, 3) rings from
    north to south plus the (2, 3) north and south pole points.
    `coarsened()` is the next coarser grid of a sequenced solve, or None.
    """

    def linearize(self, partials):
        """CSR matrix of w -> sum_r partials[r] j_r(w), for node-wise partials
        (6, N) over the frame rows: diag(partials[r]) D_r summed over the rows
        the grid makes.  hess_12 and hess_21 are one row, so partials[4] is
        the partial over both together.

        The values fill a pattern built once per grid, so no per-call sparse
        products or sums are formed.
        """
        op = self.jet_operator
        pos, indices, indptr = self._linear_layout
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        weights = partials[list(self.frame_rows)].reshape(-1)
        data = np.bincount(pos, weights=weights[rows] * op.data, minlength=indices.size)
        n = self.node_count
        return scipy.sparse.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))

    @property
    def gradient_rows(self) -> tuple:
        """The gradient rows (1 grad_1, 2 grad_2) that the operator makes; the
        others are 0 for every field."""
        return tuple(r for r in self.frame_rows if r in (1, 2))

    @cached_property
    def _linear_layout(self):
        """(pos, indices, indptr): the CSR pattern of the sum of every D_r, and
        the position in it of each jet-operator entry."""
        n = self.node_count
        op = self.jet_operator.tocoo()
        # int64 keys: scipy's int32 indices would wrap once n * n >= 2**31
        entries = (op.row % n).astype(np.int64) * n + op.col
        # not np.unique: it hashes integer keys, about 3x slower here than a sort
        keys = np.sort(entries)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        pos = np.searchsorted(keys, entries)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return pos.astype(np.int32), (keys % n).astype(np.int32), indptr.astype(np.int32)


def _identity(count: int):
    """The (count, count) D_0 block.  CSR like the other blocks, so that vstack
    concatenates them as they are; a block in another format makes it rebuild
    the whole operator, reordering each row's entries and so the order of the
    stencil sums."""
    return scipy.sparse.identity(count, format="csr")


@dataclass
class AxisymGrid(_StencilGrid):
    """Uniform colatitude nodes theta_m = m pi/(N-1), m = 0..N-1, poles included."""

    node_count: int
    theta: np.ndarray
    spacing: float
    _frame_cache: dict = field(default_factory=dict, repr=False, compare=False)
    columns = ("theta",)
    frame_rows = (0, 1, 3, 5)

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
        direction; the normal has no component along the others."""
        self.check_dimension(n)
        if n not in self._frame_cache:
            N = self.node_count
            pos = np.zeros((N, n + 1))
            pos[:, 0] = np.cos(self.theta)
            pos[:, 1] = np.sin(self.theta)
            frm = np.zeros((N, 2, n + 1))
            frm[:, 0, 0] = -np.sin(self.theta)
            frm[:, 0, 1] = np.cos(self.theta)
            frm[:, 1, 2] = 1.0
            self._frame_cache[n] = (pos, frm)
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
        """
        N, dt = self.node_count, self.spacing

        def columns(offset):
            m = np.arange(N) + offset
            return np.where(m < 0, -m, np.where(m >= N, 2 * (N - 1) - m, m))

        d1 = _stencil(columns, {-1: -0.5 / dt, 1: 0.5 / dt}, N)
        d2 = _stencil(columns, {-1: dt**-2, 0: -2.0 * dt**-2, 1: dt**-2}, N)
        cot = np.zeros(N)
        cot[1:-1] = 1.0 / np.tan(self.theta[1:-1])
        poles = np.zeros(N)
        poles[[0, -1]] = 1.0
        orbit = scipy.sparse.diags(cot) @ d1 + scipy.sparse.diags(poles) @ d2
        orbit.eliminate_zeros()
        return scipy.sparse.vstack([_identity(N), d1, d2, orbit], format="csr")

    def coarsened(self):
        """None: the axisymmetric grid is not halved (see the module docstring)."""
        return None


@dataclass
class SphereGrid2D(_StencilGrid):
    """Pole-offset latitude-longitude grid: theta_i = (i + 1/2) pi / n_theta."""

    n_theta: int
    n_phi: int
    theta: np.ndarray
    phi: np.ndarray
    dtheta: float
    dphi: float
    columns = ("theta", "phi")
    frame_rows = (0, 1, 2, 3, 4, 5)

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
        d/dtheta and (1/sin t) d/dphi."""
        self.check_dimension(n)
        return self._node_frames

    @cached_property
    def _node_frames(self):
        tt, pp = np.meshgrid(self.theta, self.phi, indexing="ij")
        st, ct = np.sin(tt), np.cos(tt)
        sp, cp = np.sin(pp), np.cos(pp)
        pos = np.stack([ct, st * cp, st * sp], axis=-1).reshape(-1, 3)
        e_t = np.stack([-st, ct * cp, ct * sp], axis=-1)
        e_p = np.stack([np.zeros_like(sp), -sp, cp], axis=-1)
        frm = np.stack([e_t, e_p], axis=-2).reshape(-1, 2, 3)
        return pos, frm

    def quadrature_weights(self, n: int) -> np.ndarray:
        self.check_dimension(n)
        return np.repeat(np.sin(self.theta) * self.dtheta * self.dphi, self.n_phi)

    @cached_property
    def jet_operator(self):
        """Frame rows rho and, from the partials r_t, r_p, r_tt, r_tp, r_pp
        (periodic in phi, crossing the poles by the antipodal rule), the rest.

        In the frame e_1 = d/dtheta, e_2 = (1/sin t) d/dphi the gradient and
        covariant Hessian of a scalar are
            grad_1 = r_t                    grad_2 = r_p / sin t
            hess_11 = r_tt                  hess_12 = (r_tp - cot t r_p) / sin t
            hess_22 = r_pp / sin^2 t + cot t r_t
        """
        nt, nphi, dt, dp = self.n_theta, self.n_phi, self.dtheta, self.dphi
        i = np.repeat(np.arange(nt), nphi)
        j = np.tile(np.arange(nphi), nt)

        def columns(offset):
            ii, jj = i + offset[0], j + offset[1]
            crossed = (ii < 0) | (ii >= nt)
            jj = np.where(crossed, jj + nphi // 2, jj) % nphi
            return np.clip(ii, 0, nt - 1) * nphi + jj

        c = 0.25 / (dt * dp)
        stencils = (
            {(-1, 0): -0.5 / dt, (1, 0): 0.5 / dt},
            {(0, -1): -0.5 / dp, (0, 1): 0.5 / dp},
            {(-1, 0): dt**-2, (0, 0): -2.0 * dt**-2, (1, 0): dt**-2},
            {(-1, -1): c, (-1, 1): -c, (1, -1): -c, (1, 1): c},
            {(0, -1): dp**-2, (0, 0): -2.0 * dp**-2, (0, 1): dp**-2},
        )
        r_t, r_p, r_tt, r_tp, r_pp = (
            _stencil(columns, weights, self.node_count) for weights in stencils)
        st = np.repeat(np.sin(self.theta), nphi)
        cot = scipy.sparse.diags(np.repeat(np.cos(self.theta), nphi) / st)
        inv_st = scipy.sparse.diags(1.0 / st)
        rows = (_identity(self.node_count), r_t, inv_st @ r_p, r_tt, inv_st @ (r_tp - cot @ r_p),
                scipy.sparse.diags(st**-2) @ r_pp + cot @ r_t)
        return scipy.sparse.vstack(rows, format="csr")

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
    either grid: the grid's jet operator applied to it, with zeros in the rows
    the grid does not make."""
    grid.check_dimension(n)
    rho = _check_field(field_values, grid.node_count)
    jets = np.zeros((6, rho.size))
    jets[list(grid.frame_rows)] = (grid.jet_operator @ rho).reshape(-1, rho.size)
    return jets
