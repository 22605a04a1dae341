"""Sphere discretizations producing pointwise jets of scalar fields.

Two grids are provided: a 1-D colatitude grid on [0, pi] for axisymmetric
fields in any dimension, and a full latitude-longitude grid on the 2-sphere.
Each grid builds its 2nd-order central-difference stencils once, as sparse
matrices stacked into one jet operator, so the raw partials of a field are a
single product `jet_operator @ rho`; the grid's frame then combines them into
the covariant gradient and Hessian.  Jets are linear in rho, so the same
operator also serves the solver's Jacobian.  The axisymmetric grid includes
the poles and closes stencils by even reflection (rho(-theta) = rho(theta));
the 2-D grid offsets nodes half a spacing off the poles and closes stencils
with the antipodal rule (crossing a pole lands at phi + pi).

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
    "field_norms",
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
    """Jets and their linearization from a grid's stacked jet operator.

    A grid provides `node_count`, `jet_operator` (the raw partials D_1..D_A
    stacked into an (A N, N) sparse matrix) and `frame_jets`.  Row 0 of a
    raw-jet array is rho itself, rows 1..A are D_a @ rho.  For output it
    provides `columns` and `angles()`, the CSV coordinate names and the
    (N, len(columns)) node coordinates, and `surface_rings(rho)`, the surface
    points X = rho x as (R, M, 3) rings from north to south plus the
    (2, 3) north and south pole points.
    """

    def raw_jets(self, field_values) -> np.ndarray:
        """(A + 1, N) array: the field, then each stencil partial of it."""
        f = _check_field(field_values, self.node_count)
        return np.vstack([f, (self.jet_operator @ f).reshape(-1, f.size)])

    def linearize(self, partials: np.ndarray):
        """CSR matrix sum_a diag(partials[a]) D_a, where D_0 is the identity.

        The values fill a pattern built once per grid, so no per-call sparse
        products or sums are formed.
        """
        op = self.jet_operator
        pos, indices, indptr = self._linear_layout
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        vals = np.concatenate([partials[0], partials[1:].ravel()[rows] * op.data])
        data = np.bincount(pos, weights=vals, minlength=indices.size)
        n = self.node_count
        return scipy.sparse.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))

    @cached_property
    def _linear_layout(self):
        """(pos, indices, indptr): the CSR pattern of the identity plus every
        D_a, and the position in it of each identity and jet-operator entry."""
        n = self.node_count
        op = self.jet_operator.tocoo()
        node = np.concatenate([np.arange(n), op.row % n])
        col = np.concatenate([np.arange(n), op.col])
        keys, pos = np.unique(node * n + col, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return pos.astype(np.int32), (keys % n).astype(np.int32), indptr.astype(np.int32)


@dataclass
class AxisymGrid(_StencilGrid):
    """Uniform colatitude nodes theta_m = m pi/(N-1), m = 0..N-1, poles included."""

    node_count: int
    theta: np.ndarray
    spacing: float
    _frame_cache: dict = field(default_factory=dict, repr=False, compare=False)
    columns = ("theta",)

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

    def node_frames(self, n: int):
        """Meridian points (cos t, sin t, 0, ...) of S^n in R^{n+1}, shape (N, n+1),
        and orthonormal tangent frames, shape (N, n, n+1); row 0 is d/dtheta."""
        if n not in self._frame_cache:
            N = self.node_count
            pos = np.zeros((N, n + 1))
            pos[:, 0] = np.cos(self.theta)
            pos[:, 1] = np.sin(self.theta)
            frm = np.zeros((N, n, n + 1))
            frm[:, 0, 0] = -np.sin(self.theta)
            frm[:, 0, 1] = np.cos(self.theta)
            for j in range(1, n):
                frm[:, j, j + 1] = 1.0
            self._frame_cache[n] = (pos, frm)
        return self._frame_cache[n]

    def quadrature_weights(self, n: int) -> np.ndarray:
        # area of S^{n-1} times the colatitude measure; trapezoidal ends
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        w = np.sin(self.theta) ** (n - 1) * self.spacing * area
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def jet_operator(self):
        """d/dtheta, d^2/dtheta^2 and the orbit term cot(theta) d/dtheta, whose
        pole rows take its limit d^2/dtheta^2, under even reflection."""
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
        return scipy.sparse.vstack([d1, d2, orbit], format="csr")

    @staticmethod
    def frame_jets(jets: np.ndarray, n: int):
        """(rho, grad, hess) for a zonal field from its raw jets (rho, d1, d2, orbit).

        Frame: row 0 is the meridian direction, rows 1..n-1 span the orbit
        directions where the covariant Hessian of a zonal field is the orbit term.
        It reads no grid state, so analytic zonal jets use it too.
        """
        if n < 2:
            raise ValueError(f"dimension n must be >= 2, got {n}")
        rho, d1, d2, orbit = jets
        grad = np.zeros((rho.size, n))
        grad[:, 0] = d1
        hess = np.zeros((rho.size, n, n))
        hess[:, 0, 0] = d2
        for j in range(1, n):
            hess[:, j, j] = orbit
        return rho, grad, hess


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

    def node_frames(self, n: int):
        """Node positions (N, 3) and orthonormal frames (N, 2, 3) whose rows are
        d/dtheta and (1/sin t) d/dphi."""
        if n != 2:
            raise ValueError(f"the 2-sphere grid requires n = 2, got n = {n}")
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
        return np.repeat(np.sin(self.theta) * self.dtheta * self.dphi, self.n_phi)

    @cached_property
    def jet_operator(self):
        """Partials r_t, r_p, r_tt, r_tp, r_pp: periodic in phi, crossing the
        poles by the antipodal rule."""
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
        ops = [_stencil(columns, weights, self.node_count) for weights in stencils]
        return scipy.sparse.vstack(ops, format="csr")

    def frame_jets(self, jets: np.ndarray, n: int):
        """(rho, grad, hess) from the raw jets (rho, r_t, r_p, r_tt, r_tp, r_pp).

        In the frame e_1 = d/dtheta, e_2 = (1/sin t) d/dphi the covariant
        Hessian of a scalar is
            hess_11 = r_tt
            hess_12 = (r_tp - cot t r_p) / sin t
            hess_22 = r_pp / sin^2 t + cot t r_t
        """
        if n != 2:
            raise ValueError(f"the 2-sphere grid requires n = 2, got n = {n}")
        rho, r_t, r_p, r_tt, r_tp, r_pp = jets
        st = np.repeat(np.sin(self.theta), self.n_phi)
        cot = np.repeat(np.cos(self.theta), self.n_phi) / st
        grad = np.stack([r_t, r_p / st], axis=-1)
        h12 = (r_tp - cot * r_p) / st
        h22 = r_pp / st**2 + cot * r_t
        hess = np.stack([np.stack([r_tt, h12], axis=-1), np.stack([h12, h22], axis=-1)], axis=-2)
        return rho, grad, hess


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
    """(rho, grad, hess) arrays of a nodal field in the grid's orthonormal frame."""
    return grid.frame_jets(grid.raw_jets(field_values), n)


def field_norms(field_values, grid, n: int = 2):
    """(sup, quadrature-weighted L2) norms of a nodal field."""
    w = grid.quadrature_weights(n)
    f = _check_field(field_values, w.size)
    sup = float(np.abs(f).max())
    l2 = float(math.sqrt(float(np.sum(w * f**2))))
    return sup, l2
