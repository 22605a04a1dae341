"""Pointwise geometry of radial graphs over the round sphere.

A star-shaped hypersurface is X(x) = rho(x) x for x on the unit sphere.  Given
the jet (rho, D rho, D^2 rho) at a point, expressed in an orthonormal frame of
the round metric, this module produces the derived state: normal, induced
metric data, principal curvatures kappa, and the spectrum of the
curvature-difference tensor eta = H g - h whose eigenvalues are
lam_i = H - kappa_i.

The normal is reported in the local basis (radial, e_1, ..., e_n); grids know
their frame embeddings and map it to ambient coordinates when needed.

Formulas (orthonormal frame, sigma_ij = delta_ij):
    v    = sqrt(1 + |D rho|^2 / rho^2)
    g_ij = rho^2 delta_ij + D_i rho D_j rho
    h_ij = (1/v) (-D_i D_j rho + rho delta_ij + (2/rho) D_i rho D_j rho)
    u    = <X, nu> = rho / v
Principal curvatures are the eigenvalues of g^{-1} h, computed from the
symmetric similar matrix g^{-1/2} h g^{-1/2} so they stay real numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJet

__all__ = [
    "PointJet",
    "PointGeometry",
    "GeometryBatch",
    "assemble_point_geometry",
    "geometry_batch",
    "sphere_closed_form",
]


@dataclass
class PointJet:
    """(rho, D rho, D^2 rho) at one sphere point, orthonormal round frame."""

    rho: float
    grad: np.ndarray
    hess: np.ndarray


@dataclass
class PointGeometry:
    """Derived state at a point.

    `nu` is the outward unit normal in the local basis (radial, e_1..e_n);
    `kappa` is ascending, `eta_spectrum` is the ascending sort of H - kappa.
    """

    v: float
    u: float
    nu: np.ndarray
    H: float
    kappa: np.ndarray
    eta_spectrum: np.ndarray


@dataclass
class GeometryBatch:
    """Vectorized geometry over a batch of points (solver hot path)."""

    rho: np.ndarray          # (N,)
    v: np.ndarray            # (N,)
    u: np.ndarray            # (N,)
    nu_radial: np.ndarray    # (N,)
    nu_tangent: np.ndarray   # (N, n)
    H: np.ndarray            # (N,)
    kappa: np.ndarray        # (N, n) ascending
    eta: np.ndarray          # (N, n) ascending
    grad_norm: np.ndarray    # (N,)


def geometry_batch(rho: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> GeometryBatch:
    """Assemble geometry for (N,), (N, n), (N, n, n) jet arrays."""
    rho = np.asarray(rho, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    nbatch, n = grad.shape

    if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
        bad = int(np.argmin(np.where(np.isfinite(rho), rho, -np.inf)))
        raise DegenerateJet(f"rho must be positive and finite (node {bad})")
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise DegenerateJet("jet entries must be finite")

    grad_norm2 = np.einsum("ij,ij->i", grad, grad)
    v = np.sqrt(1.0 + grad_norm2 / rho**2)
    if not np.all(np.isfinite(v)):
        raise DegenerateJet("v is not finite")
    u = rho / v

    eye = np.eye(n)
    outer = grad[:, :, None] * grad[:, None, :]
    h = (-hess + rho[:, None, None] * eye + (2.0 / rho)[:, None, None] * outer) / v[:, None, None]

    # g = rho^2 (I + w w^T) with w = grad/rho, so
    # g^{-1/2} = (1/rho) (I + (1/v - 1) what what^T)   (rank-one update)
    gnorm = np.sqrt(grad_norm2)
    safe = np.where(gnorm > 0.0, gnorm, 1.0)
    what = grad / safe[:, None]
    w_outer = what[:, :, None] * what[:, None, :]
    coeff = np.where(gnorm > 0.0, 1.0 / v - 1.0, 0.0)
    g_isqrt = (eye[None, :, :] + coeff[:, None, None] * w_outer) / rho[:, None, None]
    sym = g_isqrt @ h @ g_isqrt
    kappa = np.linalg.eigvalsh(sym)
    H = kappa.sum(axis=1)
    eta = (H[:, None] - kappa)[:, ::-1]

    nu_radial = 1.0 / v
    nu_tangent = -grad / (v * rho)[:, None]
    return GeometryBatch(
        rho=rho,
        v=v,
        u=u,
        nu_radial=nu_radial,
        nu_tangent=nu_tangent,
        H=H,
        kappa=kappa,
        eta=eta,
        grad_norm=gnorm,
    )


def assemble_point_geometry(jet: PointJet, n: int) -> PointGeometry:
    """Geometry at a single point; see the module docstring for the formulas."""
    grad = np.asarray(jet.grad, dtype=float).reshape(-1)
    hess = np.asarray(jet.hess, dtype=float)
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if grad.shape != (n,) or hess.shape != (n, n):
        raise ValueError(f"jet arrays must have shapes ({n},) and ({n},{n})")
    asym = np.abs(hess - hess.T).max()
    if asym > 1e-13 * max(1.0, np.abs(hess).max()):
        raise ValueError(f"hessian not symmetric (asymmetry {asym:.3e})")
    batch = geometry_batch(np.array([jet.rho]), grad[None, :], hess[None, :, :])
    nu = np.concatenate(([batch.nu_radial[0]], batch.nu_tangent[0]))
    return PointGeometry(
        v=float(batch.v[0]),
        u=float(batch.u[0]),
        nu=nu,
        H=float(batch.H[0]),
        kappa=batch.kappa[0],
        eta_spectrum=batch.eta[0],
    )


def sphere_closed_form(r: float, n: int) -> PointGeometry:
    """Exact round-sphere geometry of radius r (test oracle)."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    nu = np.zeros(n + 1)
    nu[0] = 1.0
    kappa = np.full(n, 1.0 / r)
    return PointGeometry(
        v=1.0,
        u=r,
        nu=nu,
        H=n / r,
        kappa=kappa,
        eta_spectrum=np.full(n, (n - 1) / r),
    )
