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
symmetric similar matrix S = g^{-1/2} h g^{-1/2} so they stay real.

Both grids hand the solver *reduced* frame jets: rho (N,), D rho (N, 2) and
D^2 rho (N, 2, 2) in a frame (e_1, e_2).  On the 2-sphere that is the whole
jet.  On the axisymmetric grid e_1 is the meridian and e_2 stands for all n-1
orbit directions, which are orthogonal to D rho, carry no cross terms and
share one Hessian entry, so each has the principal curvature s_22.

`geometry_batch` is the closed form on that frame, with no matrix products
and no eigen-decomposition: g^{-1/2} = (I + (1/v - 1) what what^T)/rho with
what = D rho / |D rho|, so S has three scalar entries, and its eigenvalues
tr S/2 -/+ hypot(d, s_12), d = (s_11 - s_22)/2, are evaluated as the smaller
diagonal entry minus, and the larger plus, s_12^2 / (hypot(d, s_12) + |d|).
That form has no cancellation and is exact when S is diagonal, as on zonal
jets, so it gives the values a dense diagonalization gives there.
`assemble_point_geometry` diagonalizes S densely for a full n-dimensional
jet; it is the general-n oracle the closed form is tested against, and no
solve uses it.
"""

from __future__ import annotations

import math
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

# floor for divisors whose numerators vanish with them
_TINY = np.finfo(float).tiny


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
    """Vectorized geometry over a batch of reduced frame jets (solver hot path).

    Each row of `kappa` is ascending: the smaller frame curvature, for n > 2
    the orbit curvature n - 2 times, then the larger one.  `eta` is the
    ascending H - kappa.  `nu_tangent` holds the normal's (e_1, e_2)
    components; it has none along the other orbit directions.
    """

    v: np.ndarray            # (N,)
    u: np.ndarray            # (N,)
    nu_radial: np.ndarray    # (N,)
    nu_tangent: np.ndarray   # (N, 2)
    H: np.ndarray            # (N,)
    kappa: np.ndarray        # (N, n)
    eta: np.ndarray          # (N, n)
    grad_norm: np.ndarray    # (N,)


def _check_jet(rho, grad, hess):
    if not (rho.min() > 0.0 and rho.max() < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(rho), rho, -np.inf)))
        raise DegenerateJet(f"rho must be positive and finite (node {bad})")
    if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise DegenerateJet("jet entries must be finite")


def geometry_batch(rho: np.ndarray, grad: np.ndarray, hess: np.ndarray, n: int) -> GeometryBatch:
    """Closed-form geometry in dimension n for (N,), (N, 2), (N, 2, 2) reduced
    frame jets; see the module docstring.  For n > 2 the jets must be zonal,
    grad_2 = hess_12 = 0, as the axisymmetric grid's are."""
    rho = np.asarray(rho, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    if grad.shape[1:] != (2,) or hess.shape[1:] != (2, 2):
        raise ValueError("reduced frame jets must have shapes (N, 2) and (N, 2, 2)")
    _check_jet(rho, grad, hess)

    r1, r2 = grad[:, 0], grad[:, 1]
    r11, r12, r22 = r1 * r1, r1 * r2, r2 * r2
    grad_norm2 = r11 + r22
    v = np.sqrt(1.0 + grad_norm2 / rho**2)
    if not v.max() < np.inf:
        raise DegenerateJet("v is not finite")
    inv_v = 1.0 / v

    # h = (-hess + rho I + (2/rho) grad grad^T) / v
    two_over_rho = 2.0 / rho
    h11 = (rho - hess[:, 0, 0] + two_over_rho * r11) / v
    h12 = (two_over_rho * r12 - hess[:, 0, 1]) / v
    h22 = (rho - hess[:, 1, 1] + two_over_rho * r22) / v

    # P = g^{-1/2} = (I + (1/v - 1) what what^T) / rho, what = grad / |grad|;
    # where grad vanishes, what = 0 and 1/v - 1 is exactly 0
    gnorm = np.sqrt(grad_norm2)
    safe = np.maximum(gnorm, _TINY)
    w1, w2 = r1 / safe, r2 / safe
    coeff = inv_v - 1.0
    p11 = (1.0 + coeff * (w1 * w1)) / rho
    p12 = coeff * (w1 * w2) / rho
    p22 = (1.0 + coeff * (w2 * w2)) / rho

    # S = P h P
    a11, a12 = h11 * p11 + h12 * p12, h11 * p12 + h12 * p22
    a21, a22 = h12 * p11 + h22 * p12, h12 * p12 + h22 * p22
    s11 = p11 * a11 + p12 * a21
    s12 = p11 * a12 + p12 * a22
    s22 = p12 * a12 + p22 * a22

    # eigenvalues of S, exact when S is diagonal; see the module docstring
    half_gap = 0.5 * (s11 - s22)
    s12_sq = s12 * s12
    denom = np.sqrt(half_gap * half_gap + s12_sq) + np.abs(half_gap)
    shift = s12_sq / np.maximum(denom, _TINY)
    kappa = np.empty((rho.size, n))
    kappa[:, 0] = np.minimum(s11, s22) - shift
    kappa[:, -1] = np.maximum(s11, s22) + shift
    kappa[:, 1:-1] = s22[:, None]
    H = kappa.sum(axis=1)
    eta = (H[:, None] - kappa)[:, ::-1]

    return GeometryBatch(
        v=v,
        u=rho / v,
        nu_radial=inv_v,
        nu_tangent=-grad / (v * rho)[:, None],
        H=H,
        kappa=kappa,
        eta=eta,
        grad_norm=gnorm,
    )


def assemble_point_geometry(jet: PointJet, n: int) -> PointGeometry:
    """Geometry at a single point from a full n-dimensional jet, by dense
    diagonalization; see the module docstring for the formulas."""
    grad = np.asarray(jet.grad, dtype=float).reshape(-1)
    hess = np.asarray(jet.hess, dtype=float)
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if grad.shape != (n,) or hess.shape != (n, n):
        raise ValueError(f"jet arrays must have shapes ({n},) and ({n},{n})")
    asym = np.abs(hess - hess.T).max()
    if asym > 1e-13 * max(1.0, np.abs(hess).max()):
        raise ValueError(f"hessian not symmetric (asymmetry {asym:.3e})")
    rho = float(jet.rho)
    _check_jet(np.array([rho]), grad, hess)

    grad_norm2 = float(grad @ grad)
    v = math.sqrt(1.0 + grad_norm2 / rho**2)
    if not math.isfinite(v):
        raise DegenerateJet("v is not finite")
    eye = np.eye(n)
    h = (-hess + rho * eye + (2.0 / rho) * np.outer(grad, grad)) / v
    gnorm = math.sqrt(grad_norm2)
    what = grad / gnorm if gnorm > 0.0 else np.zeros(n)
    g_isqrt = (eye + (1.0 / v - 1.0) * np.outer(what, what)) / rho
    kappa = np.linalg.eigvalsh(g_isqrt @ h @ g_isqrt)
    H = float(kappa.sum())
    nu = np.concatenate(([1.0 / v], -grad / (v * rho)))
    return PointGeometry(
        v=v,
        u=rho / v,
        nu=nu,
        H=H,
        kappa=kappa,
        eta_spectrum=(H - kappa)[::-1],
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
