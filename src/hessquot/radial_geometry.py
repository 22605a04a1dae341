"""Pointwise geometry of radial graphs over the round sphere.

A star-shaped hypersurface is X(x) = rho(x) x for x on the unit sphere.  Given
the jet (rho, D rho, D^2 rho) at a point, expressed in an orthonormal frame of
the round metric, this module produces the derived state: normal, induced
metric data, principal curvatures kappa, and the spectrum of the
curvature-difference tensor eta = H g - h whose eigenvalues are
lam_i = H - kappa_i.

The normal nu = (1, -D rho / rho) / v is reported in the local basis (radial,
e_1, ..., e_n), by `local_normal` on frame jets; grids know their frame
embeddings and map it to ambient coordinates when needed.

Formulas (orthonormal frame, sigma_ij = delta_ij):
    v    = sqrt(1 + |D rho|^2 / rho^2)
    g_ij = rho^2 delta_ij + D_i rho D_j rho
    h_ij = (1/v) (-D_i D_j rho + rho delta_ij + (2/rho) D_i rho D_j rho)
    u    = <X, nu> = rho / v
Principal curvatures are the eigenvalues of g^{-1} h, computed from the
symmetric similar matrix S = g^{-1/2} h g^{-1/2} so they stay real.

Both grids hand the solver frame jets in a frame (e_1, e_2) as one (6, N)
array indexed by frame row: 0 rho, 1 D_1 rho, 2 D_2 rho, 3 D_11 rho,
4 D_12 rho = D_21 rho, 5 D_22 rho (see sphere_grid).  On the 2-sphere that is
the whole jet.  On the axisymmetric grid e_1 is the meridian and e_2 stands
for all n-1 orbit directions, which are orthogonal to D rho, carry no cross
terms and share one Hessian entry, so each has the principal curvature s_22.

`geometry_batch` is the closed form on that frame, with no matrix products
and no eigen-decomposition: g^{-1/2} = (I + (1/v - 1) what what^T)/rho with
what = D rho / |D rho|, so S has three scalar entries, and its eigenvalues
tr S/2 -/+ hypot(d, s_12), d = (s_11 - s_22)/2, are evaluated as the smaller
diagonal entry minus, and the larger plus, s_12^2 / (hypot(d, s_12) + |d|).
That form has no cancellation and is exact when S is diagonal, as on zonal
jets, so it gives the values a dense diagonalization gives there.

`geometry_first_variation` chains the partials of a function G of the eta
spectrum to the frame jets, for the solver's Jacobian.  With F_j = dG/dkappa_j
and Q the eigenvectors of S, the first variation of the spectrum of the
pencil (h, g), dkappa_j = e_j^T (dh - kappa_j dg) e_j with e_j = P q_j
(A. S. Lewis, Derivatives of spectral functions, Math. Oper. Res. 1996), gives
    dG = <A, dh> - <B, dg>,  A = P M P,  B = P K P,
    M = Q diag(F) Q^T,  K = Q diag(F kappa) Q^T,
where each orbit copy adds its F (times s_22 in K) at E_22.  Then
    dG/dhess  = -A / v, so the partial over row 4, D_12 = D_21, is -2 A_12 / v
    dG/drho   = (tr A - (2/rho^2) Drho.A.Drho)/v + <A, h> |Drho|^2/(rho^3 v^2) - 2 rho tr B
    dG/dDrho  = (4/(rho v)) A Drho - <A, h> Drho/(rho^2 v^2) - 2 B Drho.

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
    "geometry_first_variation",
    "local_normal",
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
    """Vectorized geometry over a batch of frame jets (solver hot path).

    Each row of `kappa` is ascending: the smaller frame curvature, for n > 2
    the orbit curvature n - 2 times, then the larger one.  `eta` is the
    ascending H - kappa.  The symmetric 2x2 fields h, P = g^{-1/2} and
    S = P h P are kept as their (11, 12, 22) entries for
    geometry_first_variation.
    """

    v: np.ndarray            # (N,)
    u: np.ndarray            # (N,)
    H: np.ndarray            # (N,)
    kappa: np.ndarray        # (N, n)
    eta: np.ndarray          # (N, n)
    grad_norm: np.ndarray    # (N,)
    h: tuple                 # 3 x (N,)
    g_isqrt: tuple           # 3 x (N,)
    S: tuple                 # 3 x (N,)


def _congruence(p, m):
    """P M P for symmetric 2x2 fields given as their (11, 12, 22) entries."""
    p11, p12, p22 = p
    m11, m12, m22 = m
    a11, a12 = m11 * p11 + m12 * p12, m11 * p12 + m12 * p22
    a21, a22 = m12 * p11 + m22 * p12, m12 * p12 + m22 * p22
    return p11 * a11 + p12 * a21, p11 * a12 + p12 * a22, p12 * a12 + p22 * a22


def _check_jet(rho, *derivatives):
    if not (rho.min() > 0.0 and rho.max() < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(rho), rho, -np.inf)))
        raise DegenerateJet(f"rho must be positive and finite (node {bad})")
    if not all(np.isfinite(d).all() for d in derivatives):
        raise DegenerateJet("jet entries must be finite")


def geometry_batch(jets: np.ndarray, n: int) -> GeometryBatch:
    """Closed-form geometry in dimension n for (6, N) frame jets; see the
    module docstring.  For n > 2 the jets must be zonal, grad_2 = hess_12 = 0,
    as the axisymmetric grid's are."""
    jets = np.asarray(jets, dtype=float)
    if jets.ndim != 2 or jets.shape[0] != 6:
        raise ValueError(f"frame jets must have shape (6, N), got {jets.shape}")
    rho, r1, r2, hess11, hess12, hess22 = jets
    _check_jet(rho, jets[1:])

    r11, r12, r22 = r1 * r1, r1 * r2, r2 * r2
    grad_norm2 = r11 + r22
    v = np.sqrt(1.0 + grad_norm2 / rho**2)
    if not v.max() < np.inf:
        raise DegenerateJet("v is not finite")
    inv_v = 1.0 / v

    # h = (-hess + rho I + (2/rho) grad grad^T) / v
    two_over_rho = 2.0 / rho
    h11 = (rho - hess11 + two_over_rho * r11) / v
    h12 = (two_over_rho * r12 - hess12) / v
    h22 = (rho - hess22 + two_over_rho * r22) / v

    # P = g^{-1/2} = (I + (1/v - 1) what what^T) / rho, what = grad / |grad|;
    # where grad vanishes, what = 0 and 1/v - 1 is exactly 0
    gnorm = np.sqrt(grad_norm2)
    safe = np.maximum(gnorm, _TINY)
    w1, w2 = r1 / safe, r2 / safe
    coeff = inv_v - 1.0
    p11 = (1.0 + coeff * (w1 * w1)) / rho
    p12 = coeff * (w1 * w2) / rho
    p22 = (1.0 + coeff * (w2 * w2)) / rho

    h, P = (h11, h12, h22), (p11, p12, p22)
    s11, s12, s22 = _congruence(P, h)

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
        H=H,
        kappa=kappa,
        eta=eta,
        grad_norm=gnorm,
        h=h,
        g_isqrt=P,
        S=(s11, s12, s22),
    )


def local_normal(jets: np.ndarray, v: np.ndarray):
    """The outward unit normal (1, -D rho / rho) / v in the local basis, as its
    radial (N,) and (e_1, e_2) (N, 2) components, for (6, N) frame jets and
    v = sqrt(1 + |D rho|^2 / rho^2)."""
    return 1.0 / v, (-jets[1:3] / (v * jets[0])).T


def geometry_first_variation(jets: np.ndarray, geo: GeometryBatch, d_eta: np.ndarray):
    """Partials (6, N) over the frame jets, by frame row, of a function G of
    the eta spectrum, from d_eta = dG/deta in the column order of geo.eta,
    where geo = geometry_batch(jets, n); see the module docstring.  Where
    kappa_min = kappa_max, F must agree on them, as it does for every
    symmetric G."""
    # eta_i = H - kappa_{n-1-i}, so dG/dkappa_j = sum_i d_eta_i - d_eta_{n-1-j}
    F = (d_eta.sum(axis=1)[:, None] - d_eta)[:, ::-1]
    f_min, f_max, f_orbit = F[:, 0], F[:, -1], F[:, 1:-1].sum(axis=1)
    k_min, k_max = geo.kappa[:, 0], geo.kappa[:, -1]
    s11, s12, s22 = geo.S
    # Q diag(a, b) Q^T = (a + b)/2 I + (b - a)/2 [[c, s], [s, -c]]
    half_gap = 0.5 * (s11 - s22)
    radius = np.maximum(np.hypot(half_gap, s12), _TINY)
    c, s = half_gap / radius, s12 / radius

    def congruent_form(a, b, orbit):
        mean, half = 0.5 * (a + b), 0.5 * (b - a)
        return _congruence(geo.g_isqrt, (mean + half * c, half * s, mean - half * c + orbit))

    A11, A12, A22 = congruent_form(f_min, f_max, f_orbit)
    B11, B12, B22 = congruent_form(f_min * k_min, f_max * k_max, f_orbit * s22)
    h11, h12, h22 = geo.h
    v = geo.v
    rho, r1, r2 = jets[:3]
    Ap1, Ap2 = A11 * r1 + A12 * r2, A12 * r1 + A22 * r2
    Bp1, Bp2 = B11 * r1 + B12 * r2, B12 * r1 + B22 * r2
    A_h = A11 * h11 + 2.0 * A12 * h12 + A22 * h22
    grad_norm2 = r1 * r1 + r2 * r2
    d_rho = ((A11 + A22 - (2.0 / rho**2) * (r1 * Ap1 + r2 * Ap2)) / v
             + A_h * grad_norm2 / (rho**3 * v**2) - 2.0 * rho * (B11 + B22))
    a_coeff, h_coeff = 4.0 / (rho * v), A_h / (rho * v) ** 2
    return np.stack([d_rho, a_coeff * Ap1 - h_coeff * r1 - 2.0 * Bp1,
                     a_coeff * Ap2 - h_coeff * r2 - 2.0 * Bp2,
                     -A11 / v, -2.0 * A12 / v, -A22 / v])


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
