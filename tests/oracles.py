"""Reference implementations that the tests compare the solver against.

These are the paper's structural facts about sigma_k/sigma_l on Gamma_k in
scalar form, one spectrum at a time: the elementary symmetric polynomials and
their exclusions, cone membership, the quotient G = (sigma_k/sigma_l)^(1/(k-l))
with its first and off-diagonal second derivatives, the Newton-Maclaurin
slacks and seeded cone sampling; and the geometry of a radial graph at one
point from a full n-dimensional jet by dense diagonalization, with the closed
form of the round sphere.  The solver uses none of them: it works on batches
through `symfun.sigma_batch`, `symfun.log_quotient_grad_batch`,
`symfun.gamma_margins` and `radial_geometry.geometry_batch`, which these
oracles call or are checked against.

It also holds the manufactured forcing computed the way the package first
computed it, by sending the profile's exact frame jets through the solver's
own `geometry_batch` and `sigma_batch`, which the closed-form
`manufactured.manufactured_forcing` is checked against.

It also holds each grid's jet operator built the way the grids first built it,
by scipy sparse algebra (stencil matrices, diagonal products and a vstack).
The grids' builds are checked against it entry by entry, and the 2-sphere
grid's stencil-slice jets against its product bit for bit.  The 2-sphere
grid's phi-mode ring symbols are checked against those read from its ring
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse

from hessquot.errors import ConeViolation, DegenerateJet, HessquotError
from hessquot.radial_geometry import _check_jet, geometry_batch
from hessquot.symfun import QuotientParams, gamma_margins, log_quotient_grad_batch, sigma_batch


class SamplingExhausted(HessquotError):
    """Rejection sampler hit its draw cap before producing enough samples."""


SAMPLING_CUBE = (-1.0, 2.0)
SAMPLING_DRAW_CAP = 1_000_000
_SAMPLING_BLOCK = 4096


@dataclass(frozen=True)
class ConeReport:
    """Membership report for Gamma_k: sigma_1..sigma_k, flag, and min margin."""

    sigmas: tuple
    member: bool
    margin: float


def as_spectrum(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("spectrum must be a 1-D sequence with at least 2 entries")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum entries must be finite")
    return lam


def elementary_symmetric(values, j: int) -> float:
    """sigma_j(lam); 1 for j = 0, 0 for j < 0 or j > len(lam)."""
    lam = as_spectrum(values)
    if j < 0 or j > lam.size:
        return 0.0
    return float(sigma_batch(lam[None], j)[0, j])


def elementary_symmetric_excluding(values, j: int, excluded) -> float:
    """sigma_j of the spectrum with the entries at `excluded` removed.

    `excluded` holds one or two distinct 0-based indices.
    """
    lam = as_spectrum(values)
    idx = sorted(set(int(i) for i in excluded))
    if len(idx) != len(list(excluded)):
        raise IndexError(f"excluded indices must be distinct, got {sorted(excluded)}")
    if not 1 <= len(idx) <= 2:
        raise ValueError("excluded must contain one or two indices")
    for i in idx:
        if not 0 <= i < lam.size:
            raise IndexError(f"excluded index {i} out of range for n={lam.size}")
    reduced = np.delete(lam, idx)
    if j < 0 or j > reduced.size:
        return 0.0
    return float(sigma_batch(reduced[None], j)[0, j])


def in_gamma_k(values, k: int) -> ConeReport:
    """Report sigma_1..sigma_k, strict membership in Gamma_k, and the margin."""
    lam = as_spectrum(values)
    if not 1 <= k <= lam.size:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={lam.size}")
    sig = sigma_batch(lam[None], k)[0, 1:].tolist()
    margin = min(sig)
    return ConeReport(sigmas=tuple(sig), member=margin > 0.0, margin=margin)


def _require_cone(lam: np.ndarray, k: int) -> ConeReport:
    report = in_gamma_k(lam, k)
    if not report.member:
        raise ConeViolation(
            f"spectrum outside Gamma_{k} (margin {report.margin:.3e})",
            margin=report.margin,
        )
    return report


def quotient_G(values, p: QuotientParams) -> float:
    """(sigma_k / sigma_l)^(1/(k-l)), defined and positive on Gamma_k."""
    lam = as_spectrum(values)
    report = _require_cone(lam, p.k)
    sig = (1.0,) + report.sigmas
    return (sig[p.k] / sig[p.l]) ** (1.0 / p.gap)


def grad_G(values, p: QuotientParams) -> np.ndarray:
    """Diagonal first derivatives of G at diag(lam); strictly positive on Gamma_k.

    Larger entries of lam get smaller derivatives, so a sorted spectrum yields
    a reverse-sorted gradient.
    """
    lam = as_spectrum(values)
    report = _require_cone(lam, p.k)
    # dG = G/(k-l) d log(sigma_k/sigma_l)
    sig = np.array([(1.0,) + report.sigmas])
    G = (sig[0, p.k] / sig[0, p.l]) ** (1.0 / p.gap)
    return G / p.gap * log_quotient_grad_batch(lam[None], sig, p.k, p.l)[0]


def offdiag_second_G(values, p: QuotientParams, i: int) -> float:
    """Second derivative of G in the symmetric off-diagonal pair (0, i).

    For eta = diag(lam) this is d^2 G / d eta_{0i} d eta_{i0}, always <= 0 on
    Gamma_k, and equal to (G^{00} - G^{ii}) / (lam_0 - lam_i) whenever the two
    entries differ.  `i` is 0-based and must be >= 1.
    """
    lam = as_spectrum(values)
    if not 1 <= i < lam.size:
        raise IndexError(f"pair index must satisfy 1 <= i < n, got {i}")
    _require_cone(lam, p.k)
    sig = sigma_batch(lam[None], p.k)[0].tolist()
    sk, sl = sig[p.k], sig[p.l]
    pref = (1.0 / p.gap) * (sk / sl) ** (1.0 / p.gap - 1.0)
    sk2, sl2 = (elementary_symmetric_excluding(lam, j - 2, {0, i}) for j in (p.k, p.l))
    return -pref * (sk2 * sl - sl2 * sk) / sl**2


def f_tensor(values, p: QuotientParams) -> np.ndarray:
    """Complementary sums F^{ii} = sum_{j != i} G^{jj}; sorted like lam."""
    g = grad_G(values, p)
    return g.sum() - g


def newton_maclaurin_slack(values, p: QuotientParams) -> tuple:
    """Slacks (rhs - lhs) of the two Newton-Maclaurin inequalities on Gamma_k.

    First:  k (n-l+1) sigma_{l-1} sigma_k  <=  l (n-k+1) sigma_l sigma_{k-1}.
    Second: the normalized-quotient comparison of exponent 1/(k-l) against the
    (k-1, l) quotient of exponent 1/(k-1-l).  Both slacks are >= 0 on Gamma_k.
    """
    lam = as_spectrum(values)
    _require_cone(lam, p.k)
    n, k, l = p.n, p.k, p.l
    if lam.size != n:
        raise ValueError(f"spectrum length {lam.size} does not match n={n}")
    sig = sigma_batch(lam[None], k)[0].tolist()
    s_lm1 = sig[l - 1] if l >= 1 else 0.0
    lhs1 = k * (n - l + 1) * s_lm1 * sig[k]
    rhs1 = l * (n - k + 1) * sig[l] * sig[k - 1]
    slack1 = rhs1 - lhs1

    norm = lambda j: sig[j] / comb(n, j)
    lhs2 = (norm(k) / norm(l)) ** (1.0 / (k - l))
    rhs2 = (norm(k - 1) / norm(l)) ** (1.0 / (k - 1 - l))
    slack2 = rhs2 - lhs2
    return slack1, slack2


def sample_gamma_k(p: QuotientParams, seed: int, count: int) -> np.ndarray:
    """Seeded rejection samples of Gamma_k spectra from the cube [-1, 2]^n.

    Returns a (count, n) array; identical seeds give identical output.  Raises
    SamplingExhausted past the fixed draw cap.
    """
    n, k = p.n, p.k
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = SAMPLING_CUBE
    accepted = []
    total = 0
    drawn = 0
    while total < count:
        if drawn >= SAMPLING_DRAW_CAP:
            raise SamplingExhausted(
                f"needed {count} samples of Gamma_{k} in n={n}, got {total} "
                f"after {drawn} draws"
            )
        block = rng.uniform(lo, hi, size=(_SAMPLING_BLOCK, n))
        drawn += _SAMPLING_BLOCK
        keep = block[gamma_margins(block, k) > 0.0]
        accepted.append(keep)
        total += keep.shape[0]
    return np.concatenate(accepted, axis=0)[:count]


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
    _check_jet(np.array([rho]), np.append(grad, hess))

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


def _zonal_jets(theta, cos_t, sin_t, profile):
    """Exact frame jets (6, N) of a zonal field at colatitudes theta, given
    their cos and sin, by frame row as sphere_grid.jet_arrays returns them,
    for every n: rho, rho', 0, rho'', 0 and the orbit term cot(theta) rho',
    replaced by its limit rho'' within a small window of the poles."""
    rho, d1, d2 = profile.jets(theta)
    near_pole = np.abs(sin_t) < 1e-9
    safe_sin = np.where(near_pole, 1.0, sin_t)
    orbit = np.where(near_pole, d2, cos_t * d1 / safe_sin)
    zero = np.zeros_like(rho)
    return np.stack([rho, d1, zero, d2, zero, orbit])


def manufactured_forcing_via_geometry(p: QuotientParams, profile, extra_decay: int):
    """manufactured.manufactured_forcing by the solver's own route: exact
    frame jets, then geometry_batch and sigma_batch.  Returns (N,) values for
    (N, d) points."""
    exponent = -float(p.gap + extra_decay)

    def forcing(X, nu):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        axial = X[:, 0]
        off_axis = np.sqrt(np.einsum("ij,ij->i", X[:, 1:], X[:, 1:]))
        r = np.hypot(axial, off_axis)
        theta = np.arctan2(off_axis, axial)
        jets = _zonal_jets(theta, axial / r, off_axis / r, profile)
        sig = sigma_batch(geometry_batch(jets, p.n).eta, p.k)
        return sig[:, p.k] / sig[:, p.l] * (r / jets[0]) ** exponent

    return forcing


def _stencil(columns, weights: dict, count: int):
    """Sparse (count, count) matrix with, for each offset, its weight at
    column columns(offset)[row] of every row; coinciding columns add up."""
    rows = np.tile(np.arange(count), len(weights))
    cols = np.concatenate([columns(offset) for offset in weights])
    vals = np.repeat(np.fromiter(weights.values(), dtype=float), count)
    op = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(count, count))
    op.eliminate_zeros()
    return op


def _identity(count: int):
    """The (count, count) D_0 block.  CSR like the other blocks, empty ones too,
    so that vstack concatenates them as they are; another format, or sorting
    the indices, reorders each row's entries and so the stencil sums: on s2
    the jets of a constant field are then not exactly 0."""
    return scipy.sparse.identity(count, format="csr")


def axisym_jet_operator(grid):
    """The (6N, N) jet operator of an AxisymGrid by sparse algebra: d/dtheta,
    d^2/dtheta^2 and the orbit term cot(theta) d/dtheta (its limit
    d^2/dtheta^2 at the poles), closed by even reflection."""
    N, dt = grid.node_count, grid.spacing

    def columns(offset):
        m = np.arange(N) + offset
        return np.where(m < 0, -m, np.where(m >= N, 2 * (N - 1) - m, m))

    d1 = _stencil(columns, {-1: -0.5 / dt, 1: 0.5 / dt}, N)
    d2 = _stencil(columns, {-1: dt**-2, 0: -2.0 * dt**-2, 1: dt**-2}, N)
    cot = np.zeros(N)
    cot[1:-1] = 1.0 / np.tan(grid.theta[1:-1])
    poles = np.zeros(N)
    poles[[0, -1]] = 1.0
    orbit = scipy.sparse.diags(cot) @ d1 + scipy.sparse.diags(poles) @ d2
    orbit.eliminate_zeros()
    empty = scipy.sparse.csr_matrix((N, N))
    return scipy.sparse.vstack([_identity(N), d1, empty, d2, empty, orbit], format="csr")


def s2_jet_operator(grid):
    """The (6N, N) jet operator of a SphereGrid2D by sparse algebra: the
    partials r_t, r_p, r_tt, r_tp, r_pp (periodic in phi, crossing the poles
    by the antipodal rule) weighted into the frame rows."""
    nt, nphi, dt, dp = grid.n_theta, grid.n_phi, grid.dtheta, grid.dphi
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
        _stencil(columns, weights, grid.node_count) for weights in stencils)
    st = np.repeat(np.sin(grid.theta), nphi)
    cot = scipy.sparse.diags(np.repeat(np.cos(grid.theta), nphi) / st)
    inv_st = scipy.sparse.diags(1.0 / st)
    rows = (_identity(grid.node_count), r_t, inv_st @ r_p, r_tt, inv_st @ (r_tp - cot @ r_p),
            scipy.sparse.diags(st**-2) @ r_pp + cot @ r_t)
    return scipy.sparse.vstack(rows, format="csr")


def s2_ring_symbols(grid):
    """SphereGrid2D._ring_symbols read from the ring rows, at the nodes
    (i, 0), of s2_jet_operator(grid), as the grid once read them from its
    own CSR operator."""
    nt, nphi, N = grid.n_theta, grid.n_phi, grid.node_count
    rows = (np.arange(6)[:, None] * N + np.arange(nt) * nphi).reshape(-1)
    ring = s2_jet_operator(grid)[rows].tocoo()
    target, col = np.divmod(ring.col, nphi)
    cols, at = np.unique(col, return_inverse=True)
    weights = np.zeros((6 * nt * 3, cols.size))
    np.add.at(weights, (3 * ring.row + target - ring.row % nt + 1, at), ring.data)
    turns = np.outer(cols, np.arange(nphi // 2 + 1)) % nphi
    return weights.reshape(6, nt, 3, -1), np.exp(2j * math.pi / nphi * turns)
