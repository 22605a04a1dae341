"""Manufactured zonal solutions for solver verification.

Pick an exact zonal profile rho*(theta), compute its geometry analytically,
and build the forcing f that the profile satisfies exactly.  Extending f off
the profile surface as f(X) = value(theta) (|X| / rho*(theta))^-(k-l) makes
rho^(k-l) f constant along rays, so the radial monotonicity condition holds
with equality, and the solver's error against rho* is pure discretization
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial_geometry import geometry_batch
from .sphere_grid import AxisymGrid
from .symfun import QuotientParams, sigma_batch

__all__ = ["ZonalProfile", "cosine_profile", "zonal_jets_analytic", "manufactured_forcing"]


@dataclass
class ZonalProfile:
    """A smooth zonal radius: jets(theta) returns rho*, rho*' and rho*'' in
    theta at once, so that they can share their trigonometry."""

    jets: callable

    def value(self, theta):
        return self.jets(theta)[0]


def cosine_profile(amplitude: float = 0.05, mode: int = 2) -> ZonalProfile:
    """rho*(theta) = 1 + amplitude cos(mode theta); even at both poles."""
    a, m = float(amplitude), int(mode)

    def jets(t):
        cos_mt = np.cos(m * t)
        return 1.0 + a * cos_mt, -a * m * np.sin(m * t), -a * m * m * cos_mt

    return ZonalProfile(jets)


def _zonal_jets(theta, cos_t, sin_t, n: int, profile: ZonalProfile):
    """zonal_jets_analytic, given cos(theta) and sin(theta)."""
    rho, d1, d2 = profile.jets(theta)
    near_pole = np.abs(sin_t) < 1e-9
    safe_sin = np.where(near_pole, 1.0, sin_t)
    orbit = np.where(near_pole, d2, cos_t * d1 / safe_sin)
    AxisymGrid.check_dimension(n)
    zero = np.zeros_like(rho)
    return np.stack([rho, d1, zero, d2, zero, orbit])


def zonal_jets_analytic(theta: np.ndarray, n: int, profile: ZonalProfile):
    """Exact frame jets (6, N) of a zonal field at an array of colatitudes,
    indexed by frame row as sphere_grid.jet_arrays returns them, for every n.

    The orbit term is cot(theta) rho', replaced by the limit rho'' within a
    small window of the poles; rho, rho', rho'' and the orbit term fill the
    axisymmetric grid's frame rows (0, 1, 3, 5) of the meridian-orbit frame,
    and the other rows are 0.
    """
    theta = np.asarray(theta, dtype=float)
    return _zonal_jets(theta, np.cos(theta), np.sin(theta), n, profile)


def manufactured_forcing(p: QuotientParams, profile: ZonalProfile = None, extra_decay: int = 1):
    """Forcing f(X, nu) solved exactly by the profile surface X = rho*(theta) x.

    value(theta) is the quotient sigma_k/sigma_l of the profile's exact
    geometry; off the surface f scales as (|X|/rho*(theta))^-(k-l+extra_decay),
    which equals 1 on the surface, so the profile solves the equation exactly
    for any extra_decay >= 0.

    extra_decay = 0 makes rho^(k-l) f constant along rays.  That turns the
    target problem radially scale-invariant: solutions come in a one-parameter
    dilation family, the linearization is singular along it, and the Newton
    corrector stalls as t -> 1.  The default extra_decay = 1 keeps the radial
    monotonicity strict and the problem uniquely solvable, which is what a
    convergence study needs.
    """
    profile = profile if profile is not None else cosine_profile()
    exponent = -float(p.gap + extra_decay)

    def forcing(X, nu):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # theta is the angle from the polar axis x1: |X| cos and |X| sin of it
        axial = X[:, 0]
        off_axis = np.sqrt(np.einsum("ij,ij->i", X[:, 1:], X[:, 1:]))
        r = np.hypot(axial, off_axis)
        theta = np.arctan2(off_axis, axial)
        jets = _zonal_jets(theta, axial / r, off_axis / r, p.n, profile)
        geo = geometry_batch(jets, p.n)
        sig = sigma_batch(geo.eta, p.k)
        value = sig[:, p.k] / sig[:, p.l]
        out = value * (r / jets[0]) ** exponent
        return out if out.size > 1 else float(out[0])

    return forcing
