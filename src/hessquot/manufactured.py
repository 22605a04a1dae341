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
    """A smooth zonal radius with analytic derivatives in theta."""

    value: callable
    d1: callable
    d2: callable


def cosine_profile(amplitude: float = 0.05, mode: int = 2) -> ZonalProfile:
    """rho*(theta) = 1 + amplitude cos(mode theta); even at both poles."""
    a, m = float(amplitude), int(mode)
    return ZonalProfile(
        value=lambda t: 1.0 + a * np.cos(m * t),
        d1=lambda t: -a * m * np.sin(m * t),
        d2=lambda t: -a * m * m * np.cos(m * t),
    )


def zonal_jets_analytic(theta: np.ndarray, n: int, profile: ZonalProfile):
    """Exact (rho, grad, hess) arrays of a zonal field at an array of colatitudes.

    The orbit term is cot(theta) rho', replaced by the limit rho'' within a
    small window of the poles; AxisymGrid.frame_jets embeds the four jets.
    """
    theta = np.asarray(theta, dtype=float)
    d1 = profile.d1(theta)
    d2 = profile.d2(theta)
    sin_t = np.sin(theta)
    near_pole = np.abs(sin_t) < 1e-9
    safe_sin = np.where(near_pole, 1.0, sin_t)
    orbit = np.where(near_pole, d2, np.cos(theta) * d1 / safe_sin)
    return AxisymGrid.frame_jets((profile.value(theta), d1, d2, orbit), n)


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
        r = np.linalg.norm(X, axis=-1)
        theta = np.arccos(np.clip(X[:, 0] / r, -1.0, 1.0))
        rho, grad, hess = zonal_jets_analytic(theta, p.n, profile)
        geo = geometry_batch(rho, grad, hess)
        sig = sigma_batch(geo.eta, p.k)
        value = sig[:, p.k] / sig[:, p.l]
        out = value * (r / rho) ** exponent
        return out if out.size > 1 else float(out[0])

    return forcing
