"""Manufactured zonal solutions for solver verification.

Pick an exact zonal profile rho*(theta) and build the forcing f that the
surface X = rho*(theta) x solves exactly, from the textbook curvatures of a
surface of revolution: neither radial_geometry nor symfun's sigma recurrence
is used, so the forcing checks them independently.  Off the surface f is
f(X) = value(theta) (|X| / rho*(theta))^-(k-l+extra_decay); the default
extra_decay = 1 keeps radial monotonicity strict, so the solver's error
against rho* is pure discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .symfun import QuotientParams

__all__ = ["ZonalProfile", "cosine_profile", "manufactured_forcing"]


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


def manufactured_forcing(p: QuotientParams, profile: ZonalProfile = None, extra_decay: int = 1):
    """Forcing f(X, nu) solved exactly by the profile surface X = rho*(theta) x.

    With (rho, rho', rho'') the profile's jets at theta, W = sqrt(rho^2 + rho'^2)
    and c = cot(theta) rho' (its limit rho'' near the poles), the meridian
    curvature is kappa_m = (rho^2 + 2 rho'^2 - rho rho'')/W^3 and each of the
    n - 1 orbit directions has kappa_o = (rho - c)/(rho W).  So eta is
    b = (n-1) kappa_o once and a = kappa_m + (n-2) kappa_o n - 1 times,
    sigma_j(eta) = C(n-1, j) a^j + C(n-1, j-1) b a^(j-1), and value(theta) =
    sigma_k/sigma_l.  Off the surface f scales as (|X|/rho*(theta))^-(k-l+
    extra_decay), 1 on it, so the profile solves the equation exactly.

    extra_decay = 0 makes rho^(k-l) f constant along rays.  That turns the
    target problem radially scale-invariant: solutions come in a one-parameter
    dilation family, the linearization is singular along it, and the Newton
    corrector stalls as t -> 1.  The default extra_decay = 1 keeps the radial
    monotonicity strict and the problem uniquely solvable, which is what a
    convergence study needs.  X of shape (d,) gives a float, (N, d) an (N,)
    array, as in fspec.eval_f.
    """
    profile = profile if profile is not None else cosine_profile()
    exponent = -float(p.gap + extra_decay)
    m = p.n - 1

    def forcing(X, nu):
        X = np.asarray(X, dtype=float)
        scalar, X = X.ndim == 1, np.atleast_2d(X)
        # theta is the angle from the polar axis x1
        axial = X[:, 0]
        off_axis = np.sqrt(np.einsum("ij,ij->i", X[:, 1:], X[:, 1:]))
        r = np.hypot(axial, off_axis)
        rho, d1, d2 = profile.jets(np.arctan2(off_axis, axial))
        near_pole = off_axis < 1e-9 * r
        orbit_hess = np.where(near_pole, d2, axial * d1 / np.where(near_pole, 1.0, off_axis))
        W = np.sqrt(rho * rho + d1 * d1)
        kappa_m = (rho * rho + 2.0 * d1 * d1 - rho * d2) / W**3
        kappa_o = (rho - orbit_hess) / (rho * W)
        a, b = kappa_m + (m - 1) * kappa_o, m * kappa_o
        sk, sl = (comb(m, j) * a**j + comb(m, j - 1) * b * a ** (j - 1) if j else 1.0
                  for j in (p.k, p.l))
        out = sk / sl * (r / rho) ** exponent
        return float(out[0]) if scalar else out

    return forcing
