"""Runtime monitors for the quantities the continuation must keep bounded.

The radial bound (solutions stay strictly inside the annulus), positivity of
the support function, and cone membership are checkable and enforced.  The
gradient and curvature suprema are recorded only: their theoretical bounds
exist but involve constants that depend implicitly on norms of f, so no
numeric threshold is asserted for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial_geometry import GeometryBatch, geometry_batch
from .sphere_grid import jet_arrays
from .symfun import QuotientParams, gamma_margins

__all__ = ["BoundsSnapshot", "CheckResult", "snapshot_from", "snapshot_bounds", "check_c0",
           "check_positivity"]


@dataclass
class BoundsSnapshot:
    rho_min: float
    rho_max: float
    u_min: float
    grad_sup: float
    kappa_sup: float
    cone_margin_min: float
    eta_min: float


@dataclass
class CheckResult:
    passed: bool
    margins: dict


def snapshot_from(jets, geo: GeometryBatch, cone_margin_min: float) -> BoundsSnapshot:
    """The monitored extrema over all nodes of a field state, from its (6, N)
    frame jets, their geometry and its least cone margin (of sigma_1..sigma_k
    of eta)."""
    return BoundsSnapshot(
        rho_min=float(jets[0].min()),
        rho_max=float(jets[0].max()),
        u_min=float(geo.u.min()),
        grad_sup=float(geo.grad_norm.max()),
        kappa_sup=float(np.abs(geo.kappa).max()),
        cone_margin_min=cone_margin_min,
        eta_min=float(geo.eta.min()),
    )


def snapshot_bounds(rho, grid, p: QuotientParams) -> BoundsSnapshot:
    """Scan all nodes of a field state and collect the monitored extrema."""
    jets = jet_arrays(rho, grid, p.n)
    geo = geometry_batch(jets, p.n)
    return snapshot_from(jets, geo, float(gamma_margins(geo.eta, p.k).min()))


def check_c0(s: BoundsSnapshot, r1: float, r2: float) -> CheckResult:
    """Strict radial containment r1 < rho < r2."""
    lower = s.rho_min - r1
    upper = r2 - s.rho_max
    return CheckResult(
        passed=bool(lower > 0.0 and upper > 0.0),
        margins={"lower": lower, "upper": upper},
    )


def check_positivity(s: BoundsSnapshot) -> CheckResult:
    """Support function and cone margin strictly positive."""
    return CheckResult(
        passed=bool(s.u_min > 0.0 and s.cone_margin_min > 0.0),
        margins={"u_min": s.u_min, "cone_margin_min": s.cone_margin_min},
    )
