"""Pointwise geometry against closed forms and an embedding-based oracle."""

import math

import numpy as np
import pytest

from hessquot.errors import DegenerateJet
from hessquot.radial_geometry import (
    PointJet,
    assemble_point_geometry,
    sphere_closed_form,
)
from hessquot.symfun import QuotientParams, elementary_symmetric


def constant_jet(r, n):
    return PointJet(rho=r, grad=np.zeros(n), hess=np.zeros((n, n)))


def profile_curvatures(rho, d1, d2, theta):
    """Principal curvatures of the surface of revolution of a polar profile.

    The meridian value is the plane curvature of the polar curve; the
    rotational directions share the normal component divided by the distance
    from the axis.
    """
    speed2 = rho**2 + d1**2
    kappa_m = (rho**2 + 2.0 * d1**2 - rho * d2) / speed2**1.5
    kappa_p = (rho * math.sin(theta) - d1 * math.cos(theta)) / (
        rho * math.sin(theta) * math.sqrt(speed2)
    )
    return kappa_m, kappa_p


class TestSphereClosedForm:
    def test_unit_sphere(self):
        geo = sphere_closed_form(1.0, 3)
        assert geo.eta_spectrum == pytest.approx(np.full(3, 2.0))
        assert geo.u == 1.0 and geo.v == 1.0

    def test_quotient_value(self):
        geo = sphere_closed_form(2.0, 4)
        p = QuotientParams(4, 3, 1)
        s3 = elementary_symmetric(geo.eta_spectrum, 3)
        s1 = elementary_symmetric(geo.eta_spectrum, 1)
        assert s3 / s1 == pytest.approx(
            p.binomial_ratio * ((p.n - 1) / 2.0) ** p.gap, rel=1e-12
        )
        assert s3 / s1 == pytest.approx(2.25)

    def test_matches_assembly_on_constant_jets(self):
        for r in (0.5, 1.0, 2.0):
            for n in (2, 3, 4, 5):
                closed = sphere_closed_form(r, n)
                got = assemble_point_geometry(constant_jet(r, n), n)
                assert got.kappa == pytest.approx(closed.kappa, rel=1e-12)
                assert got.eta_spectrum == pytest.approx(closed.eta_spectrum, rel=1e-12)
                assert got.u == pytest.approx(r, rel=1e-12)
                assert got.H == pytest.approx(n / r, rel=1e-12)


class TestAssembly:
    def test_support_function_with_unit_gradient(self):
        jet = PointJet(rho=1.0, grad=np.array([1.0, 0.0, 0.0]), hess=np.zeros((3, 3)))
        geo = assemble_point_geometry(jet, 3)
        assert geo.u == pytest.approx(1.0 / math.sqrt(2.0))
        assert geo.v == pytest.approx(math.sqrt(2.0))
        assert np.linalg.norm(geo.nu) == pytest.approx(1.0, abs=1e-12)

    def test_embedded_profile_oracle(self):
        # rho(theta) = 1 + 0.05 cos(theta) at theta = pi/2, n = 2
        delta = 0.05
        theta = math.pi / 2.0
        rho, d1, d2 = 1.0, -delta, 0.0
        tang = 0.0  # cot(pi/2) * d1
        jet = PointJet(
            rho=rho, grad=np.array([d1, 0.0]), hess=np.diag([d2, tang])
        )
        geo = assemble_point_geometry(jet, 2)
        kappa_m, kappa_p = profile_curvatures(rho, d1, d2, theta)
        assert np.sort(geo.kappa) == pytest.approx(
            np.sort([kappa_m, kappa_p]), rel=1e-12
        )

    def test_embedded_profile_oracle_off_equator(self):
        delta = 0.08
        for theta in (0.7, 1.3, 2.2):
            rho = 1.0 + delta * math.cos(theta)
            d1 = -delta * math.sin(theta)
            d2 = -delta * math.cos(theta)
            jet = PointJet(
                rho=rho,
                grad=np.array([d1, 0.0]),
                hess=np.diag([d2, d1 / math.tan(theta)]),
            )
            geo = assemble_point_geometry(jet, 2)
            kappa_m, kappa_p = profile_curvatures(rho, d1, d2, theta)
            assert np.sort(geo.kappa) == pytest.approx(
                np.sort([kappa_m, kappa_p]), rel=1e-12
            )

    def test_frame_covariance(self):
        rng = np.random.default_rng(11)
        n = 4
        for _ in range(25):
            h = rng.uniform(-0.3, 0.3, size=(n, n))
            jet = PointJet(
                rho=float(rng.uniform(0.5, 2.0)),
                grad=rng.uniform(-0.4, 0.4, size=n),
                hess=0.5 * (h + h.T),
            )
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            rotated = PointJet(rho=jet.rho, grad=q @ jet.grad, hess=q @ jet.hess @ q.T)
            a = assemble_point_geometry(jet, n)
            b = assemble_point_geometry(rotated, n)
            assert b.v == pytest.approx(a.v, rel=1e-12)
            assert b.u == pytest.approx(a.u, rel=1e-12)
            assert b.H == pytest.approx(a.H, rel=1e-10)
            assert b.kappa == pytest.approx(a.kappa, rel=1e-10, abs=1e-12)
            assert b.eta_spectrum == pytest.approx(a.eta_spectrum, rel=1e-10, abs=1e-12)
            # tangential normal components rotate with the frame
            assert b.nu[1:] == pytest.approx(q @ a.nu[1:], abs=1e-12)
            assert b.nu[0] == pytest.approx(a.nu[0], rel=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            h = rng.uniform(-0.3, 0.3, size=(n, n))
            jet = PointJet(
                rho=float(rng.uniform(0.5, 2.0)),
                grad=rng.uniform(-0.4, 0.4, size=n),
                hess=0.5 * (h + h.T),
            )
            geo = assemble_point_geometry(jet, n)
            assert geo.eta_spectrum.sum() == pytest.approx((n - 1) * geo.H, rel=1e-10)
            assert geo.kappa.sum() == pytest.approx(geo.H, rel=1e-10)

    def test_scaling(self):
        rng = np.random.default_rng(19)
        n = 3
        h = rng.uniform(-0.2, 0.2, size=(n, n))
        jet = PointJet(rho=1.3, grad=rng.uniform(-0.3, 0.3, size=n), hess=0.5 * (h + h.T))
        base = assemble_point_geometry(jet, n)
        for c in (0.5, 2.0, 7.0):
            scaled = PointJet(rho=c * jet.rho, grad=c * jet.grad, hess=c * jet.hess)
            geo = assemble_point_geometry(scaled, n)
            assert geo.v == pytest.approx(base.v, rel=1e-12)
            assert geo.nu == pytest.approx(base.nu, abs=1e-12)
            assert geo.u == pytest.approx(c * base.u, rel=1e-12)
            assert geo.kappa == pytest.approx(base.kappa / c, rel=1e-10)
            assert geo.eta_spectrum == pytest.approx(base.eta_spectrum / c, rel=1e-10)

    def test_degenerate_jet(self):
        with pytest.raises(DegenerateJet):
            assemble_point_geometry(constant_jet(-1.0, 3), 3)
        with pytest.raises(DegenerateJet):
            assemble_point_geometry(
                PointJet(rho=1.0, grad=np.array([np.nan, 0.0]), hess=np.zeros((2, 2))), 2
            )
