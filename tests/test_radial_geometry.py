"""Pointwise geometry against closed forms and an embedding-based oracle."""

import math

import numpy as np
import pytest

from hessquot.errors import DegenerateJet
from hessquot.radial_geometry import geometry_batch, geometry_first_variation, local_normal
from hessquot.symfun import QuotientParams, log_quotient_grad_batch, sigma_batch
from oracles import PointJet, assemble_point_geometry, elementary_symmetric, sphere_closed_form


def constant_jet(r, n):
    return PointJet(rho=r, grad=np.zeros(n), hess=np.zeros((n, n)))


def frame_stack(rho, grad, hess):
    """(6, N) frame jets from (N,), (N, 2) and symmetric (N, 2, 2) arrays."""
    return np.stack([rho, grad[:, 0], grad[:, 1], hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]])


def dense_jet(column, n):
    """The full n-dimensional PointJet of one node's frame jets, the orbit
    entry repeated along the n - 1 directions past e_1."""
    rho, g1, g2, h11, h12, h22 = column
    grad = np.zeros(n)
    grad[:2] = g1, g2
    hess = np.diag([h11] + [h22] * (n - 1))
    hess[0, 1] = hess[1, 0] = h12
    return PointJet(rho, grad, hess)


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


class TestClosedFormAgainstDenseOracle:
    """geometry_batch on (6, N) frame jets against dense diagonalization."""

    @staticmethod
    def random_jets(seed, count=2000):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.5, 2.0, size=count)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=count)
        size = rng.uniform(0.0, 2.0, size=count)
        grad = np.stack([size * np.cos(angle), size * np.sin(angle)], axis=-1)
        h = rng.uniform(-1.0, 1.0, size=(count, 2, 2))
        return frame_stack(rho, grad, 0.5 * (h + h.transpose(0, 2, 1)))

    @staticmethod
    def assert_agrees(batch, normal, i, dense):
        scale = max(1.0, float(np.abs(dense.eta_spectrum).max()))
        tol = 1e-13 * scale
        # normal = local_normal(jets), the solver's normal
        nu = np.zeros_like(dense.nu)
        nu[0] = normal[0][i]
        nu[1:3] = normal[1][i]
        # both sides ascending, so the order is checked too
        assert np.abs(batch.eta[i] - dense.eta_spectrum).max() <= tol
        assert np.abs(batch.kappa[i] - dense.kappa).max() <= tol
        assert abs(batch.u[i] - dense.u) <= tol
        assert np.abs(nu - dense.nu).max() <= tol

    def test_non_zonal_two_sphere_jets(self):
        jets = self.random_jets(23)
        assert np.abs(jets[4]).min() > 0.0
        batch = geometry_batch(jets, 2)
        normal = local_normal(jets)
        for i in range(jets.shape[1]):
            dense = assemble_point_geometry(dense_jet(jets[:, i], 2), 2)
            self.assert_agrees(batch, normal, i, dense)

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12])
    def test_zonal_jets_embedded_densely(self, n):
        jets = self.random_jets(29 + n)
        jets[[2, 4]] = 0.0
        batch = geometry_batch(jets, n)
        assert batch.kappa.shape == batch.eta.shape == (jets.shape[1], n)
        normal = local_normal(jets)
        for i in range(jets.shape[1]):
            dense = assemble_point_geometry(dense_jet(jets[:, i], n), n)
            self.assert_agrees(batch, normal, i, dense)

    def test_dense_jets_are_rejected(self):
        for shape in [(4,), (5, 4), (7, 4), (4, 6), (6, 4, 1), (6, 3, 3)]:
            with pytest.raises(ValueError, match=r"frame jets must have shape \(6, N\)"):
                geometry_batch(np.ones(shape), 3)


# the (n, k, l) of the benchmark's axisymmetric problems
AXISYM_DIMS = [(3, 2, 0), (4, 3, 1), (6, 4, 2), (8, 6, 2), (12, 6, 0)]


class TestFirstVariation:
    """geometry_first_variation against central differences of
    G = log sigma_k(eta) - log sigma_l(eta) through geometry_batch."""

    STEP = 1e-6
    # measured worst relative error 2.4e-9 over the cases below
    TOL = 1e-7

    @staticmethod
    def log_quotient(jets, p):
        sig = sigma_batch(geometry_batch(jets, p.n).eta, p.k)
        assert sig[:, 1:].min() > 0.0
        return np.log(sig[:, p.k]) - np.log(sig[:, p.l])

    def check(self, jets, p, zonal):
        geo = geometry_batch(jets, p.n)
        d_eta = log_quotient_grad_batch(geo.eta, sigma_batch(geo.eta, p.k), p.k, p.l)
        partials = geometry_first_variation(jets, geo, d_eta)
        # a bump of row 4 moves hess_12 and hess_21 together
        for r in (0, 1, 3, 5) if zonal else range(6):
            def bumped(sign):
                moved = jets.copy()
                moved[r] += sign * self.STEP
                return self.log_quotient(moved, p)

            fd = (bumped(1.0) - bumped(-1.0)) / (2.0 * self.STEP)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(partials[r] - fd).max() <= self.TOL * scale

    @staticmethod
    def near_sphere_jets(seed, count=200):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.8, 1.25, size=count)
        grad = rng.uniform(-0.3, 0.3, size=(count, 2))
        h = rng.uniform(-0.3, 0.3, size=(count, 2, 2))
        return frame_stack(rho, grad, 0.5 * (h + h.transpose(0, 2, 1)))

    def test_non_zonal_two_sphere_jets(self):
        jets = self.near_sphere_jets(5)
        assert np.abs(jets[4]).min() > 0.0 and np.abs(jets[2]).min() > 0.0
        self.check(jets, QuotientParams(2, 2, 0), zonal=False)

    @pytest.mark.parametrize("nkl", AXISYM_DIMS)
    def test_zonal_jets(self, nkl):
        jets = self.near_sphere_jets(7 + nkl[0])
        jets[[2, 4]] = 0.0
        self.check(jets, QuotientParams(*nkl), zonal=True)

    @pytest.mark.parametrize("nkl", [(2, 2, 0)] + AXISYM_DIMS)
    def test_exact_sphere(self, nkl):
        # S = I / rho: every curvature coincides and the eigenvectors are free
        jets = np.zeros((6, 3))
        jets[0] = 0.5, 1.0, 2.0
        self.check(jets, QuotientParams(*nkl), zonal=nkl[0] > 2)
