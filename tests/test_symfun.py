"""Symmetric-function algebra against independent oracles.

The oracle for sigma_j is brute-force subset enumeration; derivative values
are checked against finite differences of the quotient and against eigenvalue
perturbations of the corresponding diagonal matrix.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessquot.errors import ConeViolation
from hessquot import symfun
from hessquot.symfun import QuotientParams, log_quotient_grad_batch

import oracles
from oracles import (
    SamplingExhausted,
    elementary_symmetric,
    elementary_symmetric_excluding,
    f_tensor,
    grad_G,
    in_gamma_k,
    newton_maclaurin_slack,
    offdiag_second_G,
    quotient_G,
    sample_gamma_k,
)


def sigma_bruteforce(values, j):
    """Subset-enumeration oracle, exponential and only for tests."""
    if j == 0:
        return 1.0
    if j < 0 or j > len(values):
        return 0.0
    return float(sum(math.prod(c) for c in itertools.combinations(values, j)))


spectra = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=2, max_size=6
)


class TestElementarySymmetric:
    def test_symmetric_case(self):
        assert elementary_symmetric([1.0, 1.0, 1.0], 2) == pytest.approx(3.0)

    def test_bruteforce_oracle(self):
        assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(
            sigma_bruteforce([1.0, 2.0, 3.0], 2)
        )
        assert sigma_bruteforce([1.0, 2.0, 3.0], 2) == 11.0

    def test_degree_above_length_is_zero(self):
        assert elementary_symmetric([0.3, -1.2, 2.0], 4) == 0.0

    def test_degree_zero_is_one(self):
        assert elementary_symmetric([5.0, -7.0], 0) == 1.0

    def test_batch_equals_the_one_entry_loop(self):
        # sigma_batch updates every sigma_j of one factor at once; each entry
        # is still sigma_j + lam_m sigma_{j-1}, so it equals this loop exactly
        rng = np.random.default_rng(3)
        for n in range(2, 13):
            vals = rng.standard_normal((50, n)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
            for jmax in range(n + 2):
                e = np.zeros((50, jmax + 1))
                e[:, 0] = 1.0
                for m in range(n):
                    for j in range(min(jmax, m + 1), 0, -1):
                        e[:, j] += vals[:, m] * e[:, j - 1]
                assert np.array_equal(symfun.sigma_batch(vals, jmax), e)

    @given(spectra, st.integers(min_value=0, max_value=7))
    def test_matches_enumeration(self, values, j):
        expected = sigma_bruteforce(values, j)
        got = elementary_symmetric(values, j)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * max(1.0, abs(expected)))


class TestExcluding:
    def test_single_exclusion(self):
        assert elementary_symmetric_excluding([1.0, 2.0, 3.0], 1, {0}) == pytest.approx(5.0)

    def test_exclusion_oracle(self):
        got = elementary_symmetric_excluding([1.0, 2.0, 3.0], 2, {2})
        assert got == pytest.approx(sigma_bruteforce([1.0, 2.0], 2))
        assert got == pytest.approx(2.0)

    def test_negative_degree_convention(self):
        assert elementary_symmetric_excluding([1.0, 2.0, 3.0], -1, {0}) == 0.0
        assert elementary_symmetric_excluding([1.0, 2.0, 3.0], -2, {0, 2}) == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            elementary_symmetric_excluding([1.0, 2.0, 3.0], 1, {3})

    @given(spectra, st.integers(min_value=0, max_value=6), st.data())
    def test_split_recurrence(self, values, j, data):
        # sigma_j(lam) = sigma_j(lam without i) + lam_i sigma_{j-1}(lam without i)
        i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        whole = elementary_symmetric(values, j)
        rest = elementary_symmetric_excluding(values, j, {i})
        lower = elementary_symmetric_excluding(values, j - 1, {i})
        split = rest + values[i] * lower
        scale = max(1.0, abs(whole), abs(rest), abs(values[i] * lower))
        assert abs(whole - split) <= 1e-12 * scale


class TestGammaCone:
    def test_all_ones(self):
        report = in_gamma_k([1.0, 1.0, 1.0], 3)
        assert report.member and report.margin == pytest.approx(1.0)
        assert report.sigmas == pytest.approx((3.0, 3.0, 1.0))

    def test_negative_orthant(self):
        report = in_gamma_k([-1.0, -1.0, -1.0], 1)
        assert not report.member
        assert report.sigmas[0] == pytest.approx(-3.0)

    def test_mixed_signs(self):
        report = in_gamma_k([3.0, 3.0, -1.0], 2)
        assert report.member
        assert report.sigmas == pytest.approx((5.0, 3.0))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            in_gamma_k([1.0, 1.0], 3)


class TestQuotient:
    def test_symmetric_spectrum(self):
        p = QuotientParams(3, 2, 0)
        for c in (0.5, 1.0, 2.0):
            assert quotient_G([c, c, c], p) == pytest.approx(math.sqrt(3.0) * c)

    def test_enumeration_value(self):
        assert quotient_G([1.0, 2.0, 3.0], QuotientParams(3, 2, 0)) == pytest.approx(
            math.sqrt(11.0)
        )

    def test_balanced_quotient(self):
        assert quotient_G([1.0] * 4, QuotientParams(4, 3, 1)) == pytest.approx(1.0)

    def test_cone_violation(self):
        with pytest.raises(ConeViolation):
            quotient_G([-1.0, -1.0, -1.0], QuotientParams(3, 2, 0))


class TestGradient:
    def test_symmetric_value(self):
        g = grad_G([1.0, 1.0, 1.0], QuotientParams(3, 2, 0))
        assert g == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)))

    def test_euler_identity_symmetric(self):
        p = QuotientParams(3, 2, 0)
        lam = np.array([1.0, 1.0, 1.0])
        assert float(grad_G(lam, p) @ lam) == pytest.approx(math.sqrt(3.0))

    def test_euler_identity_on_cone_samples(self):
        # G is 1-homogeneous, so grad G(lam) . lam = G(lam) across Gamma_k
        p = QuotientParams(4, 3, 1)
        for lam in sample_gamma_k(p, seed=11, count=100):
            G = quotient_G(lam, p)
            assert abs(float(grad_G(lam, p) @ lam) - G) <= 1e-10 * max(1.0, abs(G))

    def test_finite_difference_oracle(self):
        p = QuotientParams(4, 3, 1)
        samples = sample_gamma_k(p, seed=42, count=120)
        h = 1e-6
        checked = 0
        for lam in samples:
            if in_gamma_k(lam, p.k).margin < 1e-2:
                continue
            g = grad_G(lam, p)
            for i in range(p.n):
                up = lam.copy()
                up[i] += h
                dn = lam.copy()
                dn[i] -= h
                fd = (quotient_G(up, p) - quotient_G(dn, p)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100

    @pytest.mark.parametrize("nkl", [(2, 2, 0), (4, 3, 1), (6, 4, 2), (8, 6, 2), (12, 6, 0)])
    def test_batched_log_gradient(self, nkl):
        # against the sigmas of lam with entry i removed, independent of the
        # division recurrence; measured worst relative gap 1.9e-14
        p = QuotientParams(*nkl)
        samples = sample_gamma_k(p, seed=17, count=200)
        got = log_quotient_grad_batch(samples, symfun.sigma_batch(samples, p.k), p.k, p.l)
        for lam, row in zip(samples, got):
            sk, sl = elementary_symmetric(lam, p.k), elementary_symmetric(lam, p.l)
            want = np.array([
                elementary_symmetric_excluding(lam, p.k - 1, {i}) / sk
                - elementary_symmetric_excluding(lam, p.l - 1, {i}) / sl
                for i in range(p.n)
            ])
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()

    def test_reverse_ordering(self):
        p = QuotientParams(5, 3, 1)
        for lam in sample_gamma_k(p, seed=9, count=50):
            lam = np.sort(lam)
            g = grad_G(lam, p)
            assert np.all(np.diff(g) <= 1e-12)


class TestOffdiagSecond:
    def test_symmetric_value(self):
        got = offdiag_second_G([1.0, 1.0, 1.0], QuotientParams(3, 2, 0), 1)
        assert got == pytest.approx(-1.0 / (2.0 * math.sqrt(3.0)))

    def test_divided_difference_identity(self):
        p = QuotientParams(3, 2, 0)
        lam = np.array([1.0, 2.0, 3.0])
        g = grad_G(lam, p)
        got = offdiag_second_G(lam, p, 1)
        assert got == pytest.approx((g[0] - g[1]) / (lam[0] - lam[1]), rel=1e-12)

    def test_matrix_perturbation_oracle(self):
        # phi(s) = G(eigvalsh(diag(lam) + s(E_0i + E_i0))); phi''(0) / 2
        p = QuotientParams(4, 3, 0)
        samples = sample_gamma_k(p, seed=5, count=60)
        h = 1e-3
        checked = 0
        for lam in samples:
            if in_gamma_k(lam, p.k).margin < 1e-2:
                continue
            for i in range(1, p.n):
                base = np.diag(lam)
                pert = np.zeros_like(base)
                pert[0, i] = pert[i, 0] = 1.0

                def phi(s):
                    return quotient_G(np.linalg.eigvalsh(base + s * pert), p)

                def second_diff(step):
                    return (phi(step) - 2.0 * phi(0.0) + phi(-step)) / step**2

                oracle = (4.0 * second_diff(h / 2) - second_diff(h)) / 3.0 / 2.0
                got = offdiag_second_G(lam, p, i)
                assert got == pytest.approx(oracle, rel=1e-5, abs=1e-9)
                assert got <= 0.0
            checked += 1
            if checked >= 30:
                break
        assert checked >= 30


class TestFTensor:
    def test_symmetric_value(self):
        ft = f_tensor([1.0, 1.0, 1.0], QuotientParams(3, 2, 0))
        assert ft == pytest.approx(np.full(3, 2.0 / math.sqrt(3.0)))

    def test_sum_identity(self):
        p = QuotientParams(5, 4, 2)
        for lam in sample_gamma_k(p, seed=2, count=40):
            g = grad_G(lam, p)
            ft = f_tensor(lam, p)
            assert ft.sum() == pytest.approx((p.n - 1) * g.sum(), rel=1e-12)

    def test_same_ordering_as_spectrum(self):
        ft = f_tensor([1.0, 2.0, 3.0], QuotientParams(3, 2, 0))
        assert ft[0] <= ft[1] <= ft[2]


class TestNewtonMaclaurin:
    def test_equality_at_symmetric_point(self):
        s1, s2 = newton_maclaurin_slack([1.0, 1.0, 1.0], QuotientParams(3, 2, 0))
        assert s1 == pytest.approx(0.0, abs=1e-14)
        assert s2 == pytest.approx(0.0, abs=1e-14)

    def test_worked_quotient_comparison(self):
        # normalized quotient (sigma_2/3)^(1/2) against sigma_1/3 for (1,2,3)
        _, s2 = newton_maclaurin_slack([1.0, 2.0, 3.0], QuotientParams(3, 2, 0))
        assert s2 == pytest.approx(2.0 - math.sqrt(11.0 / 3.0), rel=1e-12)
        assert math.sqrt(11.0 / 3.0) == pytest.approx(1.9149, abs=1e-4)

    def test_nondegenerate_first_inequality(self):
        # l >= 1 makes both sides of the product inequality active
        p = QuotientParams(4, 3, 1)
        for lam in sample_gamma_k(p, seed=8, count=500):
            s1, s2 = newton_maclaurin_slack(lam, p)
            sig = [elementary_symmetric(lam, j) for j in range(5)]
            scale1 = max(1.0, abs(sig[1] * sig[2]), abs(sig[0] * sig[3]))
            assert s1 >= -1e-10 * scale1
            assert s2 >= -1e-10 * max(1.0, s2 + 1.0)

    def test_second_inequality_other_index_pair(self):
        # the (k, l+1) quotient sits below the (k, l) one: raising the lower
        # index shortens the chord of the log-concave normalized sequence
        p = QuotientParams(5, 4, 2)
        for lam in sample_gamma_k(p, seed=12, count=500):
            sig = [elementary_symmetric(lam, j) for j in range(6)]
            norm = lambda j: sig[j] / math.comb(p.n, j)
            lhs = (norm(p.k) / norm(p.l + 1)) ** (1.0 / (p.k - p.l - 1))
            rhs = (norm(p.k) / norm(p.l)) ** (1.0 / (p.k - p.l))
            assert rhs - lhs >= -1e-10 * max(1.0, lhs + rhs)


class TestSampling:
    def test_postcondition_and_determinism(self):
        p = QuotientParams(3, 2, 0)
        a = sample_gamma_k(p, seed=1, count=64)
        b = sample_gamma_k(p, seed=1, count=64)
        assert a.shape == (64, 3)
        assert np.array_equal(a, b)
        for lam in a:
            assert in_gamma_k(lam, p.k).member

    def test_all_samples_inside_cone(self):
        p = QuotientParams(5, 4, 2)
        samples = sample_gamma_k(p, seed=3, count=1000)
        assert samples.shape == (1000, 5)
        margins = symfun.gamma_margins(samples, p.k)
        assert np.all(margins > 0.0)

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(oracles, "SAMPLING_DRAW_CAP", 0)
        with pytest.raises(SamplingExhausted):
            sample_gamma_k(QuotientParams(3, 2, 0), seed=0, count=1)


class TestConeProperties:
    def test_ellipticity_and_lower_bound(self):
        for (n, k, l) in ((3, 2, 0), (4, 3, 1), (5, 4, 2)):
            p = QuotientParams(n, k, l)
            floor = p.binomial_ratio ** (1.0 / p.gap)
            for lam in sample_gamma_k(p, seed=21, count=300):
                g = grad_G(lam, p)
                assert np.all(g > 0.0)
                assert g.sum() >= floor - 1e-10

    def test_segment_concavity(self):
        p = QuotientParams(4, 3, 1)
        samples = sample_gamma_k(p, seed=17, count=200)
        rng = np.random.default_rng(0)
        for _ in range(300):
            lam, mu = samples[rng.integers(0, len(samples), size=2)]
            t = float(rng.uniform())
            mix = quotient_G(t * lam + (1 - t) * mu, p)
            chord = t * quotient_G(lam, p) + (1 - t) * quotient_G(mu, p)
            scale = max(1.0, abs(chord))
            assert mix >= chord - 1e-10 * scale

    def test_divided_difference_identity_random(self):
        p = QuotientParams(5, 3, 1)
        count = 0
        for lam in sample_gamma_k(p, seed=33, count=200):
            if np.abs(lam[0] - lam[1:]).min() < 0.05:
                continue
            g = grad_G(lam, p)
            for i in range(1, p.n):
                got = offdiag_second_G(lam, p, i)
                assert got * (lam[i] - lam[0]) == pytest.approx(
                    g[i] - g[0], rel=1e-8, abs=1e-12
                )
                assert got <= 0.0
            count += 1
        assert count >= 50
