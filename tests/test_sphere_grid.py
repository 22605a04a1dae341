"""Grid construction and jet accuracy against analytic differentiation."""

import math
import warnings

import numpy as np
import pytest

from hessquot.errors import SizeMismatch, TooCoarse
from hessquot.sphere_grid import _TridiagonalLU, build_axisym_grid, build_s2_grid, jet_arrays
from oracles import axisym_jet_operator, s2_jet_operator, s2_ring_symbols


def s2_angles(grid):
    tt = np.repeat(grid.theta, grid.n_phi)
    pp = np.tile(grid.phi, grid.n_theta)
    return tt, pp


def weighted_l2(err, grid, n=2):
    w = grid.quadrature_weights(n)
    return math.sqrt(float(np.sum(w * err**2)))


class TestBuildGrids:
    def test_axisym_spacing(self):
        grid = build_axisym_grid(17)
        assert grid.spacing == pytest.approx(math.pi / 16.0)

    def test_axisym_endpoints(self):
        grid = build_axisym_grid(16)
        assert grid.theta[0] == 0.0
        assert grid.theta[-1] == pytest.approx(math.pi)

    def test_axisym_too_coarse(self):
        with pytest.raises(TooCoarse):
            build_axisym_grid(5)

    def test_s2_offsets(self):
        grid = build_s2_grid(16, 32)
        assert grid.dtheta == pytest.approx(math.pi / 16.0)
        assert grid.theta[0] == pytest.approx(math.pi / 32.0)
        assert grid.node_count == 16 * 32

    def test_s2_odd_phi_rejected(self):
        with pytest.raises(TooCoarse):
            build_s2_grid(16, 33)

    def test_s2_too_coarse(self):
        with pytest.raises(TooCoarse):
            build_s2_grid(8, 32)

    @pytest.mark.parametrize("build", [lambda: build_axisym_grid(33),
                                       lambda: build_s2_grid(16, 32)], ids=["axisym", "s2"])
    def test_grids_compare_and_hash_by_identity(self, build):
        grid, twin = build(), build()
        assert grid == grid and grid != twin
        assert {grid: "a", twin: "b"}[grid] == "a"


def sorted_entries(op):
    """(row, column, value bits) of every stored entry, sorted by row and column."""
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    order = np.lexsort((op.indices, rows))
    return rows[order], op.indices[order], op.data[order].view(np.int64)


class TestOperatorReference:
    """The jet operators, written by index arithmetic, hold the same entries,
    bit for bit, as the sparse-algebra build in tests/oracles.py."""

    @pytest.mark.parametrize("shape", [(16,), (17,), (33,), (1025,), (50_000,), (16, 32),
                                       (17, 32), (16, 34), (24, 48), (48, 96), (33, 66)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_entries_match_the_reference(self, shape):
        if len(shape) == 1:
            grid = build_axisym_grid(*shape)
            op, ref = grid.jet_operator, axisym_jet_operator(grid)
        else:
            grid = build_s2_grid(*shape)
            op, ref = grid.jet_operator, s2_jet_operator(grid)
        assert op.shape == ref.shape
        for got, expected in zip(sorted_entries(op), sorted_entries(ref)):
            assert np.array_equal(got, expected)
        jets = jet_arrays(np.full(grid.node_count, 1.3), grid, 2)
        assert np.all(jets[0] == 1.3) and np.all(jets[1:] == 0.0)

    # odd n_theta, and n_phi = 2 (mod 4), where the pole crossing n_phi/2 is odd
    S2_SHAPES = [(16, 32), (17, 32), (16, 34), (24, 48), (48, 96), (33, 66)]

    @pytest.mark.parametrize("shape", S2_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_s2_jets_are_the_csr_product_bit_for_bit(self, shape):
        # each row sums its entries in stored order from 0.0, so -0.0 entries
        # show a sum started from its first term, and the rows that cross a
        # pole or wrap in phi a sum in offset order
        grid = build_s2_grid(*shape)
        op = s2_jet_operator(grid)
        rng = np.random.default_rng(23)
        for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
            w = scale * rng.standard_normal(grid.node_count)
            w[rng.random(grid.node_count) < 0.2] = 0.0
            w[rng.random(grid.node_count) < 0.2] = -0.0
            got, expected = jet_arrays(w, grid, 2), (op @ w).reshape(6, -1)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("shape", S2_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_s2_ring_symbols_match_the_csr_ring_rows(self, shape):
        grid = build_s2_grid(*shape)
        for got, expected in zip(grid._ring_symbols, s2_ring_symbols(grid)):
            assert got.shape == expected.shape and np.array_equal(got, expected)

    # J's duplicate sums follow each row's entry order, so the grid's own
    # operator is held to the order its jet_operator docstring states
    @pytest.mark.parametrize("N", [16, 17])
    def test_axisym_rows_are_ascending(self, N):
        op = build_axisym_grid(N).jet_operator
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        assert np.all(np.diff(op.indices)[rows[1:] == rows[:-1]] > 0)

    @pytest.mark.parametrize("shape", [(16, 32), (17, 34)], ids=["16x32", "17x34"])
    def test_s2_rows_keep_the_documented_entry_order(self, shape):
        # per block, runs of (entries, +1 ascending or -1 descending column)
        runs = ([(1, 1)], [(2, 1)], [(2, -1)], [(3, 1)], [(4, 1), (2, -1)], [(2, 1), (3, 1)])
        grid = build_s2_grid(*shape)
        op, N = grid.jet_operator, grid.node_count
        for b, block_runs in enumerate(runs):
            cols = op.indices[op.indptr[b * N]:op.indptr[(b + 1) * N]].reshape(N, -1)
            assert cols.shape[1] == sum(k for k, _ in block_runs)
            start = 0
            for k, sign in block_runs:
                assert np.all(sign * np.diff(cols[:, start:start + k], axis=1) > 0)
                start += k


class TestAxisymJets:
    def test_constant_field(self):
        grid = build_axisym_grid(33)
        for n in (3, 12):
            jets = jet_arrays(np.full(33, 1.7), grid, n)
            # (6, N) frame jets for every n, never (N, n, n)
            assert jets.shape == (6, 33)
            assert jets[0] == pytest.approx(np.full(33, 1.7))
            assert np.abs(jets[1:]).max() == 0.0

    def test_zonal_cosine_at_equator(self):
        delta = 0.05
        N = 17  # odd so theta = pi/2 is a node
        grid = build_axisym_grid(N)
        field = 1.0 + delta * np.cos(grid.theta)
        jets = jet_arrays(field, grid, 3)
        m = N // 2
        h2 = grid.spacing**2
        assert jets[1, m] == pytest.approx(-delta, abs=delta * h2)
        assert jets[3, m] == pytest.approx(0.0, abs=delta * h2)
        assert jets[5, m] == pytest.approx(0.0, abs=delta * h2)

    def test_pole_limit(self):
        delta = 0.05
        grid = build_axisym_grid(65)
        field = 1.0 + delta * np.cos(grid.theta)
        jets = jet_arrays(field, grid, 4)
        # at theta = 0 the orbit entry takes the limit rho''(0) = -delta
        assert jets[1, 0] == 0.0
        for r in (3, 5):
            assert jets[r, 0] == pytest.approx(-delta, abs=10 * delta * grid.spacing**2)
        # at theta = pi, rho''(pi) = -delta * cos(pi)'' limit is -delta * cos(pi) = +delta
        for r in (3, 5):
            assert jets[r, -1] == pytest.approx(delta, abs=10 * delta * grid.spacing**2)

    def test_interior_accuracy_second_order(self):
        delta = 0.05
        errors = []
        for N in (33, 65):
            grid = build_axisym_grid(N)
            field = 1.0 + delta * np.cos(2.0 * grid.theta)
            jets = jet_arrays(field, grid, 3)
            d1 = -2.0 * delta * np.sin(2.0 * grid.theta)
            d2 = -4.0 * delta * np.cos(2.0 * grid.theta)
            with np.errstate(divide="ignore", invalid="ignore"):
                tang = np.where(
                    np.abs(np.sin(grid.theta)) < 1e-12,
                    d2,
                    np.cos(grid.theta) * d1 / np.sin(grid.theta),
                )
            err = max(
                np.abs(jets[1] - d1).max(),
                np.abs(jets[3] - d2).max(),
                np.abs(jets[5] - tang).max(),
            )
            errors.append(err)
        assert errors[0] / errors[1] >= 3.5

    def test_reflection_symmetry(self):
        grid = build_axisym_grid(33)
        field = 1.0 + 0.1 * np.cos(2.0 * grid.theta)  # symmetric about pi/2
        jets = jet_arrays(field, grid, 2)
        assert jets[1] == pytest.approx(-jets[1, ::-1], abs=1e-12)
        assert jets[3] == pytest.approx(jets[3, ::-1], abs=1e-12)

    def test_size_mismatch(self):
        grid = build_axisym_grid(17)
        with pytest.raises(SizeMismatch):
            jet_arrays(np.ones(16), grid, 3)


class TestS2Jets:
    def test_constant_field(self):
        grid = build_s2_grid(16, 32)
        jets = jet_arrays(np.full(grid.node_count, 2.0), grid, 2)
        assert np.abs(jets[1:, ::37]).max() == 0.0

    def test_zonal_matches_analytic(self):
        delta = 0.05
        grid = build_s2_grid(32, 64)
        tt, _ = s2_angles(grid)
        field = 1.0 + delta * np.cos(tt)
        jets = jet_arrays(field, grid, 2)
        d1 = -delta * np.sin(tt)
        d2 = -delta * np.cos(tt)
        tang = np.cos(tt) * d1 / np.sin(tt)
        tol = 10 * delta * grid.dtheta**2
        assert np.abs(jets[1] - d1).max() < tol
        assert np.abs(jets[2]).max() == 0.0
        assert np.abs(jets[3] - d2).max() < tol
        assert np.abs(jets[4]).max() < tol
        assert np.abs(jets[5] - tang).max() < tol

    def test_tesseral_matches_analytic_interior(self):
        # rho = 1 + delta sin(t) cos(p): covariant hessian is -delta sin(t) cos(p) I
        delta = 0.05
        grid = build_s2_grid(32, 64)
        tt, pp = s2_angles(grid)
        field = 1.0 + delta * np.sin(tt) * np.cos(pp)
        jets = jet_arrays(field, grid, 2)
        gref = np.stack([delta * np.cos(tt) * np.cos(pp), -delta * np.sin(pp)])
        href = -delta * np.sin(tt) * np.cos(pp)
        interior = (tt > 0.4) & (tt < math.pi - 0.4)
        tol = 20 * delta * grid.dtheta**2
        assert np.abs(jets[1:3] - gref)[:, interior].max() < tol
        assert np.abs(jets[3] - href)[interior].max() < tol
        assert np.abs(jets[4])[interior].max() < tol
        assert np.abs(jets[5] - href)[interior].max() < tol
        # pole rows remain bounded by a first-order envelope
        assert np.abs(jets[5] - href).max() < delta * grid.dtheta

    def test_convergence_order_weighted(self):
        delta = 0.05
        errors = []
        for nt, nphi in ((16, 32), (32, 64), (64, 128)):
            grid = build_s2_grid(nt, nphi)
            tt, pp = s2_angles(grid)
            field = 1.0 + delta * np.sin(tt) * np.cos(pp)
            jets = jet_arrays(field, grid, 2)
            gref = np.stack([delta * np.cos(tt) * np.cos(pp), -delta * np.sin(pp)])
            href = -delta * np.sin(tt) * np.cos(pp)
            hij = np.stack([href, np.zeros_like(href), href])
            err = np.abs(jets[1:3] - gref).max(axis=0) + np.abs(jets[3:] - hij).max(axis=0)
            errors.append(weighted_l2(err, grid))
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5

    def test_size_mismatch(self):
        grid = build_s2_grid(16, 32)
        with pytest.raises(SizeMismatch):
            jet_arrays(np.ones(100), grid, 2)


class TestCoarsening:
    """coarsened() halves the 2-sphere grid; prolong interpolates back to 4th order."""

    def test_s2_halves(self):
        coarse = build_s2_grid(48, 96).coarsened()
        assert (coarse.n_theta, coarse.n_phi) == (24, 48)

    @pytest.mark.parametrize("shape", [(16, 32), (18, 36), (32, 66)])
    def test_s2_without_a_coarser_rung(self, shape):
        # a half below the minimum, an odd half of n_phi, an odd half of n_phi
        assert build_s2_grid(*shape).coarsened() is None

    @pytest.mark.parametrize("N", [17, 33, 129, 1025])
    def test_axisym_is_not_halved(self, N):
        assert build_axisym_grid(N).coarsened() is None

    @staticmethod
    def prolong_error(field, coarse_shape):
        fine = build_s2_grid(2 * coarse_shape[0], 2 * coarse_shape[1])
        coarse = build_s2_grid(*coarse_shape)
        err = fine.prolong(field(*s2_angles(coarse))) - field(*s2_angles(fine))
        return np.abs(err).reshape(fine.n_theta, fine.n_phi)

    def test_constant_field(self):
        err = self.prolong_error(lambda tt, pp: np.full_like(tt, 1.7), (16, 32))
        assert err.max() <= 1e-15

    def test_non_zonal_fourth_order(self):
        # odd in cos(theta) and first-degree in phi, so the antipodal ghost rows matter
        def field(tt, pp):
            return 1.0 + 0.1 * np.sin(tt) * np.cos(tt) * np.cos(pp) + 0.05 * np.cos(tt)

        errors = [self.prolong_error(field, shape).max()
                  for shape in ((16, 32), (32, 64), (64, 128))]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(r >= 14.0 for r in ratios), f"errors {errors}"

    def test_x2_next_to_the_poles(self):
        # x2 = sin(theta) cos(phi) changes sign across each pole
        err = self.prolong_error(lambda tt, pp: np.sin(tt) * np.cos(pp), (32, 64))
        polar = err[[0, 1, -2, -1]].max()
        assert polar <= 1e-6
        assert polar <= err[2:-2].max()

    def test_prolong_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            build_s2_grid(32, 64).prolong(np.ones(2048))


class TestGridInterface:
    """The dimension rule and the Jacobian assembly that both grids share."""

    @staticmethod
    def grid_and_wrong_n(mode):
        return (build_axisym_grid(33), 1) if mode == "axisym" else (build_s2_grid(16, 32), 3)

    @pytest.mark.parametrize("call", ["jet_arrays", "node_frames", "quadrature_weights"])
    @pytest.mark.parametrize("mode", ["axisym", "s2"])
    def test_wrong_dimension_raises(self, mode, call):
        grid, n = self.grid_and_wrong_n(mode)
        with pytest.raises(ValueError, match=f"got (n = )?{n}$"):
            if call == "jet_arrays":
                jet_arrays(np.ones(grid.node_count), grid, n)
            else:
                getattr(grid, call)(n)

    @pytest.mark.parametrize("mode", ["axisym", "s2"])
    def test_row_0_is_the_field_and_constants_have_zero_derivatives(self, mode):
        # exact, so that a reordering of the stencil sums shows
        grid, _ = self.grid_and_wrong_n(mode)
        field = np.random.default_rng(11).uniform(0.5, 2.0, size=grid.node_count)
        assert np.array_equal(jet_arrays(field, grid, 2)[0], field)
        jets = jet_arrays(np.full(grid.node_count, 1.7), grid, 2)
        assert np.all(jets[0] == 1.7)
        assert np.all(jets[1:] == 0.0)

    @pytest.mark.parametrize("mode, empty, gradient_rows",
                             [("axisym", (2, 4), (1,)), ("s2", (), (1, 2))], ids=["axisym", "s2"])
    def test_operator_has_one_block_per_frame_row(self, mode, empty, gradient_rows):
        # both grids make all six frame rows; a row that is 0 for every field
        # (grad_2 and hess_12 of a zonal field) is an empty CSR block
        grid, _ = self.grid_and_wrong_n(mode)
        N = grid.node_count
        op = grid.jet_operator
        assert op.format == "csr" and op.shape == (6 * N, N)
        block_sizes = np.diff(op.indptr[::N])
        assert tuple(r for r in range(6) if block_sizes[r] == 0) == empty
        assert grid.gradient_rows == gradient_rows

    @pytest.mark.parametrize("mode", ["axisym", "s2"])
    def test_linearize_pairs_partials_with_jets(self, mode):
        grid, _ = self.grid_and_wrong_n(mode)
        N = grid.node_count
        rng = np.random.default_rng(13)
        partials = rng.normal(size=(6, N))
        w = rng.normal(size=N)
        expected = np.einsum("rn,rn->n", partials, jet_arrays(w, grid, 2))
        got = grid.linearize(partials) @ w
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_linearize_on_a_grid_past_int32_keys(self):
        # N * N >= 2**31, where the Jacobian pattern's row * N + col keys no
        # longer fit the operator's int32 indices
        N = 50_000
        grid = build_axisym_grid(N)
        rng = np.random.default_rng(19)
        partials = rng.normal(size=(6, N))
        w = rng.normal(size=N)
        expected = np.einsum("rn,rn->n", partials, jet_arrays(w, grid, 2))
        got = grid.linearize(partials) @ w
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_axisym_linearize_skips_the_rows_it_does_not_make(self):
        # grad_2 and hess_12 are 0 for every zonal field, so their partials
        # must not enter the Jacobian
        grid = build_axisym_grid(33)
        rng = np.random.default_rng(17)
        partials = rng.normal(size=(6, grid.node_count))
        other = partials.copy()
        other[[2, 4]] = rng.normal(size=(2, grid.node_count))
        a, b = grid.linearize(partials), grid.linearize(other)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


class TestFieldNorms:
    """The quadrature L2 norm of the unit field, sqrt(sum of the weights), is
    the square root of the sphere's area."""

    def test_sphere_area_quadrature(self):
        w = build_s2_grid(64, 128).quadrature_weights(2)
        assert math.sqrt(w.sum()) == pytest.approx(math.sqrt(4.0 * math.pi), rel=0.01)

    def test_axisym_measure_matches_sphere_area(self):
        # with n = 2 the weights sum to the 2-sphere area
        w = build_axisym_grid(129).quadrature_weights(2)
        assert math.sqrt(w.sum()) == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-3)


class TestTridiagonalLU:
    """The batched factor of the 2-D grid's phi-mode blocks against a dense
    solve of each block."""

    MODES = 8

    @staticmethod
    def bands(n, seed):
        """Random complex tridiagonals, none diagonally dominant: the first
        half lean on the superdiagonal and never swap rows; the second half
        lean below the diagonal in rows 4-8 only, and swap there."""
        rng = np.random.default_rng(seed)
        shape = (3, n, TestTridiagonalLU.MODES)
        bands = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        half = TestTridiagonalLU.MODES // 2
        bands[0] *= 0.05
        bands[1] += 2.0 * np.sign(bands[1].real)
        bands[2] *= 4.0
        bands[0, 4:9, half:] *= 200.0
        return bands

    @staticmethod
    def dense(bands, j):
        return (np.diag(bands[1, :, j]) + np.diag(bands[0, 1:, j], -1)
                + np.diag(bands[2, :-1, j], 1))

    @pytest.mark.parametrize("n", [16, 17, 48])
    def test_matches_dense_solves(self, n):
        bands = self.bands(n, seed=n)
        for j in range(self.MODES):
            rows = np.abs(self.dense(bands, j))
            assert (2.0 * rows.diagonal() < rows.sum(axis=1)).any()
        lu = _TridiagonalLU(bands)
        half = self.MODES // 2
        assert not lu.swaps[:, :half].any() and lu.swaps[:, half:].any(axis=0).all()
        rng = np.random.default_rng(n + 1)
        b = rng.normal(size=(n, self.MODES)) + 1j * rng.normal(size=(n, self.MODES))
        x = lu.solve(b)
        for j in range(self.MODES):
            expected = np.linalg.solve(self.dense(bands, j), b[:, j])
            assert np.abs(x[:, j] - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("column", [0, 7, 15])
    def test_exactly_singular_block_raises_without_warning(self, column):
        # block 5 has a zero column, so its pivot there is exactly 0
        bands = self.bands(16, seed=3)
        bands[1, column, 5] = 0.0
        if column > 0:
            bands[2, column - 1, 5] = 0.0
        if column < 15:
            bands[0, column + 1, 5] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="exactly singular"):
                _TridiagonalLU(bands)
