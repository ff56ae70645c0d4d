"""Path matrix construction, TV operator, and the L1/TV solver."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from soscorr import kernels, tomo
from soscorr.geometry import ImagingGrid, TransducerArray, element_position
from soscorr.pipeline import (RECON_TRACKING, PipelineConfig, apply_quick,
                              recon_search_radius)
from soscorr.tomo import (
    TV_AXIAL_WEIGHT,
    TV_LATERAL_WEIGHT,
    SolverError,
    build_path_matrix,
    make_objective,
    ray_weights,
    reconstruct,
    to_sos,
    tv_operator,
)


def unit_grid(nx=10, nz=10, d=1e-3, x0=None, z0=5e-3):
    if x0 is None:
        x0 = -(nx - 1) / 2.0 * d
    return ImagingGrid(x0=x0, z0=z0, dx=d, dz=d, nx=nx, nz=nz)


def full_path_matrix(pairs, meas, slow, array):
    """build_path_matrix with every node of meas kept for every pair."""
    masks = [np.ones((meas.nz, meas.nx), dtype=bool)] * len(pairs)
    return build_path_matrix(pairs, meas, slow, masks, array)


class TestRayWeights:
    def test_vertical_ray_cell_lengths(self):
        g = unit_grid()
        # straight down through the column x = x0, full grid depth
        x = g.x0
        idx, lens = ray_weights((x, g.z_min), (x, g.z_max), g)
        assert idx.size == g.nz
        assert np.allclose(lens, g.dz)
        assert np.all(idx % g.nx == 0)

    def test_diagonal_ray(self):
        g = unit_grid(nx=4, nz=4)
        p0 = (g.x_min, g.z_min)
        p1 = (g.x_min + 4 * g.dx, g.z_min + 4 * g.dz)
        idx, lens = ray_weights(p0, p1, g)
        assert idx.size == 4
        assert np.allclose(lens, g.dx * np.sqrt(2.0))

    def test_zero_length_ray_is_empty(self):
        g = unit_grid()
        idx, lens = ray_weights((0.0, 0.01), (0.0, 0.01), g)
        assert idx.size == 0
        assert lens.size == 0

    def test_ray_along_grid_edge_is_inside(self):
        """A ray on the grid's left or top edge crosses the first column
        or row, as slab_clip counts an edge as inside."""
        g = unit_grid(nx=6, nz=8)
        idx, lens = ray_weights((g.x_min, g.z_min), (g.x_min, g.z_max), g)
        assert list(idx) == list(range(0, g.nx * g.nz, g.nx))
        assert np.allclose(lens, g.dz)
        idx, lens = ray_weights((g.x_max, g.z_min), (g.x_min, g.z_min), g)
        assert sorted(idx) == list(range(g.nx))
        assert np.allclose(lens, g.dx)

    def test_rays_along_near_and_far_edges_match(self):
        """The left and right edges each cross a full column, 8 cells and
        8 mm; the top and bottom edges each cross a full row."""
        g = unit_grid(nx=6, nz=8)
        for x, col in ((g.x_min, 0), (g.x_max, g.nx - 1)):
            idx, lens = ray_weights((x, g.z_min), (x, g.z_max), g)
            assert list(idx) == list(range(col, g.nx * g.nz, g.nx))
            assert lens.sum() == pytest.approx(8e-3, rel=1e-12)
        for z, row in ((g.z_min, 0), (g.z_max, g.nz - 1)):
            idx, lens = ray_weights((g.x_min, z), (g.x_max, z), g)
            assert list(idx) == list(range(row * g.nx, (row + 1) * g.nx))
            assert lens.sum() == pytest.approx(6e-3, rel=1e-12)

    def test_ray_missing_grid_is_empty(self):
        g = unit_grid()
        idx, _ = ray_weights((0.05, 0.001), (0.06, 0.002), g)
        assert idx.size == 0

    def test_row_sum_equals_clipped_euclidean_length(self):
        """1000 random rays: summed cell lengths match the in-grid span."""
        g = unit_grid(nx=12, nz=15)
        rng = np.random.default_rng(7)
        n_checked = 0
        for _ in range(1000):
            # endpoints inside the grid so the clipped span is the full ray
            p0 = (rng.uniform(g.x_min, g.x_max), rng.uniform(g.z_min, g.z_max))
            p1 = (rng.uniform(g.x_min, g.x_max), rng.uniform(g.z_min, g.z_max))
            _, lens = ray_weights(p0, p1, g)
            expected = np.hypot(p1[0] - p0[0], p1[1] - p0[1])
            if expected == 0.0:
                continue
            assert lens.sum() == pytest.approx(expected, rel=1e-9)
            n_checked += 1
        assert n_checked >= 999


class TestBuildPathMatrix:
    def setup_method(self):
        self.array = TransducerArray()
        self.slow = unit_grid(nx=8, nz=8, z0=6.5e-3, x0=-3.5e-3)
        self.meas = ImagingGrid(x0=-2e-3, z0=8e-3, dx=1e-3, dz=1e-3,
                                nx=5, nz=5)

    def test_identical_pair_gives_zero_rows(self):
        L = full_path_matrix([(60, 60)], self.meas, self.slow, self.array)
        assert L.matrix.shape == (25, 64)
        assert abs(L.matrix).sum() == 0.0

    def test_row_equals_difference_of_rays(self):
        L = full_path_matrix([(55, 65)], self.meas, self.slow, self.array)
        X, Z = self.meas.meshgrid()
        node = (X.ravel()[13], Z.ravel()[13])
        pa = element_position(self.array, 55)
        pb = element_position(self.array, 65)
        ia, la = ray_weights(pa, node, self.slow)
        ib, lb = ray_weights(pb, node, self.slow)
        expected = np.zeros(64)
        np.add.at(expected, ia, la)
        np.add.at(expected, ib, -lb)
        assert np.allclose(L.matrix[13].toarray().ravel(), expected,
                           atol=1e-15)

    def test_homogeneous_slowness_gives_path_difference(self):
        """L @ (const vector) = const * (|p-a| - |p-b|) per node.

        Only holds when both rays lie fully inside the slowness grid,
        so use in-grid pseudo element positions via a custom check on
        rows whose rays are unclipped: here the grid reaches z=6e-3 down
        to 14e-3 and elements sit at z=0, so rays are clipped; instead
        verify against the clipped analytic value from ray_weights sums.
        """
        L = full_path_matrix([(50, 78)], self.meas, self.slow, self.array)
        const = 2.5e-6
        out = L.matrix @ np.full(64, const)
        X, Z = self.meas.meshgrid()
        pa = element_position(self.array, 50)
        pb = element_position(self.array, 78)
        for row in range(25):
            node = (X.ravel()[row], Z.ravel()[row])
            _, la = ray_weights(pa, node, self.slow)
            _, lb = ray_weights(pb, node, self.slow)
            assert out[row] == pytest.approx(const * (la.sum() - lb.sum()),
                                             rel=1e-9, abs=1e-18)

    def test_mask_drops_rows(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, :] = True
        L = build_path_matrix([(55, 65)], self.meas, self.slow, [mask],
                              self.array)
        full = full_path_matrix([(55, 65)], self.meas, self.slow, self.array)
        assert L.matrix.shape[0] == 5
        # the kept rows are the unmasked matrix's rows at the kept nodes
        assert np.array_equal(
            L.matrix.toarray(),
            full.matrix.toarray()[np.flatnonzero(mask.ravel())])

    @pytest.mark.parametrize("z0, digest", [
        (0.007156249999999999, "46b6fc83d8da9d6a"),
        (0.00723125, "900f089609eb3a19"),
    ], ids=["c_bf-1477.5", "c_bf-1522.5"])
    def test_criterion_4_matrices_keep_their_bytes(self, z0, digest):
        """Quick criterion 4's path matrices before correction, all nodes.

        The grids are the reconstruction tracker's measurement grids at
        c_bf 1477.5 and 1522.5 m/s; each solve keeps a subset of these
        rows. The digests are those of the code before slab_clip was
        shared with the simulator.
        """
        cfg = apply_quick(PipelineConfig())
        meas = ImagingGrid(x0=-0.019049999999999997, z0=z0, dx=6e-4,
                           dz=3e-4, nx=64, nz=76)
        m = full_path_matrix(list(cfg.recon_pairs), meas, cfg.slow_grid(),
                             cfg.array).matrix
        h = hashlib.sha256()
        for a, dtype in ((m.data, "<f8"), (m.indices, "<i8"),
                         (m.indptr, "<i8")):
            h.update(a.astype(dtype).tobytes())
        assert h.hexdigest()[:16] == digest

    def test_multiple_pairs_stack(self):
        pairs = [(40, 56), (56, 72), (72, 88)]
        L = full_path_matrix(pairs, self.meas, self.slow, self.array)
        assert L.matrix.shape[0] == 3 * 25
        # block m of rows is pair m's own matrix, in the order given
        for m, pair in enumerate(pairs):
            own = full_path_matrix([pair], self.meas, self.slow, self.array)
            assert np.array_equal(L.matrix[25 * m:25 * (m + 1)].toarray(),
                                  own.matrix.toarray())


class TestTVOperator:
    def test_constant_map_in_nullspace(self):
        g = unit_grid(nx=6, nz=5)
        D = tv_operator(g)
        assert np.allclose(D @ np.full(30, 3.0), 0.0)

    def test_row_count(self):
        g = unit_grid(nx=6, nz=5)
        D = tv_operator(g)
        assert D.shape == ((5 - 1) * 6 + 5 * (6 - 1), 30)

    def test_impulse_touches_four_differences(self):
        g = unit_grid(nx=5, nz=5)
        D = tv_operator(g)
        e = np.zeros(25)
        e[12] = 1.0  # interior cell
        v = D @ e
        assert np.count_nonzero(v) == 4
        # two axial and two lateral differences, each with its weight
        weights = [TV_AXIAL_WEIGHT] * 2 + [TV_LATERAL_WEIGHT] * 2
        assert sorted(np.abs(v[v != 0])) == sorted(weights)

    def test_anisotropic_weights(self):
        """Lateral-only variation shows only in the lateral rows, scaled
        by the lateral weight, and axial-only variation only in the
        axial rows."""
        g = unit_grid(nx=4, nz=4)
        D = tv_operator(g)
        n_ax = (4 - 1) * 4
        lateral = np.tile(np.arange(4.0), 4)
        assert np.allclose(D[:n_ax] @ lateral, 0.0)
        assert np.allclose(D[n_ax:] @ lateral, TV_LATERAL_WEIGHT)
        axial = np.repeat(np.arange(4.0), 4)
        assert np.allclose(D[:n_ax] @ axial, TV_AXIAL_WEIGHT)
        assert np.allclose(D[n_ax:] @ axial, 0.0)

    @pytest.mark.parametrize("nx, nz", [(5, 1), (1, 5), (3, 4)],
                             ids=["one-row", "one-column", "3x4"])
    def test_equals_hand_built_differences(self, nx, nz):
        """Axial rows first, then lateral rows, each a forward difference
        from a cell to its next neighbour, in row-major cell order."""
        g = unit_grid(nx=nx, nz=nz)
        rows = []
        for weight, step, cells in (
                (TV_AXIAL_WEIGHT, nx, [(iz, ix) for iz in range(nz - 1)
                            for ix in range(nx)]),
                (TV_LATERAL_WEIGHT, 1, [(iz, ix) for iz in range(nz)
                            for ix in range(nx - 1)])):
            for iz, ix in cells:
                row = np.zeros(nx * nz)
                cell = iz * nx + ix
                row[cell], row[cell + step] = -weight, weight
                rows.append(row)
        expected = np.array(rows).reshape(-1, nx * nz)
        D = tv_operator(g)
        assert D.format == "csr"
        assert np.array_equal(D.toarray(), expected)
        assert D.nnz == 2 * expected.shape[0]


class TestObjectiveGradient:
    def test_gradient_matches_central_differences(self):
        array = TransducerArray()
        slow = unit_grid(nx=8, nz=8, z0=6.5e-3, x0=-3.5e-3)
        meas = ImagingGrid(x0=-2e-3, z0=8e-3, dx=1e-3, dz=1e-3, nx=5, nz=5)
        L = full_path_matrix([(55, 65), (60, 70)], meas, slow, array)
        D = tv_operator(slow)
        rng = np.random.default_rng(1)
        n = 64
        x = rng.standard_normal(n)
        d = 1e-3 * rng.standard_normal(L.matrix.shape[0])
        lam_eff, eps, h = 0.3, 1e-3, 1e-5
        objective = make_objective(L.matrix, d, D, lam_eff, eps)
        _, g = objective(x)
        g_fd = np.zeros(n)
        for i in range(n):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            fp, _ = objective(xp)
            fm, _ = objective(xm)
            g_fd[i] = (fp - fm) / (2 * h)
        # norm-based comparison: individual components may be near zero,
        # which makes a per-component relative error ill-conditioned
        assert np.linalg.norm(g_fd - g) / np.linalg.norm(g_fd) < 1e-5

    def test_zero_residual_zero_gradient(self):
        g = unit_grid(nx=3, nz=3)
        L_mat = sp.eye(9, format="csr")
        D = tv_operator(g)
        f, grad = make_objective(L_mat, np.zeros(9), D, 0.5,
                                 1e-10)(np.zeros(9))
        assert f == 0.0
        assert np.allclose(grad, 0.0)


class TestReconstruct:
    def make_problem(self):
        array = TransducerArray()
        slow = ImagingGrid(x0=-9.5e-3, z0=5.5e-3, dx=1e-3, dz=1e-3,
                           nx=20, nz=20)
        meas = ImagingGrid(x0=-8e-3, z0=7e-3, dx=0.5e-3, dz=0.5e-3,
                           nx=33, nz=34)
        pairs = [(40, 56), (48, 64), (56, 72), (64, 80), (72, 88), (32, 96)]
        L = full_path_matrix(pairs, meas, slow, array)
        D = tv_operator(slow)
        return L, D, slow

    def test_zero_delays_give_zero_map(self):
        L, D, slow = self.make_problem()
        dsigma, info = reconstruct(L, np.zeros(L.matrix.shape[0]), D)
        assert np.allclose(dsigma, 0.0)
        assert info.converged is True

    def bump_delays(self, L, slow):
        """Noiseless delays of a Gaussian slowness bump."""
        X, Z = slow.meshgrid()
        x_true = (1e-5 * np.exp(-(((X - 1e-3) / 4e-3) ** 2
                                  + ((Z - 14e-3) / 5e-3) ** 2))).ravel()
        return x_true, L.matrix @ x_true

    def test_noiseless_inversion_recovers_truth(self, monkeypatch):
        """Synthetic L @ sigma* inverts within 5% relative L2 error."""
        monkeypatch.setattr(tomo, "LAM", 1e-8)
        L, D, slow = self.make_problem()
        x_true, delays = self.bump_delays(L, slow)
        dsigma, _ = reconstruct(L, delays, D)
        rel = np.linalg.norm(dsigma.ravel() - x_true) / np.linalg.norm(x_true)
        assert rel < 0.05

    def test_iteration_cap_stops_the_solve_unconverged(self, monkeypatch):
        """A solve that MAX_ITER stops is not converged: the noiseless
        inversion's problem, capped at 3 iterations, runs exactly 3."""
        monkeypatch.setattr(tomo, "LAM", 1e-8)
        monkeypatch.setattr(tomo, "MAX_ITER", 3)
        L, D, slow = self.make_problem()
        _, delays = self.bump_delays(L, slow)
        _, info = reconstruct(L, delays, D)
        assert info.iterations == 3
        assert info.converged is False

    @pytest.mark.parametrize("c_bf", [1500.0, 1522.5])
    def test_default_config_recovers_inclusion(self, c_bf):
        """Noiseless data of a +40 m/s disc, the solve's own settings:
        the map keeps at least half the contrast, whatever c_bf it is
        relative to.
        """
        L, D, slow = self.make_problem()
        X, Z = slow.meshgrid()
        inc = ((X - 1e-3) / 4e-3) ** 2 + ((Z - 14e-3) / 4e-3) ** 2 <= 1.0
        sigma = np.where(inc, 1.0 / 1540.0, 1.0 / 1500.0) - 1.0 / c_bf
        dsigma, info = reconstruct(L, L.matrix @ sigma.ravel(), D)
        sos, clamped = to_sos(dsigma, c_bf)
        assert clamped == 0.0
        assert sos[inc].mean() - sos[~inc].mean() >= 0.5 * 40.0
        # one objective entry for the start and one per iteration
        assert len(info.objective_trace) == info.iterations + 1
        assert np.all(np.diff(info.objective_trace) <= 0.0)

    def test_huge_lambda_flattens_map(self, monkeypatch):
        monkeypatch.setattr(tomo, "LAM", 1e6)
        L, D, slow = self.make_problem()
        X, Z = slow.meshgrid()
        x_true = (1e-5 * np.exp(-(((X) / 4e-3) ** 2
                                  + (((Z - 14e-3)) / 5e-3) ** 2))).ravel()
        delays = L.matrix @ x_true
        dsigma, _ = reconstruct(L, delays, D)
        assert np.ptp(dsigma) < 0.01 * np.ptp(x_true)

    def test_delay_length_mismatch(self):
        L, D, _ = self.make_problem()
        with pytest.raises(ValueError, match="rows"):
            reconstruct(L, np.zeros(3), D)

    def test_nonfinite_delays_raise_solver_error(self):
        L, D, _ = self.make_problem()
        delays = np.zeros(L.matrix.shape[0])
        delays[0] = np.nan
        with pytest.raises(SolverError):
            reconstruct(L, delays, D)


def config_problem(cfg, seed=0):
    """(L, D): cfg's path matrix over its recon pairs, each keeping a
    random two thirds of the nodes of the measurement grid that the
    reconstruction tracker gives cfg's beamforming grid at c_bf 1522.5,
    and the TV operator of cfg's slowness grid."""
    grid, t = cfg.full_grid(), RECON_TRACKING
    r = recon_search_radius(cfg, 1522.5)
    meas = ImagingGrid(
        x0=grid.x0, z0=grid.z0 + (r + (t.window_len - 1) / 2.0) * grid.dz,
        dx=grid.dx * t.lateral_step, dz=grid.dz * t.axial_step,
        nx=len(range(0, grid.nx, t.lateral_step)),
        nz=len(range(r, grid.nz - t.window_len - r + 1, t.axial_step)))
    rng = np.random.default_rng(seed)
    masks = [rng.random((meas.nz, meas.nx)) < 2 / 3 for _ in cfg.recon_pairs]
    slow = cfg.slow_grid()
    L = build_path_matrix(list(cfg.recon_pairs), meas, slow, masks,
                          cfg.array)
    return L, tv_operator(slow)


class TestCompiledObjective:
    """make_objective and reconstruct with kernels.SOLVE loaded give the
    bytes of the SciPy objective, which runs with it None."""

    @pytest.fixture(autouse=True)
    def solve_calls(self, count_calls):
        """The calls of kernels.SOLVE in the test."""
        self.calls = count_calls("SOLVE")

    def assert_objectives_match(self, monkeypatch, L, D, delays, lam_eff=0.3,
                                eps=1e-2, compiled=True):
        calls, start = self.calls, len(self.calls)
        loaded = make_objective(L, delays, D, lam_eff, eps)
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "SOLVE", None)
            scipy_objective = make_objective(L, delays, D, lam_eff, eps)
        rng = np.random.default_rng(7)
        xs = [np.zeros(L.shape[1]), *rng.standard_normal((3, L.shape[1]))]
        for x in xs:
            f, grad = loaded(x)
            f_ref, grad_ref = scipy_objective(x)
            assert type(f) is float and f == f_ref
            assert grad.dtype == grad_ref.dtype == np.float64
            assert grad.tobytes() == grad_ref.tobytes()
        assert len(calls) - start == (len(xs) if compiled else 0)

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    def test_config_problems(self, monkeypatch, quick):
        """The reconstruction's own sizes, scaled as reconstruct scales
        them, with the default config's 6 pairs and the quick one's 3."""
        cfg = apply_quick(PipelineConfig()) if quick else PipelineConfig()
        L, D = config_problem(cfg)
        cell = float(np.sqrt(L.slow_grid.dx * L.slow_grid.dz))
        A = L.matrix * (1.0 / cell)
        rng = np.random.default_rng(1)
        lam_eff = tomo.LAM * A.shape[0] / D.shape[0]
        self.assert_objectives_match(monkeypatch, A, D,
                                     rng.standard_normal(A.shape[0]),
                                     lam_eff, tomo.L1_EPSILON)

    @pytest.mark.parametrize("rows", [1, 7, 9, 31, 33, 37, 70])
    def test_row_counts_and_an_empty_row(self, monkeypatch, rows):
        """Row counts that fill no whole slice of 8, nor 4 slices side by
        side, and a row with no term, in L and in D."""
        L = sp.random(rows, 23, density=0.4, random_state=rows, format="lil")
        L[rows // 2, :] = 0.0
        D = sp.random(rows + 3, 23, density=0.3, random_state=rows + 1,
                      format="lil")
        D[0, :] = 0.0
        delays = np.random.default_rng(rows).standard_normal(rows)
        self.assert_objectives_match(monkeypatch, L.tocsr(), D.tocsr(),
                                     delays)

    def test_identity_and_index_widths(self, monkeypatch):
        """sp.eye in CSR, and CSR matrices with int64 indices, run the
        pass; a DIA sp.eye runs the SciPy objective, whose products
        follow DIA's order."""
        L, D = config_problem(apply_quick(PipelineConfig()))
        wide = L.matrix.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        assert L.matrix.indices.dtype == np.int32
        delays = np.random.default_rng(2).standard_normal(wide.shape[0])
        self.assert_objectives_match(monkeypatch, wide, D, delays)
        n = D.shape[1]
        eye = sp.eye(n, format="csr")
        self.assert_objectives_match(monkeypatch, eye, D, np.ones(n))
        self.assert_objectives_match(monkeypatch, eye, eye, np.ones(n))
        self.assert_objectives_match(monkeypatch, sp.eye(n), D, np.ones(n),
                                     compiled=False)

    def test_reconstruct_keeps_its_bytes(self, monkeypatch):
        """The quick config's problem solved to the end: the same map
        bytes and the same ReconInfo, trace, iterations, gradient norm
        and message included."""
        L, D = config_problem(apply_quick(PipelineConfig()), seed=3)
        X, Z = L.slow_grid.meshgrid()
        inc = (X / 4e-3) ** 2 + ((Z - 14e-3) / 4e-3) ** 2 <= 1.0
        sigma = np.where(inc, 1.0 / 1540.0, 1.0 / 1500.0) - 1.0 / 1522.5
        delays = L.matrix @ sigma.ravel()
        dsigma, info = reconstruct(L, delays, D)
        assert len(self.calls) > info.iterations > 0
        monkeypatch.setattr(kernels, "SOLVE", None)
        dsigma_ref, info_ref = reconstruct(L, delays, D)
        assert dsigma.tobytes() == dsigma_ref.tobytes()
        assert info == info_ref

    def test_nonfinite_values_raise_solver_error(self, monkeypatch):
        """With the pass loaded a non-finite delay is refused before the
        solve, and a delay so far above the median, by which reconstruct
        scales the delays, that the objective overflows raises
        SolverError from the first evaluation, as with SciPy's."""
        L, D = config_problem(apply_quick(PipelineConfig()))
        calls = self.calls
        for bad in (np.nan, np.inf):
            delays = np.zeros(L.matrix.shape[0])
            delays[5] = bad
            with pytest.raises(SolverError, match="non-finite delays"):
                reconstruct(L, delays, D)
        assert calls == []
        huge = np.ones(L.matrix.shape[0])
        huge[0] = 1e300
        with pytest.raises(SolverError, match="objective or gradient"):
            reconstruct(L, huge, D)
        assert calls == [1]
        monkeypatch.setattr(kernels, "SOLVE", None)
        with pytest.raises(SolverError, match="objective or gradient"), \
                np.errstate(over="ignore"):
            reconstruct(L, huge, D)


class TestToSos:
    def test_to_sos_identity_at_zero(self):
        assert np.allclose(to_sos(np.zeros((3, 3)), 1540.0)[0], 1540.0)

    def test_to_sos_hand_value(self):
        dsig = 1.0 / 1450.0 - 1.0 / 1500.0
        assert np.allclose(to_sos(np.full((2, 2), dsig), 1500.0)[0], 1450.0)

    def test_out_of_band_warns_and_clamps(self):
        # one cell in four far above the band, at 1500 / (1 - 0.3) m/s
        values = np.zeros((2, 2))
        values[0, 1] = -2e-4
        with pytest.warns(RuntimeWarning, match="25.0% of the map"):
            sos, clamped = to_sos(values, 1500.0)
        assert clamped == 0.25
        assert sos[0, 1] == 1700.0
        assert np.allclose(np.delete(sos.ravel(), 1), 1500.0)

    def test_warning_names_the_band_it_clamps_to(self, monkeypatch):
        monkeypatch.setattr(tomo, "SOS_MAX", 1600.0)
        with pytest.warns(RuntimeWarning,
                          match=r"left the \[1300, 1600\] m/s band"):
            sos, _ = to_sos(np.full((1, 1), -1e-4), 1500.0)
        assert sos[0, 0] == 1600.0
