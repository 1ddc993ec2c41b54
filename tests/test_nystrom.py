import numpy as np
import pytest

from wassmatrix import (
    ColumnBlock,
    DistanceMatrix,
    complete_nystrom,
    mds,
    procrustes_distance,
    relative_error,
    sample_columns,
)
from wassmatrix.errors import InvariantViolation, NumericalError, UsageError
from wassmatrix.matrixio import MatrixKind
from wassmatrix.nystrom import PINV_TOLERANCE, _truncated_svd_pinv


def edm_of(points):
    diff = points[:, None, :] - points[None, :, :]
    d = (diff ** 2).sum(-1)
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)


def random_rotation(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


class TestColumnBlock:
    def test_core_derived_from_columns(self):
        vals = edm_of(np.arange(5.0)[:, None])
        block = ColumnBlock(vals[:, [1, 3]], [1, 3])
        np.testing.assert_array_equal(block.core, vals[np.ix_([1, 3], [1, 3])])

    def test_from_partial_requires_coverage(self):
        vals = edm_of(np.arange(4.0)[:, None])
        mask = np.eye(4, dtype=bool)
        mask[:, 0] = mask[0, :] = True
        mask[:, 1] = mask[1, :] = True
        part = DistanceMatrix.partial(np.where(mask, vals, 0.0), mask)
        block = ColumnBlock.from_matrix(part, [0, 1])
        assert block.count == 2
        with pytest.raises(InvariantViolation):
            ColumnBlock.from_matrix(part, [0, 2])

    def test_nonzero_core_diagonal_rejected(self):
        with pytest.raises(InvariantViolation):
            ColumnBlock(np.ones((3, 1)), [0])


class TestTruncatedPinv:
    def test_matches_numpy_on_well_conditioned(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        np.testing.assert_allclose(_truncated_svd_pinv(a, 1e-12)[0],
                                   np.linalg.pinv(a), atol=1e-9)

    def test_truncates_small_singular_values(self):
        a = np.diag([1.0, 1e-14])
        p = _truncated_svd_pinv(a, 1e-10)[0]
        np.testing.assert_array_equal(p, np.diag([1.0, 0.0]))


class TestNystromFactor:
    """The factored estimate C U^+ C^T that a ColumnBlock carries."""

    def noisy_block(self, seed, idx):
        rng = np.random.default_rng(seed)
        vals = edm_of(rng.normal(size=(14, 3)))
        vals = vals + 0.05 * np.abs(rng.normal(size=(14, 14)))
        vals = 0.5 * (vals + vals.T)
        np.fill_diagonal(vals, 0.0)
        return ColumnBlock.from_matrix(DistanceMatrix.full(vals), idx)

    def test_one_svd_gives_pinv_spectrum_and_rank(self):
        block = self.noisy_block(26, [0, 3, 5, 9, 12])
        pinv = _truncated_svd_pinv(block.core, PINV_TOLERANCE)[0]
        np.testing.assert_array_equal(block.core_pinv, pinv)
        sigma = np.linalg.svd(block.core, compute_uv=False)
        np.testing.assert_allclose(block.core_singular_values, sigma,
                                   rtol=1e-12)
        assert block.effective_rank == int(np.sum(sigma > 1e-10 * sigma[0]))
        np.testing.assert_array_equal(block.product(),
                                      block.columns @ pinv @ block.columns.T)

    def test_truncation_sets_effective_rank(self):
        rng = np.random.default_rng(27)
        full = DistanceMatrix.full(edm_of(rng.normal(size=(20, 2))))
        block = ColumnBlock.from_matrix(full, np.arange(8))
        assert block.effective_rank == 4  # rank of a planar EDM

    def test_degenerate_core(self):
        with pytest.raises(NumericalError, match=r"core block is identically zero"):
            ColumnBlock(np.array([[0.0], [4.0], [9.0]]), [0])

    def test_factors_are_read_only(self):
        block = self.noisy_block(29, [2, 6, 11])
        with pytest.raises(ValueError):
            block.core_pinv[0, 0] = 1.0


class TestCompleteNystrom:
    def test_exact_recovery_from_rank_matching_columns(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(10, 2))
        truth = edm_of(pts)  # rank <= 4
        full = DistanceMatrix.full(truth)
        idx = np.array([0, 3, 5, 8])
        core_rank = np.linalg.matrix_rank(truth[np.ix_(idx, idx)])
        assert core_rank == np.linalg.matrix_rank(truth) == 4
        est = complete_nystrom(ColumnBlock.from_matrix(full, idx))
        assert relative_error(est, full) <= 1e-10

    def test_all_columns_reproduce_matrix(self):
        rng = np.random.default_rng(22)
        truth = edm_of(rng.normal(size=(12, 3)))
        full = DistanceMatrix.full(truth)
        est = complete_nystrom(ColumnBlock.from_matrix(full, np.arange(12)))
        assert relative_error(est, full) <= 1e-12

    def test_rank_one_product_identity(self):
        # scalar Nystrom identity on v v^T sampled at a coordinate with
        # v_1 != 0 (checked on the raw product, before the zero-diagonal
        # sanitization that distance matrices get)
        rng = np.random.default_rng(23)
        v = rng.normal(size=9)
        v[0] = 1.7
        target = np.outer(v, v)
        columns = target[:, [0]]
        core_pinv = _truncated_svd_pinv(target[np.ix_([0], [0])],
                                        PINV_TOLERANCE)[0]
        product = columns @ core_pinv @ columns.T
        np.testing.assert_allclose(product, target, atol=1e-12)

    def test_degenerate_core(self):
        columns = np.array([[0.0], [4.0], [9.0]])  # core = [[0]]
        with pytest.raises(NumericalError, match=r"core block is identically zero"):
            complete_nystrom(ColumnBlock(columns, [0]))

    def test_output_invariants(self):
        rng = np.random.default_rng(24)
        truth = edm_of(rng.normal(size=(15, 3)))
        full = DistanceMatrix.full(truth)
        est = complete_nystrom(ColumnBlock.from_matrix(full, [0, 2, 4, 6, 8]))
        assert est.kind is MatrixKind.ESTIMATED
        np.testing.assert_array_equal(est.values, est.values.T)
        assert np.all(np.diagonal(est.values) == 0.0)
        assert np.all(est.values >= 0.0)

    def test_exactness_with_mds_round_trip(self):
        # noiseless recovery: enough columns make both the matrix and its
        # MDS embedding exact up to orthogonal alignment
        rng = np.random.default_rng(26)
        pts = rng.standard_normal((60, 3))
        truth = edm_of(pts)
        full = DistanceMatrix.full(truth)
        plan = sample_columns(60, 10, seed=4)
        est = complete_nystrom(ColumnBlock.from_matrix(full, plan.indices))
        assert relative_error(est, full) <= 1e-8
        emb = mds(est, 3)
        centered = pts - pts.mean(axis=0)
        assert (procrustes_distance(emb.coords, centered)
                <= 1e-6 * np.linalg.norm(centered, 2))

    def test_mean_error_nonincreasing_in_columns(self):
        rng = np.random.default_rng(77)
        n = 120
        clean = edm_of(rng.normal(size=(n, 3)) * 2)
        noise = rng.normal(size=(n, n)) * 0.05
        noise = 0.5 * (noise + noise.T)
        vals = np.maximum(clean + noise, 0.0)
        np.fill_diagonal(vals, 0.0)
        full = DistanceMatrix.full(vals)
        means = []
        for frac in (0.05, 0.10, 0.20, 0.50):
            c = max(1, round(frac * n))
            errs = []
            for s in range(10):
                plan = sample_columns(n, c, seed=1000 + s)
                est = complete_nystrom(ColumnBlock.from_matrix(full, plan.indices))
                errs.append(relative_error(est, full))
            means.append(np.mean(errs))
        assert np.all(np.diff(means) <= 0.0)


class TestProcrustes:
    def test_rotation_is_removed(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(30, 3))
        y -= y.mean(axis=0)
        z = y @ random_rotation(rng, 3)
        assert procrustes_distance(z, y) <= 1e-10

    def test_perturbation_bound(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(30, 3))
        y -= y.mean(axis=0)
        g = rng.normal(size=(30, 3))
        g -= g.mean(axis=0)
        eps = 1e-3
        z = y + eps * g
        assert procrustes_distance(z, y) <= np.linalg.norm(eps * g, 2) + 1e-10

    def test_reflection_allowed_in_1d(self):
        z = np.array([[1.0], [-1.0]])
        y = np.array([[-1.0], [1.0]])
        assert procrustes_distance(z, y) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError,
                           match=r"configurations differ: \(3, 2\) vs \(3, 3\)"):
            procrustes_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_not_centered(self):
        z = np.ones((4, 2))
        with pytest.raises(UsageError,
                           match=r"both configurations must have zero column means"):
            procrustes_distance(z, z)
