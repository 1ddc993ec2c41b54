import json

import numpy as np
import pytest
import scipy.linalg

from wassmatrix import (
    ColumnBlock,
    DistanceMatrix,
    Spectrum,
    choose_dimension,
    complete_nystrom,
    derive_seed,
    mds,
    procrustes_distance,
    sample_columns,
    spectrum,
    synthetic_dataset,
    w2_matrix,
)
from wassmatrix.embedding import (
    double_center,
    load_embedding_coords,
    save_embedding,
)
from wassmatrix.errors import UsageError


def edm_of(points):
    diff = points[:, None, :] - points[None, :, :]
    d = (diff ** 2).sum(-1)
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)


def non_euclidean(n, seed):
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.normal(size=(n, n))) + 1.0
    vals = vals + vals.T
    np.fill_diagonal(vals, 0.0)
    return vals


def svd_oracle_dimension(values, energy):
    sigma = scipy.linalg.svd(double_center(values), compute_uv=False)
    prefix = np.cumsum(sigma) / sigma.sum()
    return int(np.searchsorted(prefix, energy) + 1)


def assert_close(a, b, scale):
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-9 * scale


class TestMds:
    def test_two_point_matrix(self):
        full = DistanceMatrix.full(np.array([[0.0, 4.0], [4.0, 0.0]]))
        B = double_center(full.values)
        np.testing.assert_allclose(B, [[1.0, -1.0], [-1.0, 1.0]])
        emb = mds(full, 1)
        # sign convention pins the first coordinate positive
        np.testing.assert_allclose(emb.coords, [[1.0], [-1.0]], atol=1e-12)
        assert emb.eigenvalues[0] == pytest.approx(2.0)
        assert abs(emb.coords[0, 0] - emb.coords[1, 0]) == pytest.approx(2.0)

    def test_known_configuration_recovered(self):
        rng = np.random.default_rng(50)
        pts = rng.normal(size=(50, 3)) * 2
        full = DistanceMatrix.full(edm_of(pts))
        emb = mds(full, 3)
        centered = pts - pts.mean(axis=0)
        assert (procrustes_distance(emb.coords, centered)
                <= 1e-8 * np.linalg.norm(centered, 2))

    def test_zero_matrix(self):
        emb = mds(DistanceMatrix.full(np.zeros((4, 4))), 2)
        np.testing.assert_array_equal(emb.coords, np.zeros((4, 2)))

    def test_coords_centered(self):
        rng = np.random.default_rng(52)
        full = DistanceMatrix.full(edm_of(rng.normal(size=(20, 3))))
        emb = mds(full, 3)
        assert np.abs(emb.coords.mean(axis=0)).max() <= 1e-8

    def test_double_centering_annihilates_ones(self):
        rng = np.random.default_rng(53)
        vals = np.abs(rng.normal(size=(15, 15)))
        vals = vals + vals.T
        np.fill_diagonal(vals, 0.0)
        B = double_center(vals)
        assert np.abs(B @ np.ones(15)).max() <= 1e-9

    def test_non_euclidean_input_stays_real(self):
        # a metric that is not an EDM: B picks up negative eigenvalues
        rng = np.random.default_rng(54)
        vals = np.abs(rng.normal(size=(12, 12))) + 1.0
        vals = vals + vals.T
        np.fill_diagonal(vals, 0.0)
        est = DistanceMatrix.estimated(vals)
        emb = mds(est, 11)
        assert np.all(np.isfinite(emb.coords))
        assert emb.negative_tail_mass > 0.0
        # negative retained eigenvalues contribute zero coordinate columns
        for k, lam in enumerate(emb.eigenvalues):
            if lam < 0:
                np.testing.assert_array_equal(emb.coords[:, k], 0.0)

    def test_eigenvalues_nonincreasing(self):
        rng = np.random.default_rng(55)
        full = DistanceMatrix.full(edm_of(rng.normal(size=(10, 4))))
        emb = mds(full, 6)
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)

    def test_deterministic_with_sign_convention(self):
        rng = np.random.default_rng(56)
        full = DistanceMatrix.full(edm_of(rng.normal(size=(18, 3))))
        a = mds(full, 3)
        b = mds(full, 3)
        assert a.coords.tobytes() == b.coords.tobytes()
        for k in range(3):
            col = a.coords[:, k]
            nz = col[np.abs(col) > 1e-12]
            if nz.size:
                assert nz[0] > 0

    def test_dimension_out_of_range(self):
        full = DistanceMatrix.full(np.zeros((4, 4)))
        with pytest.raises(UsageError, match=r"need 1 <= d <= 3, got 0"):
            mds(full, 0)
        with pytest.raises(UsageError, match=r"need 1 <= d <= 3, got 4"):
            mds(full, 4)

    def test_partial_matrix_rejected(self):
        # unobserved entries are zero-filled, not distances
        rng = np.random.default_rng(57)
        values = edm_of(rng.normal(size=(6, 2)))
        mask = np.zeros((6, 6), dtype=bool)
        mask[:, :2] = mask[:2, :] = True
        np.fill_diagonal(mask, True)
        partial = DistanceMatrix.partial(np.where(mask, values, 0.0), mask)
        for call in (spectrum, lambda m: mds(m, 2),
                     lambda m: choose_dimension(m, 0.9)):
            with pytest.raises(UsageError, match=r"MDS needs a FULL or "
                                                 r"ESTIMATED matrix, got PARTIAL"):
                call(partial)


class TestChooseDimension:
    def test_rank_one_needs_one_dimension(self):
        pts = np.arange(10.0)[:, None]  # collinear points: B has rank 1
        full = DistanceMatrix.full(edm_of(pts))
        for energy in (0.1, 0.5, 0.97):
            assert choose_dimension(full, energy) == 1

    def test_energy_near_one_gives_full_rank(self):
        rng = np.random.default_rng(60)
        pts = rng.normal(size=(5, 4))
        full = DistanceMatrix.full(edm_of(pts))
        assert choose_dimension(full, 1.0 - 1e-12) == 4  # rank of B

    def test_matches_cumulative_sum_oracle(self):
        import scipy.linalg
        rng = np.random.default_rng(61)
        pts = rng.normal(size=(40, 5))
        vals = edm_of(pts) + 0.01 * np.abs(rng.normal(size=(40, 40)))
        vals = 0.5 * (vals + vals.T)
        np.fill_diagonal(vals, 0.0)
        full = DistanceMatrix.full(vals)
        sigma = scipy.linalg.svd(double_center(vals), compute_uv=False)
        prefix = np.cumsum(sigma) / sigma.sum()
        previous = 0
        for energy in (0.5, 0.9, 0.97, 0.999):
            expected = int(np.searchsorted(prefix, energy) + 1)
            got = choose_dimension(full, energy)
            assert got == expected
            assert got >= previous  # d grows with the threshold
            previous = got

    def test_energy_validated(self):
        full = DistanceMatrix.full(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            choose_dimension(full, 0.0)
        with pytest.raises(ValueError):
            choose_dimension(full, 1.0)


class TestEmbeddingFiles:
    def test_csv_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(62)
        full = DistanceMatrix.full(edm_of(rng.normal(size=(8, 2))))
        emb = mds(full, 2)
        path = tmp_path / "emb.csv"
        save_embedding(emb, path, labels=[0, 1, 0, 1, 0, 1, 0, 1])
        header = path.read_text().splitlines()[0]
        assert header == "index,z1,z2,label"
        coords = load_embedding_coords(path)
        np.testing.assert_array_equal(coords, emb.coords)
        meta = json.loads((tmp_path / "emb.csv.meta.json").read_text())
        assert meta["dimension"] == 2
        assert 0.0 <= meta["negative_tail_mass"] <= 1.0
        assert meta["eigenvalues"] == [float(v) for v in emb.eigenvalues]


@pytest.fixture(scope="module")
def rank5_blocks():
    """Column blocks of noiseless rank-5 squared-distance matrices: 200
    points in R^3 with 20 columns, and classes3:rand300 with 60."""
    blocks = []
    for trial in range(3):
        rng = np.random.default_rng(3000 + trial)
        full = DistanceMatrix.full(edm_of(rng.standard_normal((200, 3))))
        plan = sample_columns(200, 20, seed=derive_seed(3, "cols", trial))
        blocks.append(ColumnBlock.from_matrix(full, plan.indices))
    full = w2_matrix(synthetic_dataset("classes3:rand300", 7))
    for trial in range(2):
        plan = sample_columns(300, 60, seed=derive_seed(7, "cols", trial))
        blocks.append(ColumnBlock.from_matrix(full, plan.indices))
    return blocks


class TestFactoredSpectrum:
    def test_agrees_with_dense_route_on_rank5_fixtures(self, rank5_blocks):
        for block in rank5_blocks:
            factored = spectrum(block)
            dense = spectrum(complete_nystrom(block))
            assert factored.eigenvalues.size == block.count
            assert dense.eigenvalues.size == block.size
            for energy in (0.5, 0.9, 0.97, 0.999):
                assert (choose_dimension(factored, energy)
                        == choose_dimension(dense, energy))
            d = choose_dimension(dense, 0.97)
            assert d == 3
            ef, ed = mds(factored, d), mds(dense, d)
            assert_close(ef.eigenvalues, ed.eigenvalues, ed.eigenvalues[0])
            assert abs(ef.spectrum_energy - ed.spectrum_energy) <= 1e-9
            assert abs(ef.negative_tail_mass - ed.negative_tail_mass) <= 1e-9
            assert_close(ef.coords, ed.coords, np.abs(ed.coords).max())

    def test_dimension_beyond_columns_gives_zero_columns(self, rank5_blocks):
        block = rank5_blocks[0]
        emb = mds(spectrum(block), 2 * block.count)
        assert emb.coords.shape == (block.size, 2 * block.count)
        np.testing.assert_array_equal(emb.coords[:, block.count:], 0.0)
        top = np.abs(emb.coords[:, :3]).max()
        assert np.abs(emb.coords[:, 3:]).max() <= 1e-6 * top  # rank of B is 3

    def test_spectrum_passes_through(self, rank5_blocks):
        spec = spectrum(rank5_blocks[0])
        assert spectrum(spec) is spec

    def test_rounding_short_of_energy_needs_all_n(self):
        # 20 stored eigenvalues of an N=50 spectrum whose cumulative
        # fraction rounds to just below 1: as on the dense route, only
        # all N dimensions reach an energy above it
        rng = np.random.default_rng(0)
        for _ in range(3):
            lam = np.sort(rng.random(20))[::-1]
        assert (np.cumsum(lam) / lam.sum())[-1] < 1.0
        spec = Spectrum(lam, np.zeros((50, 20)), 50)
        assert choose_dimension(spec, np.nextafter(1.0, 0.0)) == 50

    def test_non_euclidean_dense_matches_svd_oracle(self):
        vals = non_euclidean(30, 63)
        lam = np.linalg.eigvalsh(double_center(vals))
        # a negative eigenvalue outweighs a positive one, so ordering by
        # |lambda| differs from the algebraic order
        assert np.abs(lam[lam < 0]).max() > lam[lam > 0].min()
        matrix = DistanceMatrix.estimated(vals)
        chosen = [choose_dimension(matrix, e) for e in (0.3, 0.5, 0.8, 0.95)]
        assert chosen == [svd_oracle_dimension(vals, e)
                          for e in (0.3, 0.5, 0.8, 0.95)]
        assert len(set(chosen)) > 1

    def test_non_euclidean_factor_matches_dense_oracles(self):
        n = 40
        block = ColumnBlock.from_matrix(
            DistanceMatrix.estimated(non_euclidean(n, 64)), np.arange(20))
        raw = block.product()  # the matrix the factored route embeds
        spec = spectrum(block)
        lam = np.sort(np.linalg.eigvalsh(double_center(0.5 * (raw + raw.T))))[::-1]
        scale = np.abs(lam).max()
        assert np.abs(lam[lam < 0]).max() > lam[lam > 1e-9 * scale].min()
        energies = (0.3, 0.5, 0.8, 0.95)
        chosen = [choose_dimension(spec, e) for e in energies]
        assert chosen == [svd_oracle_dimension(raw, e) for e in energies]
        assert len(set(chosen)) > 1
        # the omitted zero eigenvalues rank between positive and negative ones
        positive = int(np.sum(spec.eigenvalues > 0))
        total = np.abs(lam).sum()
        for d in (positive, positive + 3, n - 1):
            emb = mds(spec, d)
            assert_close(emb.eigenvalues, lam[:d], scale)
            assert abs(emb.spectrum_energy
                       - np.abs(lam[:d]).sum() / total) <= 1e-9
            assert abs(emb.negative_tail_mass
                       - np.abs(lam[lam < 0]).sum() / total) <= 1e-9
