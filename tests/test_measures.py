import numpy as np
import pytest

from wassmatrix import (
    DiscreteMeasure,
    MeasureDataset,
    measure_from_grid_image,
    synth_dilation_family,
    synth_translation_family,
    synthetic_dataset,
    w2_matrix,
    w2_squared,
    w2_squared_1d,
    w2_squared_bruteforce,
)
from wassmatrix.errors import FormatError, InvariantViolation, UsageError
from wassmatrix.measures import (
    load_dataset,
    load_labels,
    load_measure,
    save_dataset,
    save_measure,
    two_atom_base,
)


class TestDiscreteMeasure:
    def test_weights_normalized(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [2.0, 6.0])
        assert abs(mu.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(mu.weights, [0.25, 0.75])

    def test_zero_weight_atoms_dropped(self):
        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], [1.0, 0.0, 1.0])
        assert mu.num_atoms == 2
        assert mu.weights.min() > 0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvariantViolation):
            DiscreteMeasure([[0.0]], [-1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InvariantViolation):
            DiscreteMeasure([[0.0], [1.0]], [0.0, 0.0])

    def test_weight_count_mismatch(self):
        with pytest.raises(InvariantViolation):
            DiscreteMeasure([[0.0], [1.0]], [1.0])

    def test_1d_points_coerced(self):
        mu = DiscreteMeasure([0.0, 1.0, 2.0], [1, 1, 1])
        assert mu.points.shape == (3, 1)
        assert mu.dimension == 1

    def test_immutable(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0

    def test_translated_dimension_mismatch(self):
        mu = two_atom_base()
        with pytest.raises(UsageError, match=r"shift has dimension 3, measure 2"):
            mu.translated([1.0, 2.0, 3.0])


class TestMeasureDataset:
    def test_needs_two_measures(self):
        with pytest.raises(InvariantViolation):
            MeasureDataset([two_atom_base()])

    def test_label_length_checked(self):
        with pytest.raises(InvariantViolation):
            MeasureDataset([two_atom_base(), two_atom_base()], labels=[0])

    def test_indexing(self):
        data = MeasureDataset([two_atom_base(), two_atom_base(2.0)], [0, 1])
        assert len(data) == 2
        assert data[1].points[1, 0] == 2.0


class TestGridImage:
    def test_diagonal_pair(self):
        mu = measure_from_grid_image([[1.0, 0.0], [0.0, 1.0]], 0.0)
        np.testing.assert_array_equal(mu.points, [[0, 0], [1, 1]])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_proportional_weights(self):
        mu = measure_from_grid_image([[3.0, 1.0]], 0.0)
        np.testing.assert_array_equal(mu.points, [[0, 0], [0, 1]])
        np.testing.assert_allclose(mu.weights, [0.75, 0.25])

    def test_large_grid_matches_pixel_scan(self):
        # 28x28 intensity grid akin to an exported medical image
        rng = np.random.default_rng(7)
        img = np.maximum(rng.normal(0.3, 1.0, size=(28, 28)), 0.0)
        mu = measure_from_grid_image(img, 0.0)
        # independent oracle: direct double loop over pixels
        expected = [(r, c, img[r, c])
                    for r in range(28) for c in range(28) if img[r, c] > 0.0]
        assert mu.num_atoms == len(expected) <= 784
        assert abs(mu.weights.sum() - 1.0) <= 1e-12
        total = sum(v for _, _, v in expected)
        for (r, c, v), point, w in zip(expected, mu.points, mu.weights):
            assert (point[0], point[1]) == (r, c)
            assert abs(w - v / total) <= 1e-12

    def test_threshold_cuts_atoms(self):
        mu = measure_from_grid_image([[3.0, 1.0]], 2.0)
        assert mu.num_atoms == 1

    def test_all_below_threshold(self):
        with pytest.raises(UsageError, match=r"no pixel exceeds threshold 5\.0"):
            measure_from_grid_image([[1.0, 1.0]], 5.0)

    def test_zero_padding_invariance(self):
        img = np.array([[0.0, 2.0], [1.0, 0.5]])
        padded = np.zeros((4, 5))
        padded[:2, :2] = img
        a = measure_from_grid_image(img, 0.0)
        b = measure_from_grid_image(padded, 0.0)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_allclose(a.weights, b.weights)


class TestSyntheticFamilies:
    def test_translation_diracs(self):
        base = DiscreteMeasure([[0.0, 0.0]], [1.0])
        data = synth_translation_family(base, [(0.0, 0.0), (3.0, 4.0)])
        assert w2_squared(data[0], data[1]) == pytest.approx(25.0, abs=1e-12)

    def test_translation_identical_shifts(self):
        data = synth_translation_family(two_atom_base(), [(0.0, 0.0), (0.0, 0.0)])
        full = w2_matrix(data)
        np.testing.assert_array_equal(full.values, np.zeros((2, 2)))

    def test_translation_line_family_against_bruteforce(self):
        base = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        data = synth_translation_family(base, [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)])
        full = w2_matrix(data)
        expected = np.array([[0.0, 4.0, 16.0], [4.0, 0.0, 4.0], [16.0, 4.0, 0.0]])
        np.testing.assert_allclose(full.values, expected, atol=1e-9)
        for i in range(3):
            for j in range(3):
                oracle = w2_squared_bruteforce(data[i], data[j])
                assert abs(full.values[i, j] - oracle) <= 1e-9

    def test_translation_shift_dimension_checked(self):
        with pytest.raises(UsageError, match=r"shifts have dimension 3, base 2"):
            synth_translation_family(two_atom_base(), [(1.0, 2.0, 3.0)])

    def test_translation_family_is_isometric_to_shifts(self):
        rng = np.random.default_rng(3)
        shifts = rng.normal(size=(15, 2)) * 4
        data = synth_translation_family(two_atom_base(0.7), shifts)
        full = w2_matrix(data)
        diff = shifts[:, None, :] - shifts[None, :, :]
        edm = (diff ** 2).sum(-1)
        denom = np.linalg.norm(edm)
        assert np.linalg.norm(full.values - edm) / denom <= 1e-9

    def test_dilation_diracs(self):
        base = DiscreteMeasure([[1.0, 0.0]], [1.0])
        data = synth_dilation_family(base, [1.0, 2.0])
        assert w2_squared(data[0], data[1]) == pytest.approx(1.0, abs=1e-12)

    def test_dilation_equal_scales(self):
        data = synth_dilation_family(two_atom_base(1.0), [2.0, 2.0, 2.0])
        assert np.all(w2_matrix(data).values == 0.0)

    def test_dilation_pm_one(self):
        base = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        data = synth_dilation_family(base, [1.0, 3.0])
        assert w2_squared(data[0], data[1]) == pytest.approx(4.0, abs=1e-12)
        assert w2_squared_1d(data[0], data[1]) == pytest.approx(4.0, abs=1e-12)

    def test_dilation_rejects_nonpositive(self):
        with pytest.raises(UsageError, match=r"all scales must be strictly positive"):
            synth_dilation_family(two_atom_base(), [1.0, 0.0])


class TestSyntheticSpecs:
    def test_grid_spec(self):
        data = synthetic_dataset("translations:grid3", 0)
        assert len(data) == 9
        assert data.labels is None

    def test_rand_spec_seeded(self):
        a = synthetic_dataset("translations:rand10", 5)
        b = synthetic_dataset("translations:rand10", 5)
        np.testing.assert_array_equal(a[3].points, b[3].points)

    def test_classes_spec(self):
        data = synthetic_dataset("classes3:rand31", 1)
        assert len(data) == 31
        counts = np.bincount(np.asarray(data.labels))
        assert counts.tolist() == [11, 10, 10]

    def test_dilations_spec(self):
        assert len(synthetic_dataset("dilations:4", 0)) == 4

    def test_bad_specs(self):
        for spec in ("nope:rand5", "translations:5", "classes3:grid4", ""):
            with pytest.raises(ValueError):
                synthetic_dataset(spec, 0)


class TestMeasureFiles:
    def test_round_trip(self, tmp_path):
        mu = DiscreteMeasure([[0.25, -1.5], [3.125, 2.0]], [0.3, 0.7])
        path = tmp_path / "m.txt"
        save_measure(mu, path)
        back = load_measure(path)
        np.testing.assert_array_equal(back.points, mu.points)
        np.testing.assert_array_equal(back.weights, mu.weights)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.txt"
        save_measure(two_atom_base(), path)
        assert path.read_text().splitlines()[0] == "2 2"

    def test_malformed_files(self, tmp_path):
        cases = {
            "empty.txt": "",
            "badhead.txt": "2\n",
            "wrongcount.txt": "1 2\n1.0 0.0\n",
            "badfield.txt": "1 1\n1.0 zero\n",
            "shortline.txt": "2 1\n1.0 0.0\n",
        }
        for name, text in cases.items():
            p = tmp_path / name
            p.write_text(text)
            with pytest.raises(FormatError):
                load_measure(p)

    def test_dataset_round_trip_with_labels(self, tmp_path):
        data = synthetic_dataset("classes3:rand9", 2)
        save_dataset(data, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.labels == data.labels
        assert len(back) == len(data)
        for mu, nu in zip(data.measures, back.measures):
            np.testing.assert_array_equal(mu.points, nu.points)

    def test_dataset_without_labels(self, tmp_path):
        data = synthetic_dataset("translations:grid2", 0)
        save_dataset(data, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds").labels is None

    def test_dataset_repeated_label_index_rejected(self, tmp_path):
        data = synthetic_dataset("classes3:rand6", 2)
        save_dataset(data, tmp_path / "ds")
        with open(tmp_path / "ds" / "labels.csv", "a") as fh:
            fh.write("0,2\n")
        with pytest.raises(FormatError, match="index 0 repeated"):
            load_dataset(tmp_path / "ds")

    def test_dataset_label_coverage_checked(self, tmp_path):
        data = synthetic_dataset("classes3:rand9", 2)
        save_dataset(data, tmp_path / "ds")
        (tmp_path / "ds" / "labels.csv").write_text("index,label\n0,1\n")
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("spec", ["classes3:rand9", "translations:grid2"])
    def test_load_labels_matches_load_dataset(self, tmp_path, spec):
        directory = tmp_path / "ds"
        save_dataset(synthetic_dataset(spec, 2), directory)
        assert load_labels(directory) == load_dataset(directory).labels

    @pytest.mark.parametrize("rows, message", [
        ("0,1\n0,2\n1,1\n2,0\n3,1\n4,2\n", "index 0 repeated"),
        ("0,1\n1,1\n2,0\n3,1\n4,2\n6,0\n", "index 6 out of range"),
        ("0,1\n1,1\n", "labels cover 2 of 6"),
    ])
    def test_load_labels_checks_as_load_dataset(self, tmp_path, rows, message):
        save_dataset(synthetic_dataset("classes3:rand6", 2), tmp_path / "ds")
        (tmp_path / "ds" / "labels.csv").write_text("index,label\n" + rows)
        for read in (load_dataset, load_labels):
            with pytest.raises(FormatError, match=message):
                read(tmp_path / "ds")
