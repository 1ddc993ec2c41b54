import numpy as np
import pytest

from wassmatrix import DistanceMatrix, MatrixKind, relative_error
from wassmatrix.errors import (
    FormatError,
    InvariantViolation,
    NumericalError,
    UsageError,
)
from wassmatrix.matrixio import load, sanitized_estimate, save


def random_full(rng, n):
    a = np.abs(rng.normal(size=(n, n)))
    vals = a + a.T
    np.fill_diagonal(vals, 0.0)
    return DistanceMatrix.full(vals)


def random_partial(rng, n):
    a = np.abs(rng.normal(size=(n, n)))
    vals = a + a.T
    np.fill_diagonal(vals, 0.0)
    mask = rng.random((n, n)) < 0.4
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    vals = np.where(mask, vals, 0.0)
    return DistanceMatrix.partial(vals, mask)


class TestInvariants:
    def test_asymmetric_rejected(self):
        vals = np.zeros((2, 2))
        vals[0, 1] = 1.0
        with pytest.raises(InvariantViolation):
            DistanceMatrix.full(vals)

    def test_nonzero_diagonal_rejected(self):
        vals = np.eye(2)
        with pytest.raises(InvariantViolation):
            DistanceMatrix.full(vals)

    def test_negative_observed_rejected_for_full(self):
        vals = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvariantViolation):
            DistanceMatrix.full(vals)

    def test_negative_allowed_for_estimated(self):
        vals = np.array([[0.0, -1e-8], [-1e-8, 0.0]])
        est = DistanceMatrix.estimated(vals)
        assert est.kind is MatrixKind.ESTIMATED

    def test_partial_needs_symmetric_mask(self):
        vals = np.zeros((2, 2))
        mask = np.array([[True, True], [False, True]])
        with pytest.raises(InvariantViolation):
            DistanceMatrix.partial(vals, mask)

    def test_full_needs_all_true_mask(self):
        vals = np.zeros((3, 3))
        mask = np.ones((3, 3), bool)
        mask[0, 1] = mask[1, 0] = False
        with pytest.raises(InvariantViolation):
            DistanceMatrix(vals, mask, MatrixKind.FULL)

    def test_diagonal_mask_required(self):
        vals = np.zeros((2, 2))
        mask = np.zeros((2, 2), bool)
        with pytest.raises(InvariantViolation):
            DistanceMatrix.partial(vals, mask)

    def test_values_immutable(self):
        m = DistanceMatrix.full(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 1] = 3.0

    def test_observed_pairs(self):
        rng = np.random.default_rng(0)
        part = random_partial(rng, 6)
        ii, jj = part.observed_pairs()
        assert np.all(ii < jj)
        assert part.mask[ii, jj].all()
        expected = part.mask[np.triu_indices(6, 1)].sum()
        assert ii.size == expected


class TestSanitizedEstimate:
    def test_same_bits_as_diagonal_first_order(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(9, 9))
        raw[2, 2] = np.nan
        est = sanitized_estimate(raw)
        ref = raw.copy()
        np.fill_diagonal(ref, 0.0)
        ref = 0.5 * (ref + ref.T)
        np.maximum(ref, 0.0, out=ref)
        assert est.kind is MatrixKind.ESTIMATED
        assert est.values.tobytes() == ref.tobytes()
        assert np.isnan(raw[2, 2])  # input left untouched


class TestPersistence:
    def test_zero_round_trip(self, tmp_path):
        m = DistanceMatrix.full(np.zeros((2, 2)))
        save(m, tmp_path / "m.w2m")
        back = load(tmp_path / "m.w2m")
        assert back.kind is MatrixKind.FULL
        np.testing.assert_array_equal(back.values, m.values)

    def test_partial_mask_preserved(self, tmp_path):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 2.5
        mask = np.eye(3, dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        m = DistanceMatrix.partial(vals, mask)
        save(m, tmp_path / "m.w2m")
        back = load(tmp_path / "m.w2m")
        assert back.kind is MatrixKind.PARTIAL
        np.testing.assert_array_equal(back.mask, mask)
        assert back.values.tobytes() == m.values.tobytes()

    def test_bitwise_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(5)
        m = random_full(rng, 100)
        path = tmp_path / "big.w2m"
        save(m, path)
        back = load(path)
        assert back.values.tobytes() == m.values.tobytes()
        assert back.mask.tobytes() == m.mask.tobytes()
        # saving the loaded matrix reproduces the file byte for byte
        save(back, tmp_path / "big2.w2m")
        assert path.read_bytes() == (tmp_path / "big2.w2m").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.w2m"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load(p)

    def test_truncated(self, tmp_path):
        m = DistanceMatrix.full(np.zeros((4, 4)))
        p = tmp_path / "t.w2m"
        save(m, p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(FormatError):
            load(p)

    def test_tampered_payload_becomes_asymmetric(self, tmp_path):
        rng = np.random.default_rng(9)
        m = random_full(rng, 4)
        p = tmp_path / "t.w2m"
        save(m, p)
        blob = bytearray(p.read_bytes())
        blob[16:24] = np.array([5.0]).tobytes()  # entry (0, 0) of the payload
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load(p)

    def test_unknown_kind_byte(self, tmp_path):
        m = DistanceMatrix.full(np.zeros((2, 2)))
        p = tmp_path / "k.w2m"
        save(m, p)
        blob = bytearray(p.read_bytes())
        blob[-1] = 9
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load(p)


class TestRelativeError:
    def test_exact_estimate(self):
        rng = np.random.default_rng(1)
        truth = random_full(rng, 6)
        est = DistanceMatrix.estimated(truth.values.copy())
        assert relative_error(est, truth) == 0.0

    def test_double_estimate(self):
        rng = np.random.default_rng(2)
        truth = random_full(rng, 6)
        est = DistanceMatrix.estimated(2.0 * truth.values)
        assert relative_error(est, truth) == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        truth = random_full(rng, 10)
        est = random_full(rng, 10)
        num = 0.0
        den = 0.0
        for i in range(10):
            for j in range(10):
                num += (est.values[i, j] - truth.values[i, j]) ** 2
                den += truth.values[i, j] ** 2
        oracle = (num ** 0.5) / (den ** 0.5)
        assert relative_error(est, truth) == pytest.approx(oracle, rel=1e-12)

    def test_size_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(UsageError, match=r"estimate is 3, truth 4"):
            relative_error(random_full(rng, 3), random_full(rng, 4))

    def test_partial_truth_rejected(self):
        rng = np.random.default_rng(6)
        truth = random_partial(rng, 4)
        est = random_full(rng, 4)
        with pytest.raises(UsageError, match=r"truth matrix must be of kind FULL"):
            relative_error(est, truth)

    def test_partial_estimate_rejected(self):
        rng = np.random.default_rng(7)
        est = random_partial(rng, 4)
        truth = random_full(rng, 4)
        with pytest.raises(UsageError,
                           match=r"estimate matrix must not be of kind PARTIAL"):
            relative_error(est, truth)

    def test_zero_truth(self):
        truth = DistanceMatrix.full(np.zeros((3, 3)))
        est = DistanceMatrix.full(np.zeros((3, 3)))
        with pytest.raises(NumericalError,
                           match=r"truth matrix has zero Frobenius norm"):
            relative_error(est, truth)
