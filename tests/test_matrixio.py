import struct

import numpy as np
import pytest

from wassmatrix import DistanceMatrix, MatrixKind, relative_error
from wassmatrix.errors import (
    FormatError,
    InvariantViolation,
    NumericalError,
    UsageError,
)
from wassmatrix.matrixio import Columns, load, sanitized_estimate, save


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


def column_block(rng, n, c):
    """Columns of a random FULL n x n matrix at c sorted indices."""
    idx = np.sort(rng.choice(n, size=c, replace=False))
    return random_full(rng, n).values[:, idx], idx


class TestColumns:
    @pytest.mark.parametrize("kind", [MatrixKind.PARTIAL, MatrixKind.ESTIMATED])
    def test_bitwise_round_trip(self, tmp_path, kind):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(3, 40))
            block, idx = column_block(rng, n, int(rng.integers(1, n - 1)))
            cols = Columns(block, idx, kind)
            path = tmp_path / f"c{trial}.w2m"
            save(cols, path)
            back = load(path, expand=False)
            assert back.kind is kind
            assert back.block.tobytes() == block.tobytes()
            assert back.indices.tobytes() == idx.astype(np.int64).tobytes()
            save(back, tmp_path / "again.w2m")
            assert (tmp_path / "again.w2m").read_bytes() == path.read_bytes()

    def test_layout(self, tmp_path):
        block = np.array([[0.0, 4.0], [1.0, 9.0], [4.0, 0.0], [7.0, 2.0]])
        save(Columns(block, [0, 2], MatrixKind.PARTIAL), tmp_path / "c.w2m")
        assert (tmp_path / "c.w2m").read_bytes() == (
            b"W2DCOL01" + struct.pack("<QQ", 4, 2) + struct.pack("<2q", 0, 2)
            + struct.pack("<8d", *block.ravel()) + bytes([1]))

    def test_partial_expands_to_rows_and_columns(self, tmp_path):
        rng = np.random.default_rng(12)
        full = random_full(rng, 9)
        idx = np.array([1, 4, 6])
        mask = np.eye(9, dtype=bool)
        mask[:, idx] = mask[idx, :] = True
        dense = DistanceMatrix.partial(np.where(mask, full.values, 0.0), mask)
        save(Columns(full.values[:, idx], idx, MatrixKind.PARTIAL),
             tmp_path / "c.w2m")
        save(dense, tmp_path / "d.w2m")
        for path in ("c.w2m", "d.w2m"):
            back = load(tmp_path / path)
            assert back.kind is MatrixKind.PARTIAL
            assert back.values.tobytes() == dense.values.tobytes()
            assert back.mask.tobytes() == dense.mask.tobytes()

    def test_dense_file_is_returned_as_is(self, tmp_path):
        m = random_full(np.random.default_rng(13), 5)
        save(m, tmp_path / "m.w2m")
        back = load(tmp_path / "m.w2m", expand=False)
        assert isinstance(back, DistanceMatrix)
        assert back.values.tobytes() == m.values.tobytes()

    @pytest.mark.parametrize("kind, indices, message", [
        (MatrixKind.FULL, [0, 2], "PARTIAL or ESTIMATED"),
        (MatrixKind.PARTIAL, [2, 0], "strictly increasing"),
        (MatrixKind.PARTIAL, [0, 0], "strictly increasing"),
        (MatrixKind.PARTIAL, [0, 4], "strictly increasing"),
        (MatrixKind.PARTIAL, [-1, 2], "strictly increasing"),
        (MatrixKind.PARTIAL, [0], "does not match"),
    ])
    def test_invariants(self, kind, indices, message):
        block = random_full(np.random.default_rng(14), 4).values[:, [0, 2]]
        with pytest.raises(InvariantViolation, match=message):
            Columns(block, indices, kind)

    def test_partial_has_at_most_n_minus_2_columns(self):
        full = random_full(np.random.default_rng(14), 4).values
        Columns(full[:, [0, 1, 2]], [0, 1, 2], MatrixKind.ESTIMATED)
        with pytest.raises(InvariantViolation, match="observe every entry"):
            Columns(full[:, [0, 1, 2]], [0, 1, 2], MatrixKind.PARTIAL)

    def test_core_must_be_symmetric_with_zero_diagonal(self):
        block = random_full(np.random.default_rng(15), 5).values[:, [1, 3]]
        bad = block.copy()
        bad[1, 1] = 0.5  # entry (3, 1) of the core, not (1, 3)
        with pytest.raises(InvariantViolation, match="symmetric"):
            Columns(bad, [1, 3], MatrixKind.ESTIMATED)
        bad = block.copy()
        bad[1, 0] = 0.5
        with pytest.raises(InvariantViolation, match="diagonal"):
            Columns(bad, [1, 3], MatrixKind.ESTIMATED)

    def test_negative_entries_only_in_estimated_blocks(self):
        block = random_full(np.random.default_rng(16), 5).values[:, [1, 3]]
        block[0] = -block[0]
        Columns(block, [1, 3], MatrixKind.ESTIMATED)
        with pytest.raises(InvariantViolation, match=">= 0"):
            Columns(block, [1, 3], MatrixKind.PARTIAL)


def column_file(tmp_path, n=6, indices=(1, 4), kind=MatrixKind.PARTIAL):
    """A valid column file of an n x n FULL matrix, as a bytearray."""
    block = random_full(np.random.default_rng(17), n).values[:, list(indices)]
    save(Columns(block, indices, kind), tmp_path / "c.w2m")
    return bytearray((tmp_path / "c.w2m").read_bytes())


class TestMalformedColumnFiles:
    """Each defect of a column file is a FormatError at load."""

    @pytest.mark.parametrize("defect, message", [
        ("truncated", "expected 137 bytes, got 128"),
        ("truncated-header", "truncated header"),
        ("bad-magic", "bad magic"),
        ("index-out-of-range", "strictly increasing"),
        ("duplicate-index", "strictly increasing"),
        ("asymmetric-core", "symmetric"),
        ("full-kind", "PARTIAL or ESTIMATED")])
    @pytest.mark.parametrize("expand", [True, False])
    def test_format_error(self, tmp_path, defect, message, expand):
        blob = column_file(tmp_path)  # N = 6, c = 2: I at 24..40, C from 40
        if defect == "truncated":
            blob = blob[:-9]
        elif defect == "truncated-header":
            blob = blob[:20]
        elif defect == "bad-magic":
            blob[:8] = b"W2DCOL02"
        elif defect == "index-out-of-range":
            blob[32:40] = struct.pack("<q", 6)
        elif defect == "duplicate-index":
            blob[32:40] = struct.pack("<q", 1)
        elif defect == "asymmetric-core":
            # C(4, 0) is core entry (1, 0); C(1, 1) is core entry (0, 1)
            blob[40 + 8 * (4 * 2):40 + 8 * (4 * 2 + 1)] = struct.pack("<d", 123.0)
        else:
            blob[-1] = MatrixKind.FULL.value
        (tmp_path / "bad.w2m").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load(tmp_path / "bad.w2m", expand=expand)


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
