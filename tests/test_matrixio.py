import struct
import tracemalloc

import numpy as np
import pytest

from wassmatrix import ColumnBlock, DistanceMatrix, MatrixKind, relative_error
from wassmatrix import complete_nystrom
from wassmatrix import cli, matrixio
from wassmatrix.errors import (
    FormatError,
    InvariantViolation,
    NumericalError,
    UsageError,
)
from wassmatrix.matrixio import BLOCK_ENTRIES, load, row_blocks
from wassmatrix.matrixio import sanitized_estimate, save
from wassmatrix.nystrom import PINV_TOLERANCE


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


def root_buffer(a):
    """The object at the end of ``a``'s chain of bases."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


def record_inputs(monkeypatch) -> list:
    """The (values, mask) every DistanceMatrix is built from, from now on."""
    built, init = [], DistanceMatrix.__init__

    def recording(self, values, mask, kind):
        built.append((values, mask))
        init(self, values, mask, kind)

    monkeypatch.setattr(DistanceMatrix, "__init__", recording)
    return built


class TestOwnership:
    """A DistanceMatrix copies what its caller can still write and takes
    what a producer hands over frozen."""

    def test_writable_input_is_copied(self):
        vals = np.array([[0.0, 2.0], [2.0, 0.0]])
        mask = np.ones((2, 2), bool)
        for m in (DistanceMatrix(vals, mask, MatrixKind.FULL),
                  DistanceMatrix.full(vals)):
            assert not np.shares_memory(m.values, vals)
            vals[0, 1] = vals[1, 0] = 5.0
            mask[0, 1] = False
            assert m.values[0, 1] == 2.0 and m.mask.all()
            vals[0, 1] = vals[1, 0] = 2.0
            mask[0, 1] = True

    def test_read_only_view_of_writable_memory_is_copied(self):
        vals = np.array([[0.0, 2.0], [2.0, 0.0]])
        view = vals[:]
        view.flags.writeable = False
        m = DistanceMatrix.full(view)
        vals[0, 1] = vals[1, 0] = 5.0
        assert m.values[0, 1] == 2.0

    def test_frozen_input_is_taken(self):
        vals = matrixio.freeze(np.array([[0.0, 2.0], [2.0, 0.0]]))
        mask = matrixio.freeze(np.ones((2, 2), bool))
        m = DistanceMatrix(vals, mask, MatrixKind.FULL)
        assert m.values is vals and m.mask is mask
        again = DistanceMatrix(m.values, m.mask, MatrixKind.ESTIMATED)
        assert again.values is vals and again.mask is mask

    def test_load_keeps_views_of_the_file(self, tmp_path, monkeypatch):
        m = random_partial(np.random.default_rng(20), 7)
        save(m, tmp_path / "m.w2m")
        built = record_inputs(monkeypatch)
        back = load(tmp_path / "m.w2m")
        assert back.values is built[0][0] and back.mask is built[0][1]
        assert isinstance(root_buffer(back.values), bytes)
        assert root_buffer(back.values) is root_buffer(back.mask)
        assert back.mask.tobytes() == m.mask.tobytes()

    def test_column_block_follows_the_same_rule(self, tmp_path):
        vals = np.array([[0.0, 2.0, 5.0], [2.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        columns, indices = vals[:, [0, 2]], np.array([0, 2])
        block = ColumnBlock(columns, indices, MatrixKind.PARTIAL)
        columns[1, 0] = indices[0] = 7
        assert block.columns[1, 0] == 2.0 and block.indices[0] == 0
        save(block, tmp_path / "c.w2m")
        back = load(tmp_path / "c.w2m", expand=False)
        assert isinstance(root_buffer(back.columns), bytes)
        assert root_buffer(back.columns) is root_buffer(back.indices)

    def test_load_reads_other_nonzero_mask_bytes_as_true(self, tmp_path):
        m = DistanceMatrix.full(np.zeros((2, 2)))
        save(m, tmp_path / "m.w2m")
        blob = bytearray((tmp_path / "m.w2m").read_bytes())
        blob[16 + 8 * 4] = 2  # mask entry (0, 0)
        (tmp_path / "m.w2m").write_bytes(bytes(blob))
        back = load(tmp_path / "m.w2m")
        assert back.mask.tobytes() == m.mask.tobytes()
        assert not back.mask.flags.writeable

    def test_sanitized_estimate_is_not_copied(self, monkeypatch):
        built = record_inputs(monkeypatch)
        est = sanitized_estimate(np.ones((3, 3)))
        assert est.values is built[0][0] and est.mask is built[0][1]


# N = 300 takes two row blocks; rows 298 and 299 are in the last one
BIG = 300


def big_matrix(kind=MatrixKind.FULL):
    rng = np.random.default_rng(21)
    a = rng.random((BIG, BIG)) + 0.5
    vals = a + a.T
    np.fill_diagonal(vals, 0.0)
    return vals, np.ones((BIG, BIG), bool)


def put(a, i, j, v):
    a[i, j] = a[j, i] = v


class TestRowBlockChecks:
    """The checks run over row blocks of about BLOCK_ENTRIES entries, and
    still find a fault anywhere, in the order they are listed."""

    def test_blocks_cover_the_rows(self):
        blocks = row_blocks(BIG)
        assert len(blocks) == 2
        assert blocks[0][0] == 0 and blocks[-1][1] == BIG
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all((stop - start) * BIG <= BLOCK_ENTRIES
                   for start, stop in blocks)
        assert blocks[-1][0] <= 298
        assert row_blocks(0) == [] and row_blocks(1) == [(0, 1)]
        assert row_blocks(100_000) == [(k, k + 1) for k in range(100_000)]

    @pytest.mark.parametrize("fault, kind, message", [
        ("nan", MatrixKind.PARTIAL, "observed values must be finite"),
        ("asymmetric", MatrixKind.FULL, "values must be exactly symmetric"),
        ("mask-asymmetric", MatrixKind.PARTIAL, "mask must be exactly symmetric"),
        ("diagonal", MatrixKind.FULL, "diagonal must be identically zero"),
        ("diagonal-mask", MatrixKind.PARTIAL, "diagonal must be marked observed"),
        ("unobserved", MatrixKind.FULL, "FULL matrices need an all-true mask"),
        ("unobserved", MatrixKind.ESTIMATED,
         "ESTIMATED matrices need an all-true mask"),
        ("negative", MatrixKind.PARTIAL, "observed squared distances must be >= 0"),
    ])
    def test_fault_in_last_block(self, fault, kind, message):
        vals, mask = big_matrix()
        DistanceMatrix(vals, mask, kind)
        if fault == "nan":
            put(vals, 299, 298, np.nan)
        elif fault == "asymmetric":
            vals[299, 298] += 1.0
        elif fault == "mask-asymmetric":
            mask[299, 298] = False
        elif fault == "diagonal":
            vals[299, 299] = 1.0
        elif fault == "diagonal-mask":
            mask[299, 299] = False
        elif fault == "unobserved":
            put(mask, 299, 298, False)
        else:
            put(vals, 299, 298, -1.0)
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DistanceMatrix(vals, mask, kind)

    @pytest.mark.parametrize("early, late, message", [
        ("negative", "nan", "observed values must be finite"),
        ("asymmetric", "nan", "observed values must be finite"),
        ("diagonal", "asymmetric", "values must be exactly symmetric"),
        ("nan", "negative", "observed values must be finite"),
        ("diagonal", "negative", "diagonal must be identically zero"),
    ])
    def test_first_listed_check_wins_across_blocks(self, early, late, message):
        vals, mask = big_matrix()
        for fault, (i, j) in ((early, (1, 0)), (late, (299, 298))):
            if fault == "nan":
                put(vals, i, j, np.nan)
            elif fault == "negative":
                put(vals, i, j, -1.0)
            elif fault == "asymmetric":
                vals[i, j] += 1.0
            else:
                vals[i, i] = 1.0
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DistanceMatrix(vals, mask, MatrixKind.PARTIAL)

    def test_unobserved_entries_are_not_checked(self):
        vals, mask = big_matrix()
        put(mask, 299, 298, False)
        put(vals, 299, 298, -np.inf)
        put(mask, 1, 0, False)
        put(vals, 1, 0, -1.0)
        assert DistanceMatrix(vals, mask, MatrixKind.PARTIAL).kind is (
            MatrixKind.PARTIAL)


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
        zero_cores = 0
        for trial in range(20):
            n = int(rng.integers(3, 40))
            block, idx = column_block(rng, n, int(rng.integers(1, n - 1)))
            path = tmp_path / f"c{trial}.w2m"
            if kind is MatrixKind.ESTIMATED and idx.size == 1:
                # one column has the zero 1 x 1 core: no estimate to stand for
                zero_cores += 1
                with pytest.raises(NumericalError, match="identically zero"):
                    ColumnBlock(block, idx, kind)
                save(ColumnBlock(block, idx, MatrixKind.PARTIAL), path)
                blob = bytearray(path.read_bytes())
                blob[-1] = kind.value
                path.write_bytes(bytes(blob))
                for expand in (True, False):
                    with pytest.raises(NumericalError, match="identically zero"):
                        load(path, expand=expand)
                continue
            cols = ColumnBlock(block, idx, kind)
            save(cols, path)
            back = load(path, expand=False)
            assert back.kind is kind
            assert back.columns.tobytes() == block.tobytes()
            assert back.indices.tobytes() == idx.astype(np.int64).tobytes()
            save(back, tmp_path / "again.w2m")
            assert (tmp_path / "again.w2m").read_bytes() == path.read_bytes()
        assert zero_cores == (4 if kind is MatrixKind.ESTIMATED else 0)

    def test_layout(self, tmp_path):
        block = np.array([[0.0, 4.0], [1.0, 9.0], [4.0, 0.0], [7.0, 2.0]])
        save(ColumnBlock(block, [0, 2], MatrixKind.PARTIAL), tmp_path / "c.w2m")
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
        save(ColumnBlock(full.values[:, idx], idx, MatrixKind.PARTIAL),
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
            ColumnBlock(block, indices, kind)

    def test_core_must_be_symmetric_with_zero_diagonal(self):
        block = random_full(np.random.default_rng(15), 5).values[:, [1, 3]]
        bad = block.copy()
        bad[1, 1] = 0.5  # entry (3, 1) of the core, not (1, 3)
        with pytest.raises(InvariantViolation, match="symmetric"):
            ColumnBlock(bad, [1, 3], MatrixKind.ESTIMATED)
        bad = block.copy()
        bad[1, 0] = 0.5
        with pytest.raises(InvariantViolation, match="diagonal"):
            ColumnBlock(bad, [1, 3], MatrixKind.ESTIMATED)

    def test_negative_entries_only_in_estimated_blocks(self):
        block = random_full(np.random.default_rng(16), 5).values[:, [1, 3]]
        block[0] = -block[0]
        ColumnBlock(block, [1, 3], MatrixKind.ESTIMATED)
        with pytest.raises(InvariantViolation, match=">= 0"):
            ColumnBlock(block, [1, 3], MatrixKind.PARTIAL)


def column_file(tmp_path, n=6, indices=(1, 4), kind=MatrixKind.PARTIAL):
    """A valid column file of an n x n FULL matrix, as a bytearray."""
    block = random_full(np.random.default_rng(17), n).values[:, list(indices)]
    save(ColumnBlock(block, indices, kind), tmp_path / "c.w2m")
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
        ("full-kind", "PARTIAL or ESTIMATED"),
        ("nan-entry", "finite"),
        ("core-diagonal", "diagonal"),
        ("negative-partial-entry", ">= 0")])
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
        elif defect == "full-kind":
            blob[-1] = MatrixKind.FULL.value
        elif defect == "nan-entry":  # C(0, 0); row 0 is outside the core
            blob[40:48] = struct.pack("<d", float("nan"))
        elif defect == "core-diagonal":  # C(1, 0) is core entry (0, 0)
            blob[56:64] = struct.pack("<d", 123.0)
        else:  # negative-partial-entry
            blob[40:48] = struct.pack("<d", -1.0)
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


def oracle_product(block):
    """Oracle: the raw C U^+ C^T with numpy's pinv cut at PINV_TOLERANCE."""
    pinv = np.linalg.pinv(block.core, rcond=PINV_TOLERANCE, hermitian=True)
    return block.columns @ pinv @ block.columns.T


def oracle_estimate(raw):
    """Oracle: ``raw`` symmetrized, with a zero diagonal and clamped at 0."""
    est = 0.5 * (raw + raw.T)
    np.fill_diagonal(est, 0.0)
    return np.maximum(est, 0.0)


class TestBlockwiseError:
    """An ESTIMATED column block is compared with the truth one row block
    at a time, from the row blocks its dense matrix is filled with; both
    match a dense numpy oracle to round-off."""

    @pytest.mark.parametrize("n, c", [(9, 3), (BIG, 6), (BIG, 40)])
    def test_matches_dense_estimate(self, n, c):
        rng = np.random.default_rng(n + c)
        truth = random_full(rng, n)
        block = complete_nystrom(
            ColumnBlock.from_matrix(truth, np.sort(rng.choice(n, c, False))))
        dense = oracle_estimate(oracle_product(block))
        rows = np.vstack([r for _, _, r in block.estimate_rows()])
        np.testing.assert_allclose(rows, dense, rtol=0,
                                   atol=1e-12 * np.abs(dense).max())
        dense_block = block.matrix().values  # the upper triangle of rows, mirrored
        np.testing.assert_array_equal(np.triu(dense_block), np.triu(rows))
        np.testing.assert_array_equal(dense_block, dense_block.T)
        assert np.diagonal(rows).tolist() == [0.0] * n and rows.min() >= 0.0
        expect = np.linalg.norm(dense - truth.values) / np.linalg.norm(truth.values)
        assert relative_error(block, truth) == pytest.approx(expect, rel=1e-12)

    def test_clamp_and_symmetrization_match_dense_route(self):
        # Mixed-sign columns give a raw product with negative entries
        # that is not exactly symmetric in floating point.
        rng = np.random.default_rng(23)
        n, idx = BIG, np.array([4, 90, 170, 250, 299])
        columns = rng.normal(size=(n, idx.size))
        core = rng.normal(size=(idx.size, idx.size))
        core = core + core.T
        np.fill_diagonal(core, 0.0)
        columns[idx] = core
        # negative entries: only an ESTIMATED file's columns may hold them
        block = ColumnBlock(columns, idx, MatrixKind.ESTIMATED)
        raw = oracle_product(block)
        assert raw.min() < 0.0 and np.any(raw != raw.T)
        dense = oracle_estimate(raw)
        rows = np.vstack([r for _, _, r in block.estimate_rows()])
        scale = np.abs(raw).max()
        np.testing.assert_allclose(rows, dense, rtol=0, atol=1e-12 * scale)
        assert np.array_equal(rows == 0.0, dense == 0.0)

    def test_partial_block_rejected(self):
        truth = random_full(np.random.default_rng(22), 5)
        block = ColumnBlock.from_matrix(truth, [1, 3])
        partial = ColumnBlock(block.columns, block.indices, MatrixKind.PARTIAL)
        with pytest.raises(UsageError, match="must not be of kind PARTIAL"):
            relative_error(partial, truth)


def two_atom_measures(n):
    from wassmatrix.measures import MeasureDataset, two_atom_base
    base = two_atom_base()
    shifts = np.random.default_rng(n).normal(size=(n, 2))
    return MeasureDataset([type(base)(base.points + s, base.weights)
                           for s in shifts])


class TestPeakMemory:
    """tracemalloc peaks: no second N x N array in assembly, and none at
    all in ``eval`` of a column estimate."""

    def test_w2_matrix_builds_values_and_mask_once(self):
        from wassmatrix.ot import w2_matrix
        data = two_atom_measures(800)
        tracemalloc.start()
        try:
            m = w2_matrix(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.kind is MatrixKind.FULL
        assert peak < 1.5 * (m.values.nbytes + m.mask.nbytes)

    @pytest.mark.parametrize("variant", ["columns", "entries"])
    def test_w2_matrix_plans_build_values_and_mask_once(self, variant):
        from wassmatrix.ot import w2_matrix
        from wassmatrix.sampling import sample_columns, sample_entries
        data = two_atom_measures(800)
        plan = (sample_columns(800, 40, seed=5) if variant == "columns"
                else sample_entries(800, 0.1, seed=5))
        tracemalloc.start()
        try:
            m = w2_matrix(data, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.kind is MatrixKind.PARTIAL
        assert peak < 1.5 * (m.values.nbytes + m.mask.nbytes)

    def test_observed_pairs_lists_no_full_triangle(self):
        # the pairs of a 10% mask, in row-major order, with no int64 index
        # list over all N(N-1)/2 upper entries (8 bytes per mask byte)
        n = 2000
        rng = np.random.default_rng(52)
        mask = np.triu(rng.random((n, n)) < 0.1, 1)
        mask |= mask.T
        np.fill_diagonal(mask, True)
        part = DistanceMatrix.partial(np.zeros((n, n)), mask)
        tracemalloc.start()
        try:
            ii, jj = part.observed_pairs()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        iu, ju = np.triu_indices(n, 1)
        sel = mask[iu, ju]
        assert np.array_equal(ii, iu[sel]) and np.array_equal(jj, ju[sel])
        assert ii.dtype == iu.dtype and jj.dtype == ju.dtype
        assert peak < 2 * mask.nbytes + ii.nbytes + jj.nbytes

    def test_dense_column_estimate_is_filled_in_place(self):
        # matrix() of an ESTIMATED block writes its row blocks into the one
        # N x N array: no N x N product or sanitized copy beside it
        rng = np.random.default_rng(51)
        pts = rng.normal(size=(1000, 3))
        idx = np.sort(rng.choice(1000, 51, replace=False))
        block = complete_nystrom(ColumnBlock(
            ((pts[:, None] - pts[idx]) ** 2).sum(axis=-1), idx, MatrixKind.PARTIAL))
        tracemalloc.start()
        try:
            m = block.matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.kind is MatrixKind.ESTIMATED
        assert peak < 1.5 * m.values.nbytes

    def test_eval_of_column_estimate_stays_near_the_truth_file(self, tmp_path,
                                                                 capsys):
        from wassmatrix.ot import w2_matrix
        from wassmatrix.sampling import sample_columns
        n = 600
        data = two_atom_measures(n)
        save(w2_matrix(data), tmp_path / "full.w2m")
        plan = sample_columns(n, 8, seed=3)
        save(complete_nystrom(ColumnBlock.from_matrix(w2_matrix(data, plan),
                                                      plan.indices)),
             tmp_path / "est.w2m")
        tracemalloc.start()
        try:
            assert cli.main(["eval", "--estimate", str(tmp_path / "est.w2m"),
                             "--truth", str(tmp_path / "full.w2m")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert float(capsys.readouterr().out) < 1e-12
        file_bytes = (tmp_path / "full.w2m").stat().st_size
        assert peak < file_bytes + 4 * 8 * BLOCK_ENTRIES
