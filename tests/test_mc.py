import numpy as np
import pytest
from scipy import sparse

from wassmatrix import DistanceMatrix, McConfig, apply_A, complete_mc
from wassmatrix import (derive_seed, sample_entries, synth_translation_family,
                        w2_matrix)
from wassmatrix.measures import two_atom_base
from wassmatrix import mc
from wassmatrix.errors import Diverged, UsageError
from wassmatrix.matrixio import MatrixKind
from wassmatrix.mc import (
    apply_A_adjoint,
    lagrangian_gradient,
    lagrangian_value,
)


def edm_of(points):
    diff = points[:, None, :] - points[None, :, :]
    d = (diff ** 2).sum(-1)
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)


def adjoint_oracle(v, pairs, n):
    """Dense As(v): each v_alpha scattered onto (i,i), (j,j), -(i,j), -(j,i)."""
    out = np.zeros((n, n))
    ii, jj = pairs[:, 0], pairs[:, 1]
    np.add.at(out, (ii, ii), v)
    np.add.at(out, (jj, jj), v)
    np.add.at(out, (ii, jj), -v)
    np.add.at(out, (jj, ii), -v)
    return out


def random_instance(rng, n=8, q=3, n_pairs=10):
    iu, ju = np.triu_indices(n, 1)
    sel = rng.choice(iu.size, n_pairs, replace=False)
    pairs = np.column_stack([iu[sel], ju[sel]])
    b = rng.random(n_pairs) * 4
    lam = rng.normal(size=n_pairs)
    Q = rng.normal(size=(n, q))
    return Q, pairs, b, lam


def jacobian(et, P):
    """J at the row differences P, on the pairs of the incidence matrix
    ``et`` = E^T (row alpha holds +1 at i, then -1 at j)."""
    n = et.shape[1]
    ii, jj = et.indices.reshape(-1, 2).T
    return mc._jacobian_at(P, mc._sparsity(ii, jj, n, P.shape[1]), n)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestApplyA:
    def test_identity_matrix(self):
        assert apply_A(np.eye(3), np.array([[0, 1]])).tolist() == [2.0]

    def test_gram_gives_squared_distance(self):
        p = np.array([[0.0], [3.0]])
        gram = p @ p.T
        assert apply_A(gram, np.array([[0, 1]])).tolist() == [9.0]

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 6))
        x = x + x.T
        iu, ju = np.triu_indices(6, 1)
        pairs = np.column_stack([iu, ju])
        got = apply_A(x, pairs)
        for k, (i, j) in enumerate(pairs):
            assert got[k] == pytest.approx(x[i, i] + x[j, j] - 2 * x[i, j])

    def test_index_out_of_range(self):
        with pytest.raises(UsageError, match=r"pair index out of range for 3x3 matrix"):
            apply_A(np.eye(3), np.array([[0, 3]]))

    def test_adjointness(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 7))
        x = x + x.T
        iu, ju = np.triu_indices(7, 1)
        sel = rng.choice(iu.size, 9, replace=False)
        pairs = np.column_stack([iu[sel], ju[sel]])
        v = rng.normal(size=9)
        lhs = float(apply_A(x, pairs) @ v)
        rhs = float((x * apply_A_adjoint(v, pairs, 7)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("n", [7, 40])
class TestIncidenceRoute:
    """The incidence-matrix kernels against routes that never build E."""

    def instance(self, n):
        rng = np.random.default_rng(n)
        Q, pairs, b, lam = random_instance(rng, n=n, q=3,
                                           n_pairs=n * (n - 1) // 4)
        E, et = mc._incidence(pairs[:, 0], pairs[:, 1], n)
        return Q, pairs, b, lam, E, et

    def test_adjoint_matches_scatter_oracle(self, n):
        Q, pairs, b, lam, E, et = self.instance(n)
        np.testing.assert_allclose(apply_A_adjoint(lam, pairs, n),
                                   adjoint_oracle(lam, pairs, n),
                                   rtol=0, atol=1e-12)

    def test_residual_matches_dense_apply_A(self, n):
        Q, pairs, b, lam, E, et = self.instance(n)
        dense = apply_A(Q @ Q.T, pairs)
        np.testing.assert_allclose(mc._residual(et @ Q, b), dense - b,
                                   rtol=0, atol=1e-12 * np.abs(dense).max())

    def test_gradient_matches_oracle_adjoint(self, n):
        Q, pairs, b, lam, E, et = self.instance(n)
        P = et @ Q
        r = mc._residual(P, b) + lam
        want = 2.0 * adjoint_oracle(r, pairs, n) @ Q
        np.testing.assert_allclose(mc._gradient(jacobian(et, P), r), want,
                                   rtol=0, atol=1e-12 * np.abs(want).max())

    def test_row_differences_have_the_bits_of_the_incidence_product(self, n):
        Q, pairs, b, lam, E, et = self.instance(n)
        assert_same_bits(mc._row_differences(Q, pairs[:, 0], pairs[:, 1]), et @ Q)

    def test_gradient_has_the_bits_of_the_scaled_product(self, n):
        # J^T r only moves exact factors of 2 and signs, and sums in the
        # order of alpha, so it gives the bits of 2 E (r * P)
        Q, pairs, b, lam, E, et = self.instance(n)
        for _ in range(3):
            P = et @ Q
            r = mc._residual(P, b) + lam
            g = mc._gradient(jacobian(et, P), r)
            np.testing.assert_array_equal(g, 2.0 * (E @ (r[:, None] * P)))
            Q = Q - 1e-3 * g


def observed(truth, rng, rate):
    """PARTIAL matrix of a random ``rate`` share of the upper triangle."""
    n = truth.shape[0]
    iu, ju = np.triu_indices(n, 1)
    sel = rng.choice(iu.size, int(round(rate * iu.size)), replace=False)
    mask = np.eye(n, dtype=bool)
    mask[iu[sel], ju[sel]] = True
    mask[ju[sel], iu[sel]] = True
    return DistanceMatrix.partial(np.where(mask, truth, 0.0), mask)


class TestJacobian:
    """J V = 2 rowsum(P * E^T V) and J^T w = ``_gradient`` against
    central differences of the residual, and against each other."""

    def instance(self, seed):
        rng = np.random.default_rng(seed)
        Q, pairs, b, lam = random_instance(rng, n=9, q=3, n_pairs=14)
        E, et = mc._incidence(pairs[:, 0], pairs[:, 1], 9)
        return rng, Q, b, E, et

    def test_jacobian_matches_central_differences(self):
        h = 1e-6
        for seed in range(10):
            rng, Q, b, E, et = self.instance(seed)
            V = rng.normal(size=Q.shape)
            got = mc._jacobian(jacobian(et, et @ Q), V)
            fd = (mc._residual(et @ (Q + h * V), b)
                  - mc._residual(et @ (Q - h * V), b)) / (2 * h)
            assert np.linalg.norm(fd - got) <= 1e-7 * np.linalg.norm(got)

    def test_adjoint_matches_central_differences(self):
        # J^T w is the gradient of <w, r(Q)>
        h = 1e-6
        for seed in range(10):
            rng, Q, b, E, et = self.instance(seed)
            w = rng.normal(size=b.size)
            got = mc._gradient(jacobian(et, et @ Q), w)
            fd = np.zeros_like(Q)
            for idx in np.ndindex(*Q.shape):
                step = np.zeros_like(Q)
                step[idx] = h
                fd[idx] = (w @ mc._residual(et @ (Q + step), b)
                           - w @ mc._residual(et @ (Q - step), b)) / (2 * h)
            assert np.linalg.norm(fd - got) <= 1e-7 * np.linalg.norm(got)

    def test_jacobian_and_gradient_are_adjoint(self):
        for seed in range(10):
            rng, Q, b, E, et = self.instance(seed)
            P = et @ Q
            V = rng.normal(size=Q.shape)
            w = rng.normal(size=b.size)
            lhs = float(mc._jacobian(jacobian(et, P), V) @ w)
            rhs = float(np.vdot(V, mc._gradient(jacobian(et, P), w)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("q", [1, 3, 10])
class TestExplicitJacobian:
    """The J arrays of ``_jacobian_at`` against the dense operator routes,
    on a sample where the last point lies in no observed pair."""

    n = 12

    def instance(self, q):
        rng = np.random.default_rng(100 + q)
        iu, ju = np.triu_indices(self.n - 1, 1)
        sel = np.sort(rng.choice(iu.size, 30, replace=False))
        pairs = np.column_stack([iu[sel], ju[sel]])
        Q = rng.normal(size=(self.n, q))
        ii, jj = pairs[:, 0], pairs[:, 1]
        J = mc._jacobian_at(mc._row_differences(Q, ii, jj),
                            mc._sparsity(ii, jj, self.n, q), self.n)
        return rng, pairs, Q, J

    def test_jacobian_matches_central_differences_of_apply_A(self, q):
        rng, pairs, Q, J = self.instance(q)
        h = 1e-6
        for _ in range(5):
            V = rng.normal(size=Q.shape)
            plus, minus = Q + h * V, Q - h * V
            fd = (apply_A(plus @ plus.T, pairs)
                  - apply_A(minus @ minus.T, pairs)) / (2 * h)
            got = mc._jacobian(J, V)
            assert np.linalg.norm(fd - got) <= 1e-7 * np.linalg.norm(got)
            V[-1] = rng.normal(size=q)  # the unobserved point moves nothing
            np.testing.assert_array_equal(mc._jacobian(J, V), got)

    def test_adjoint_matches_dense_apply_A_adjoint(self, q):
        rng, pairs, Q, J = self.instance(q)
        w = rng.normal(size=len(pairs))
        want = 2.0 * apply_A_adjoint(w, pairs, self.n) @ Q
        got = mc._gradient(J, w)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(got[-1], 0.0)

    def test_kernels_have_the_bits_of_scipy_sparse_products(self, q):
        # the kernels called directly give the bits of scipy's public
        # products, so a scipy release that moves them fails here
        rng, pairs, Q, J = self.instance(q)
        A = sparse.csr_array((J.data, J.indices, J.indptr),
                             shape=(len(pairs), Q.size))
        V = rng.normal(size=Q.shape)
        w = rng.normal(size=len(pairs))
        assert_same_bits(mc._jacobian(J, V), A @ V.ravel())
        assert_same_bits(mc._gradient(J, w).ravel(), A.T @ w)

    def test_jacobian_holds_2q_entries_per_pair(self, q):
        rng, pairs, Q, J = self.instance(q)
        nnz = 2 * q * len(pairs)
        assert J.data.dtype == np.float64 and J.data.shape == (nnz,)
        assert J.indices.dtype == np.int32 and J.indices.shape == (nnz,)
        assert J.indptr.dtype == np.int32 and J.indptr.shape == (len(pairs) + 1,)
        # no transposed or dense copy besides the three arrays
        assert sum(a.nbytes for a in J if isinstance(a, np.ndarray)) == (
            12 * nnz + 4 * (len(pairs) + 1))

    def test_kernels_take_int64_indices(self, q):
        rng, pairs, Q, J = self.instance(q)
        wide = J._replace(indptr=J.indptr.astype(np.int64),
                          indices=J.indices.astype(np.int64))
        V = rng.normal(size=Q.shape)
        w = rng.normal(size=len(pairs))
        assert_same_bits(mc._jacobian(wide, V), mc._jacobian(J, V))
        assert_same_bits(mc._gradient(wide, w), mc._gradient(J, w))


def test_sparsity_widens_indices_at_2_to_the_31():
    ii, jj = np.array([0, 1]), np.array([2, 3])
    # N q = 2^31 - 1 still fits int32 column indices; 2^31 does not
    cases = ((2 ** 31 - 1, 1, np.int32, [0, 2, 1, 3]),
             (2 ** 30, 2, np.int64, [0, 1, 4, 5, 2, 3, 6, 7]))
    for n, q, index, columns in cases:
        indptr, indices = mc._sparsity(ii, jj, n, q)
        assert indptr.dtype == indices.dtype == index
        assert indptr.tolist() == [0, 2 * q, 4 * q]
        assert indices.tolist() == columns


class TestCg:
    """``_cg`` solves (J^T J + mu I) delta = -g over centered factors."""

    def instance(self, seed=0, n=10, q=2):
        rng = np.random.default_rng(seed)
        Q, pairs, b, _ = random_instance(rng, n=n, q=q, n_pairs=20)
        Q = mc._centered(Q)
        E, et = mc._incidence(pairs[:, 0], pairs[:, 1], n)
        P = et @ Q
        g = mc._centered(mc._gradient(jacobian(et, P), mc._residual(P, b)))
        return Q, E, et, P, g

    def dense_normal_matrix(self, E, et, P, shape):
        """J^T J column by column, on the basis vectors of R^{n x q}."""
        cols = []
        for idx in np.ndindex(*shape):
            V = np.zeros(shape)
            V[idx] = 1.0
            cols.append(mc._gradient(jacobian(et, P),
                                     mc._jacobian(jacobian(et, P), V)).ravel())
        return np.column_stack(cols)

    def test_matches_dense_solve(self):
        for seed in range(5):
            Q, E, et, P, g = self.instance(seed)
            mu = 0.3
            n, q = Q.shape
            C = np.eye(n) - 1.0 / n  # projector onto centered columns
            proj = np.kron(C, np.eye(q))
            A = proj @ (self.dense_normal_matrix(E, et, P, Q.shape)
                        + mu * np.eye(n * q)) @ proj
            want = np.linalg.lstsq(A, -g.ravel(), rcond=None)[0]
            got, k = mc._cg(jacobian(et, P), g, mu, 200, 1e-13)
            assert k < 200
            np.testing.assert_allclose(got.ravel(), want, rtol=0,
                                       atol=1e-9 * np.abs(want).max())
            np.testing.assert_allclose(got.sum(axis=0), 0.0, atol=1e-12)

    def test_iteration_cap(self):
        Q, E, et, P, g = self.instance()
        _, k = mc._cg(jacobian(et, P), g, 1e-3, 3, 0.0)
        assert k == 3

    def test_large_damping_gives_a_gradient_step(self):
        # (J^T J + mu I)^{-1} -> I / mu as mu grows
        Q, E, et, P, g = self.instance()
        mu = 1e12
        got, _ = mc._cg(jacobian(et, P), g, mu, 50, 1e-12)
        np.testing.assert_allclose(got, -g / mu, rtol=1e-6)

    def test_stationary_point_takes_no_step(self):
        Q, E, et, P, g = self.instance()
        got, k = mc._cg(jacobian(et, P), np.zeros_like(g), 1.0, 10, 0.1)
        assert k == 0
        np.testing.assert_array_equal(got, 0.0)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(20):
            Q, pairs, b, lam = random_instance(rng)
            grad = lagrangian_gradient(Q, pairs, b, lam)
            fd = np.zeros_like(Q)
            for r in range(Q.shape[0]):
                for c in range(Q.shape[1]):
                    qp = Q.copy()
                    qm = Q.copy()
                    qp[r, c] += h
                    qm[r, c] -= h
                    fd[r, c] = (lagrangian_value(qp, pairs, b, lam)
                                - lagrangian_value(qm, pairs, b, lam)) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-30)
            assert rel <= 1e-5


class TestCompleteMc:
    def test_all_zero_observations_give_zero_matrix(self):
        n = 6
        vals = np.zeros((n, n))
        mask = np.ones((n, n), bool)
        d_obs = DistanceMatrix.partial(vals, mask)
        est, report = complete_mc(d_obs, McConfig(rank_estimate=3, seed=1))
        np.testing.assert_array_equal(est.values, np.zeros((n, n)))
        assert report.final_residual == 0.0
        assert report.stop_reason == "converged"

    def test_fully_observed_edm_recovered(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        truth = edm_of(pts)
        d_obs = DistanceMatrix.partial(truth, np.ones((20, 20), bool))
        cfg = McConfig(rank_estimate=5, residual_tolerance=1e-8, seed=5)
        est, report = complete_mc(d_obs, cfg)
        rel = np.linalg.norm(est.values - truth) / np.linalg.norm(truth)
        assert rel <= 1e-6
        assert report.stop_reason == "converged"

    def test_subsampled_edm_recovered(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(100, 3))
        truth = edm_of(pts)
        iu, ju = np.triu_indices(100, 1)
        sel = rng.choice(iu.size, int(round(0.3 * iu.size)), replace=False)
        mask = np.eye(100, dtype=bool)
        mask[iu[sel], ju[sel]] = True
        mask[ju[sel], iu[sel]] = True
        d_obs = DistanceMatrix.partial(np.where(mask, truth, 0.0), mask)
        est, report = complete_mc(d_obs, McConfig(rank_estimate=5, seed=6))
        rel = np.linalg.norm(est.values - truth) / np.linalg.norm(truth)
        assert rel <= 1e-3
        assert report.iterations <= 30_000

    def test_output_satisfies_matrix_invariants(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(15, 2))
        truth = edm_of(pts)
        d_obs = DistanceMatrix.partial(truth, np.ones((15, 15), bool))
        est, _ = complete_mc(d_obs, McConfig(rank_estimate=4, seed=2,
                                             max_outer_iters=5))
        assert est.kind is MatrixKind.ESTIMATED
        assert np.all(np.diagonal(est.values) == 0.0)
        np.testing.assert_array_equal(est.values, est.values.T)
        assert np.all(est.values >= 0.0)

    def test_running_minimum_of_residual_is_nonincreasing(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 3))
        d_obs = DistanceMatrix.partial(edm_of(pts), np.ones((30, 30), bool))
        _, report = complete_mc(d_obs, McConfig(rank_estimate=5, seed=4))
        trace = np.array(report.residual_trace)
        running_min = np.minimum.accumulate(trace)
        assert np.all(np.diff(running_min) <= 0.0)
        tail = running_min[-min(50, len(running_min)):]
        assert np.all(np.diff(tail) <= 0.0)
        assert (report.final_residual <= 1e-6
                or report.stop_reason == "max_iters")

    def test_no_observations_rejected(self):
        d_obs = DistanceMatrix.partial(np.zeros((4, 4)), np.eye(4, dtype=bool))
        with pytest.raises(UsageError,
                           match=r"no observed off-diagonal entries to fit"):
            complete_mc(d_obs, McConfig(rank_estimate=2))

    def test_one_product_per_trial_point_and_cg_iteration(self, monkeypatch):
        calls = {"residual": 0, "jacobian": 0, "gradient": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(mc, f"_{name}", counting(name, getattr(mc, f"_{name}")))
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20, 3))
        d_obs = DistanceMatrix.partial(edm_of(pts), np.ones((20, 20), bool))
        # a rank-2 factor cannot fit points in R^3, so phase (a) runs
        # until the budget of k * 100 products is spent: one start, no
        # rank descent
        k = 2
        _, report = complete_mc(d_obs, McConfig(rank_estimate=2, seed=1,
                                                max_outer_iters=k))
        assert report.stop_reason == "max_iters"
        # each residual is a trial point (or the start), each J V a CG iteration
        assert report.iterations == calls["residual"] + calls["jacobian"]
        assert report.iterations <= k * 100
        assert calls["residual"] == 1 + report.outer_iterations
        # J^T once per CG iteration, and once at each point a step leaves
        assert calls["jacobian"] < calls["gradient"] <= calls["jacobian"] + calls["residual"]

    def test_budget_caps_products(self):
        rng = np.random.default_rng(13)
        d_obs = observed(edm_of(rng.normal(size=(60, 2))), rng, 0.2)
        for k in [1, 2, 3, 5]:
            _, report = complete_mc(d_obs, McConfig(rank_estimate=4, seed=2,
                                                    max_outer_iters=k))
            assert report.stop_reason == "max_iters"
            assert report.iterations <= k * 100
            assert report.final_residual > McConfig.residual_tolerance

    def test_accepted_steps_never_raise_the_residual(self):
        # at q = 1 there is no rank descent: one LM fit, one trace, and a
        # rank-2 sample it cannot fit, so steps are rejected until it stalls
        rng = np.random.default_rng(14)
        d_obs = observed(edm_of(rng.normal(size=(30, 2))), rng, 0.5)
        _, report = complete_mc(d_obs, McConfig(rank_estimate=1, seed=3))
        trace = np.array(report.residual_trace)
        assert len(trace) == report.outer_iterations + 1
        assert np.all(np.diff(trace) <= 0.0)
        assert report.stop_reason == "max_iters"
        assert report.rank == 1
        assert report.iterations <= 300 * 100

    def test_stalled_fit_stops_without_diverging(self):
        # a tolerance below round-off cannot be met: LM stops when a
        # rejected step no longer moves Q, long before the budget
        rng = np.random.default_rng(15)
        d_obs = DistanceMatrix.partial(edm_of(rng.normal(size=(20, 3))),
                                       np.ones((20, 20), bool))
        _, report = complete_mc(d_obs, McConfig(rank_estimate=4, seed=1,
                                                residual_tolerance=1e-300))
        assert report.stop_reason == "max_iters"
        assert report.final_residual < 1e-12
        assert report.iterations < 300 * 100

    def test_rank_bounded_by_size(self):
        d_obs = DistanceMatrix.partial(np.zeros((3, 3)),
                                       np.ones((3, 3), bool))
        with pytest.raises(ValueError):
            complete_mc(d_obs, McConfig(rank_estimate=4))


class TestRankDescent:
    def test_planar_translations_give_rank_2(self):
        rng = np.random.default_rng(16)
        shifts = rng.uniform(0, 10, size=(80, 2))
        d_obs = observed(edm_of(shifts), rng, 0.2)
        _, report = complete_mc(d_obs, McConfig(rank_estimate=5, seed=4))
        assert report.stop_reason == "converged"
        assert report.rank == 2

    def test_discarded_polishes_are_counted(self):
        # the planar fixture above: the r = 1 polish fails and is discarded
        rng = np.random.default_rng(16)
        shifts = rng.uniform(0, 10, size=(80, 2))
        d_obs = observed(edm_of(shifts), rng, 0.2)
        _, report = complete_mc(d_obs, McConfig(rank_estimate=5, seed=4))
        assert report.rank == 2
        assert 0 < report.discarded_products <= report.iterations
        assert report.to_json()["discarded_products"] == report.discarded_products
        # a tolerance phase (a) reaches skips rank descent
        _, report = complete_mc(d_obs, McConfig(rank_estimate=5, seed=4,
                                                residual_tolerance=1e-2))
        assert report.stop_reason == "converged"
        assert report.rank == 5
        assert report.discarded_products == 0

    def test_points_in_r3_give_rank_3(self):
        # criterion 04's fixture: 100 points in R^3, 30% of entries
        rng = np.random.default_rng(4000)
        pts = rng.standard_normal((100, 3))
        truth = edm_of(pts)
        est, report = complete_mc(observed(truth, rng, 0.3),
                                  McConfig(rank_estimate=5, seed=7))
        assert report.stop_reason == "converged"
        assert report.rank == 3
        assert np.linalg.norm(est.values - truth) <= 1e-5 * np.linalg.norm(truth)

    def test_seed_robustness_of_fully_observed_fixture(self):
        # the fixture of test_fully_observed_edm_recovered, for every seed
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        truth = edm_of(pts)
        d_obs = DistanceMatrix.partial(truth, np.ones((20, 20), bool))
        for seed in range(11):
            cfg = McConfig(rank_estimate=5, residual_tolerance=1e-8, seed=seed)
            est, report = complete_mc(d_obs, cfg)
            rel = np.linalg.norm(est.values - truth) / np.linalg.norm(truth)
            assert report.stop_reason == "converged", seed
            assert rel <= 1e-6, seed


class TestDiverged:
    def d_obs(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 2))
        return DistanceMatrix.partial(edm_of(pts), np.ones((12, 12), bool))

    def test_non_finite_residual(self, monkeypatch):
        residual = mc._residual
        calls = []

        def poisoned(P, b):
            calls.append(1)
            r = residual(P, b)
            return r if len(calls) < 3 else np.full_like(r, np.nan)

        monkeypatch.setattr(mc, "_residual", poisoned)
        with pytest.raises(Diverged, match="non-finite after 2 LM steps"):
            complete_mc(self.d_obs(), McConfig(rank_estimate=3))

    def test_overflowing_start_raises(self):
        d_obs = self.d_obs()
        huge = DistanceMatrix.partial(d_obs.values * 1e300, d_obs.mask)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged, match="non-finite after 0 LM steps"):
                complete_mc(huge, McConfig(rank_estimate=3))


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(rank_estimate=0)
        with pytest.raises(ValueError):
            McConfig(residual_tolerance=0.0)

    def test_report_trace_thinning(self):
        from wassmatrix.mc import ConvergenceReport
        rep = ConvergenceReport(iterations=10, outer_iterations=5,
                                final_residual=0.5, stop_reason="max_iters",
                                rank=2,
                                residual_trace=list(np.linspace(1, 0.5, 999)))
        assert 999 > mc._MAX_TRACE
        obj = rep.to_json()
        assert len(obj["residual_trace"]) <= mc._MAX_TRACE + 1
        assert obj["residual_trace"][-1] == pytest.approx(0.5)


class TestUnderdeterminedPoints:
    """Points with fewer than rank + 1 observed distances are counted."""

    def test_point_observed_twice_is_counted(self):
        rng = np.random.default_rng(90)
        truth = edm_of(rng.normal(size=(12, 2)))
        mask = np.ones((12, 12), dtype=bool)
        mask[0, 3:] = mask[3:, 0] = False  # point 0 sees points 1 and 2 only
        d_obs = DistanceMatrix.partial(np.where(mask, truth, 0.0), mask)
        est, report = complete_mc(d_obs, McConfig(rank_estimate=3, seed=1))
        assert report.rank in (2, 3)
        assert report.underdetermined_points == 1
        assert report.to_json()["underdetermined_points"] == 1
        # the count changes no estimate bits
        again, _ = complete_mc(d_obs, McConfig(rank_estimate=3, seed=1))
        assert again.values.tobytes() == est.values.tobytes()

    def test_criterion_06_samples(self):
        """Criterion 06's data: every point of the 10% samples has enough
        observations, and at 5% seeds 0, 4 and 8 leave one point with
        only two."""
        ii, jj = np.meshgrid(np.arange(20.0), np.arange(10.0), indexing="ij")
        data = synth_translation_family(
            two_atom_base(), np.column_stack([ii.ravel(), jj.ravel()]))
        counts = {}
        for rate, seeds in ((0.10, range(10)), (0.05, (0, 4, 8))):
            for seed in seeds:
                plan = sample_entries(200, rate,
                                      derive_seed(6, "entries", rate, seed))
                _, report = complete_mc(w2_matrix(data, plan), McConfig(
                    rank_estimate=5, seed=derive_seed(6, "mc", rate, seed)))
                assert report.rank == 2
                counts[rate, seed] = report.underdetermined_points
        assert all(counts[0.10, s] == 0 for s in range(10))
        assert [counts[0.05, s] for s in (0, 4, 8)] == [1, 1, 1]
