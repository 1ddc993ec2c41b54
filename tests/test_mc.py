import numpy as np
import pytest

from wassmatrix import DistanceMatrix, McConfig, apply_A, bb_step, complete_mc
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
        np.testing.assert_allclose(mc._gradient(E, P, r, E.copy()), want,
                                   rtol=0, atol=1e-12 * np.abs(want).max())

    def test_gradient_has_the_bits_of_the_scaled_product(self, n):
        # E diag(2r) P only moves exact factors of 2 and signs, so it
        # gives the bits of 2 E (r * P), with a work copy reused per step
        Q, pairs, b, lam, E, et = self.instance(n)
        work = E.copy()
        for _ in range(3):
            P = et @ Q
            r = mc._residual(P, b) + lam
            g = mc._gradient(E, P, r, work)
            np.testing.assert_array_equal(g, 2.0 * (E @ (r[:, None] * P)))
            Q = Q - 1e-3 * g


class TestBBStep:
    def test_unit_quadratic(self):
        # f(x) = ||x||^2 / 2 has gradient x, so dg = dx and the step is 1
        x0 = np.array([1.0, 2.0])
        x1 = np.array([0.5, -1.0])
        assert bb_step(x1, x0, x1, x0) == pytest.approx(1.0)

    def test_negative_curvature_falls_back(self):
        x0, x1 = np.array([0.0]), np.array([1.0])
        g0, g1 = np.array([1.0]), np.array([0.0])  # <dx, dg> = -1
        assert bb_step(g1, g0, x1, x0, bounds=(1e-6, 10.0)) == 1e-6

    def test_scaled_quadratic(self):
        # f(x) = a x^2 / 2 gives step 1/a for any pair of iterates
        a = 7.0
        x0, x1 = np.array([2.0]), np.array([-0.5])
        assert bb_step(a * x1, a * x0, x1, x0) == pytest.approx(1.0 / a)

    def test_clamping(self):
        x0, x1 = np.array([0.0]), np.array([1.0])
        assert bb_step(0.5 * x1, 0.5 * x0, x1, x0, bounds=(1e-6, 1.0)) == 1.0


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

    def test_one_residual_per_step(self, monkeypatch):
        calls = {"residual": 0, "gradient": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(mc, "_residual", counting("residual", mc._residual))
        monkeypatch.setattr(mc, "_gradient", counting("gradient", mc._gradient))
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20, 3))
        d_obs = DistanceMatrix.partial(edm_of(pts), np.ones((20, 20), bool))
        k, m = 3, 4
        _, report = complete_mc(d_obs, McConfig(rank_estimate=3, seed=1,
                                                max_outer_iters=k,
                                                inner_steps=m))
        assert report.stop_reason == "max_iters"
        assert report.iterations == k * m
        assert calls == {"residual": 1 + k * m, "gradient": k * m}

    def test_rank_bounded_by_size(self):
        d_obs = DistanceMatrix.partial(np.zeros((3, 3)),
                                       np.ones((3, 3), bool))
        with pytest.raises(ValueError):
            complete_mc(d_obs, McConfig(rank_estimate=4))


class TestDiverged:
    def d_obs(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 2))
        return DistanceMatrix.partial(edm_of(pts), np.ones((12, 12), bool))

    def test_non_finite_residual(self, monkeypatch):
        monkeypatch.setattr(mc, "BB_STEP_BOUNDS", (1e3, 1e3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged, match="non-finite"):
                complete_mc(self.d_obs(), McConfig(rank_estimate=3))

    def test_growth_patience(self, monkeypatch):
        monkeypatch.setattr(mc, "BB_STEP_BOUNDS", (1e-2, 1e-2))
        monkeypatch.setattr(mc, "DIVERGENCE_PATIENCE", 1)
        cfg = McConfig(rank_estimate=3, inner_steps=1)
        with pytest.raises(Diverged, match="grew for 1 consecutive"):
            complete_mc(self.d_obs(), cfg)


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
                                residual_trace=list(np.linspace(1, 0.5, 999)))
        obj = rep.to_json(max_trace=100)
        assert len(obj["residual_trace"]) <= 101
        assert obj["residual_trace"][-1] == pytest.approx(0.5)
