"""SVD/PCA/LDA against dense linear-algebra oracles."""

import numpy as np
import pytest

from sevtriage import reduction
from sevtriage.errors import FitError, RankError, ShapeError
from tests.conftest import grouped_matrix


def oracle_singular_values(X, k):
    """Square roots of the Gram matrix eigenvalues, descending."""
    gram = X.T @ X
    eig = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(eig, 0.0, None))[:k]


class TestTruncatedSvd:
    def test_diagonal_matrix_singular_values(self):
        svd = reduction.fit_truncated_svd(np.diag([3.0, 2.0, 1.0]), k=2, seed=0)
        assert np.allclose(svd.singular_values, [3.0, 2.0], atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        X = rng.random((6, 4))
        svd = reduction.fit_truncated_svd(X, k=4, seed=0)
        proj = reduction.project_svd(svd, X)
        recon = proj @ svd.components
        assert np.linalg.norm(recon - X) < 1e-6

    def test_zero_row_projects_to_zero(self):
        X = np.vstack([np.zeros(5), np.eye(5)[:3]])
        svd = reduction.fit_truncated_svd(X, k=2, seed=0)
        assert np.allclose(reduction.project_svd(svd, np.zeros((1, 5))), 0.0)

    def test_k_exceeding_rank_dimension_raises(self):
        with pytest.raises(RankError):
            reduction.fit_truncated_svd(np.ones((3, 5)), k=4)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            X = rng.random((8, 6))
            svd = reduction.fit_truncated_svd(X, k=4, seed=trial)
            gram = svd.components @ svd.components.T
            assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_singular_values_match_gram_eigen_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            X = rng.random((6, 5))
            svd = reduction.fit_truncated_svd(X, k=5, seed=trial)
            assert np.allclose(svd.singular_values, oracle_singular_values(X, 5), atol=1e-6)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.random((10, 7))
        svd = reduction.fit_truncated_svd(X, k=6, seed=0)
        assert np.all(np.diff(svd.singular_values) <= 1e-12)

    def test_randomized_path_agrees_with_exact_on_low_rank(self):
        # low-rank matrix large enough to take the randomized branch
        rng = np.random.default_rng(4)
        A = rng.random((600, 3)) @ rng.random((3, 520))
        svd_rand = reduction.fit_truncated_svd(A, k=3, seed=11)
        exact = np.linalg.svd(A, compute_uv=False)[:3]
        assert np.allclose(svd_rand.singular_values, exact, rtol=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        A = rng.random((600, 3)) @ rng.random((3, 520))
        a = reduction.fit_truncated_svd(A, k=3, seed=7)
        b = reduction.fit_truncated_svd(A, k=3, seed=7)
        assert np.array_equal(a.components, b.components)

    def test_randomized_path_on_sparse_input(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(14)
        dense = rng.random((700, 540))
        dense[dense < 0.97] = 0.0  # ~3% fill: flat bulk spectrum, as hard as it gets
        A = sp.csr_matrix(dense)
        svd = reduction.fit_truncated_svd(A, k=5, seed=3)
        exact = np.linalg.svd(dense, compute_uv=False)[:5]
        # dominant value recovered tightly; the rest obey the projection bound
        assert abs(svd.singular_values[0] - exact[0]) < 1e-6 * exact[0]
        assert np.all(svd.singular_values <= exact + 1e-8)
        assert np.all(svd.singular_values >= exact - 0.05 * exact[0])
        assert np.allclose(svd.components @ svd.components.T, np.eye(5), atol=1e-8)
        curve = reduction.explained_variance_curve(svd)
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] <= 1.0 + 1e-8

    def test_accepts_feature_matrix(self):
        fm = grouped_matrix((np.eye(4) * 0.5, list("abcd"), "text"))
        svd = reduction.fit_truncated_svd(fm, k=2, seed=0)
        assert reduction.project_svd(svd, fm).shape == (4, 2)


class TestExplainedVariance:
    def test_rank_one_matrix_curve_saturates_immediately(self):
        u = np.array([[1.0], [2.0], [3.0]])
        v = np.array([[0.5, 0.25, 0.25]])
        svd = reduction.fit_truncated_svd(u @ v, k=3, seed=0)
        curve = reduction.explained_variance_curve(svd)
        assert np.allclose(curve, [1.0, 1.0, 1.0], atol=1e-9)

    def test_centered_diagonal_ratios_proportional_to_squared_singular_values(self):
        # column-centered matrix: projected variance is s_i^2 / n of the total
        base = np.diag([3.0, 2.0, 1.0])
        X = base - base.mean(axis=0)
        svd = reduction.fit_truncated_svd(X, k=3, seed=0)
        s2 = svd.singular_values**2
        assert np.allclose(svd.explained_variance_ratio, s2 / s2.sum(), atol=1e-9)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(6)
        X = rng.random((12, 9))
        svd = reduction.fit_truncated_svd(X, k=7, seed=0)
        curve = reduction.explained_variance_curve(svd)
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] <= 1.0 + 1e-8


class TestTopTerms:
    def _svd_with_components(self, components):
        k, d = components.shape
        return reduction.SvdModel(components, np.ones(k), np.zeros(k))

    def test_single_loading_ranks_first(self):
        comps = np.zeros((1, 3))
        comps[0, 1] = 0.9
        lists = reduction.top_terms_per_component(self._svd_with_components(comps), ["aa", "overflow", "bb"])
        assert lists[0][0][0] == "overflow"

    def test_tie_breaks_to_lower_index(self):
        comps = np.array([[0.5, -0.5, 0.5]])
        lists = reduction.top_terms_per_component(self._svd_with_components(comps), ["t0", "t1", "t2"], terms=2)
        assert [t for t, _ in lists[0]] == ["t0", "t1"]

    def test_component_request_clamped(self):
        comps = np.eye(5)[:5]
        lists = reduction.top_terms_per_component(self._svd_with_components(comps), list("abcde"), components=10)
        assert len(lists) == 5


class TestPca:
    def test_diagonal_cloud_direction(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        pca = reduction.fit_pca(X, k=1)
        assert np.allclose(np.abs(pca.components[0]), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_mean_point_projects_to_zero(self):
        rng = np.random.default_rng(7)
        X = rng.random((10, 4))
        pca = reduction.fit_pca(X, k=3)
        assert np.allclose(reduction.project_pca(pca, X.mean(axis=0, keepdims=True)), 0.0, atol=1e-12)

    def test_total_variance_equals_covariance_trace(self):
        rng = np.random.default_rng(8)
        X = rng.random((15, 6))
        pca = reduction.fit_pca(X, k=6)
        cov = np.cov(X, rowvar=False)  # 1/(n-1) convention
        assert abs(pca.eigenvalues.sum() - np.trace(cov)) < 1e-8

    def test_refit_on_projected_data_recovers_subspace(self):
        rng = np.random.default_rng(9)
        X = rng.random((30, 6)) @ np.diag([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
        pca = reduction.fit_pca(X, k=3)
        Z = reduction.project_pca(pca, X)
        refit = reduction.fit_pca(Z, k=3)
        # principal angles between the two bases of the projected space
        overlap = refit.components @ np.eye(3)
        angles = np.arccos(np.clip(np.linalg.svd(overlap, compute_uv=False), -1, 1))
        assert np.all(angles < 1e-6)

    def test_k_too_large_raises(self):
        with pytest.raises(RankError):
            reduction.fit_pca(np.random.default_rng(0).random((4, 6)), k=4)


class TestLda:
    def _blobs(self, rng, separation=6.0, n=40):
        a = rng.normal(size=(n, 2)) + [0.0, 0.0]
        b = rng.normal(size=(n, 2)) + [separation, separation / 2]
        X = np.vstack([a, b])
        y = np.array([0] * n + [1] * n)
        return X, y

    def test_separated_blobs_project_far_apart(self):
        X, y = self._blobs(np.random.default_rng(10))
        lda = reduction.fit_lda(X, y)
        z = reduction.project_lda(lda, X).ravel()
        gap = abs(z[y == 1].mean() - z[y == 0].mean())
        within = max(z[y == 0].std(), z[y == 1].std())
        assert gap > 5.0 * within

    def test_identical_classes_stay_finite_and_nonzero(self):
        X = np.tile(np.arange(8.0).reshape(4, 2), (2, 1))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        lda = reduction.fit_lda(X, y)
        assert np.all(np.isfinite(lda.projection))
        assert np.linalg.norm(lda.projection) > 0

    def test_scaling_preserves_class_ordering(self):
        X, y = self._blobs(np.random.default_rng(11))
        z1 = reduction.project_lda(reduction.fit_lda(X, y), X).ravel()
        z2 = reduction.project_lda(reduction.fit_lda(X * 10.0, y), X * 10.0).ravel()
        assert z1[y == 1].mean() > z1[y == 0].mean()
        assert z2[y == 1].mean() > z2[y == 0].mean()

    def test_sign_normalized_class_one_higher(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X, y = self._blobs(rng, separation=3.0, n=15)
            lda = reduction.fit_lda(X, y)
            z = reduction.project_lda(lda, X).ravel()
            assert z[y == 1].mean() >= z[y == 0].mean()

    def test_single_class_raises(self):
        with pytest.raises(FitError):
            reduction.fit_lda(np.ones((4, 2)), np.zeros(4, dtype=int))
