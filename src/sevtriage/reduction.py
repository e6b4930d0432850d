"""Fitted linear projections: truncated SVD, PCA, and Fisher LDA.

The SVD runs on the sparse text block; PCA and LDA expect the densified
assembled matrix. Fitted models are immutable; independent fits may run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import FitError, RankError, ShapeError
from .features import as_matrix

# Exact dense SVD below this size; randomized range finder above it.
_EXACT_SVD_LIMIT = 512
_POWER_ITERATIONS = 7
_OVERSAMPLING = 10


def _sign_normalize(components: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive (ties: lowest index)."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def _variance_ratios(mat, components: np.ndarray) -> np.ndarray:
    """Variance of each projected coordinate over the total column variance."""
    proj = np.asarray(mat @ components.T)
    comp_var = proj.var(axis=0)
    if sp.issparse(mat):
        mean = np.asarray(mat.mean(axis=0)).ravel()
        mean_sq = np.asarray(mat.multiply(mat).mean(axis=0)).ravel()
        total_var = float(np.sum(mean_sq - mean**2))
    else:
        total_var = float(np.asarray(mat).var(axis=0).sum())
    return comp_var / total_var if total_var > 0 else np.zeros(components.shape[0])


# ---------------------------------------------------------------------------
# Truncated SVD


@dataclass(frozen=True)
class SvdModel:
    components: np.ndarray  # k x d, orthonormal rows
    singular_values: np.ndarray  # k, non-increasing
    explained_variance_ratio: np.ndarray  # k

    @property
    def k(self) -> int:
        return self.components.shape[0]


def _dense_top_k(X, k: int) -> tuple[np.ndarray, np.ndarray]:
    dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)
    _, s, vt = np.linalg.svd(dense, full_matrices=False)
    return s[:k], vt[:k]


def _randomized_top_k(X, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n, d = X.shape
    p = min(d, k + _OVERSAMPLING)
    omega = rng.standard_normal((d, p))
    Y = X @ omega
    Q, _ = np.linalg.qr(Y)
    for _ in range(_POWER_ITERATIONS):
        Z, _ = np.linalg.qr(X.T @ Q)
        Q, _ = np.linalg.qr(X @ Z)
    B = np.asarray(Q.T @ X)
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    return s[:k], vt[:k]


def fit_truncated_svd(X, k: int = 100, seed: int = 0) -> SvdModel:
    """Top-k right singular subspace of X (rows of ``components``).

    Uses an exact dense SVD when min(n, d) is small, otherwise a seeded
    randomized range finder with power iterations; either way the result
    is deterministic for a given seed.
    """
    mat = as_matrix(X)
    n, d = mat.shape
    if k > min(n, d):
        raise RankError(f"k={k} exceeds min(n, d)={min(n, d)}")
    if min(n, d) <= _EXACT_SVD_LIMIT:
        s, vt = _dense_top_k(mat, k)
    else:
        s, vt = _randomized_top_k(mat, k, seed)
    vt = _sign_normalize(vt)
    return SvdModel(vt, np.asarray(s, dtype=np.float64), _variance_ratios(mat, vt))


def project_svd(svd: SvdModel, X) -> np.ndarray:
    mat = as_matrix(X)
    if mat.shape[1] != svd.components.shape[1]:
        raise ShapeError(f"matrix width {mat.shape[1]} != fitted width {svd.components.shape[1]}")
    return np.asarray(mat @ svd.components.T)


def explained_variance_curve(svd: SvdModel) -> np.ndarray:
    """Cumulative explained-variance ratios, from those stored at fit time; non-decreasing, capped near 1."""
    return np.cumsum(svd.explained_variance_ratio)


def top_terms_per_component(
    svd: SvdModel, vocabulary: Sequence[str], components: int = 10, terms: int = 10
) -> list[list[tuple[str, float]]]:
    """Per component, the terms with the largest |loading|, descending.

    Ties go to the lower column index; the component count clamps to k.
    """
    if len(vocabulary) != svd.components.shape[1]:
        raise ShapeError(f"{len(vocabulary)} terms for width {svd.components.shape[1]}")
    out = []
    for row in svd.components[: min(components, svd.k)]:
        mag = np.abs(row)
        order = np.lexsort((np.arange(len(row)), -mag))
        out.append([(vocabulary[j], float(row[j])) for j in order[: min(terms, len(row))]])
    return out


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # k x d orthonormal rows
    eigenvalues: np.ndarray  # k, non-increasing, covariance uses 1/(n-1)

    @property
    def k(self) -> int:
        return self.components.shape[0]


def fit_pca(X: np.ndarray, k: int) -> PcaModel:
    """Mean-centered principal directions via SVD of the centered matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("PCA expects a dense 2-D matrix")
    n, d = X.shape
    if k > min(n - 1, d):
        raise RankError(f"k={k} exceeds min(n-1, d)={min(n - 1, d)}")
    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = _sign_normalize(vt[:k])
    eigenvalues = (s[:k] ** 2) / (n - 1)
    return PcaModel(mean, components, eigenvalues)


def project_pca(pca: PcaModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != pca.components.shape[1]:
        raise ShapeError(f"matrix width {X.shape[-1]} != fitted width {pca.components.shape[1]}")
    return (X - pca.mean) @ pca.components.T


# ---------------------------------------------------------------------------
# Fisher LDA (binary)


@dataclass(frozen=True)
class LdaModel:
    projection: np.ndarray  # 1 x d unit vector, class-1 mean projects higher



def fit_lda(X: np.ndarray, y) -> LdaModel:
    """One Fisher discriminant: maximize between- over within-class scatter.

    The within-class scatter gets a small ridge (relative to its trace) so
    the solve stays finite in high dimensions or with degenerate classes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] != len(y):
        raise ShapeError(f"{X.shape[0]} rows but {len(y)} labels")
    if len(np.unique(y)) < 2:
        raise FitError("LDA needs both classes present")
    d = X.shape[1]
    means = np.stack([X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)])
    sw = np.zeros((d, d))
    for c in (0, 1):
        diff = X[y == c] - means[c]
        sw += diff.T @ diff
    ridge = max(1e-6 * np.trace(sw) / d, 1e-12)
    w = np.linalg.solve(sw + ridge * np.eye(d), means[1] - means[0])
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        w = np.zeros(d)
        w[0] = 1.0
    else:
        w = w / norm
    if float(w @ means[1]) < float(w @ means[0]):
        w = -w
    return LdaModel(w.reshape(1, d))


def project_lda(lda: LdaModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != lda.projection.shape[1]:
        raise ShapeError(f"matrix width {X.shape[-1]} != fitted width {lda.projection.shape[1]}")
    return X @ lda.projection.T
