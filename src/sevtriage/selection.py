"""Per-feature relevance scoring against the binary label.

Chi-square compares per-class feature mass against class-prior
expectations; mutual information binarizes each feature by nonzero
presence and measures the information its presence carries about the
label. Both are deterministic and trivially parallel per feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, ShapeError
from .features import FeatureMatrix, as_matrix


@dataclass(frozen=True)
class FeatureScores:
    scores: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.scores) != len(self.names):
            raise ShapeError(f"{len(self.scores)} scores for {len(self.names)} names")


def _csr_and_names(X) -> tuple[sp.csr_matrix, tuple[str, ...]]:
    mat = sp.csr_matrix(as_matrix(X))
    names = X.names if isinstance(X, FeatureMatrix) else tuple(f"f{j}" for j in range(mat.shape[1]))
    return mat, names


def chi2_scores(X, y) -> FeatureScores:
    """Chi-square statistic of observed vs class-prior-expected feature mass.

    For feature j with per-class observed mass obs_c = sum of X[i, j] over
    rows of class c and expected mass exp_c = prior_c * total mass, score
    is sum_c (obs_c - exp_c)^2 / exp_c. An all-zero column scores 0.
    """
    mat, names = _csr_and_names(X)
    if mat.nnz and mat.data.min() < 0:
        raise DomainError("chi-square requires non-negative features")
    y = np.asarray(y, dtype=np.int64)
    if len(y) != mat.shape[0]:
        raise ShapeError(f"{mat.shape[0]} rows but {len(y)} labels")
    n = len(y)
    scores = np.zeros(mat.shape[1], dtype=np.float64)
    total = np.asarray(mat.sum(axis=0)).ravel()
    for c in (0, 1):
        members = np.flatnonzero(y == c)
        prior = len(members) / n
        observed = np.asarray(mat[members].sum(axis=0)).ravel()
        expected = prior * total
        nz = expected > 0
        scores[nz] += (observed[nz] - expected[nz]) ** 2 / expected[nz]
    return FeatureScores(scores, names)


def mutual_info_scores(X, y) -> FeatureScores:
    """Mutual information (nats) between nonzero presence and the label.

    Each feature is binarized by presence; the score is I(presence; y)
    from the empirical 2x2 joint, with 0*ln(0) taken as 0.
    """
    mat, names = _csr_and_names(X)
    y = np.asarray(y, dtype=np.int64)
    if len(y) != mat.shape[0]:
        raise ShapeError(f"{mat.shape[0]} rows but {len(y)} labels")
    n = len(y)
    present = mat.copy()
    present.eliminate_zeros()
    present.data = np.ones_like(present.data)
    pos = np.flatnonzero(y == 1)
    n_present_pos = np.asarray(present[pos].sum(axis=0)).ravel()
    n_present = np.asarray(present.sum(axis=0)).ravel()
    n_pos = len(pos)

    scores = np.zeros(mat.shape[1], dtype=np.float64)
    for j in range(mat.shape[1]):
        joint = {
            (1, 1): n_present_pos[j],
            (1, 0): n_present[j] - n_present_pos[j],
            (0, 1): n_pos - n_present_pos[j],
            (0, 0): n - n_pos - (n_present[j] - n_present_pos[j]),
        }
        p_present = n_present[j] / n
        p_pos = n_pos / n
        marg = {(1, 1): p_present * p_pos, (1, 0): p_present * (1 - p_pos),
                (0, 1): (1 - p_present) * p_pos, (0, 0): (1 - p_present) * (1 - p_pos)}
        mi = 0.0
        for cell, count in joint.items():
            p = count / n
            if p > 0 and marg[cell] > 0:
                mi += p * math.log(p / marg[cell])
        scores[j] = max(mi, 0.0)
    return FeatureScores(scores, names)


def select_top_k(scores: FeatureScores, k: int = 300) -> list[int]:
    """Indices of the k largest scores (ties to the lower index), sorted.

    k is clamped to the number of features.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    d = len(scores.scores)
    k = min(k, d)
    order = np.lexsort((np.arange(d), -scores.scores))
    return sorted(int(j) for j in order[:k])


def top_scored_terms(scores: FeatureScores, n: int = 20) -> list[tuple[str, float]]:
    """The n highest-scoring terms with their scores, descending."""
    d = len(scores.names)
    order = np.lexsort((np.arange(d), -scores.scores))
    return [(scores.names[j], float(scores.scores[j])) for j in order[: min(n, d)]]
