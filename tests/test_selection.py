"""Chi-square and mutual information against brute-force contingency oracles."""

import itertools
import math

import numpy as np
import pytest

from sevtriage import selection
from sevtriage.errors import ConfigError, DomainError
from tests.conftest import grouped_matrix


def oracle_chi2_binary(col, y):
    """Contingency-table chi-square for a 0/1 column via direct counting."""
    n = len(y)
    total_mass = sum(col)
    if total_mass == 0:
        return 0.0
    score = 0.0
    for c in (0, 1):
        members = [i for i in range(n) if y[i] == c]
        observed = sum(col[i] for i in members)
        expected = (len(members) / n) * total_mass
        if expected > 0:
            score += (observed - expected) ** 2 / expected
    return score


def oracle_mi_binary(col, y):
    """I(presence; y) by direct entropy arithmetic over the 2x2 joint."""
    n = len(y)
    mi = 0.0
    for a in (0, 1):
        for b in (0, 1):
            joint = sum(1 for i in range(n) if (col[i] != 0) == bool(a) and y[i] == b) / n
            pa = sum(1 for i in range(n) if (col[i] != 0) == bool(a)) / n
            pb = sum(1 for i in range(n) if y[i] == b) / n
            if joint > 0 and pa > 0 and pb > 0:
                mi += joint * math.log(joint / (pa * pb))
    return mi


class TestChi2:
    def test_perfectly_aligned_feature_scores_five(self):
        X = np.array([[1.0]] * 5 + [[0.0]] * 5)
        y = np.array([1] * 5 + [0] * 5)
        scores = selection.chi2_scores(X, y)
        assert scores.scores[0] == pytest.approx(5.0, abs=1e-12)

    def test_identical_class_mass_scores_zero(self):
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([1, 1, 0, 0])
        assert selection.chi2_scores(X, y).scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_column_scores_zero(self):
        X = np.zeros((6, 2))
        X[:, 1] = [1, 0, 1, 0, 1, 0]
        y = np.array([1, 1, 1, 0, 0, 0])
        assert selection.chi2_scores(X, y).scores[0] == 0.0

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            selection.chi2_scores(np.array([[-1.0], [1.0]]), np.array([0, 1]))

    def test_brute_force_oracle_on_binary_designs(self):
        # all 2-column binary designs over every label pattern, n <= 12 via 6-row base
        for n in (4, 6):
            for y_bits in itertools.product((0, 1), repeat=n):
                if sum(y_bits) in (0, n):
                    continue
                rng = np.random.default_rng(n)
                for _ in range(6):
                    cols = rng.integers(0, 2, size=(n, 2)).astype(float)
                    scores = selection.chi2_scores(cols, np.array(y_bits)).scores
                    for j in range(2):
                        want = oracle_chi2_binary(cols[:, j].tolist(), list(y_bits))
                        assert abs(scores[j] - want) < 1e-10

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.random((10, 4))
        y = rng.integers(0, 2, 10)
        perm = rng.permutation(10)
        a = selection.chi2_scores(X, y).scores
        b = selection.chi2_scores(X[perm], y[perm]).scores
        assert np.allclose(a, b, atol=1e-12)

    def test_duplicated_column_scores_identically(self):
        rng = np.random.default_rng(5)
        col = rng.random(8)
        X = np.stack([col, col], axis=1)
        y = rng.integers(0, 2, 8)
        s = selection.chi2_scores(X, y).scores
        assert s[0] == s[1]


class TestMutualInfo:
    def test_feature_identical_to_label(self):
        X = np.array([[1.0]] * 5 + [[0.0]] * 5)
        y = np.array([1] * 5 + [0] * 5)
        assert selection.mutual_info_scores(X, y).scores[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_independent_feature_scores_zero(self):
        X = np.array([[1.0], [0.0], [1.0], [0.0]])
        y = np.array([1, 1, 0, 0])
        assert selection.mutual_info_scores(X, y).scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_feature_scores_zero(self):
        X = np.ones((6, 1))
        y = np.array([1, 0, 1, 0, 1, 0])
        assert selection.mutual_info_scores(X, y).scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_oracle_on_binary_designs(self):
        for n in (4, 6):
            for y_bits in itertools.product((0, 1), repeat=n):
                if sum(y_bits) in (0, n):
                    continue
                rng = np.random.default_rng(n + 100)
                for _ in range(4):
                    cols = rng.integers(0, 2, size=(n, 2)).astype(float)
                    scores = selection.mutual_info_scores(cols, np.array(y_bits)).scores
                    for j in range(2):
                        want = oracle_mi_binary(cols[:, j].tolist(), list(y_bits))
                        assert abs(scores[j] - want) < 1e-10

    def test_presence_binarization_ignores_magnitude(self):
        y = np.array([1, 1, 0, 0])
        a = selection.mutual_info_scores(np.array([[0.9], [0.1], [0.0], [0.0]]), y).scores
        b = selection.mutual_info_scores(np.array([[5.0], [7.0], [0.0], [0.0]]), y).scores
        assert a[0] == b[0]


class TestSelectTopK:
    def _scores(self, values):
        return selection.FeatureScores(np.asarray(values, dtype=float), tuple(f"f{i}" for i in range(len(values))))

    def test_basic(self):
        assert selection.select_top_k(self._scores([3, 1, 2]), k=2) == [0, 2]

    def test_k_clamped_to_width(self):
        assert selection.select_top_k(self._scores([1.0, 2.0]), k=300) == [0, 1]

    def test_all_equal_tie_break_lowest_index(self):
        assert selection.select_top_k(self._scores([1.0, 1.0, 1.0]), k=1) == [0]

    def test_size_always_min_k_d(self):
        for k in (1, 2, 5, 50):
            got = selection.select_top_k(self._scores([5, 4, 3, 2, 1]), k=k)
            assert len(got) == min(k, 5)

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError, match="k must be a positive integer, got 0"):
            selection.select_top_k(self._scores([1.0]), k=0)


class TestTopScoredTerms:
    def test_single_nonzero_first(self):
        scores = selection.FeatureScores(np.array([0.0, 4.2, 0.0]), ("aa", "code execution", "bb"))
        ranked = selection.top_scored_terms(scores, n=2)
        assert ranked[0] == ("code execution", 4.2)

    def test_n_clamped_to_vocab(self):
        scores = selection.FeatureScores(np.array([1.0, 2.0]), ("x", "y"))
        assert len(selection.top_scored_terms(scores, n=20)) == 2

    def test_with_feature_matrix_input(self):
        fm = grouped_matrix((np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), ["hot", "cold"], "indicator"))
        y = np.array([1, 0, 1, 0])
        scores = selection.chi2_scores(fm, y)
        assert selection.top_scored_terms(scores, n=1)[0][0] == "indicator__hot"
