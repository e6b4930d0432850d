"""From-scratch classical classifiers with probability outputs.

All four models share the same surface: a train_* function returning an
immutable model whose ``predict_proba`` gives P(class 1) per row. The
logistic regression trains by full-batch gradient descent with a
backtracking line search, so its loss never increases; each accepted
point's logits are reused by the next gradient. Trees search midpoint
splits exactly; the forest averages bootstrap trees; KNN memorizes and
votes. Models carry no serializers: the one model a command saves, the
logistic regression, is written and read by ``pipelines.ScoringArtifact``.

A tree grows depth-first on arrays of row indices into one dense
(features x rows) matrix, never copying a node's rows. The forest
densifies its input once in column-major order, so every tree's
(features x rows) matrix is a view of it, not a copy. At each node one
pass scores every candidate feature: the node's (features x rows) block
is stably sorted along each contiguous row, and label prefix sums give
the class counts of every cut. The lower feature index, then the lower
threshold, wins a tie. Prediction routes all rows through a tree
together, one level per step.

The forest grows its trees on the CPUs in the process's affinity mask,
the parent and forked children each growing a contiguous range of
them. Every tree depends only on the data and its own seed, so the
forest is the same bit for bit on any number of CPUs; restricting the
process (for example ``taskset -c 0``) only makes it slower.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, FitError, ShapeError
from .features import as_matrix
from .seeds import substream


def _as_dense(X, order: str | None = None) -> np.ndarray:
    """``X`` as a dense array, copied only to densify it or to give it ``order``."""
    mat = as_matrix(X)
    return mat.toarray(order=order) if sp.issparse(mat) else np.asarray(mat, order=order)


def _check_width(X, expected: int):
    if X.shape[1] != expected:
        raise ShapeError(f"matrix width {X.shape[1]} != training width {expected}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Logistic regression


@dataclass(frozen=True)
class LogRegModel:
    weights: np.ndarray
    bias: float
    C: float
    n_iter: int = 0

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def predict_proba(self, X) -> np.ndarray:
        mat = as_matrix(X)
        _check_width(mat, self.n_features)
        return _sigmoid(np.asarray(mat @ self.weights).ravel() + self.bias)


def _logits(weights: np.ndarray, bias: float, X) -> np.ndarray:
    return np.asarray(X @ weights).ravel() + bias


def _loss(z: np.ndarray, weights: np.ndarray, y: np.ndarray, C: float) -> float:
    """``logreg_loss`` from the logits ``z = X @ weights + bias``."""
    n = len(z)
    # log(1 + exp(-|z|)) form is stable for both signs; sum / n is np.mean's
    # arithmetic without its per-call overhead
    bce = (np.logaddexp(0.0, z) - y * z).sum() / n
    return float(bce + weights @ weights / (2.0 * C * n))


def _gradient(z: np.ndarray, weights: np.ndarray, XT, y: np.ndarray, C: float) -> tuple[np.ndarray, float]:
    """``logreg_gradient`` from the logits ``z = X @ weights + bias`` and ``XT = X.T``."""
    n = len(z)
    residual = _sigmoid(z) - y
    grad_w = np.asarray(XT @ residual).ravel() / n + weights / (C * n)
    return grad_w, float(residual.sum() / n)


def logreg_loss(weights: np.ndarray, bias: float, X, y: np.ndarray, C: float) -> float:
    """Mean binary cross-entropy plus ||w||^2 / (2 C n); bias unpenalized."""
    return _loss(_logits(weights, bias, X), weights, y, C)


def logreg_gradient(weights: np.ndarray, bias: float, X, y: np.ndarray, C: float) -> tuple[np.ndarray, float]:
    return _gradient(_logits(weights, bias, X), weights, X.T, y, C)


def train_logreg(X, y, C: float = 1.0, max_iter: int = 1000, tol: float = 1e-6) -> LogRegModel:
    """Deterministic full-batch gradient descent from zero initialization.

    Each step backtracks (halving) until the Armijo condition holds, so
    the regularized loss is non-increasing. Stops when the gradient
    infinity-norm drops below ``tol`` or after ``max_iter`` steps. The
    transpose is made once, and the logits of each accepted point are
    kept for the next step's gradient.
    """
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")
    mat = as_matrix(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    if mat.shape[0] != len(y):
        raise ShapeError(f"{mat.shape[0]} rows but {len(y)} labels")
    if len(np.unique(y)) < 2:
        raise FitError("logistic regression needs both classes present")

    d = mat.shape[1]
    mat_t = mat.T
    w = np.zeros(d)
    b = 0.0
    z = _logits(w, b, mat)
    loss = _loss(z, w, y, C)
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        gw, gb = _gradient(z, w, mat_t, y, C)
        gnorm_inf = max(float(np.abs(gw).max()) if d else 0.0, abs(gb))
        if gnorm_inf < tol:
            it -= 1
            break
        gsq = float(gw @ gw) + gb * gb
        step = min(step * 2.0, 1e4)
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            z_new = _logits(w_new, b_new, mat)
            loss_new = _loss(z_new, w_new, y, C)
            if loss_new <= loss - 1e-4 * step * gsq or step < 1e-12:
                break
            step *= 0.5
        if loss_new > loss:
            break  # no descent direction progress left at float precision
        w, b, z, loss = w_new, b_new, z_new, loss_new
    return LogRegModel(w, b, C, n_iter=it)


def top_coefficients(
    model: LogRegModel, names: Sequence[str], n: int = 10
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """The n most positive and n most negative weights with their names.

    Positive weights push predictions toward the high-severity class.
    """
    if len(names) != len(model.weights):
        raise ShapeError(f"{len(names)} names for {len(model.weights)} weights")
    order = np.argsort(model.weights, kind="stable")
    n = min(n, len(names))
    top_pos = [(names[j], float(model.weights[j])) for j in order[::-1][:n]]
    top_neg = [(names[j], float(model.weights[j])) for j in order[:n]]
    return top_pos, top_neg


# ---------------------------------------------------------------------------
# Decision tree


@dataclass(frozen=True)
class TreeModel:
    """Flat node array: internal nodes carry a split, leaves carry class counts."""

    nodes: tuple[dict, ...]
    n_features: int
    # per node: split feature, threshold, left, right, leaf flag, leaf probability; built once from ``nodes``
    routing: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feature, threshold, left, right = (
            np.array([node.get(key, 0) for node in self.nodes]) for key in ("feature", "threshold", "left", "right")
        )
        leaf = np.array(["counts" in node for node in self.nodes])
        prob = np.array([node["counts"][1] / sum(node["counts"]) if "counts" in node else np.nan for node in self.nodes])
        object.__setattr__(self, "routing", (feature, threshold, left, right, leaf, prob))

    def predict_proba(self, X) -> np.ndarray:
        """Route all rows together, one tree level per step."""
        mat = _as_dense(X)
        _check_width(mat, self.n_features)
        feature, threshold, left, right, leaf, prob = self.routing
        at = np.zeros(mat.shape[0], dtype=np.intp)
        active = np.flatnonzero(~leaf[at])
        while active.size:
            node = at[active]
            at[active] = np.where(mat[active, feature[node]] <= threshold[node], left[node], right[node])
            active = active[~leaf[at[active]]]
        return prob[at]


def _gini(counts1: np.ndarray, size: np.ndarray) -> np.ndarray:
    p1 = counts1 / size
    p0 = (size - counts1) / size
    return 1.0 - p1 * p1 - p0 * p0


def _best_split(XT: np.ndarray, rows: np.ndarray, y: np.ndarray, positives: int, feature_ids: np.ndarray, min_leaf: int):
    """Best (feature, threshold, weighted impurity) over midpoint candidates.

    ``XT`` is the C-contiguous (features x rows) matrix, ``rows`` index
    the node's rows of it, ``y`` holds their labels and ``positives`` is
    their sum. The node must keep at least ``2 * min_leaf`` rows.
    Candidates are midpoints between consecutive distinct sorted values;
    rows with value <= threshold go left. All candidate features are
    scored in one pass: the node's (features x rows) block is stably
    sorted along each feature's contiguous row, and label prefix sums
    give every cut's class counts. Cuts between equal values, or leaving
    fewer than ``min_leaf`` rows on a side, are dropped. The rest are
    listed in feature-major order (thresholds ascending within a
    feature), so the first minimum of one argmin is the lower feature
    index, then the lower threshold, among tied scores. Counts are
    integers, so every score is the same float however the cuts are
    batched.
    """
    m = len(rows)
    block = XT[feature_ids[:, None], rows]
    order = block.argsort(axis=1, kind="stable")
    sv = block.take(order + np.arange(0, block.size, m)[:, None])  # each row's offset into the flat block
    ok = sv[:, :-1] < sv[:, 1:]  # column i: the cut after sorted position i, i + 1 rows on the left
    ok[:, : max(min_leaf - 1, 0)] = False
    ok[:, m - min_leaf :] = False
    f, cut = ok.nonzero()  # feature-major, thresholds ascending within a feature
    if f.size == 0:
        return None
    left_pos = y.take(order).cumsum(axis=1)[f, cut]
    right_pos = positives - left_pos
    left_size = cut + 1
    right_size = m - left_size
    score = (left_size * _gini(left_pos, left_size) + right_size * _gini(right_pos, right_size)) / m
    at = int(score.argmin())
    threshold = (sv[f[at], cut[at]] + sv[f[at], cut[at] + 1]) / 2.0
    return int(feature_ids[f[at]]), float(threshold), float(score[at])


def _grow(XT, y, rows, depth, nodes, max_depth, min_leaf, rng, mtry):
    m = len(rows)
    node_y = y[rows]
    c1 = int(node_y.sum())
    counts = [m - c1, c1]
    index = len(nodes)
    nodes.append(None)
    depth_ok = max_depth is None or depth < max_depth
    if c1 == 0 or c1 == m or not depth_ok or m < 2 * min_leaf:
        nodes[index] = {"counts": counts}
        return index
    d = XT.shape[0]
    if rng is not None and mtry is not None and mtry < d:
        feature_ids = rng.choice(d, size=mtry, replace=False)
        feature_ids.sort()
    else:
        feature_ids = np.arange(d)
    best = _best_split(XT, rows, node_y, c1, feature_ids, min_leaf)
    if best is None or best[2] >= _gini(c1, m):
        nodes[index] = {"counts": counts}
        return index
    j, threshold, _ = best
    mask = XT[j, rows] <= threshold
    left = _grow(XT, y, rows[mask], depth + 1, nodes, max_depth, min_leaf, rng, mtry)
    right = _grow(XT, y, rows[~mask], depth + 1, nodes, max_depth, min_leaf, rng, mtry)
    nodes[index] = {"feature": j, "threshold": threshold, "left": left, "right": right}
    return index


def train_tree(
    X,
    y,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    _rng: np.random.Generator | None = None,
    _max_features: int | None = None,
    _rows: np.ndarray | None = None,
) -> TreeModel:
    """Greedy gini tree over exact midpoint split candidates.

    Growth stops at purity, the depth limit, or the minimum leaf size.
    The underscored arguments are the forest's hooks: per-split feature
    subsampling, and the root's row indices into ``X`` and ``y`` (its
    bootstrap sample, repeats allowed; all rows in order by default).
    Plain trees ignore them. Growth reads the transposed (features x rows)
    matrix, which is a view without a copy when ``X`` is column-major.
    """
    mat = _as_dense(X)
    y = np.asarray(y, dtype=np.int64).ravel()
    if mat.shape[0] != len(y):
        raise ShapeError(f"{mat.shape[0]} rows but {len(y)} labels")
    rows = np.arange(len(y)) if _rows is None else _rows
    if len(rows) < 1:
        raise FitError("cannot fit a tree on an empty dataset")
    nodes: list[dict | None] = []
    XT = np.ascontiguousarray(mat.T)
    _grow(XT, y, rows, 0, nodes, max_depth, min_samples_leaf, _rng, _max_features)
    return TreeModel(tuple(nodes), mat.shape[1])


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeModel, ...]
    tree_seeds: tuple[int, ...]

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def predict_proba(self, X) -> np.ndarray:
        mat = _as_dense(X)
        per_tree = np.stack([t.predict_proba(mat) for t in self.trees])
        return per_tree.mean(axis=0)


def _mtry(features_per_split, d: int) -> int:
    if features_per_split is None:
        return d
    if features_per_split == "sqrt":
        return max(1, int(math.sqrt(d)))
    frac = float(features_per_split)
    if not 0 < frac <= 1:
        raise ConfigError(f"features_per_split fraction must be in (0, 1], got {frac}")
    return max(1, int(round(frac * d)))


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask.

    1 without ``sched_getaffinity`` or the fork start method, and in a
    daemonic process (a pool worker, say), which may not have children.
    """
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _grow_trees(mat, y, seeds, mtry) -> list[TreeModel]:
    """One tree per seed, each from its own bootstrap sample and feature-subset stream."""
    n, d = mat.shape
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        idx = rng.integers(0, n, size=n)
        trees.append(train_tree(mat, y, _rng=rng, _max_features=mtry if mtry < d else None, _rows=idx))
    return trees


def _grow_and_send(conn, *grow_args):
    """A forked child's work: its trees' node tuples, or the exception that stopped it, sent to the parent."""
    try:
        result = [tree.nodes for tree in _grow_trees(*grow_args)]
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def train_forest(
    X,
    y,
    n_trees: int = 100,
    features_per_split: str | float = "sqrt",
    seed: int = 0,
) -> ForestModel:
    """Bootstrap-aggregated gini trees with per-split feature subsampling.

    Every tree draws its own seeded bootstrap sample (n rows with
    replacement) and its own feature-subset stream, so the whole forest
    is reproducible from one seed. Trees grow to purity, with no depth
    limit and leaves of at least one row. Every tree grows on the
    forest's one dense matrix, made once in column-major order so each
    tree reads its transpose without a copy, with its bootstrap indices
    as the root's rows, so no tree copies its sample.

    Trees are independent, so they grow on every usable CPU: the trees
    are cut into one contiguous range per worker, the parent grows the
    first and forked children the rest. Children inherit the matrix
    through fork and send back only node tuples, which the parent puts
    in tree order, so the forest is the same for any number of workers.
    """
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    mat = _as_dense(X, order="F")
    y = np.asarray(y, dtype=np.int64).ravel()
    n, d = mat.shape
    if n != len(y):
        raise ShapeError(f"{n} rows but {len(y)} labels")
    if n < 1:
        raise FitError("cannot fit a tree on an empty dataset")
    mtry = _mtry(features_per_split, d)
    seeds = tuple(substream(seed, f"forest-tree-{i}") for i in range(n_trees))
    workers = min(_usable_cpus(), n_trees)
    cuts = [n_trees * k // workers for k in range(workers + 1)]
    ctx = multiprocessing.get_context("fork") if workers > 1 else None
    children = []  # (process, receiving end, first tree, last tree)
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_grow_and_send, args=(send, mat, y, seeds[start:stop], mtry))
            proc.start()
            send.close()  # the child holds the only sending end, so its death reads as EOF
            children.append((proc, recv, start, stop - 1))
        trees = _grow_trees(mat, y, seeds[: cuts[1]], mtry)
        for _, recv, first, last in children:
            try:
                result = recv.recv()
            except EOFError:
                raise FitError(f"the process growing trees {first}-{last} exited without sending them") from None
            if isinstance(result, Exception):
                raise result
            trees.extend(TreeModel(nodes, d) for nodes in result)
    except BaseException:
        for proc, *_ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv, *_ in children:
            recv.close()
            proc.join()
    return ForestModel(tuple(trees), seeds)


# ---------------------------------------------------------------------------
# K-nearest neighbors


@dataclass(frozen=True)
class KnnModel:
    X_train: np.ndarray
    y_train: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.X_train.shape[1]

    def predict_proba(self, X) -> np.ndarray:
        mat = _as_dense(X)
        _check_width(mat, self.n_features)
        n = self.X_train.shape[0]
        out = np.empty(mat.shape[0])
        for i, q in enumerate(mat):
            dists = np.sum((self.X_train - q) ** 2, axis=1)
            order = np.lexsort((np.arange(n), dists))  # distance ties: lower index first
            out[i] = float(np.mean(self.y_train[order[: self.k]]))
        return out


def train_knn(X, y, k: int = 5) -> KnnModel:
    """Memorize the training set for majority voting over the k nearest rows."""
    mat = _as_dense(X)
    y = np.asarray(y, dtype=np.int64).ravel()
    if mat.shape[0] != len(y):
        raise ShapeError(f"{mat.shape[0]} rows but {len(y)} labels")
    if not 1 <= k <= mat.shape[0]:
        raise ConfigError(f"k={k} must be in [1, {mat.shape[0]}]")
    return KnnModel(mat, y, k)
