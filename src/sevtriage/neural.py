"""Dual-input neural classifiers trained by hand-rolled backpropagation.

Both variants share a tabular branch (one dense+ReLU layer) and a text
branch over learned token embeddings: the feed-forward variant averages
the embeddings of non-padding tokens, the convolutional variant slides
width-w filters over the padded sequence and keeps each filter's global
maximum. Branches are concatenated into a dense stack with dropout and a
single sigmoid output. Training is mini-batch adaptive-moment descent on
mean binary cross-entropy; every random draw (init, shuffling, dropout)
comes from named substreams of one seed, so runs are bit-reproducible.
Backpropagation takes the convolution weights' gradient from each
filter's max-pool winners alone and the embeddings' gradient from one
``bincount``; both add in the order the dense einsum and ``np.add.at``
would, so their bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical import _sigmoid
from .errors import ConfigError, ShapeError, TrainingDivergedError
from .features import tokenize
from .seeds import substream


# ---------------------------------------------------------------------------
# Token sequences


@dataclass(frozen=True)
class PaddedSequences:
    """Right-padded token-id rows (0 = padding) plus the training vocabulary."""

    ids: np.ndarray  # n x max_len, int64
    vocabulary: dict[str, int]  # token -> id, ids start at 1
    max_len: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary) + 1  # id 0 is the padding slot


def build_sequences(texts: Sequence[str], max_len: int = 64, vocab_cap: int = 3000) -> PaddedSequences:
    """Build the vocabulary from training texts and encode them.

    Tokens are ranked by training frequency (most frequent gets id 1,
    ties alphabetical) and capped at ``vocab_cap``. Out-of-vocabulary
    tokens are dropped; rows are truncated or right-padded to max_len.
    """
    tokens = [tokenize(text) for text in texts]
    freq: dict[str, int] = {}
    for toks in tokens:
        for tok in toks:
            freq[tok] = freq.get(tok, 0) + 1
    ranked = sorted(freq, key=lambda t: (-freq[t], t))[:vocab_cap]
    vocabulary = {tok: i + 1 for i, tok in enumerate(ranked)}
    return PaddedSequences(_encode(tokens, vocabulary, max_len), vocabulary, max_len)


def apply_sequences(model: PaddedSequences, texts: Sequence[str]) -> PaddedSequences:
    """Encode new texts with an existing vocabulary (no refit)."""
    ids = _encode([tokenize(t) for t in texts], model.vocabulary, model.max_len)
    return PaddedSequences(ids, model.vocabulary, model.max_len)


def _encode(tokens: Sequence[list[str]], vocabulary: dict[str, int], max_len: int) -> np.ndarray:
    rows = np.zeros((len(tokens), max_len), dtype=np.int64)
    for i, toks in enumerate(tokens):
        ids = [vocabulary[t] for t in toks if t in vocabulary][:max_len]
        rows[i, : len(ids)] = ids
    return rows


# ---------------------------------------------------------------------------
# Architecture spec and parameters


@dataclass(frozen=True)
class NetSpec:
    variant: str = "ffnn"  # "ffnn" | "cnn"
    embedding_dim: int = 64
    conv_filters: int = 32
    kernel_width: int = 3
    tabular_hidden: int = 32
    merge: tuple[int, ...] = (64, 32)
    dropout: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("ffnn", "cnn"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        for w in (self.embedding_dim, self.conv_filters, self.kernel_width, self.tabular_hidden, *self.merge):
            if w < 1:
                raise ConfigError("all layer widths must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def text_out(self) -> int:
        return self.embedding_dim if self.variant == "ffnn" else self.conv_filters


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(spec: NetSpec, vocab_size: int, tab_dim: int) -> dict[str, np.ndarray]:
    """Parameters drawn from ``spec.seed``; key order is fixed so updates are reproducible."""
    rng = np.random.default_rng(substream(spec.seed, "net-init"))
    params: dict[str, np.ndarray] = {}
    params["embed"] = rng.uniform(-0.05, 0.05, size=(vocab_size, spec.embedding_dim))
    if spec.variant == "cnn":
        k = spec.kernel_width * spec.embedding_dim
        params["conv_w"] = _glorot(rng, k, spec.conv_filters, (spec.conv_filters, k))
        params["conv_b"] = np.zeros(spec.conv_filters)
    params["tab_w"] = _glorot(rng, tab_dim, spec.tabular_hidden, (tab_dim, spec.tabular_hidden))
    params["tab_b"] = np.zeros(spec.tabular_hidden)
    in_dim = spec.text_out + spec.tabular_hidden
    for li, width in enumerate(spec.merge):
        params[f"merge{li}_w"] = _glorot(rng, in_dim, width, (in_dim, width))
        params[f"merge{li}_b"] = np.zeros(width)
        in_dim = width
    params["out_w"] = _glorot(rng, in_dim, 1, (in_dim, 1))
    params["out_b"] = np.zeros(1)
    return params


def _text_windows(emb: np.ndarray, width: int) -> np.ndarray:
    """(B, L, e) -> (B, P, width*e) sliding windows, P = L - width + 1."""
    p = emb.shape[1] - width + 1
    return np.concatenate([emb[:, i : i + p, :] for i in range(width)], axis=2)


def _forward(params, spec: NetSpec, ids: np.ndarray, tab: np.ndarray, train: bool = False, drop_rng=None):
    """Forward pass; returns (probs, cache) with everything backprop needs."""
    cache: dict = {"ids": ids, "tab": tab}
    emb = params["embed"][ids]  # (B, L, e)
    cache["emb"] = emb
    if spec.variant == "ffnn":
        mask = (ids > 0).astype(np.float64)  # padding excluded from the mean
        counts = mask.sum(axis=1)
        safe = np.maximum(counts, 1.0)
        text = (emb * mask[:, :, None]).sum(axis=1) / safe[:, None]
        cache.update(mask=mask, counts=counts, safe=safe)
    else:
        windows = _text_windows(emb, spec.kernel_width)  # (B, P, w*e)
        conv_z = windows @ params["conv_w"].T + params["conv_b"]  # (B, P, F)
        conv_a = np.maximum(conv_z, 0.0)
        argmax = conv_a.argmax(axis=1)  # (B, F), first max wins
        text = np.take_along_axis(conv_a, argmax[:, None, :], axis=1)[:, 0, :]
        cache.update(windows=windows, conv_z=conv_z, conv_a=conv_a, argmax=argmax)

    tab_z = tab @ params["tab_w"] + params["tab_b"]
    tab_a = np.maximum(tab_z, 0.0)
    cache["tab_z"] = tab_z

    x = np.concatenate([text, tab_a], axis=1)
    for li in range(len(spec.merge)):
        z = x @ params[f"merge{li}_w"] + params[f"merge{li}_b"]
        a = np.maximum(z, 0.0)
        if train and spec.dropout > 0.0:
            keep = (drop_rng.random(a.shape) >= spec.dropout) / (1.0 - spec.dropout)
            a = a * keep
            cache[f"merge{li}_keep"] = keep
        cache[f"merge{li}_x"] = x
        cache[f"merge{li}_z"] = z
        cache[f"merge{li}_a"] = a
        x = a
    logit = (x @ params["out_w"] + params["out_b"]).ravel()
    cache["out_x"] = x
    cache["logit"] = logit
    return _sigmoid(logit), cache


def bce_loss(probs_logits: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy from logits (numerically stable)."""
    z = probs_logits
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def loss_and_grads(params, spec: NetSpec, ids, tab, y, train: bool = False, drop_rng=None):
    """Loss plus analytic gradients for every parameter (backpropagation)."""
    y = np.asarray(y, dtype=np.float64).ravel()
    probs, cache = _forward(params, spec, ids, tab, train=train, drop_rng=drop_rng)
    n = len(y)
    loss = bce_loss(cache["logit"], y)
    grads = dict.fromkeys(params)  # every entry is assigned below, in this key order

    dlogit = (probs - y)[:, None] / n  # (B, 1)
    grads["out_w"] = cache["out_x"].T @ dlogit
    grads["out_b"] = dlogit.sum(axis=0)
    dx = dlogit @ params["out_w"].T

    for li in reversed(range(len(spec.merge))):
        if f"merge{li}_keep" in cache:
            dx = dx * cache[f"merge{li}_keep"]
        dz = dx * (cache[f"merge{li}_z"] > 0.0)
        grads[f"merge{li}_w"] = cache[f"merge{li}_x"].T @ dz
        grads[f"merge{li}_b"] = dz.sum(axis=0)
        dx = dz @ params[f"merge{li}_w"].T

    dtext = dx[:, : spec.text_out]
    dtab_a = dx[:, spec.text_out :]

    dtab_z = dtab_a * (cache["tab_z"] > 0.0)
    grads["tab_w"] = cache["tab"].T @ dtab_z
    grads["tab_b"] = dtab_z.sum(axis=0)

    if spec.variant == "ffnn":
        scale = (cache["mask"] / cache["safe"][:, None])[:, :, None]
        demb = dtext[:, None, :] * scale
    else:
        dconv_a = np.zeros_like(cache["conv_a"])
        np.put_along_axis(dconv_a, cache["argmax"][:, None, :], dtext[:, None, :], axis=1)
        dconv_z = dconv_a * (cache["conv_z"] > 0.0)
        grads["conv_w"] = _conv_weight_grad(dconv_z, cache["argmax"], cache["windows"])
        grads["conv_b"] = dconv_z.sum(axis=(0, 1))
        dwindows = dconv_z @ params["conv_w"]  # (B, P, w*e)
        demb = np.zeros_like(cache["emb"])
        p = dwindows.shape[1]
        e = spec.embedding_dim
        for i in range(spec.kernel_width):
            demb[:, i : i + p, :] += dwindows[:, :, i * e : (i + 1) * e]
    grads["embed"] = _embedding_grad(cache["ids"], demb, len(params["embed"]))
    return loss, grads


def _conv_weight_grad(dconv_z: np.ndarray, argmax: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """``einsum("bpf,bpk->fk", dconv_z, windows)`` from the max-pool winners alone.

    ``dconv_z`` (B, P, F) is zero except at each (row, filter)'s winning
    position ``argmax`` (B, F), so only the winning windows contribute.
    Summing their products over axis 0 adds row after row from 0.0, the
    order the einsum adds them in, so the bits are the einsum's.
    """
    rows, filters = np.arange(len(argmax))[:, None], np.arange(argmax.shape[1])
    g = dconv_z[rows, argmax, filters]  # (B, F)
    return (g[:, :, None] * windows[rows, argmax]).sum(axis=0)


def _embedding_grad(ids: np.ndarray, demb: np.ndarray, vocab_size: int) -> np.ndarray:
    """Sum each token position's gradient ``demb`` (..., e) into the row of its id.

    One ``bincount`` over the flat index ``id * e + column`` adds the
    weights in input order from 0.0, as ``np.add.at`` into zeros does,
    so the bits are the same.
    """
    e = demb.shape[-1]
    flat = (ids[..., None] * e + np.arange(e)).ravel()
    return np.bincount(flat, weights=demb.ravel(), minlength=vocab_size * e).reshape(vocab_size, e)


# ---------------------------------------------------------------------------
# Training


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch: int = 32
    lr: float = 1e-3


@dataclass(frozen=True)
class TrainedNet:
    spec: NetSpec
    params: dict[str, np.ndarray]
    loss_history: tuple[float, ...]
    tab_dim: int
    max_len: int

    def predict_proba(self, ids: np.ndarray, tab: np.ndarray) -> np.ndarray:
        """Inference forward pass: deterministic, dropout-free."""
        ids = np.asarray(ids, dtype=np.int64)
        tab = np.asarray(tab, dtype=np.float64)
        if ids.shape[1] != self.max_len or tab.shape[1] != self.tab_dim:
            raise ShapeError(
                f"expected shapes (*, {self.max_len}) and (*, {self.tab_dim}), "
                f"got {ids.shape} and {tab.shape}"
            )
        probs, _ = _forward(self.params, self.spec, ids, tab, train=False)
        return probs


def train(spec: NetSpec, sequences: PaddedSequences, tabular: np.ndarray, y, config: TrainConfig) -> TrainedNet:
    """Mini-batch adaptive-moment training on mean binary cross-entropy.

    Shuffling, dropout, and initialization each draw from a named
    substream of ``spec.seed``; two runs with the same seed produce
    bitwise-identical loss histories.
    """
    ids = np.asarray(sequences.ids, dtype=np.int64)
    tab = np.asarray(tabular, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if not (ids.shape[0] == tab.shape[0] == len(y)):
        raise ShapeError(f"row counts differ: {ids.shape[0]}, {tab.shape[0]}, {len(y)}")

    params = init_params(spec, sequences.vocab_size, tab.shape[1])
    shuffle_rng = np.random.default_rng(substream(spec.seed, "shuffle"))
    drop_rng = np.random.default_rng(substream(spec.seed, "dropout"))
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(vv) for k, vv in params.items()}
    keys = sorted(params)

    n = len(y)
    step = 0
    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch):
            batch = order[start : start + config.batch]
            loss, grads = loss_and_grads(
                params, spec, ids[batch], tab[batch], y[batch], train=True, drop_rng=drop_rng
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at step {step}")
            epoch_losses.append(loss)
            step += 1
            for k in keys:
                g = grads[k]
                m[k] = BETA1 * m[k] + (1 - BETA1) * g
                v[k] = BETA2 * v[k] + (1 - BETA2) * g * g
                m_hat = m[k] / (1 - BETA1**step)
                v_hat = v[k] / (1 - BETA2**step)
                params[k] = params[k] - config.lr * m_hat / (np.sqrt(v_hat) + EPS)
        history.append(float(np.mean(epoch_losses)))
    return TrainedNet(spec, params, tuple(history), tab.shape[1], sequences.max_len)


# ---------------------------------------------------------------------------
# Introspection


def activations(net: TrainedNet, layer_id: str, sample: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Activations captured at a named layer for one sample (inference mode).

    ``sample`` is an (ids_row, tabular_row) pair. ``merge_<i>`` returns
    the i-th merge layer's activation vector; ``conv_maps`` returns the
    per-filter ReLU feature maps (filters x positions, cnn only).
    """
    ids_row, tab_row = sample
    ids = np.asarray(ids_row, dtype=np.int64).reshape(1, -1)
    tab = np.asarray(tab_row, dtype=np.float64).reshape(1, -1)
    _, cache = _forward(net.params, net.spec, ids, tab, train=False)
    if layer_id.startswith("merge_"):
        li = int(layer_id.split("_")[1])
        key = f"merge{li}_a"
        if key not in cache:
            raise KeyError(f"no merge layer {li}")
        return cache[key][0]
    if layer_id == "conv_maps":
        if net.spec.variant != "cnn":
            raise KeyError("conv_maps is only defined for the cnn variant")
        return cache["conv_a"][0].T  # filters x positions
    raise KeyError(f"unknown layer id {layer_id!r}")
