"""The featurizer and the model heads that share its output.

One :class:`FeatureBuilder` is fitted on a split's training records and
transforms the training and test records once each; every pipeline is a
head over those matrices with the two-method surface the benchmark
expects: ``fit(X, records, labels)`` and ``predict_proba(X, records)``.
The feature variants differ in what happens to the text block after
TF-IDF; the model variants take the assembled matrix as it is and differ
in the classifier; the nets also read the records' descriptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import classical, evaluation, features, neural, reduction, selection
from .config import DEFAULTS, INTEGER, NUMBER, NUMBERS, _is_int, read_object
from .corpus import DisclosureRecord
from .errors import ConfigError, ShapeError, TriageError
from .features import (
    GROUPS,
    FeatureMatrix,
    KeywordLexicon,
    TfidfModel,
    VendorEncoder,
    assemble,
    fit_tfidf,
    fit_vendor,
    indicator_block,
    indicator_names,
    text_block,
    vendor_block,
)
from .seeds import substream


class FeatureBuilder:
    """Vendor one-hot + indicator + TF-IDF blocks, fit on training records.

    ``tfidf`` is the config tree's ``tfidf`` section. ``names`` (the
    assembled column names, each prefixed ``group__``) and ``terms``, the
    :class:`features.TermTable` of the TF-IDF terms and the lexicon's
    phrases, are fixed when the builder is fitted or loaded. ``transform``
    walks ``terms`` once over the batch's descriptions, splitting each into
    its runs once, for both the indicator and the text block.
    """

    def __init__(self, lexicon: KeywordLexicon | None = None, tfidf: Mapping = DEFAULTS["tfidf"]):
        self.lexicon = lexicon or KeywordLexicon.default()
        self.tfidf = tfidf
        self.tfidf_model: TfidfModel | None = None
        self.vendor_encoder: VendorEncoder | None = None
        self.names: tuple[str, ...] | None = None
        self.terms: features.TermTable | None = None

    def fit(self, records: Sequence[DisclosureRecord]) -> "FeatureBuilder":
        tfidf_model = fit_tfidf(
            [r.description for r in records],
            ngram_range=(self.tfidf["ngram_lo"], self.tfidf["ngram_hi"]),
            max_features=self.tfidf["max_features"],
        )
        return self.set_fitted(tfidf_model, fit_vendor(records))

    def set_fitted(self, tfidf_model: TfidfModel, vendor_encoder: VendorEncoder) -> "FeatureBuilder":
        """Take the fitted TF-IDF model and vendor encoder, and fix the column names and term table they make; returns self."""
        self.tfidf_model, self.vendor_encoder = tfidf_model, vendor_encoder
        parts = (vendor_encoder.categories, indicator_names(self.lexicon), tfidf_model.names)
        self.names = tuple(f"{group}__{name}" for group, names in zip(GROUPS, parts) for name in names)
        self.terms = features.term_table(tfidf_model, self.lexicon)
        return self

    def transform(self, records: Sequence[DisclosureRecord]) -> FeatureMatrix:
        if self.names is None:
            raise ConfigError("FeatureBuilder.transform called before fit")
        found = self.terms.walk([r.description for r in records])
        return assemble(
            [
                vendor_block(self.vendor_encoder, records),
                indicator_block(records, self.lexicon, found),
                text_block(self.tfidf_model, found),
            ],
            self.names,
        )


class LrFeaturePipeline:
    """Logistic regression over one of six feature-engineering variants.

    mode: "baseline" keeps the assembled matrix as is; "svd" replaces the
    text block with its rank-k projection; "chi2"/"mi" keep only the top-k
    scored text columns; "pca"/"lda" run on the densified svd-reduced
    assembly and classify in the projected space. ``config`` is the run's
    config tree; the head reads its ``svd``, ``select``, ``pca``,
    ``logreg`` and ``seed`` sections.
    """

    def __init__(self, mode: str, config: Mapping = DEFAULTS):
        if mode not in ("baseline", "svd", "chi2", "mi", "pca", "lda"):
            raise ConfigError(f"unknown feature pipeline mode {mode!r}")
        self.mode = mode
        self.svd_k, self.select_k, self.pca_k = config["svd"]["k"], config["select"]["k"], config["pca"]["k"]
        self.logreg = config["logreg"]
        self.seed = int(config["seed"])
        self.svd = None
        self.selected: list[int] | None = None
        self.scores = None
        self.projector = None
        self.model = None

    # -- feature-space plumbing ---------------------------------------------

    def _reduced_assembly(self, X: FeatureMatrix, fit: bool, labels=None):
        if self.mode == "baseline":
            return X
        text = X.select_groups(["text"])
        structured = X.select_groups(["vendor", "indicator"]).data
        if self.mode in ("svd", "pca", "lda"):
            if fit:
                self.svd = reduction.fit_truncated_svd(text, k=self.svd_k, seed=substream(self.seed, "svd"))
            return sp.hstack([structured, sp.csr_matrix(reduction.project_svd(self.svd, text))], format="csr")
        # chi2 / mi keep a subset of text columns
        if fit:
            score_fn = selection.chi2_scores if self.mode == "chi2" else selection.mutual_info_scores
            self.scores = score_fn(text, labels)
            self.selected = selection.select_top_k(self.scores, k=self.select_k)
        return sp.hstack([structured, text.data[:, self.selected]], format="csr")

    def _project(self, X, fit: bool, labels=None):
        if self.mode not in ("pca", "lda"):
            return X
        dense = features.as_dense(X)
        if fit and self.mode == "pca":
            self.projector = reduction.fit_pca(dense, k=self.pca_k)
        elif fit:
            self.projector = reduction.fit_lda(dense, labels)
        project = reduction.project_pca if self.mode == "pca" else reduction.project_lda
        return sp.csr_matrix(project(self.projector, dense))

    # -- pipeline surface ----------------------------------------------------

    def fit(self, X: FeatureMatrix, records, labels):
        X = self._reduced_assembly(X, fit=True, labels=labels)
        X = self._project(X, fit=True, labels=labels)
        self.model = classical.train_logreg(X, labels, **self.logreg)
        return self

    def transform(self, X: FeatureMatrix):
        """The fitted head's view of ``X``: the matrix its model scores.

        That is ``X`` itself for the baseline and a CSR matrix for the
        other modes: the vendor and indicator columns, then the kept text
        columns or the SVD projection, or the PCA or LDA projection alone.
        """
        return self._project(self._reduced_assembly(X, fit=False), fit=False)

    def predict_proba(self, X: FeatureMatrix, records):
        return self.model.predict_proba(self.transform(X))

    def describe(self) -> str:
        if self.mode == "svd":
            return f"tfidf_svd(k={self.svd.k if self.svd is not None else self.svd_k})"
        if self.mode in ("chi2", "mi"):
            return f"tfidf_{self.mode}(k={len(self.selected) if self.selected is not None else self.select_k})"
        if self.mode == "pca":
            k = self.projector.k if self.projector is not None else self.pca_k
            return f"pca(k={k})"
        if self.mode == "lda":
            return "lda"
        return "tfidf_baseline"


class ClassicalModelPipeline:
    """One classical learner over the plain assembled feature matrix, set by the config tree's ``kind`` section."""

    def __init__(self, kind: str, config: Mapping = DEFAULTS):
        if kind not in ("logreg", "tree", "forest", "knn"):
            raise ConfigError(f"unknown classical model kind {kind!r}")
        self.kind = kind
        self.params = dict(config[kind])
        if kind == "forest":
            self.params["seed"] = substream(int(config["seed"]), "forest")
        self.model = None

    def fit(self, X: FeatureMatrix, records, labels):
        train = getattr(classical, f"train_{self.kind}")  # looked up per call, so a wrapped trainer sees it
        self.model = train(X, labels, **self.params)
        return self

    def predict_proba(self, X: FeatureMatrix, records):
        return self.model.predict_proba(X)


def net_tabular(X: FeatureMatrix) -> np.ndarray:
    """The nets' tabular input: the vendor and indicator columns of ``X``, densified."""
    return features.as_dense(X.select_groups(["vendor", "indicator"]))


class NeuralPipeline:
    """Dual-input net: token sequences plus densified structured features.

    Its layers, training and sequence shape come from the config tree's
    ``net`` section, its random draws from the ``net-<variant>`` substream.
    """

    def __init__(self, variant: str, config: Mapping = DEFAULTS):
        net = config["net"]
        seed = substream(int(config["seed"]), f"net-{variant}")
        self.max_len, self.vocab_cap = net["max_len"], net["vocab_cap"]
        layers = {key: net[key] for key in ("embedding_dim", "conv_filters", "kernel_width", "tabular_hidden", "dropout")}
        self.spec = neural.NetSpec(variant=variant, merge=tuple(net["merge"]), seed=seed, **layers)
        self.train_config = neural.TrainConfig(epochs=net["epochs"], batch=net["batch"], lr=net["lr"])
        self.sequences = None
        self.net = None

    def fit(self, X: FeatureMatrix, records, labels):
        self.sequences = neural.build_sequences(
            [r.description for r in records], max_len=self.max_len, vocab_cap=self.vocab_cap
        )
        self.net = neural.train(self.spec, self.sequences, net_tabular(X), labels, self.train_config)
        return self

    def inputs(self, X: FeatureMatrix, records) -> tuple[np.ndarray, np.ndarray]:
        """The fitted net's ``(ids, tabular)`` input for the rows of ``X`` and their records."""
        seqs = neural.apply_sequences(self.sequences, [r.description for r in records])
        return seqs.ids, net_tabular(X)

    def predict_proba(self, X: FeatureMatrix, records):
        return self.net.predict_proba(*self.inputs(X, records))


def feature_benchmark_pipelines(config: Mapping = DEFAULTS) -> list[tuple[str, LrFeaturePipeline]]:
    """The six feature-engineering comparison rows, all with logistic regression.

    ``config`` is the run's config tree, shaped like ``DEFAULTS``; every
    head reads its hyperparameters from it.
    """
    pipes = [LrFeaturePipeline(mode, config) for mode in ("baseline", "svd", "chi2", "mi", "pca", "lda")]
    return [(p.describe(), p) for p in pipes]


def model_benchmark_pipelines(config: Mapping = DEFAULTS) -> list[tuple[str, object]]:
    """The classical-vs-neural comparison rows, configured from the config tree."""
    return [
        ("logistic_regression", ClassicalModelPipeline("logreg", config)),
        ("random_forest", ClassicalModelPipeline("forest", config)),
        ("decision_tree", ClassicalModelPipeline("tree", config)),
        ("knn", ClassicalModelPipeline("knn", config)),
        ("ffnn", NeuralPipeline("ffnn", config)),
        ("cnn", NeuralPipeline("cnn", config)),
    ]


# ---------------------------------------------------------------------------
# Saved scoring artifact (featurizer + model) for the predict command


@dataclass
class ScoringArtifact:
    """Everything needed to score new records: a fitted featurizer and a logistic regression.

    The builder's column count, fixed when it was fitted or loaded, must
    equal the model's input width; an artifact that disagrees is refused
    when it is built or loaded, not when it first scores. ``save`` and
    ``load`` alone define the file: one JSON object holding the builder's
    lexicon, TF-IDF settings, vocabulary, idf weights and vendor
    categories, and the model's weights, bias, C and iteration count.
    """

    builder: FeatureBuilder
    model: classical.LogRegModel

    def __post_init__(self):
        if self.builder.names is None:
            raise ConfigError("scoring artifact needs a fitted FeatureBuilder")
        built, expected = len(self.builder.names), self.model.n_features
        if built != expected:
            raise ShapeError(f"artifact's featurizer makes {built} columns but its LogRegModel expects {expected}")

    def predict(self, records) -> tuple[np.ndarray, np.ndarray]:
        X = self.builder.transform(records)
        probs = self.model.predict_proba(X)
        return probs, evaluation.predicted_labels(probs)

    def save(self, path) -> None:
        """Write the artifact to ``path`` as JSON with sorted keys."""
        builder, model = self.builder, self.model
        # the file holds the TF-IDF settings twice, as the builder's config and beside its fitted model
        tfidf = {
            "ngram_range": [builder.tfidf["ngram_lo"], builder.tfidf["ngram_hi"]],
            "max_features": builder.tfidf["max_features"],
        }
        payload = {
            "builder": {
                "lexicon": list(builder.lexicon.phrases),
                "tfidf_config": tfidf,
                "tfidf_model": {
                    "vocabulary": builder.tfidf_model.vocabulary,
                    "idf": builder.tfidf_model.idf.tolist(),
                    **tfidf,
                },
                "vendor_encoder": {"categories": list(builder.vendor_encoder.categories)},
            },
            "model_kind": "LogRegModel",
            "model": {"weights": model.weights.tolist(), "bias": model.bias, "C": model.C, "n_iter": model.n_iter},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ScoringArtifact":
        """The artifact saved at ``path``, each entry checked against its rule in ``_ENTRIES``.

        A file that is not an artifact, or an entry that breaks its rule,
        raises ConfigError naming the file; a model whose width is not the
        featurizer's column count raises ShapeError naming the file.
        """
        payload = read_object(path, "model artifact")
        try:
            kind, builder, model = payload["model_kind"], payload["builder"], payload["model"]
            if kind != "LogRegModel":
                raise ConfigError(f"unsupported model kind {kind!r}")
            config, fitted = builder["tfidf_config"], builder["tfidf_model"]
            lo, hi = _entry(config, "ngram_range")
            tfidf = {"ngram_lo": lo, "ngram_hi": hi, "max_features": _entry(config, "max_features")}
            fb = FeatureBuilder(KeywordLexicon(tuple(_entry(builder, "lexicon"))), tfidf)
            idf = np.asarray(_entry(fitted, "idf"), dtype=np.float64)
            fb.set_fitted(
                TfidfModel(_entry(fitted, "vocabulary"), idf, (lo, hi)),
                VendorEncoder(tuple(_entry(builder["vendor_encoder"], "categories"))),
            )
            lr = classical.LogRegModel(
                np.asarray(_entry(model, "weights"), dtype=np.float64),
                _entry(model, "bias"),
                _entry(model, "C"),
                _entry(model, "n_iter"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"model artifact {path}: missing or malformed entry {exc}") from None
        except TriageError as exc:
            raise ConfigError(f"model artifact {path}: {exc}") from None
        try:
            return cls(fb, lr)
        except ShapeError as exc:
            raise ShapeError(f"model artifact {path}: {exc}") from None


# The rule of each entry the artifact holds, by name: (holds, rule), as in the config's rules.
_STRINGS = (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings")
_ENTRIES = {
    "lexicon": _STRINGS,
    "ngram_range": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)), "two integers"),
    "max_features": INTEGER,
    "vocabulary": (
        lambda v: isinstance(v, dict) and all(map(_is_int, v.values())) and set(v.values()) == set(range(len(v))),
        "an object mapping each term to its column, 0 to n - 1",
    ),
    "idf": NUMBERS,
    "categories": _STRINGS,
    "weights": NUMBERS,
    "bias": NUMBER,
    "C": NUMBER,
    "n_iter": INTEGER,
}


def _entry(entries: Mapping, key: str):
    """``entries[key]``; ConfigError naming ``key`` and its rule when the value breaks the rule."""
    holds, rule = _ENTRIES[key]
    if not holds(entries[key]):
        raise ConfigError(f"entry {key!r} must be {rule}")
    return entries[key]
