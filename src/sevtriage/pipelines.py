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
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import classical, features, neural, reduction, selection
from .config import DEFAULTS
from .corpus import DisclosureRecord, decode_utf8
from .errors import ConfigError, RowError, ShapeError
from .features import (
    Columns,
    FeatureMatrix,
    KeywordLexicon,
    TfidfModel,
    VendorEncoder,
    assemble,
    assembled_columns,
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

    ``tfidf`` is the config tree's ``tfidf`` section. ``columns`` (the
    assembled names, groups and order) is fixed when the builder is fitted
    or loaded; ``transform`` tokenizes each description once and shares
    the tokens between the indicator and text blocks.
    """

    def __init__(self, lexicon: KeywordLexicon | None = None, tfidf: Mapping = DEFAULTS["tfidf"]):
        self.lexicon = lexicon or KeywordLexicon.default()
        self.tfidf = tfidf
        self.tfidf_model: TfidfModel | None = None
        self.vendor_encoder: VendorEncoder | None = None
        self.columns: Columns | None = None

    def fit(self, records: Sequence[DisclosureRecord]) -> "FeatureBuilder":
        self.tfidf_model = fit_tfidf(
            [r.description for r in records],
            ngram_range=(self.tfidf["ngram_lo"], self.tfidf["ngram_hi"]),
            max_features=self.tfidf["max_features"],
        )
        self.vendor_encoder = fit_vendor(records)
        self._fix_columns()
        return self

    def _fix_columns(self) -> None:
        parts = (
            (self.vendor_encoder.categories, "vendor"),
            (indicator_names(self.lexicon), "indicator"),
            (self.tfidf_model.names, "text"),
        )
        self.columns = assembled_columns([(names, (group,) * len(names)) for names, group in parts])

    def transform(self, records: Sequence[DisclosureRecord]) -> FeatureMatrix:
        if self.columns is None:
            raise ConfigError("FeatureBuilder.transform called before fit")
        tokens = [features.tokenize(r.description) for r in records]
        return assemble(
            [
                vendor_block(self.vendor_encoder, records),
                indicator_block(records, self.lexicon, tokens),
                text_block(self.tfidf_model, tokens),
            ],
            self.columns,
        )

    def to_dict(self) -> dict:
        return {
            "lexicon": list(self.lexicon.phrases),
            "tfidf_config": {
                "ngram_range": [self.tfidf["ngram_lo"], self.tfidf["ngram_hi"]],
                "max_features": self.tfidf["max_features"],
            },
            "tfidf_model": self.tfidf_model.to_dict() if self.tfidf_model else None,
            "vendor_encoder": self.vendor_encoder.to_dict() if self.vendor_encoder else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeatureBuilder":
        (lo, hi), max_features = d["tfidf_config"]["ngram_range"], d["tfidf_config"]["max_features"]
        fb = cls(KeywordLexicon(tuple(d["lexicon"])), {"ngram_lo": lo, "ngram_hi": hi, "max_features": max_features})
        if d.get("tfidf_model"):
            fb.tfidf_model = TfidfModel.from_dict(d["tfidf_model"])
        if d.get("vendor_encoder"):
            fb.vendor_encoder = VendorEncoder.from_dict(d["vendor_encoder"])
        if fb.tfidf_model is not None and fb.vendor_encoder is not None:
            fb._fix_columns()
        return fb


def _clamped(k: int, *limits: int) -> int:
    return max(1, min(k, *limits))


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
        self.effective_k: int | None = None

    # -- feature-space plumbing ---------------------------------------------

    def _reduced_assembly(self, X: FeatureMatrix, fit: bool, labels=None) -> FeatureMatrix:
        if self.mode == "baseline":
            return X
        text = X.select_groups(["text"])
        structured = X.select_groups(["vendor", "indicator"])
        if self.mode in ("svd", "pca", "lda"):
            if fit:
                self.effective_k = _clamped(self.svd_k, text.n_rows, text.n_cols)
                self.svd = reduction.fit_truncated_svd(text, k=self.effective_k, seed=substream(self.seed, "svd"))
            proj = reduction.project_svd(self.svd, text)
            reduced = FeatureMatrix.from_dense(proj, [f"svd_{i:03d}" for i in range(proj.shape[1])], "reduced")
            return assemble([structured, reduced])
        # chi2 / mi keep a subset of text columns
        if fit:
            score_fn = selection.chi2_scores if self.mode == "chi2" else selection.mutual_info_scores
            self.scores = score_fn(text, labels)
            self.selected = selection.select_top_k(self.scores, k=self.select_k)
        return assemble([structured, text.select_columns(self.selected)])

    def _project(self, X: FeatureMatrix, fit: bool, labels=None) -> np.ndarray | FeatureMatrix:
        if self.mode not in ("pca", "lda"):
            return X
        dense = X.to_dense()
        if self.mode == "pca":
            if fit:
                k = _clamped(self.pca_k, dense.shape[0] - 1, dense.shape[1])
                self.projector = reduction.fit_pca(dense, k=k)
            return FeatureMatrix.from_dense(
                reduction.project_pca(self.projector, dense),
                [f"pc_{i:03d}" for i in range(self.projector.k)],
                "reduced",
            )
        if fit:
            self.projector = reduction.fit_lda(dense, labels)
        return FeatureMatrix.from_dense(reduction.project_lda(self.projector, dense), ["lda_0"], "reduced")

    # -- pipeline surface ----------------------------------------------------

    def fit(self, X: FeatureMatrix, records, labels):
        X = self._reduced_assembly(X, fit=True, labels=np.asarray(labels))
        X = self._project(X, fit=True, labels=np.asarray(labels))
        self.model = classical.train_logreg(X, labels, **self.logreg)
        return self

    def predict_proba(self, X: FeatureMatrix, records):
        X = self._project(self._reduced_assembly(X, fit=False), fit=False)
        return self.model.predict_proba(X)

    def describe(self) -> str:
        if self.mode == "svd":
            return f"tfidf_svd(k={self.effective_k if self.effective_k is not None else self.svd_k})"
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
    return X.select_groups(["vendor", "indicator"]).to_dense()


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
        self.train_config = neural.TrainConfig(epochs=net["epochs"], batch=net["batch"], lr=net["lr"], seed=seed)
        self.sequences = None
        self.net = None

    def fit(self, X: FeatureMatrix, records, labels):
        self.sequences = neural.build_sequences(
            [r.description for r in records], max_len=self.max_len, vocab_cap=self.vocab_cap
        )
        self.net = neural.train(self.spec, self.sequences, net_tabular(X), labels, self.train_config)
        return self

    def predict_proba(self, X: FeatureMatrix, records):
        seqs = neural.apply_sequences(self.sequences, [r.description for r in records])
        return self.net.predict_proba(seqs.ids, net_tabular(X))


def feature_benchmark_pipelines(config: Mapping = DEFAULTS) -> list[tuple[str, LrFeaturePipeline]]:
    """The six feature-engineering comparison rows, all with logistic regression.

    ``config`` is the run's config tree (a RunConfig or a dict shaped like
    ``DEFAULTS``); every head reads its hyperparameters from it.
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


_MODEL_CODECS = {
    "LogRegModel": classical.LogRegModel,
    "TreeModel": classical.TreeModel,
    "ForestModel": classical.ForestModel,
    "KnnModel": classical.KnnModel,
}


@dataclass
class ScoringArtifact:
    """Everything needed to score new records with a trained pipeline.

    The builder's column count, fixed when it was fitted or loaded, must
    equal the model's input width; an artifact that disagrees is refused
    when it is built or loaded, not when it first scores.
    """

    builder: FeatureBuilder
    model: object

    def __post_init__(self):
        if self.builder.columns is None:
            raise ConfigError("scoring artifact needs a fitted FeatureBuilder")
        built, expected = len(self.builder.columns.names), self.model.n_features
        if built != expected:
            raise ShapeError(
                f"artifact's featurizer makes {built} columns but its {type(self.model).__name__} expects {expected}"
            )

    def predict(self, records) -> tuple[np.ndarray, np.ndarray]:
        X = self.builder.transform(records)
        probs = self.model.predict_proba(X)
        return probs, (probs >= 0.5).astype(np.int64)

    def save(self, path) -> None:
        payload = {
            "builder": self.builder.to_dict(),
            "model_kind": type(self.model).__name__,
            "model": self.model.to_dict(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ScoringArtifact":
        """The artifact saved at ``path``; a file that is not one raises ConfigError naming it."""
        try:
            payload = json.loads(decode_utf8(Path(path).read_bytes()))
            kind, builder, model = payload["model_kind"], payload["builder"], payload["model"]
            if kind not in _MODEL_CODECS:
                raise ConfigError(f"model artifact {path}: unsupported model kind {kind!r}")
            return cls(FeatureBuilder.from_dict(builder), _MODEL_CODECS[kind].from_dict(model))
        except RowError as exc:
            raise ConfigError(f"model artifact {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model artifact {path}: not valid JSON: {exc}") from None
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"model artifact {path}: missing or malformed entry {exc}") from None
