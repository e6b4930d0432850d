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

from . import classical, features, neural, reduction, selection
from .config import DEFAULTS
from .corpus import DisclosureRecord
from .errors import ConfigError, ShapeError
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


@dataclass(frozen=True)
class TfidfConfig:
    ngram_range: tuple[int, int] = (1, 2)
    max_features: int = 5000

    @classmethod
    def from_config(cls, config: Mapping) -> "TfidfConfig":
        t = config["tfidf"]
        return cls((t["ngram_lo"], t["ngram_hi"]), t["max_features"])


class FeatureBuilder:
    """Vendor one-hot + indicator + TF-IDF blocks, fit on training records.

    ``columns`` (the assembled names, groups and order) is fixed when the
    builder is fitted or loaded; ``transform`` tokenizes each description
    once and shares the tokens between the indicator and text blocks.
    """

    def __init__(self, lexicon: KeywordLexicon | None = None, tfidf: TfidfConfig | None = None):
        self.lexicon = lexicon or KeywordLexicon.default()
        self.tfidf_config = tfidf or TfidfConfig()
        self.tfidf_model: TfidfModel | None = None
        self.vendor_encoder: VendorEncoder | None = None
        self.columns: Columns | None = None

    def fit(self, records: Sequence[DisclosureRecord]) -> "FeatureBuilder":
        self.tfidf_model = fit_tfidf(
            [r.description for r in records],
            ngram_range=self.tfidf_config.ngram_range,
            max_features=self.tfidf_config.max_features,
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
            "tfidf_config": {"ngram_range": list(self.tfidf_config.ngram_range), "max_features": self.tfidf_config.max_features},
            "tfidf_model": self.tfidf_model.to_dict() if self.tfidf_model else None,
            "vendor_encoder": self.vendor_encoder.to_dict() if self.vendor_encoder else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeatureBuilder":
        cfg = d["tfidf_config"]
        fb = cls(KeywordLexicon(tuple(d["lexicon"])), TfidfConfig(tuple(cfg["ngram_range"]), cfg["max_features"]))
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
    assembly and classify in the projected space.
    """

    def __init__(
        self,
        mode: str = "baseline",
        svd_k: int = 100,
        select_k: int = 300,
        pca_k: int = 100,
        logreg: Mapping | None = None,
        seed: int = 0,
    ):
        if mode not in ("baseline", "svd", "chi2", "mi", "pca", "lda"):
            raise ConfigError(f"unknown feature pipeline mode {mode!r}")
        self.mode = mode
        self.svd_k = svd_k
        self.select_k = select_k
        self.pca_k = pca_k
        self.logreg = dict(logreg or {})
        self.seed = seed
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
            return f"tfidf_{self.mode}(k={self.select_k})"
        if self.mode == "pca":
            k = self.projector.k if self.projector is not None else self.pca_k
            return f"pca(k={k})"
        if self.mode == "lda":
            return "lda"
        return "tfidf_baseline"


class ClassicalModelPipeline:
    """One classical learner over the plain assembled feature matrix."""

    def __init__(self, kind: str, seed: int = 0, **model_kwargs):
        if kind not in ("logreg", "tree", "forest", "knn"):
            raise ConfigError(f"unknown classical model kind {kind!r}")
        self.kind = kind
        self.seed = seed
        self.model_kwargs = model_kwargs
        self.model = None

    def fit(self, X: FeatureMatrix, records, labels):
        if self.kind == "logreg":
            self.model = classical.train_logreg(X, labels, **self.model_kwargs)
        elif self.kind == "tree":
            self.model = classical.train_tree(X, labels, **self.model_kwargs)
        elif self.kind == "forest":
            self.model = classical.train_forest(X, labels, seed=substream(self.seed, "forest"), **self.model_kwargs)
        else:
            self.model = classical.train_knn(X, labels, **self.model_kwargs)
        return self

    def predict_proba(self, X: FeatureMatrix, records):
        return self.model.predict_proba(X)


def net_tabular(X: FeatureMatrix) -> np.ndarray:
    """The nets' tabular input: the vendor and indicator columns of ``X``, densified."""
    return X.select_groups(["vendor", "indicator"]).to_dense()


class NeuralPipeline:
    """Dual-input net: token sequences plus densified structured features."""

    def __init__(
        self,
        variant: str,
        max_len: int = 64,
        vocab_cap: int = 3000,
        seed: int = 0,
        spec: neural.NetSpec | None = None,
        train_config: neural.TrainConfig | None = None,
    ):
        self.max_len = max_len
        self.vocab_cap = vocab_cap
        self.spec = spec or neural.NetSpec(variant=variant, seed=substream(seed, f"net-{variant}"))
        self.train_config = train_config or neural.TrainConfig(seed=substream(seed, f"net-{variant}"))
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
    ``DEFAULTS``); every head hyperparameter comes from it.
    """
    shared = dict(
        svd_k=config["svd"]["k"],
        select_k=config["select"]["k"],
        pca_k=config["pca"]["k"],
        logreg=config["logreg"],
        seed=int(config["seed"]),
    )
    modes = ("baseline", "svd", "chi2", "mi", "pca", "lda")
    pipes = [LrFeaturePipeline(mode=m, **shared) for m in modes]
    return [(p.describe(), p) for p in pipes]


def model_benchmark_pipelines(config: Mapping = DEFAULTS) -> list[tuple[str, object]]:
    """The classical-vs-neural comparison rows, configured from the config tree."""
    seed = int(config["seed"])
    net = config["net"]

    def neural_pipe(variant: str) -> NeuralPipeline:
        net_seed = substream(seed, f"net-{variant}")
        spec = neural.NetSpec(
            variant=variant,
            embedding_dim=net["embedding_dim"],
            conv_filters=net["conv_filters"],
            kernel_width=net["kernel_width"],
            tabular_hidden=net["tabular_hidden"],
            merge=tuple(net["merge"]),
            dropout=net["dropout"],
            seed=net_seed,
        )
        train_config = neural.TrainConfig(epochs=net["epochs"], batch=net["batch"], lr=net["lr"], seed=net_seed)
        return NeuralPipeline(
            variant, max_len=net["max_len"], vocab_cap=net["vocab_cap"], seed=seed, spec=spec, train_config=train_config
        )

    return [
        ("logistic_regression", ClassicalModelPipeline("logreg", seed=seed, **config["logreg"])),
        ("random_forest", ClassicalModelPipeline("forest", seed=seed, **config["forest"])),
        ("decision_tree", ClassicalModelPipeline("tree", seed=seed, **config["tree"])),
        ("knn", ClassicalModelPipeline("knn", seed=seed, **config["knn"])),
        ("ffnn", neural_pipe("ffnn")),
        ("cnn", neural_pipe("cnn")),
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
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        kind = payload["model_kind"]
        if kind not in _MODEL_CODECS:
            raise ConfigError(f"unsupported model kind {kind!r} in artifact")
        return cls(
            builder=FeatureBuilder.from_dict(payload["builder"]),
            model=_MODEL_CODECS[kind].from_dict(payload["model"]),
        )
