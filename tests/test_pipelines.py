"""Record-to-probability pipelines and the saved scoring artifact."""

import hashlib
import inspect
import json

import numpy as np
import pytest

from sevtriage import ensembles, pipelines
from sevtriage.config import DEFAULTS, load_config
from sevtriage.errors import ConfigError, ShapeError
from sevtriage.seeds import substream


SEED_0 = load_config(overrides={"seed": 0})


@pytest.fixture(scope="module")
def split(synthetic_dataset):
    return (
        synthetic_dataset.train_records(),
        synthetic_dataset.train_labels(),
        synthetic_dataset.test_records(),
        synthetic_dataset.test_labels(),
    )


@pytest.fixture(scope="module")
def featurized(split):
    """The split's one featurizer's training and test matrices."""
    train_records, _, test_records, _ = split
    fb = pipelines.FeatureBuilder().fit(train_records)
    return fb.transform(train_records), fb.transform(test_records)


class TestFeatureBuilder:
    def test_transform_uses_training_vocabulary_only(self, split):
        train_records, _, test_records, _ = split
        fb = pipelines.FeatureBuilder().fit(train_records)
        vocab_before = dict(fb.tfidf_model.vocabulary)
        vendors_before = fb.vendor_encoder.categories
        fb.transform(test_records)
        assert fb.tfidf_model.vocabulary == vocab_before
        assert fb.vendor_encoder.categories == vendors_before

    def test_block_layout(self, split):
        train_records, _, _, _ = split
        fb = pipelines.FeatureBuilder().fit(train_records)
        X = fb.transform(train_records)
        groups = list(dict.fromkeys(X.groups))
        assert groups == ["vendor", "indicator", "text"]
        assert X.n_rows == len(train_records)


class TestLrFeaturePipeline:
    @pytest.mark.parametrize("mode", ["baseline", "svd", "chi2", "mi", "pca", "lda"])
    def test_each_mode_fits_and_scores(self, split, featurized, mode):
        train_records, train_labels, test_records, test_labels = split
        train_X, test_X = featurized
        pipe = pipelines.LrFeaturePipeline(mode, SEED_0)
        pipe.fit(train_X, train_records, train_labels)
        probs = pipe.predict_proba(test_X, test_records)
        assert probs.shape == (len(test_records),)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_baseline_beats_majority_on_synthetic(self, split, featurized):
        train_records, train_labels, test_records, test_labels = split
        train_X, test_X = featurized
        pipe = pipelines.LrFeaturePipeline("baseline", SEED_0).fit(train_X, train_records, train_labels)
        acc = np.mean((pipe.predict_proba(test_X, test_records) >= 0.5).astype(int) == test_labels)
        majority = max(np.mean(test_labels), 1 - np.mean(test_labels))
        assert acc > majority

    def test_component_counts_clamped_to_data(self, split, featurized):
        train_records, train_labels, _, _ = split
        cfg = load_config(overrides={"seed": 0, "svd": {"k": 10_000}})
        pipe = pipelines.LrFeaturePipeline("svd", cfg).fit(featurized[0], train_records, train_labels)
        assert pipe.effective_k <= len(train_records)

    def test_describe_names_parameters(self):
        assert pipelines.LrFeaturePipeline("svd").describe() == "tfidf_svd(k=100)"
        assert pipelines.LrFeaturePipeline("mi").describe() == "tfidf_mi(k=300)"

    @pytest.mark.parametrize("mode", ["chi2", "mi"])
    def test_describe_names_the_columns_kept(self, split, mode):
        # 40 text columns against select.k 300: the fitted head names the 40 it keeps
        train_records, train_labels, _, _ = split
        cfg = load_config(overrides={"seed": 0, "tfidf": {"max_features": 40}})
        X = pipelines.FeatureBuilder(tfidf=cfg["tfidf"]).fit(train_records).transform(train_records)
        pipe = pipelines.LrFeaturePipeline(mode, cfg).fit(X, train_records, train_labels)
        assert len(pipe.selected) == 40
        assert pipe.describe() == f"tfidf_{mode}(k=40)"

    @pytest.mark.parametrize("mode", ["chi2", "mi"])
    def test_transform_is_structured_columns_then_selected_text(self, split, featurized, mode):
        train_records, train_labels, _, _ = split
        train_X, test_X = featurized
        pipe = pipelines.LrFeaturePipeline(mode, SEED_0).fit(train_X, train_records, train_labels)
        dense = test_X.to_dense()
        is_text = np.array(test_X.groups) == "text"
        got = pipe.transform(test_X)
        assert got.format == "csr"
        assert np.array_equal(got.toarray(), np.hstack([dense[:, ~is_text], dense[:, is_text][:, pipe.selected]]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            pipelines.LrFeaturePipeline("umap")


def _fit_head(head, split, featurized):
    train_records, train_labels, _, _ = split
    return head.fit(featurized[0], train_records, train_labels)


class TestHeadsReadTheConfigTree:
    """Every head is built from its sections of the config tree and from nothing else."""

    @pytest.mark.parametrize(
        "overrides, build, holds",
        [
            (
                {"svd": {"k": 7}},
                lambda cfg, s, f: _fit_head(pipelines.LrFeaturePipeline("svd", cfg), s, f),
                lambda head: head.describe() == "tfidf_svd(k=7)",
            ),
            (
                {"select": {"k": 9}},
                lambda cfg, s, f: _fit_head(pipelines.LrFeaturePipeline("chi2", cfg), s, f),
                lambda head: head.describe() == "tfidf_chi2(k=9)",
            ),
            (
                {"tree": {"max_depth": 1}},
                lambda cfg, s, f: _fit_head(pipelines.ClassicalModelPipeline("tree", cfg), s, f),
                lambda head: len(head.model.nodes) <= 3,  # depth <= 1: a root and at most two leaves
            ),
            (
                {"knn": {"k": 3}},
                lambda cfg, s, f: _fit_head(pipelines.ClassicalModelPipeline("knn", cfg), s, f),
                lambda head: head.model.k == 3,
            ),
            (
                {"forest": {"n_trees": 4}},
                lambda cfg, s, f: _fit_head(pipelines.ClassicalModelPipeline("forest", cfg), s, f),
                lambda head: len(head.model.trees) == 4,
            ),
            (
                {"tfidf": {"max_features": 40}},
                lambda cfg, s, f: pipelines.FeatureBuilder(tfidf=cfg["tfidf"]).fit(s[0]),
                lambda builder: sum(name.startswith("text__") for name in builder.names) <= 40,
            ),
        ],
        ids=["svd.k", "select.k", "tree.max_depth", "knn.k", "forest.n_trees", "tfidf.max_features"],
    )
    def test_section_reaches_its_head(self, split, featurized, overrides, build, holds):
        assert holds(build(load_config(overrides=overrides), split, featurized))
        assert not holds(build(load_config(), split, featurized)), "the defaults already satisfy the check"

    @pytest.mark.parametrize(
        "head, first",
        [(pipelines.LrFeaturePipeline, "mode"), (pipelines.ClassicalModelPipeline, "kind"), (pipelines.NeuralPipeline, "variant")],
    )
    def test_constructor_takes_kind_and_config_only(self, head, first):
        params = inspect.signature(head).parameters
        assert list(params) == [first, "config"]
        assert params["config"].default is DEFAULTS


class TestModelPipelines:
    def test_factory_returns_six_named_pipelines(self):
        pipes = pipelines.model_benchmark_pipelines()
        assert [name for name, _ in pipes] == [
            "logistic_regression",
            "random_forest",
            "decision_tree",
            "knn",
            "ffnn",
            "cnn",
        ]

    def test_net_config_reaches_spec_and_training(self):
        cfg = load_config(overrides={"seed": 3, "net": {"epochs": 2, "merge": [16], "max_len": 20, "lr": 0.01}})
        nets = dict(pipelines.model_benchmark_pipelines(config=cfg))
        for variant in ("ffnn", "cnn"):
            pipe = nets[variant]
            assert pipe.spec.variant == variant and pipe.spec.merge == (16,)
            assert pipe.spec.seed == substream(3, f"net-{variant}")
            assert (pipe.train_config.epochs, pipe.train_config.lr, pipe.max_len) == (2, 0.01, 20)

    def test_classical_kinds_fit_and_score(self, split, featurized):
        train_records, train_labels, test_records, _ = split
        train_X, test_X = featurized
        for kind in ("tree", "knn"):
            pipe = pipelines.ClassicalModelPipeline(kind, SEED_0)
            pipe.fit(train_X, train_records, train_labels)
            probs = pipe.predict_proba(test_X, test_records)
            assert np.all((probs >= 0) & (probs <= 1))


def _digests(X) -> dict[str, str]:
    parts = {
        "data": X.data.data.tobytes(),
        "indices": X.data.indices.tobytes(),
        "indptr": X.data.indptr.tobytes(),
        "names": "\n".join(X.names).encode(),
        "groups": "\n".join(X.groups).encode(),
    }
    return {k: hashlib.sha256(v).hexdigest() for k, v in parts.items()}


class TestSharedMatrices:
    """One featurized split feeds every head and every ensemble; none may write to it."""

    def test_no_pipeline_or_ensemble_mutates_the_shared_matrices(self, split, featurized):
        train_records, train_labels, test_records, _ = split
        train_X, test_X = featurized
        before = (_digests(train_X), _digests(test_X))
        cfg = load_config(overrides={"forest": {"n_trees": 5}, "net": {"epochs": 1}})
        heads = pipelines.feature_benchmark_pipelines(cfg) + pipelines.model_benchmark_pipelines(cfg)
        for name, pipe in heads:
            pipe.fit(train_X, train_records, train_labels)
            assert (_digests(train_X), _digests(test_X)) == before, f"{name} fit"
            pipe.predict_proba(test_X, test_records)
            assert (_digests(train_X), _digests(test_X)) == before, f"{name} predict_proba"
        ensembles.run(train_X, train_labels, test_X, load_config(overrides={"seed": 0, "forest": {"n_trees": 5}}))
        assert (_digests(train_X), _digests(test_X)) == before, "ensembles"


# Byte oracle: one to_dict each for the TF-IDF model, vendor encoder, logistic
# regression and builder, whose payload ScoringArtifact.save must write byte for
# byte. max_features comes from the builder's config, the one place holding it.


def oracle_tfidf_to_dict(model, max_features: int) -> dict:
    return {
        "vocabulary": model.vocabulary,
        "idf": model.idf.tolist(),
        "ngram_range": list(model.ngram_range),
        "max_features": max_features,
    }


def oracle_vendor_to_dict(encoder) -> dict:
    return {"categories": list(encoder.categories)}


def oracle_logreg_to_dict(model) -> dict:
    return {"weights": model.weights.tolist(), "bias": model.bias, "C": model.C, "n_iter": model.n_iter}


def oracle_builder_to_dict(fb) -> dict:
    return {
        "lexicon": list(fb.lexicon.phrases),
        "tfidf_config": {
            "ngram_range": [fb.tfidf["ngram_lo"], fb.tfidf["ngram_hi"]],
            "max_features": fb.tfidf["max_features"],
        },
        "tfidf_model": oracle_tfidf_to_dict(fb.tfidf_model, fb.tfidf["max_features"]),
        "vendor_encoder": oracle_vendor_to_dict(fb.vendor_encoder),
    }


def oracle_artifact_bytes(artifact) -> bytes:
    payload = {
        "builder": oracle_builder_to_dict(artifact.builder),
        "model_kind": "LogRegModel",
        "model": oracle_logreg_to_dict(artifact.model),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


TFIDF_SETTINGS = pytest.mark.parametrize(
    "tfidf", [{}, {"ngram_hi": 3, "max_features": 40}], ids=["default", "trigrams-40-terms"]
)


def _fitted_artifact(split, tfidf: dict):
    from sevtriage.classical import train_logreg

    train_records, train_labels, _, _ = split
    cfg = load_config(overrides={"tfidf": tfidf})
    fb = pipelines.FeatureBuilder(tfidf=cfg["tfidf"]).fit(train_records)
    return pipelines.ScoringArtifact(fb, train_logreg(fb.transform(train_records), train_labels)), cfg


class TestScoringArtifact:
    @TFIDF_SETTINGS
    def test_save_writes_the_oracle_bytes(self, split, tmp_path, tfidf):
        artifact, _ = _fitted_artifact(split, tfidf)
        artifact.save(tmp_path / "artifact.json")
        assert (tmp_path / "artifact.json").read_bytes() == oracle_artifact_bytes(artifact)

    @TFIDF_SETTINGS
    def test_save_load_save_is_byte_identical(self, split, tmp_path, tfidf):
        artifact, _ = _fitted_artifact(split, tfidf)
        artifact.save(tmp_path / "first.json")
        pipelines.ScoringArtifact.load(tmp_path / "first.json").save(tmp_path / "second.json")
        assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()

    @TFIDF_SETTINGS
    def test_load_restores_the_config_model_and_columns(self, split, tmp_path, tfidf):
        artifact, cfg = _fitted_artifact(split, tfidf)
        artifact.save(tmp_path / "artifact.json")
        loaded = pipelines.ScoringArtifact.load(tmp_path / "artifact.json")
        assert loaded.builder.tfidf == cfg["tfidf"]
        assert np.array_equal(loaded.model.weights, artifact.model.weights)
        assert (loaded.model.bias, loaded.model.C, loaded.model.n_iter) == (
            artifact.model.bias,
            artifact.model.C,
            artifact.model.n_iter,
        )
        test_records = split[2]
        a, b = artifact.builder.transform(test_records), loaded.builder.transform(test_records)
        assert (a.names, a.groups) == (b.names, b.groups)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_save_load_predict_identical(self, split, tmp_path):
        from sevtriage.classical import train_logreg

        train_records, train_labels, test_records, _ = split
        fb = pipelines.FeatureBuilder().fit(train_records)
        model = train_logreg(fb.transform(train_records), train_labels)
        artifact = pipelines.ScoringArtifact(fb, model)
        probs_a, labels_a = artifact.predict(test_records)
        path = tmp_path / "artifact.json"
        artifact.save(path)
        loaded = pipelines.ScoringArtifact.load(path)
        probs_b, labels_b = loaded.predict(test_records)
        assert np.allclose(probs_a, probs_b, atol=1e-15)
        assert np.array_equal(labels_a, labels_b)

    def test_load_rejects_model_narrower_than_featurizer(self, split, tmp_path):
        from sevtriage.classical import train_logreg

        train_records, train_labels, _, _ = split
        fb = pipelines.FeatureBuilder().fit(train_records)
        model = train_logreg(fb.transform(train_records), train_labels)
        path = tmp_path / "artifact.json"
        pipelines.ScoringArtifact(fb, model).save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["model"]["weights"] = payload["model"]["weights"][:-3]
        path.write_text(json.dumps(payload), encoding="utf-8")
        width = len(fb.names)
        with pytest.raises(ShapeError, match=f"makes {width} columns but its LogRegModel expects {width - 3}"):
            pipelines.ScoringArtifact.load(path)
