"""Per-layer tracing of sevtriage, installed from outside the package.

Each layer's public functions are wrapped at the name their caller looks
up: ``pipelines.assemble`` as well as ``features.assemble``,
``ensembles.train_logreg`` as well as ``classical.train_logreg``, and
methods on their classes. Nothing under ``src/`` changes. A name that
no longer exists is skipped and listed in ``LayerTrace.tracer.missing``.

Layers are the package's modules; ``pipelines`` is the glue that
composes them and ``cli`` is the command code outside them (artifact
writing and the ROC re-prediction pass). ``FeatureBuilder.fit`` and
``transform`` live in ``pipelines`` but count as the ``features`` layer:
they are the featurizer every pipeline refits. A layer a workload never
calls reports zero time and zero counts.
"""

from __future__ import annotations

from spans import Tracer, ancestors, self_times

LAYERS = (
    "corpus", "features", "reduction", "selection", "classical",
    "neural", "ensembles", "evaluation", "pipelines", "cli",
)

STRATEGIES = ("feature_split", "bootstrap", "heterogeneous", "instance", "stacking")

# reduction.fit_truncated_svd solves exactly while min(n, d) is at most this
# and switches to its seeded randomized solver above it.
RANDOMIZED_SVD_MIN_SIDE = 512

_DENSE_ENTRY_SPANS = (
    "classical.train_tree", "classical.train_forest", "classical.train_knn",
    "classical.tree_predict", "classical.forest_predict", "classical.knn_predict",
)
_MODEL_PREDICT_SPANS = (
    "classical.logreg_predict", "classical.tree_predict", "classical.forest_predict", "classical.knn_predict",
)


def _shape(x) -> tuple[int, int]:
    if hasattr(x, "n_rows"):
        return x.n_rows, x.n_cols
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]), int(shape[1]) if len(shape) > 1 else 1
    return len(x), 0


def _input_shape(args, kwargs, result):
    rows, cols = _shape(args[0])
    return {"rows": rows, "cols": cols}


def _method_input_shape(args, kwargs, result):
    rows, cols = _shape(args[1])
    return {"rows": rows, "cols": cols}


# Every per-layer metric: name -> unit. The order is the print order.
METRICS = {
    "corpus.parse_s": "s", "corpus.rows": "count",
    "features.fit_s": "s", "features.fit_calls": "count",
    "features.transform_s": "s", "features.transform_calls": "count",
    "features.rows_transformed": "count", "features.redundancy": "ratio",
    "features.assemble_s": "s", "features.text_block_s": "s",
    "features.indicator_block_s": "s", "features.vendor_block_s": "s",
    "features.matrix_builds": "count", "features.tokenize_calls": "count",
    "features.text_cols": "count", "features.text_nnz": "count",
    "reduction.svd_fit_s": "s", "reduction.svd_randomized_fits": "count",
    "reduction.svd_project_s": "s", "reduction.pca_s": "s", "reduction.lda_s": "s",
    "selection.chi2_s": "s", "selection.mi_s": "s",
    "classical.forest_fit_s": "s", "classical.trees_fit": "count",
    "classical.tree_fit_s": "s", "classical.tree_nodes": "count",
    "classical.knn_predict_s": "s", "classical.knn_queries": "count",
    "classical.dense_mb_computed": "MB",
    "classical.logreg_fit_s": "s", "classical.logreg_fits": "count", "classical.logreg_iters": "count",
    "classical.predict_s": "s", "classical.predict_rows": "count",
    "neural.sequences_s": "s", "neural.ffnn_train_s": "s", "neural.cnn_train_s": "s",
    "neural.steps": "count", "neural.predict_s": "s",
    **{f"ensembles.{s}_self_s": "s" for s in STRATEGIES},
    "pipelines.fits": "count", "pipelines.predict_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.overhead_s": "s",
}


class LayerTrace:
    """Patches every layer on ``install`` and derives ``METRICS`` from the spans."""

    def __init__(self):
        self.tracer = Tracer()
        self._distinct_rows: set = set()

    def install(self) -> None:
        from sevtriage import (
            classical, cli, corpus, ensembles, evaluation, features, neural, pipelines, reduction, selection,
        )

        t = self.tracer
        span = t.span

        # corpus: cli and the scoring client call corpus.<name>
        span(corpus, "parse_csv", "corpus.parse_csv", lambda a, k, r: {"rows": len(r)})
        for name in ("clean", "label", "stratified_split"):
            span(corpus, name, f"corpus.{name}")

        # features: pipelines binds the block builders at import time
        for owner in (pipelines, features):
            span(owner, "assemble", "features.assemble")
            span(owner, "text_block", "features.text_block",
                 lambda a, k, r: {"rows": r.n_rows, "cols": r.n_cols, "nnz": int(r.data.nnz)})
            span(owner, "indicator_block", "features.indicator_block")
            span(owner, "vendor_block", "features.vendor_block")
            span(owner, "fit_tfidf", "features.fit_tfidf")
            span(owner, "fit_vendor", "features.fit_vendor")
        span(cli, "keyword_frequencies", "features.keyword_frequencies")
        span(pipelines.FeatureBuilder, "fit", "features.fit", lambda a, k, r: {"rows": len(a[1])})
        span(pipelines.FeatureBuilder, "transform", "features.transform", self._transform_attrs)
        t.count(features, "tokenize", "features.tokenize_calls")
        t.count(neural, "tokenize", "features.tokenize_calls")
        t.count(features.FeatureMatrix, "__post_init__", "features.matrix_builds")

        # reduction and selection: called as reduction.<name> / selection.<name>
        span(reduction, "fit_truncated_svd", "reduction.svd_fit", self._svd_attrs)
        span(reduction, "project_svd", "reduction.svd_project")
        for name in ("fit_pca", "project_pca"):
            span(reduction, name, "reduction.pca")
        for name in ("fit_lda", "project_lda"):
            span(reduction, name, "reduction.lda")
        span(reduction, "explained_variance_curve", "reduction.explained_variance_curve")
        span(reduction, "top_terms_per_component", "reduction.top_terms")
        span(selection, "chi2_scores", "selection.chi2")
        span(selection, "mutual_info_scores", "selection.mi")
        span(selection, "select_top_k", "selection.select_top_k")
        span(selection, "top_scored_terms", "selection.top_scored_terms")

        # classical: pipelines call classical.<name>, ensembles bind the trainers,
        # train_forest calls classical.train_tree
        for owner in (classical, ensembles):
            span(owner, "train_logreg", "classical.train_logreg",
                 lambda a, k, r: {**_input_shape(a, k, r), "n_iter": int(r.n_iter)})
            span(owner, "train_forest", "classical.train_forest", _input_shape)
            span(owner, "train_knn", "classical.train_knn", _input_shape)
        span(classical, "train_tree", "classical.train_tree",
             lambda a, k, r: {**_input_shape(a, k, r), "nodes": len(r.nodes)})
        for cls, name in (
            (classical.LogRegModel, "logreg_predict"),
            (classical.TreeModel, "tree_predict"),
            (classical.ForestModel, "forest_predict"),
            (classical.KnnModel, "knn_predict"),
        ):
            span(cls, "predict_proba", f"classical.{name}", _method_input_shape)

        # neural
        span(neural, "build_sequences", "neural.sequences")
        span(neural, "apply_sequences", "neural.sequences")
        span(neural, "train", "neural.train", lambda a, k, r: {"variant": a[0].variant})
        span(neural, "activations", "neural.activations")
        span(neural.TrainedNet, "predict_proba", "neural.predict")
        t.count(neural, "loss_and_grads", "neural.steps")

        # ensembles: the dispatchers look the strategies up in the module
        for s in STRATEGIES:
            span(ensembles, f"{s}_ensemble", f"ensembles.{s}")

        # evaluation: cli calls evaluation.<name>, report calls roc_auc and confusion
        for name in ("benchmark", "report", "roc_auc", "confusion"):
            span(evaluation, name, f"evaluation.{name}")

        # pipelines: the glue
        for cls in (pipelines.LrFeaturePipeline, pipelines.ClassicalModelPipeline, pipelines.NeuralPipeline):
            span(cls, "fit", "pipelines.fit", lambda a, k, r: {"kind": type(a[0]).__name__})
            span(cls, "predict_proba", "pipelines.predict_proba", lambda a, k, r: {"kind": type(a[0]).__name__})
        span(pipelines.ScoringArtifact, "predict", "pipelines.artifact_predict")
        span(pipelines.ScoringArtifact, "save", "pipelines.artifact_save")
        for name in ("feature_benchmark_pipelines", "model_benchmark_pipelines"):
            span(cli, name, "pipelines.build")

        # cli: main dispatches to the command functions by module lookup
        for name in ("benchmark_features", "benchmark_models", "ensembles"):
            span(cli, f"cmd_{name}", f"cli.{name}")

    def _transform_attrs(self, args, kwargs, result):
        records = args[1]
        self._distinct_rows.update(records)
        return {"rows": len(records)}

    @staticmethod
    def _svd_attrs(args, kwargs, result):
        rows, cols = _shape(args[0])
        return {"rows": rows, "cols": cols, "randomized": min(rows, cols) > RANDOMIZED_SVD_MIN_SIDE}

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every entry of ``METRICS`` as (value, unit) from the recorded spans."""
        spans = self.tracer.spans
        selfs = self_times(spans)
        counters = self.tracer.counters

        def pick(*names):
            return [i for i, s in enumerate(spans) if s.name in names]

        def total(*names):
            return sum(spans[i].duration for i in pick(*names))

        def attr_sum(key, indices):
            return sum(spans[i].attrs.get(key, 0) for i in indices)

        def outside(i, names):
            return not any(a in names for a in ancestors(spans, i))

        text = pick("features.text_block")
        rows_transformed = attr_sum("rows", pick("features.transform"))
        trees = pick("classical.train_tree")
        lone_trees = [i for i in trees if outside(i, ("classical.train_forest",))]
        knn = pick("classical.knn_predict")
        logreg = pick("classical.train_logreg")
        outer_predicts = [i for i in pick(*_MODEL_PREDICT_SPANS) if outside(i, _MODEL_PREDICT_SPANS)]
        dense = pick(*_DENSE_ENTRY_SPANS)
        trains = pick("neural.train")

        values = {
            "corpus.parse_s": total("corpus.parse_csv"),
            "corpus.rows": attr_sum("rows", pick("corpus.parse_csv")),
            "features.fit_s": total("features.fit"),
            "features.fit_calls": len(pick("features.fit")),
            "features.transform_s": total("features.transform"),
            "features.transform_calls": len(pick("features.transform")),
            "features.rows_transformed": rows_transformed,
            "features.redundancy": rows_transformed / len(self._distinct_rows) if self._distinct_rows else 0.0,
            "features.assemble_s": total("features.assemble"),
            "features.text_block_s": total("features.text_block"),
            "features.indicator_block_s": total("features.indicator_block"),
            "features.vendor_block_s": total("features.vendor_block"),
            "features.matrix_builds": counters["features.matrix_builds"],
            "features.tokenize_calls": counters["features.tokenize_calls"],
            "features.text_cols": max((spans[i].attrs.get("cols", 0) for i in text), default=0),
            "features.text_nnz": attr_sum("nnz", text),
            "reduction.svd_fit_s": total("reduction.svd_fit"),
            "reduction.svd_randomized_fits": sum(1 for i in pick("reduction.svd_fit") if spans[i].attrs.get("randomized")),
            "reduction.svd_project_s": total("reduction.svd_project"),
            "reduction.pca_s": total("reduction.pca"),
            "reduction.lda_s": total("reduction.lda"),
            "selection.chi2_s": total("selection.chi2"),
            "selection.mi_s": total("selection.mi"),
            "classical.forest_fit_s": total("classical.train_forest"),
            "classical.trees_fit": len(trees),
            "classical.tree_fit_s": sum(spans[i].duration for i in lone_trees),
            "classical.tree_nodes": attr_sum("nodes", lone_trees),
            "classical.knn_predict_s": total("classical.knn_predict"),
            "classical.knn_queries": attr_sum("rows", knn),
            "classical.dense_mb_computed": sum(spans[i].attrs.get("rows", 0) * spans[i].attrs.get("cols", 0) * 8 for i in dense) / 1e6,
            "classical.logreg_fit_s": total("classical.train_logreg"),
            "classical.logreg_fits": len(logreg),
            "classical.logreg_iters": attr_sum("n_iter", logreg),
            "classical.predict_s": sum(spans[i].duration for i in outer_predicts),
            "classical.predict_rows": attr_sum("rows", outer_predicts),
            "neural.sequences_s": total("neural.sequences"),
            "neural.ffnn_train_s": sum(spans[i].duration for i in trains if spans[i].attrs.get("variant") == "ffnn"),
            "neural.cnn_train_s": sum(spans[i].duration for i in trains if spans[i].attrs.get("variant") == "cnn"),
            "neural.steps": counters["neural.steps"],
            "neural.predict_s": total("neural.predict"),
            "pipelines.fits": len(pick("pipelines.fit")),
            "pipelines.predict_calls": len(pick("pipelines.predict_proba", "pipelines.artifact_predict")),
            "trace.spans": len(spans),
            "trace.overhead_s": overhead_s,
        }
        for s in STRATEGIES:
            values[f"ensembles.{s}_self_s"] = sum(selfs[i] for i in pick(f"ensembles.{s}"))
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(t for sp, t in zip(spans, selfs) if sp.layer == layer)
        return {name: (float(values[name]), unit) for name, unit in METRICS.items()}
