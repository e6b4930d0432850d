"""Command-line surface: ingest, benchmark-features, benchmark-models,
ensembles, predict, plot.

Every command reads one JSON config (flags override keys), writes its
artifacts under the output directory, and exits 0 exactly when its
primary artifact was written. Reruns with identical config and inputs
produce byte-identical outputs at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

from . import corpus, ensembles, evaluation, neural, plots, reduction, selection
from .config import OUT_ENV_VAR, RunConfig, load_config
from .errors import TriageError
from .features import KeywordLexicon, keyword_frequencies
from .pipelines import (
    FeatureBuilder,
    ScoringArtifact,
    TfidfConfig,
    feature_benchmark_pipelines,
    model_benchmark_pipelines,
    net_tabular,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_records(cfg: RunConfig):
    data = cfg["data"]
    if not data:
        raise TriageError("no dataset configured; pass --data or set 'data' in the config")
    path = Path(data)
    if not path.exists():
        raise TriageError(f"dataset file not found: {path}")
    with open(path, "rb") as fh:
        return corpus.parse_csv(fh, cfg["schema"])


def _prepared_dataset(cfg: RunConfig) -> corpus.LabeledDataset:
    records = corpus.clean(_read_records(cfg))
    labels = corpus.label(records)
    return corpus.stratified_split(records, labels, test_fraction=float(cfg["split"]), seed=cfg.seed)


def _featurized_split(cfg: RunConfig, dataset: corpus.LabeledDataset):
    """The split's one featurizer, fitted on the training records, and its train and test matrices.

    Every pipeline and ensemble of a command shares these, so a featurizer
    failure ends the command with its error.
    """
    lexicon = KeywordLexicon.from_file(cfg["lexicon"]) if cfg["lexicon"] else None
    builder = FeatureBuilder(lexicon, TfidfConfig.from_config(cfg)).fit(dataset.train_records())
    return builder, builder.transform(dataset.train_records()), builder.transform(dataset.test_records())


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8")


def _csv_lines(header: list[str], rows) -> str:
    """RFC 4180 CSV with ``\\n`` line ends; a cell holding a comma or a quote is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_table(out: Path, stem: str, table: evaluation.BenchmarkTable) -> None:
    _write(out / f"{stem}.txt", table.render_text())
    _write(out / f"{stem}.csv", table.render_csv())
    _write(out / f"{stem}.md", table.render_markdown())


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(cfg: RunConfig, fmt: str = "csv") -> int:
    raw = _read_records(cfg)
    cleaned = corpus.clean(raw)
    out = _out_dir(cfg)
    target = out / ("clean.csv" if fmt == "csv" else "clean.jsonl")
    if fmt == "csv":
        corpus.write_records_csv(cleaned, target)
    else:
        corpus.write_records_jsonl(cleaned, target)
    pos_rate = float(np.mean(corpus.label(cleaned))) if cleaned else 0.0
    print(f"raw rows: {len(raw)}")
    print(f"cleaned rows: {len(cleaned)}")
    print(f"positive rate (cvss >= 7.0): {pos_rate:.4f}")
    print(f"wrote {target}")
    return 0


def cmd_benchmark_features(cfg: RunConfig) -> int:
    dataset = _prepared_dataset(cfg)
    builder, train_X, test_X = _featurized_split(cfg, dataset)
    out = _out_dir(cfg)
    pipes = feature_benchmark_pipelines(config=cfg)
    table = evaluation.benchmark(pipes, dataset, train_X, test_X)
    # names may sharpen after fit (effective component counts)
    table = evaluation.BenchmarkTable(
        tuple(dataclasses.replace(row, name=p.describe()) for (_, p), row in zip(pipes, table.rows)),
        table.support,
    )
    _write_table(out, "features_table", table)
    if all(row.report is None for row in table.rows):
        return _fail("every feature pipeline failed; see features_table.txt")
    for (_, pipe), row in zip(pipes, table.rows):
        if row.report is not None:
            _write(out / f"report_{pipe.mode}.txt", row.report.render() + "\n")

    train_records = dataset.train_records()
    counts = keyword_frequencies([r.description for r in train_records], builder.lexicon, top_k=10)
    _write(out / "keyword_counts.csv", _csv_lines(["phrase", "count"], counts))

    # supporting artifacts, each skipped when its pipeline did not fit
    by_mode = {getattr(p, "mode", None): p for _, p in pipes}
    for mode, stem in (("chi2", "top_terms_chi2"), ("mi", "top_terms_mi")):
        scores = getattr(by_mode.get(mode), "scores", None)
        if scores is not None:
            top = selection.top_scored_terms(scores, n=20)
            _write(out / f"{stem}.csv", _csv_lines(["term", "score"], [(t, f"{s:.6f}") for t, s in top]))

    svd_pipe = by_mode.get("svd")
    if getattr(svd_pipe, "svd", None) is not None:
        vocab = builder.tfidf_model.terms
        term_rows = []
        for ci, terms in enumerate(reduction.top_terms_per_component(svd_pipe.svd, vocab, components=10, terms=10)):
            for rank, (term, loading) in enumerate(terms):
                term_rows.append((ci, rank, term, f"{loading:.6f}"))
        _write(out / "svd_top_terms.csv", _csv_lines(["component", "rank", "term", "loading"], term_rows))
        curve = reduction.explained_variance_curve(svd_pipe.svd)
        _write(
            out / "explained_variance.csv",
            _csv_lines(["components", "cumulative_ratio"], [(i + 1, f"{v:.8f}") for i, v in enumerate(curve)]),
        )

    pca_pipe = by_mode.get("pca")
    if getattr(pca_pipe, "model", None) is not None:
        scatter = _pca_scatter_points(pca_pipe, test_X, dataset.test_labels())
        _write(out / "pca_scatter.csv", _csv_lines(["pc1", "pc2", "label"], scatter))

    print(table.render_text())
    return 0


def _pca_scatter_points(pca_pipe, test_X, ys):
    """First two principal coordinates of the test rows, with true labels."""
    dense = pca_pipe._reduced_assembly(test_X, fit=False).to_dense()
    proj = reduction.project_pca(pca_pipe.projector, dense)
    second = proj[:, 1] if proj.shape[1] > 1 else np.zeros(len(proj))
    return [(f"{proj[i, 0]:.6f}", f"{second[i]:.6f}", int(ys[i])) for i in range(len(proj))]


def cmd_benchmark_models(cfg: RunConfig) -> int:
    dataset = _prepared_dataset(cfg)
    builder, train_X, test_X = _featurized_split(cfg, dataset)
    out = _out_dir(cfg)
    pipes = model_benchmark_pipelines(config=cfg)
    table = evaluation.benchmark(pipes, dataset, train_X, test_X)
    all_failed = all(row.report is None for row in table.rows)
    rows = list(table.rows) + [evaluation.BenchmarkRow("lstm", None, note="out of scope")]
    table = evaluation.BenchmarkTable(tuple(rows), table.support)
    _write_table(out, "models_table", table)
    if all_failed:
        return _fail("every model pipeline failed; see models_table.txt")

    test_labels = dataset.test_labels()
    test_records = dataset.test_records()
    trained = dict(pipes)
    for row in table.rows:
        if row.report is None:
            continue
        cm = row.report.confusion
        _write(
            out / f"confusion_{row.name}.csv",
            _csv_lines(["", "pred_0", "pred_1"], [("true_0", cm.tn, cm.fp), ("true_1", cm.fn, cm.tp)]),
        )
        roc = evaluation.roc_auc(test_labels, row.probabilities)
        _write(
            out / f"roc_{row.name}.csv",
            _csv_lines(["fpr", "tpr"], [(f"{f:.6f}", f"{t:.6f}") for f, t in zip(roc.fpr, roc.tpr)]),
        )

    _export_activations(out, trained, test_X, test_records)

    lr_pipe = trained["logistic_regression"]
    if lr_pipe.model is not None:
        ScoringArtifact(builder, lr_pipe.model).save(out / "model_baseline_lr.json")

    print(table.render_text())
    return 0


def _export_activations(out: Path, trained: dict, test_X, test_records) -> None:
    """CSV heatmap grids from the first test record, when the nets trained."""
    if not test_records:
        return
    for name in ("ffnn", "cnn"):
        pipe = trained.get(name)
        if pipe is None or pipe.net is None:
            continue
        seqs = neural.apply_sequences(pipe.sequences, [test_records[0].description])
        sample = (seqs.ids[0], net_tabular(test_X.select_rows([0]))[0])
        dense64 = neural.activations(pipe.net, "merge_0", sample)
        _write(
            out / f"activations_{name}_merge64.csv",
            _csv_lines(["unit", "activation"], [(i, f"{v:.6f}") for i, v in enumerate(dense64)]),
        )
        if name == "cnn":
            maps = neural.activations(pipe.net, "conv_maps", sample)[:8]
            rows = []
            for fi, fmap in enumerate(maps):
                for pos, v in enumerate(fmap):
                    rows.append((fi, pos, f"{v:.6f}"))
            _write(out / "activations_cnn_filters.csv", _csv_lines(["filter", "position", "activation"], rows))


def cmd_ensembles(cfg: RunConfig) -> int:
    dataset = _prepared_dataset(cfg)
    _, train_X, test_X = _featurized_split(cfg, dataset)
    out = _out_dir(cfg)
    y_train = dataset.train_labels()
    y_test = dataset.test_labels()
    ens_cfg = cfg["ensemble"]
    specs = [
        ensembles.EnsembleSpec(
            strategy,
            seed=cfg.seed,
            members=ens_cfg["members"],
            sample_fraction=ens_cfg["sample_fraction"],
            with_replacement=ens_cfg["with_replacement"],
            c_values=tuple(ens_cfg["instance_c"]),
            folds=ens_cfg["folds"],
            knn_k=cfg["knn"]["k"],
            n_trees=cfg["forest"]["n_trees"],
        )
        for strategy in ensembles.STRATEGIES
    ]

    sections = []
    for spec in specs:
        strategy = spec.strategy
        result = spec.run(train_X, y_train, test_X)
        rep = evaluation.report(y_test, result.labels, result.probabilities)
        lines = [f"== {strategy} =="]
        if strategy == "bootstrap":
            lines.append(f"members: {spec.members} logistic regressions, each on {spec.sample_fraction:.0%} resamples")
        if strategy == "instance":
            lines.append("C values: " + ", ".join(f"{c:g}" for c in spec.c_values))
        lines.append(rep.render())
        sections.append("\n".join(lines))

        member_names = sorted(result.member_probabilities)
        rows = []
        for i in range(len(y_test)):
            rows.append(
                [f"{result.probabilities[i]:.6f}"] + [f"{result.member_probabilities[m][i]:.6f}" for m in member_names]
            )
        _write(out / f"ensemble_{strategy}_probs.csv", _csv_lines(["combined"] + member_names, rows))

    report_text = "\n\n".join(sections) + "\n"
    _write(out / "ensembles_report.txt", report_text)
    print(report_text)
    return 0


def cmd_predict(cfg: RunConfig, model_path: str, input_path: str) -> int:
    artifact = ScoringArtifact.load(model_path)
    with open(input_path, "rb") as fh:
        records = corpus.parse_csv(fh, cfg["schema"], require_cvss=False)
    out = _out_dir(cfg)
    target = out / "predictions.csv"
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(corpus.FIELDS) + ["probability", "label"])
        if records:
            probs, labels = artifact.predict(records)
            for r, p, lab in zip(records, probs, labels):
                d = r.to_dict()
                writer.writerow([d[f] if d[f] is not None else "" for f in corpus.FIELDS] + [f"{p:.6f}", int(lab)])
    print(f"wrote {target} ({len(records)} rows)")
    return 0


_PLOT_KINDS = ("keywords", "variance", "pca_scatter", "chi2_terms", "mi_terms", "roc", "activations")


def cmd_plot(cfg: RunConfig, which: str, model_name: str = "logistic_regression", net: str = "cnn") -> int:
    out = _out_dir(cfg)
    sources = {
        "keywords": out / "keyword_counts.csv",
        "variance": out / "explained_variance.csv",
        "pca_scatter": out / "pca_scatter.csv",
        "chi2_terms": out / "top_terms_chi2.csv",
        "mi_terms": out / "top_terms_mi.csv",
        "roc": out / f"roc_{model_name}.csv",
        "activations": out / ("activations_cnn_filters.csv" if net == "cnn" else "activations_ffnn_merge64.csv"),
    }
    source = sources[which]
    if not source.exists():
        raise TriageError(f"missing prerequisite artifact: {source} (run the producing command first)")
    with open(source, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]

    if which == "keywords":
        svg = plots.bar_chart([r[0] for r in rows][:10], [float(r[1]) for r in rows][:10], "most frequent keywords")
    elif which in ("chi2_terms", "mi_terms"):
        svg = plots.bar_chart([r[0] for r in rows], [float(r[1]) for r in rows], f"top terms by {which.split('_')[0]} score")
    elif which == "variance":
        svg = plots.line_chart(
            [float(r[0]) for r in rows],
            [float(r[1]) for r in rows],
            "cumulative explained variance",
            "components",
            "cumulative ratio",
        )
    elif which == "roc":
        svg = plots.line_chart(
            [float(r[0]) for r in rows], [float(r[1]) for r in rows], f"ROC: {model_name}", "false positive rate", "true positive rate"
        )
    elif which == "pca_scatter":
        svg = plots.scatter_chart(
            [float(r[0]) for r in rows],
            [float(r[1]) for r in rows],
            [int(r[2]) for r in rows],
            "test rows in the first two principal coordinates",
            "pc1",
            "pc2",
        )
    else:  # activations
        if net == "cnn":
            grid: dict[int, dict[int, float]] = {}
            for r in rows:
                grid.setdefault(int(r[0]), {})[int(r[1])] = float(r[2])
            matrix = [[grid[f][p] for p in sorted(grid[f])] for f in sorted(grid)]
            svg = plots.heatmap_chart(matrix, "convolution feature maps (first 8 filters)", "filter", "position")
        else:
            matrix = [[float(r[1]) for r in rows]]
            svg = plots.heatmap_chart(matrix, "merge-layer activations (64 units)", "sample", "unit")

    target = out / f"plot_{which}.svg"
    _write(target, svg)
    print(f"wrote {target}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--data", help="dataset CSV path (overrides config)")
    p.add_argument("--out", help=f"output directory (overrides config and ${OUT_ENV_VAR})")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--split", type=float, help="test fraction (overrides config)")
    p.add_argument("--lexicon", help="keyword lexicon file, one phrase per line")
    p.add_argument("--tfidf-max-features", type=int, dest="tfidf_max_features")
    p.add_argument("--svd-k", type=int, dest="svd_k")
    p.add_argument("--select-k", type=int, dest="select_k")
    p.add_argument("--pca-k", type=int, dest="pca_k")
    p.add_argument("--epochs", type=int)
    p.add_argument("--n-trees", type=int, dest="n_trees")


def _config_from_args(args) -> RunConfig:
    overrides: dict = {}
    for key in ("data", "out", "seed", "split", "lexicon"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "tfidf_max_features", None) is not None:
        overrides["tfidf"] = {"max_features": args.tfidf_max_features}
    if getattr(args, "svd_k", None) is not None:
        overrides["svd"] = {"k": args.svd_k}
    if getattr(args, "select_k", None) is not None:
        overrides["select"] = {"k": args.select_k}
    if getattr(args, "pca_k", None) is not None:
        overrides["pca"] = {"k": args.pca_k}
    if getattr(args, "epochs", None) is not None:
        overrides["net"] = {"epochs": args.epochs}
    if getattr(args, "n_trees", None) is not None:
        overrides["forest"] = {"n_trees": args.n_trees}
    return load_config(getattr(args, "config", None), overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sevtriage", description="Severity triage pipeline for disclosure feeds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, clean, and export the dataset")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    for name, help_text in (
        ("benchmark-features", "compare the six feature-engineering pipelines"),
        ("benchmark-models", "compare classical and neural classifiers"),
        ("ensembles", "run the five ensemble strategies"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("predict", help="score new records with a saved model artifact")
    _add_common(p)
    p.add_argument("--model", required=True, help="model artifact JSON (from benchmark-models)")
    p.add_argument("--input", required=True, help="CSV of records to score")

    p = sub.add_parser("plot", help="render an SVG from a previously written CSV")
    _add_common(p)
    p.add_argument("--which", choices=_PLOT_KINDS, required=True)
    p.add_argument("--model-name", default="logistic_regression", help="model whose ROC to plot")
    p.add_argument("--net", choices=("ffnn", "cnn"), default="cnn", help="net whose activations to plot")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "ingest":
            return cmd_ingest(cfg, fmt=args.format)
        if args.command == "benchmark-features":
            return cmd_benchmark_features(cfg)
        if args.command == "benchmark-models":
            return cmd_benchmark_models(cfg)
        if args.command == "ensembles":
            return cmd_ensembles(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.model, args.input)
        if args.command == "plot":
            return cmd_plot(cfg, args.which, model_name=args.model_name, net=args.net)
        return _fail(f"unknown command {args.command!r}")
    except TriageError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
