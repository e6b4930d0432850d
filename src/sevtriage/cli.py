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
from .config import OUT_ENV_VAR, load_config
from .errors import TriageError
from .features import KeywordLexicon, keyword_frequencies
from .pipelines import (
    FeatureBuilder,
    ScoringArtifact,
    feature_benchmark_pipelines,
    model_benchmark_pipelines,
    net_tabular,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_records(cfg: dict):
    data = cfg["data"]
    if not data:
        raise TriageError("no dataset configured; pass --data or set 'data' in the config")
    path = Path(data)
    if not path.exists():
        raise TriageError(f"dataset file not found: {path}")
    with open(path, "rb") as fh:
        return corpus.parse_csv(fh, cfg["schema"])


def _prepared_dataset(cfg: dict) -> corpus.LabeledDataset:
    records = corpus.clean(_read_records(cfg))
    labels = corpus.label(records)
    return corpus.stratified_split(records, labels, test_fraction=float(cfg["split"]), seed=int(cfg["seed"]))


def _featurized_split(cfg: dict, dataset: corpus.LabeledDataset):
    """The split's one featurizer, fitted on the training records, and its train and test matrices.

    Every pipeline and ensemble of a command shares these, so a featurizer
    failure ends the command with its error.
    """
    lexicon = KeywordLexicon.from_file(cfg["lexicon"]) if cfg["lexicon"] else None
    builder = FeatureBuilder(lexicon, cfg["tfidf"]).fit(dataset.train_records())
    return builder, builder.transform(dataset.train_records()), builder.transform(dataset.test_records())


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
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


def cmd_ingest(cfg: dict, fmt: str = "csv") -> int:
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


def cmd_benchmark_features(cfg: dict) -> int:
    dataset = _prepared_dataset(cfg)
    builder, train_X, test_X = _featurized_split(cfg, dataset)
    out = _out_dir(cfg)
    pipes = feature_benchmark_pipelines(config=cfg)
    table = evaluation.benchmark(pipes, dataset, train_X, test_X)
    # names may sharpen after fit (effective component counts)
    table = evaluation.BenchmarkTable(
        tuple(dataclasses.replace(row, name=(row.head or p).describe()) for (_, p), row in zip(pipes, table.rows)),
        table.support,
    )
    _write_table(out, "features_table", table)
    if all(row.report is None for row in table.rows):
        return _fail("every feature pipeline failed; see features_table.txt")
    fitted = {}  # mode -> fitted head, for the pipelines that fitted and scored
    for row in table.rows:
        if row.head is not None:
            fitted[row.head.mode] = row.head
            _write(out / f"report_{row.head.mode}.txt", row.report.render() + "\n")

    counts = keyword_frequencies(train_X, builder.lexicon, top_k=10)
    _write(out / "keyword_counts.csv", _csv_lines(["phrase", "count"], counts))

    # supporting artifacts, each skipped when its pipeline did not fit and score
    for mode, stem in (("chi2", "top_terms_chi2"), ("mi", "top_terms_mi")):
        if mode in fitted:
            top = selection.top_scored_terms(fitted[mode].scores, n=20)
            _write(out / f"{stem}.csv", _csv_lines(["term", "score"], [(t, f"{s:.6f}") for t, s in top]))

    if "svd" in fitted:
        svd = fitted["svd"].svd
        vocab = builder.tfidf_model.names
        term_rows = []
        for ci, terms in enumerate(reduction.top_terms_per_component(svd, vocab, components=10, terms=10)):
            for rank, (term, loading) in enumerate(terms):
                term_rows.append((ci, rank, term, f"{loading:.6f}"))
        _write(out / "svd_top_terms.csv", _csv_lines(["component", "rank", "term", "loading"], term_rows))
        curve = reduction.explained_variance_curve(svd)
        _write(
            out / "explained_variance.csv",
            _csv_lines(["components", "cumulative_ratio"], [(i + 1, f"{v:.8f}") for i, v in enumerate(curve)]),
        )

    if "pca" in fitted:
        scatter = _pca_scatter_points(fitted["pca"], test_X, dataset.test_labels())
        _write(out / "pca_scatter.csv", _csv_lines(["pc1", "pc2", "label"], scatter))

    print(table.render_text())
    return 0


def _pca_scatter_points(pca_pipe, test_X, ys):
    """First two principal coordinates of the test rows, with true labels."""
    proj = pca_pipe.transform(test_X).toarray()
    second = proj[:, 1] if proj.shape[1] > 1 else np.zeros(len(proj))
    return [(f"{proj[i, 0]:.6f}", f"{second[i]:.6f}", int(ys[i])) for i in range(len(proj))]


def cmd_benchmark_models(cfg: dict) -> int:
    dataset = _prepared_dataset(cfg)
    builder, train_X, test_X = _featurized_split(cfg, dataset)
    out = _out_dir(cfg)
    pipes = model_benchmark_pipelines(config=cfg)
    table = evaluation.benchmark(pipes, dataset, train_X, test_X)
    all_failed = all(row.report is None for row in table.rows)
    rows = list(table.rows) + [evaluation.BenchmarkRow("lstm", None, status="out of scope")]
    table = evaluation.BenchmarkTable(tuple(rows), table.support)
    _write_table(out, "models_table", table)
    if all_failed:
        return _fail("every model pipeline failed; see models_table.txt")

    test_records = dataset.test_records()
    trained = {row.name: row.head for row in table.rows if row.head is not None}
    for row in table.rows:
        if row.report is None:
            continue
        cm = row.report.confusion
        _write(
            out / f"confusion_{row.name}.csv",
            _csv_lines(["", "pred_0", "pred_1"], [("true_0", cm.tn, cm.fp), ("true_1", cm.fn, cm.tp)]),
        )
        roc = row.report.roc
        _write(
            out / f"roc_{row.name}.csv",
            _csv_lines(["fpr", "tpr"], [(f"{f:.6f}", f"{t:.6f}") for f, t in zip(roc.fpr, roc.tpr)]),
        )

    _export_activations(out, trained, test_X, test_records)

    if "logistic_regression" in trained:
        ScoringArtifact(builder, trained["logistic_regression"].model).save(out / "model_baseline_lr.json")

    print(table.render_text())
    return 0


def _export_activations(out: Path, trained: dict, test_X, test_records) -> None:
    """CSV heatmap grids from the first test record, from the nets that trained and scored."""
    if not test_records:
        return
    for name in ("ffnn", "cnn"):
        pipe = trained.get(name)
        if pipe is None:
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


def cmd_ensembles(cfg: dict) -> int:
    dataset = _prepared_dataset(cfg)
    _, train_X, test_X = _featurized_split(cfg, dataset)
    out = _out_dir(cfg)
    y_train = dataset.train_labels()
    y_test = dataset.test_labels()
    ens_cfg = cfg["ensemble"]
    sections = []
    for strategy, result in ensembles.run(train_X, y_train, test_X, cfg).items():
        rep = evaluation.report(y_test, result.labels, result.probabilities)
        lines = [f"== {strategy} =="]
        if strategy == "bootstrap":
            lines.append(f"members: {ens_cfg['members']} logistic regressions, each on {ens_cfg['sample_fraction']:.0%} resamples")
        if strategy == "instance":
            lines.append("C values: " + ", ".join(f"{c:g}" for c in ens_cfg["instance_c"]))
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


def cmd_predict(cfg: dict, model_path: str, input_path: str) -> int:
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


def _activations_chart(rows, net: str) -> str:
    if net == "ffnn":
        return plots.heatmap_chart([[float(r[1]) for r in rows]], "merge-layer activations (64 units)", "sample", "unit")
    grid: dict[int, dict[int, float]] = {}
    for r in rows:
        grid.setdefault(int(r[0]), {})[int(r[1])] = float(r[2])
    matrix = [[grid[f][p] for p in sorted(grid[f])] for f in sorted(grid)]
    return plots.heatmap_chart(matrix, "convolution feature maps (first 8 filters)", "filter", "position")


def _plot_kinds(model_name: str, net: str) -> dict:
    """Each plot kind's source CSV, the SVG it writes, and its chart of the CSV's data rows."""

    def xy(rows):
        return [float(r[0]) for r in rows], [float(r[1]) for r in rows]

    def bars(title: str, top: int | None = None):
        return lambda rows: plots.bar_chart([r[0] for r in rows[:top]], [float(r[1]) for r in rows[:top]], title)

    def line(title: str, xlabel: str, ylabel: str):
        return lambda rows: plots.line_chart(*xy(rows), title, xlabel, ylabel)

    def scatter(rows):
        title = "test rows in the first two principal coordinates"
        return plots.scatter_chart(*xy(rows), [int(r[2]) for r in rows], title, "pc1", "pc2")

    activations_csv = "activations_cnn_filters.csv" if net == "cnn" else "activations_ffnn_merge64.csv"
    return {
        "keywords": ("keyword_counts.csv", "plot_keywords.svg", bars("most frequent keywords", 10)),
        "variance": (
            "explained_variance.csv",
            "plot_variance.svg",
            line("cumulative explained variance", "components", "cumulative ratio"),
        ),
        "pca_scatter": ("pca_scatter.csv", "plot_pca_scatter.svg", scatter),
        "chi2_terms": ("top_terms_chi2.csv", "plot_chi2_terms.svg", bars("top terms by chi2 score")),
        "mi_terms": ("top_terms_mi.csv", "plot_mi_terms.svg", bars("top terms by mi score")),
        "roc": (
            f"roc_{model_name}.csv",
            f"plot_roc_{model_name}.svg",
            line(f"ROC: {model_name}", "false positive rate", "true positive rate"),
        ),
        "activations": (activations_csv, f"plot_activations_{net}.svg", lambda rows: _activations_chart(rows, net)),
    }


_PLOT_KINDS = tuple(_plot_kinds(model_name="", net="cnn"))


def cmd_plot(cfg: dict, which: str, model_name: str = "logistic_regression", net: str = "cnn") -> int:
    out = _out_dir(cfg)
    source_name, target_name, chart = _plot_kinds(model_name, net)[which]
    source = out / source_name
    if not source.exists():
        raise TriageError(f"missing prerequisite artifact: {source} (run the producing command first)")
    with open(source, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    target = out / target_name
    _write(target, chart(rows))
    print(f"wrote {target}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


# Each override flag: its type, the config key it sets, and its help.
_OVERRIDE_FLAGS = (
    ("--data", str, "data", "dataset CSV path (overrides config)"),
    ("--out", str, "out", f"output directory (overrides config and ${OUT_ENV_VAR})"),
    ("--seed", int, "seed", "master seed (overrides config)"),
    ("--split", float, "split", "test fraction (overrides config)"),
    ("--lexicon", str, "lexicon", "keyword lexicon file, one phrase per line"),
    ("--tfidf-max-features", int, "tfidf.max_features", None),
    ("--svd-k", int, "svd.k", None),
    ("--select-k", int, "select.k", None),
    ("--pca-k", int, "pca.k", None),
    ("--epochs", int, "net.epochs", None),
    ("--n-trees", int, "forest.n_trees", None),
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a JSON config file")
    for flag, kind, _, help_text in _OVERRIDE_FLAGS:
        p.add_argument(flag, type=kind, help=help_text)


def _config_from_args(args) -> dict:
    overrides: dict = {}
    for flag, _, key, _ in _OVERRIDE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section, _, name = key.rpartition(".")
            (overrides.setdefault(section, {}) if section else overrides)[name] = value
    return load_config(args.config, overrides)


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
