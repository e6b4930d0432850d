"""Command-line surface: artifacts, exit codes, determinism."""

import csv
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage.cli import main
from tests.conftest import write_synthetic_csv


def csv_rows(path, encoding=None) -> list[list[str]]:
    """Every row of the CSV file at ``path``, the file closed once read."""
    with open(path, newline="", encoding=encoding) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, synthetic_csv):
    """One shared output tree: the heavier commands run once per module."""
    out = tmp_path_factory.mktemp("cli_out")
    fast = [
        "--data", str(synthetic_csv), "--out", str(out), "--seed", "42",
        "--n-trees", "20", "--epochs", "4",
    ]
    assert main(["benchmark-features", *fast]) == 0
    assert main(["benchmark-models", *fast]) == 0
    return out, synthetic_csv, fast


class TestIngest:
    def test_summary_counts(self, synthetic_csv, tmp_path, capsys):
        assert main(["ingest", "--data", str(synthetic_csv), "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr().out
        assert "raw rows: 120" in captured
        assert "cleaned rows: 115" in captured  # 3 missing cvss + 2 duplicate ids
        assert "positive rate" in captured
        assert (tmp_path / "clean.csv").exists()

    def test_header_only_file_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("zdi_id,cve_id,cvss,published,vendor,description\n")
        assert main(["ingest", "--data", str(src), "--out", str(tmp_path)]) == 0
        assert "raw rows: 0" in capsys.readouterr().out

    def test_missing_file_exits_nonzero_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["ingest", "--data", str(missing), "--out", str(tmp_path)]) != 0
        assert str(missing) in capsys.readouterr().err

    def test_invalid_utf8_exits_nonzero_naming_the_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"zdi_id,cve_id,cvss,published,vendor,description\nZ-1,,5.0,2024-01-01,V,caf\xff\n")
        assert main(["ingest", "--data", str(src), "--out", str(tmp_path)]) != 0
        assert "line 2" in capsys.readouterr().err

    def test_jsonl_format(self, synthetic_csv, tmp_path):
        assert main(["ingest", "--data", str(synthetic_csv), "--out", str(tmp_path), "--format", "jsonl"]) == 0
        lines = (tmp_path / "clean.jsonl").read_text().splitlines()
        assert len(lines) == 115
        json.loads(lines[0])


class TestBenchmarkFeatures:
    def test_six_rows_with_stated_parameters(self, workdir):
        out, _, _ = workdir
        table = (out / "features_table.txt").read_text()
        for needle in ("tfidf_baseline", "tfidf_svd(k=", "tfidf_chi2(k=300)", "tfidf_mi(k=300)", "pca(k=", "lda"):
            assert needle in table
        csv_rows = (out / "features_table.csv").read_text().splitlines()
        assert len(csv_rows) == 1 + 6

    def test_supporting_artifacts_written(self, workdir):
        out, _, _ = workdir
        for name in (
            "keyword_counts.csv",
            "top_terms_chi2.csv",
            "top_terms_mi.csv",
            "svd_top_terms.csv",
            "explained_variance.csv",
            "pca_scatter.csv",
        ):
            assert (out / name).exists(), name

    def test_explained_variance_monotone(self, workdir):
        out, _, _ = workdir
        rows = csv_rows(out / "explained_variance.csv")[1:]
        values = [float(r[1]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0 + 1e-8

    def test_top_term_files_have_at_most_twenty(self, workdir):
        out, _, _ = workdir
        for name in ("top_terms_chi2.csv", "top_terms_mi.csv"):
            rows = csv_rows(out / name)[1:]
            assert 1 <= len(rows) <= 20

    def test_pca_scatter_one_point_per_test_row(self, workdir, synthetic_dataset):
        out, _, _ = workdir
        rows = csv_rows(out / "pca_scatter.csv")[1:]
        assert len(rows) == len(synthetic_dataset.test_idx)
        assert set(r[2] for r in rows) <= {"0", "1"}


class TestBenchmarkModels:
    def test_table_rows_and_support(self, workdir, synthetic_dataset):
        out, _, _ = workdir
        table = (out / "models_table.txt").read_text()
        assert f"support: {len(synthetic_dataset.test_idx)}" in table
        for name in ("logistic_regression", "random_forest", "decision_tree", "knn", "ffnn", "cnn"):
            assert name in table

    def test_lstm_marked_out_of_scope(self, workdir):
        out, _, _ = workdir
        assert "out of scope" in (out / "models_table.txt").read_text()
        md = (out / "models_table.md").read_text()
        assert "lstm" in md

    def test_confusion_and_roc_files(self, workdir):
        out, _, _ = workdir
        for model in ("logistic_regression", "decision_tree", "knn"):
            cm = csv_rows(out / f"confusion_{model}.csv")
            assert cm[0] == ["", "pred_0", "pred_1"]
            roc = csv_rows(out / f"roc_{model}.csv")[1:]
            assert roc[0] == ["0.000000", "0.000000"]
            assert roc[-1] == ["1.000000", "1.000000"]

    def test_activation_grids(self, workdir):
        out, _, _ = workdir
        merge = csv_rows(out / "activations_ffnn_merge64.csv")[1:]
        assert len(merge) == 64
        filters = csv_rows(out / "activations_cnn_filters.csv")[1:]
        assert {r[0] for r in filters} == {str(i) for i in range(8)}

    def test_model_artifact_written(self, workdir):
        out, _, _ = workdir
        payload = json.loads((out / "model_baseline_lr.json").read_text())
        assert payload["model_kind"] == "LogRegModel"


@pytest.fixture(scope="module")
def ens_out(tmp_path_factory, synthetic_csv):
    out = tmp_path_factory.mktemp("ens_out")
    rc = main(["ensembles", "--data", str(synthetic_csv), "--out", str(out), "--seed", "42", "--n-trees", "20"])
    assert rc == 0
    return out


class TestEnsemblesCommand:
    def test_five_sections(self, ens_out):
        text = (ens_out / "ensembles_report.txt").read_text()
        assert text.count("== ") == 5
        for strategy in ("feature_split", "bootstrap", "heterogeneous", "instance", "stacking"):
            assert f"== {strategy} ==" in text

    def test_instance_section_lists_c_values(self, ens_out):
        text = (ens_out / "ensembles_report.txt").read_text()
        assert "C values: 0.5, 1, 2" in text

    def test_bootstrap_section_lists_members_and_fraction(self, ens_out):
        text = (ens_out / "ensembles_report.txt").read_text()
        assert "5 logistic regressions" in text
        assert "80% resamples" in text

    def test_probability_csvs_have_member_columns(self, ens_out, synthetic_dataset):
        rows = csv_rows(ens_out / "ensemble_bootstrap_probs.csv")
        assert rows[0][0] == "combined"
        assert len(rows[0]) == 6  # combined + 5 members
        assert len(rows) - 1 == len(synthetic_dataset.test_idx)

    def test_config_tree_sets_members_and_c_values(self, ens_out, tmp_path, synthetic_csv):
        cfg = tmp_path / "ens.json"
        cfg.write_text(json.dumps({"ensemble": {"members": 3, "instance_c": [0.25, 4.0]}}))
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--data", str(synthetic_csv), "--out", str(out), "--seed", "42", "--n-trees", "20"]
        assert main(["ensembles", *args]) == 0
        text = (out / "ensembles_report.txt").read_text()
        assert text != (ens_out / "ensembles_report.txt").read_text()
        assert "members: 3 logistic regressions" in text
        assert "C values: 0.25, 4" in text
        assert len(csv_rows(out / "ensemble_bootstrap_probs.csv")[0]) == 4  # combined + 3 members
        assert csv_rows(out / "ensemble_instance_probs.csv")[0][1:] == ["C=0.25", "C=4"]

    @pytest.mark.parametrize(
        "section,changed",
        [
            ({"logreg": {"max_iter": 2}}, "ensemble_feature_split_probs.csv"),
            ({"forest": {"features_per_split": 0.5}}, "ensemble_heterogeneous_probs.csv"),
        ],
    )
    def test_members_read_the_model_config_sections(self, ens_out, tmp_path, synthetic_csv, section, changed):
        cfg = tmp_path / "models.json"
        cfg.write_text(json.dumps(section))
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--data", str(synthetic_csv), "--out", str(out), "--seed", "42", "--n-trees", "20"]
        assert main(["ensembles", *args]) == 0
        assert (out / changed).read_bytes() != (ens_out / changed).read_bytes()


class TestPredict:
    def test_scores_and_thresholds(self, workdir, tmp_path):
        out, data, _ = workdir
        rc = main(["predict", "--model", str(out / "model_baseline_lr.json"), "--input", str(data), "--out", str(tmp_path)])
        assert rc == 0
        rows = csv_rows(tmp_path / "predictions.csv")
        assert rows[0][-2:] == ["probability", "label"]
        for row in rows[1:]:
            p, label = float(row[-2]), int(row[-1])
            assert label == (1 if p >= 0.5 else 0)

    def test_unseen_vendor_scored_without_error(self, workdir, tmp_path):
        out, _, _ = workdir
        src = tmp_path / "new.csv"
        src.write_text(
            "zdi_id,cve_id,cvss,published,vendor,description\n"
            "X-1,CVE-2024-99999,,2024-05-01,BrandNewVendor,remote code execution via buffer overflow\n"
        )
        rc = main(["predict", "--model", str(out / "model_baseline_lr.json"), "--input", str(src), "--out", str(tmp_path)])
        assert rc == 0
        rows = csv_rows(tmp_path / "predictions.csv")
        assert len(rows) == 2

    def test_empty_input_empty_output_with_header(self, workdir, tmp_path):
        out, _, _ = workdir
        src = tmp_path / "empty.csv"
        src.write_text("zdi_id,cve_id,cvss,published,vendor,description\n")
        rc = main(["predict", "--model", str(out / "model_baseline_lr.json"), "--input", str(src), "--out", str(tmp_path)])
        assert rc == 0
        rows = csv_rows(tmp_path / "predictions.csv")
        assert len(rows) == 1

    def test_input_without_cvss_column_is_scored(self, workdir, tmp_path):
        out, _, _ = workdir
        src = tmp_path / "unscored.csv"
        src.write_text(
            "zdi_id,cve_id,published,vendor,description\n"
            "X-1,CVE-2024-99999,2024-05-01,Adobe,remote code execution via buffer overflow\n"
        )
        rc = main(["predict", "--model", str(out / "model_baseline_lr.json"), "--input", str(src), "--out", str(tmp_path)])
        assert rc == 0
        rows = csv_rows(tmp_path / "predictions.csv")
        assert len(rows) == 2
        assert rows[1][rows[0].index("cvss")] == ""

    @pytest.mark.parametrize("command", ["ingest", "benchmark-features", "benchmark-models", "ensembles"])
    def test_training_commands_still_require_cvss_column(self, command, tmp_path, capsys):
        src = tmp_path / "unscored.csv"
        src.write_text("zdi_id,cve_id,published,vendor,description\nX-1,,2024-05-01,Adobe,overflow\n")
        assert main([command, "--data", str(src), "--out", str(tmp_path)]) != 0
        assert "column 'cvss' (for field 'cvss') not in header" in capsys.readouterr().err

    def test_missing_artifact_exits_nonzero(self, tmp_path, capsys):
        rc = main(["predict", "--model", str(tmp_path / "none.json"), "--input", str(tmp_path / "x.csv"), "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"not json at all\n", "not valid JSON"),
            (b'{"builder": {}}', "missing or malformed entry"),
            (b'{"model_kind": "\xff"}', "not valid UTF-8"),
            (b'["LogRegModel"]', "must contain a JSON object"),
            (b'{"model_kind": ' + b"1" * 5000 + b"}", "not valid JSON"),
            (b'{"model_kind": "TreeModel", "builder": {}, "model": {"nodes": []}}', "unsupported model kind 'TreeModel'"),
            # the rest edit one entry of the artifact benchmark-models wrote
            (lambda p: p["builder"]["tfidf_config"].update(ngram_range=[1]), "entry 'ngram_range' must be two integers"),
            (lambda p: p["model"].update(weights=["a"]), "entry 'weights' must be a list of finite numbers"),
            (lambda p: p["model"].update(bias="x"), "entry 'bias' must be a finite number"),
            (lambda p: p["builder"]["tfidf_model"]["idf"].pop(), "idf length must match vocabulary size"),
            (lambda p: p["builder"].update(lexicon=[]), "lexicon must not be empty"),
            (lambda p: p["builder"].update(lexicon=[5]), "entry 'lexicon' must be a list of strings"),
            (
                lambda p: p["builder"]["tfidf_model"]["vocabulary"].update({"zz": 10**6}),
                "entry 'vocabulary' must be an object mapping each term to its column",
            ),
            (lambda p: p["model"].update(weights=p["model"]["weights"][:-3]), "columns but its LogRegModel expects"),
            # one value of the wrong type for each entry without a case above
            (lambda p: p["builder"]["tfidf_config"].update(ngram_range="1-2"), "entry 'ngram_range' must be two integers"),
            (lambda p: p["builder"]["tfidf_config"].update(max_features="x"), "entry 'max_features' must be an integer"),
            (lambda p: p["builder"]["tfidf_model"].update(vocabulary=["a"]), "entry 'vocabulary' must be an object"),
            (lambda p: p["builder"]["tfidf_model"].update(idf={}), "entry 'idf' must be a list of finite numbers"),
            (lambda p: p["builder"]["vendor_encoder"].update(categories="V"), "entry 'categories' must be a list of strings"),
            (lambda p: p["model"].update(C=[1.0]), "entry 'C' must be a finite number"),
            (lambda p: p["model"].update(n_iter=2.5), "entry 'n_iter' must be an integer"),
            # numbers a float64 does not hold finitely
            (lambda p: p["model"].update(bias=float("nan")), "entry 'bias' must be a finite number"),
            (lambda p: p["model"].update(C=float("inf")), "entry 'C' must be a finite number"),
            (lambda p: p["model"]["weights"].__setitem__(0, float("-inf")), "entry 'weights' must be a list of finite numbers"),
            (lambda p: p["model"].update(bias=10**400), "entry 'bias' must be a finite number"),
            (lambda p: p["builder"]["tfidf_model"]["idf"].__setitem__(0, -(10**400)), "entry 'idf' must be a list of finite"),
        ],
        ids=[
            "not_json", "missing_keys", "not_utf8", "not_an_object", "integer_too_long", "tree_kind", "ngram_range_one_entry", "weights_not_numbers",
            "bias_not_a_number", "idf_one_short", "lexicon_empty", "lexicon_not_strings", "vocabulary_column_out_of_range",
            "weights_three_short", "ngram_range_string", "max_features_string", "vocabulary_list", "idf_object",
            "categories_string", "C_list", "n_iter_fraction", "bias_nan", "C_infinity", "weights_minus_infinity",
            "bias_beyond_float", "idf_beyond_float",
        ],
    )
    def test_malformed_artifact_is_a_named_error(self, workdir, tmp_path, capsys, content, named):
        out, data, _ = workdir
        model = tmp_path / "model.json"
        if callable(content):
            payload = json.loads((out / "model_baseline_lr.json").read_text(encoding="utf-8"))
            content(payload)
            content = json.dumps(payload).encode("utf-8")
        model.write_bytes(content)
        rc = main(["predict", "--model", str(model), "--input", str(data), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: model artifact {model}: ")
        assert named in err
        assert "Traceback" not in err


class TestPlot:
    @pytest.mark.parametrize("which", ["keywords", "variance", "pca_scatter", "chi2_terms", "mi_terms", "roc", "activations"])
    def test_each_plot_writes_svg_with_backing_csv(self, workdir, which):
        out, _, _ = workdir
        rc = main(["plot", "--which", which, "--out", str(out)])
        assert rc == 0
        # the default --model-name and --net name the roc and activations files
        named = {"roc": "plot_roc_logistic_regression.svg", "activations": "plot_activations_cnn.svg"}
        svg = (out / named.get(which, f"plot_{which}.svg")).read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_each_net_and_model_keeps_its_own_svg(self, workdir):
        out, _, _ = workdir
        for net in ("cnn", "ffnn"):
            assert main(["plot", "--which", "activations", "--net", net, "--out", str(out)]) == 0
        for model in ("logistic_regression", "decision_tree"):
            assert main(["plot", "--which", "roc", "--model-name", model, "--out", str(out)]) == 0
        names = ["plot_activations_cnn.svg", "plot_activations_ffnn.svg"]
        names += ["plot_roc_logistic_regression.svg", "plot_roc_decision_tree.svg"]
        svgs = [(out / name).read_text() for name in names]
        assert len(set(svgs)) == 4
        assert "ROC: decision_tree" in svgs[3] and "merge-layer activations" in svgs[1]

    def test_keywords_at_most_ten_bars(self, workdir):
        out, _, _ = workdir
        main(["plot", "--which", "keywords", "--out", str(out)])
        svg = (out / "plot_keywords.svg").read_text()
        assert svg.count("<rect ") - 1 <= 10  # minus the background rect

    def test_variance_polyline_monotone_in_y(self, workdir):
        out, _, _ = workdir
        main(["plot", "--which", "variance", "--out", str(out)])
        svg = (out / "plot_variance.svg").read_text()
        points = svg.split('points="')[1].split('"')[0].split()
        ys = [float(p.split(",")[1]) for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:]))  # svg y grows downward

    def test_missing_prerequisite_names_file(self, tmp_path, capsys):
        rc = main(["plot", "--which", "variance", "--out", str(tmp_path)])
        assert rc != 0
        assert "explained_variance.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, source, content",
        [
            (["roc", "--model-name", "knn"], "roc_knn.csv", "fpr,tpr\n0.1,abc\n"),
            (["roc", "--model-name", "knn"], "roc_knn.csv", "fpr,tpr\n"),
            (["roc", "--model-name", "knn"], "roc_knn.csv", "fpr\n0.1\n"),
            (["activations", "--net", "ffnn"], "activations_ffnn_merge64.csv", "unit,activation\n"),
            (["pca_scatter"], "pca_scatter.csv", "pc1,pc2,label\n0.1,0.2,7\n"),
        ],
        ids=["not-a-number", "header-only", "one-column", "no-units", "not-a-class"],
    )
    def test_malformed_source_is_one_error_line_and_no_svg(self, tmp_path, capsys, args, source, content):
        (tmp_path / source).write_text(content)
        assert main(["plot", "--which", *args, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed plot source {tmp_path / source}: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.svg"))

    def test_activation_titles_count_the_rows(self, tmp_path):
        (tmp_path / "activations_ffnn_merge64.csv").write_text("unit,activation\n" + "".join(f"{i},0.5\n" for i in range(16)))
        cells = "".join(f"{f},{p},0.5\n" for f in range(4) for p in range(3))
        (tmp_path / "activations_cnn_filters.csv").write_text("filter,position,activation\n" + cells)
        for net in ("ffnn", "cnn"):
            assert main(["plot", "--which", "activations", "--net", net, "--out", str(tmp_path)]) == 0
        assert "merge-layer activations (16 units)" in (tmp_path / "plot_activations_ffnn.svg").read_text()
        assert "convolution feature maps (first 4 filters)" in (tmp_path / "plot_activations_cnn.svg").read_text()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["benchmark-models", "ensembles"])
    def test_rerun_byte_identical_outputs(self, tmp_path, synthetic_csv, command):
        args = ["--data", str(synthetic_csv), "--seed", "7", "--n-trees", "10", "--epochs", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, *args, "--out", str(out_a)]) == 0
        assert main([command, *args, "--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestFailurePolicy:
    def test_all_pipelines_failing_exits_nonzero_but_writes_table(self, tmp_path, synthetic_csv, monkeypatch, capsys):
        class Exploding:
            mode = "baseline"

            def fit(self, X, records, labels):
                raise RuntimeError("boom")

            def describe(self):
                return "exploding"

        import sevtriage.cli as cli_mod

        monkeypatch.setattr(cli_mod, "feature_benchmark_pipelines", lambda **kw: [("exploding", Exploding())])
        rc = main(["benchmark-features", "--data", str(synthetic_csv), "--out", str(tmp_path)])
        assert rc != 0
        assert "error: RuntimeError: boom (test_cli.py:" in (tmp_path / "features_table.txt").read_text()

    def test_partial_failure_still_exits_zero(self, tmp_path, synthetic_csv, monkeypatch):
        import sevtriage.cli as cli_mod
        from sevtriage.config import load_config
        from sevtriage.pipelines import LrFeaturePipeline

        class Exploding:
            mode = "chi2"

            def fit(self, X, records, labels):
                raise RuntimeError("boom")

            def describe(self):
                return "exploding"

        real = LrFeaturePipeline("baseline", load_config(overrides={"seed": 0}))
        monkeypatch.setattr(
            cli_mod,
            "feature_benchmark_pipelines",
            lambda **kw: [("baseline", real), ("exploding", Exploding())],
        )
        rc = main(["benchmark-features", "--data", str(synthetic_csv), "--out", str(tmp_path)])
        assert rc == 0
        table = (tmp_path / "features_table.txt").read_text()
        assert "RuntimeError: boom" in table and "tfidf_baseline" in table


class TestOneFeaturizationPerSplit:
    @pytest.mark.parametrize("command", ["benchmark-features", "benchmark-models", "ensembles"])
    def test_one_fit_and_two_transforms(self, command, tmp_path, synthetic_csv, monkeypatch):
        from sevtriage.pipelines import FeatureBuilder

        calls = []
        for method in ("fit", "transform"):
            real = getattr(FeatureBuilder, method)

            def counted(self, records, _real=real, _method=method):
                calls.append(_method)
                return _real(self, records)

            monkeypatch.setattr(FeatureBuilder, method, counted)
        args = ["--data", str(synthetic_csv), "--out", str(tmp_path), "--n-trees", "5", "--epochs", "1"]
        assert main([command, *args]) == 0
        assert (calls.count("fit"), calls.count("transform")) == (1, 2)

    def test_featurizer_failure_ends_the_command(self, tmp_path, synthetic_csv, capsys, monkeypatch):
        from sevtriage import cli as cli_mod

        real = cli_mod.load_config

        def past_the_check(*args, **kwargs):  # a range load_config rejects reaches fit_tfidf's check by the same rule
            cfg = real(*args, **kwargs)
            cfg["tfidf"].update(ngram_lo=3, ngram_hi=1)
            return cfg

        monkeypatch.setattr(cli_mod, "load_config", past_the_check)
        out = tmp_path / "o"
        assert main(["benchmark-models", "--data", str(synthetic_csv), "--out", str(out)]) == 1
        assert "ngram_hi must be >= 'ngram_lo' (3), got 1" in capsys.readouterr().err
        assert not (out / "models_table.txt").exists()


@pytest.fixture(scope="module")
def lexicon_run(tmp_path_factory, synthetic_csv):
    """benchmark-features with a lexicon file that starts with a BOM and holds a phrase with a comma."""
    tmp = tmp_path_factory.mktemp("lexicon_run")
    lexicon = tmp / "lexicon.txt"
    lexicon.write_bytes("\ufeffbuffer overflow\nremote code, execution\nxss\n".encode("utf-8"))
    out = tmp / "out"
    assert main(["benchmark-features", "--data", str(synthetic_csv), "--out", str(out), "--lexicon", str(lexicon)]) == 0
    return lexicon, out


class TestInputFiles:
    def test_lexicon_bom_is_skipped(self, lexicon_run):
        from sevtriage.features import KeywordLexicon

        lexicon, out = lexicon_run
        assert KeywordLexicon.from_file(lexicon).phrases == ("buffer overflow", "remote code, execution", "xss")
        text = (out / "keyword_counts.csv").read_text(encoding="utf-8")
        assert "\ufeff" not in text
        assert "buffer overflow" in {row[0] for row in csv.reader(text.splitlines())}

    def test_lexicon_phrase_with_comma_is_one_cell(self, lexicon_run):
        _, out = lexicon_run
        rows = csv_rows(out / "keyword_counts.csv", encoding="utf-8")
        assert {len(row) for row in rows} == {len(rows[0])} == {2}
        assert "remote code, execution" in {row[0] for row in rows}
        assert main(["plot", "--which", "keywords", "--out", str(out)]) == 0

    def test_lexicon_undecodable_byte_names_file_and_line(self, tmp_path, synthetic_csv, capsys):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_bytes(b"buffer overflow\nx\xffss\n")
        args = ["--data", str(synthetic_csv), "--out", str(tmp_path / "o"), "--lexicon", str(lexicon)]
        assert main(["benchmark-features", *args]) == 1
        err = capsys.readouterr().err
        assert f"lexicon file {lexicon}: line 2: not valid UTF-8 (byte 0xff)" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("one two three four five\n", "phrase 'one two three four five' must be 1-4 tokens, got 5"),
            ("\n  \n", "lexicon must not be empty"),
            ("xss\nXSS\n", "lexicon phrases must be unique"),
            ("info disclosure\ninfo-disclosure\n", "phrases 'info disclosure' and 'info-disclosure' are both the tokens 'info disclosure'"),
        ],
        ids=["long-phrase", "empty", "repeated", "same-tokens"],
    )
    def test_lexicon_construction_error_names_file(self, tmp_path, synthetic_csv, capsys, text, message):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(text)
        args = ["--data", str(synthetic_csv), "--out", str(tmp_path / "o"), "--lexicon", str(lexicon)]
        assert main(["benchmark-features", *args]) == 1
        assert capsys.readouterr().err == f"error: lexicon file {lexicon}: {message}\n"

    def test_config_bom_is_skipped(self, tmp_path, synthetic_csv):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"data": str(synthetic_csv)}).encode("utf-8"))
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "clean.csv").exists()

    def test_config_undecodable_byte_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"seed": 1,\n "split": "\xff"}')
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config file {cfg}: line 2: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"[1]", "must contain a JSON object"),
            (b'{"seed": ' + b"1" * 5000 + b"}", "not valid JSON"),  # more digits than Python reads as an int
        ],
        ids=["list", "integer_too_long"],
    )
    def test_config_that_is_not_an_object_names_file(self, tmp_path, capsys, content, named):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(content)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: {named}")
        assert "Traceback" not in err


TINY = 5e-324  # the smallest positive float

# Each config key's values just inside its rule, then just outside it. ensemble.sample_fraction is
# drawn at 0.25 of the boundary feed's 28 training rows rather than near 0: a resample of a row or two
# keeps one class, and ensembles ends in a named error.
BOUNDARIES = {
    "seed": ([0], [-1, True]),
    "tfidf.ngram_lo": ([1], [0, 1.0]),
    "tfidf.ngram_hi": ([1], [0, True]),
    "tfidf.max_features": ([1], [0]),
    "svd.k": ([1], [0]),
    "pca.k": ([1], [0]),
    "select.k": ([1], [0]),
    "logreg.C": ([TINY], [0.0, -TINY]),
    "logreg.max_iter": ([1], [0]),
    "logreg.tol": ([TINY], [0.0]),
    "tree.max_depth": ([None, 1], [0, True]),
    "tree.min_samples_leaf": ([1], [0]),
    "forest.n_trees": ([1], [0]),
    "forest.features_per_split": ([TINY, 1.0, "sqrt", None], [0.0, math.nextafter(1.0, 2.0), "log2"]),
    "knn.k": ([1, 28, 29, 10**6], [0]),
    "net.embedding_dim": ([1], [0]),
    "net.max_len": ([1], [0]),
    "net.vocab_cap": ([1], [0]),
    "net.conv_filters": ([1], [0]),
    "net.kernel_width": ([1], [0]),
    "net.tabular_hidden": ([1], [0]),
    "net.merge": ([[1]], [[], [0]]),
    "net.dropout": ([0.0, math.nextafter(1.0, 0.0)], [-TINY, 1.0]),
    "net.epochs": ([1], [0]),
    "net.batch": ([1], [0]),
    "net.lr": ([TINY], [0.0]),
    "ensemble.members": ([2], [1]),
    "ensemble.sample_fraction": ([0.25, 1.0, math.nextafter(1.0, 2.0)], [0.0]),
    "ensemble.with_replacement": ([False], [0]),
    "ensemble.folds": ([2], [1]),
    "ensemble.instance_c": ([[TINY, 2 * TINY], [1.0, 1.00001]], [[1.0], [1.0, 0.0], [TINY, TINY], [1.0, 1.000001]]),
}


@st.composite
def boundary_trees(draw):
    """Some keys at values just inside their rules, and at most one of them just outside: ({key: value}, that key)."""
    keys = [key for key in BOUNDARIES if draw(st.booleans())]
    broken = draw(st.none() | st.sampled_from(keys)) if keys else None
    values = {}
    for key in keys:
        inside, outside = BOUNDARIES[key]
        values[key] = draw(st.sampled_from(outside if key == broken else inside))
    return values, broken


@pytest.fixture(scope="module")
def boundary_feed(tmp_path_factory):
    return write_synthetic_csv(tmp_path_factory.mktemp("boundary") / "feed.csv", n=40, seed=9)


class TestConfigFile:
    def test_readme_config_example_loads(self, tmp_path):
        from sevtriage.config import DEFAULTS, load_config

        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), flags=re.S)
        assert blocks, "README lost its config example"
        assert json.dumps(json.loads(blocks[0])) == json.dumps(DEFAULTS)  # every value, in key order
        cfg_path = tmp_path / "readme.json"
        cfg_path.write_text(blocks[0])
        load_config(str(cfg_path))

    def test_readme_rule_table_is_the_config_rules(self):
        from sevtriage.config import _KEYS, _SECTION

        rules: dict = {}
        for key, entry in _KEYS.items():
            if isinstance(entry, dict):
                rules.setdefault(_SECTION[1], set()).add(key)
                for name, (_, (_, rule)) in entry.items():
                    rules.setdefault(rule, set()).add(f"{key}.{name}")
            else:
                rules.setdefault(entry[1][1], set()).add(key)
        known = set().union(*rules.values())
        section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## Config file")[1]
        rows = re.findall(r"^\| (.+?) \| (.+?) \|$", section, flags=re.M)[1:]  # past the header row
        table = {rule: set(re.findall(r"`([^`]+)`", keys)) & known for rule, keys in rows}
        assert table == rules

    def test_each_override_flag_sets_its_key_over_the_file(self, tmp_path):
        from sevtriage.cli import _config_from_args, build_parser

        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 5, "svd": {"k": 9}, "net": {"epochs": 3}}))
        flags = [
            ("--data", "feed.csv", "data"), ("--out", "o", "out"), ("--seed", 7, "seed"),
            ("--split", 0.3, "split"), ("--lexicon", "words.txt", "lexicon"),
            ("--tfidf-max-features", 40, "tfidf.max_features"), ("--svd-k", 11, "svd.k"),
            ("--select-k", 12, "select.k"), ("--pca-k", 13, "pca.k"),
            ("--epochs", 2, "net.epochs"), ("--n-trees", 14, "forest.n_trees"),
        ]
        argv = ["ingest", "--config", str(cfg_path)] + [arg for flag, value, _ in flags for arg in (flag, str(value))]
        cfg = _config_from_args(build_parser().parse_args(argv))
        for flag, value, key in flags:
            section, _, name = key.rpartition(".")
            got = (cfg[section] if section else cfg)[name]
            assert (type(got), got) == (type(value), value), flag
        assert cfg["tfidf"]["ngram_hi"] == 2 and cfg["net"]["lr"] == 1e-3  # the sections' other keys stay

    def test_file_values_used_and_flags_override(self, tmp_path, synthetic_csv, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": str(synthetic_csv), "select": {"k": 50}, "seed": 5}))
        rc = main(["benchmark-features", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "42"])
        assert rc == 0
        table = (tmp_path / "o" / "features_table.txt").read_text()
        assert "tfidf_chi2(k=50)" in table

    def test_logreg_tol_reaches_feature_pipelines(self, tmp_path, synthetic_csv, monkeypatch):
        from sevtriage import evaluation

        tables = []
        real = evaluation.benchmark

        def capture(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(evaluation, "benchmark", capture)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": str(synthetic_csv), "logreg": {"tol": 10.0}}))
        assert main(["benchmark-features", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        (table,) = tables
        assert len(table.rows) == 6
        # a tolerance above the initial gradient norm stops every fit before its first step
        assert all(row.head.model.n_iter == 0 for row in table.rows)

    @pytest.mark.parametrize(
        "values",
        [
            {"seed": "abc"},
            {"split": "x"},
            {"lexicon": 5},
            {"out": 5},
            {"data": 7},
            {"schema": "x"},
            {"schema": {"cvss": 5}},
            {"seed": 7.9},
            {"seed": "7"},
            {"seed": True},
            {"split": "0.3"},
        ],
        ids=[
            "seed", "split", "lexicon", "out", "data", "schema", "schema-value",
            "seed-fraction", "seed-string", "seed-bool", "split-string",
        ],
    )
    def test_unconvertible_value_names_its_key(self, tmp_path, synthetic_csv, capsys, values):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data": str(synthetic_csv), **values}))
        assert main(["benchmark-features", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        (key,) = values
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,values",
        [
            ("benchmark-features", {"tfidf": {"max_features": "x"}}),
            ("benchmark-features", {"svd": {"k": "x"}}),
            ("ensembles", {"ensemble": {"members": "x"}}),
            ("ensembles", {"knn": {"k": 2.5}}),
            ("ensembles", {"forest": {"features_per_split": "x"}}),
            ("benchmark-models", {"tree": {"max_depth": "x"}}),
            ("benchmark-models", {"net": {"merge": [64.5, 32]}}),
            ("benchmark-features", {"tfidf": {"max_features": -5}}),
            ("benchmark-features", {"tfidf": {"max_features": 0}}),
            ("ensembles", {"ensemble": {"sample_fraction": -0.5}}),
            ("ensembles", {"ensemble": {"sample_fraction": 0}}),
            # numbers a float64 does not hold finitely, which json reads as NaN, Infinity and big integers
            ("benchmark-models", {"logreg": {"C": float("nan")}}),
            ("ensembles", {"ensemble": {"sample_fraction": float("inf")}}),
            ("benchmark-models", {"net": {"lr": float("-inf")}}),
            ("benchmark-features", {"logreg": {"C": 10**400}}),
            ("ensembles", {"ensemble": {"instance_c": [1.0, float("nan")]}}),
            ("ensembles", {"forest": {"features_per_split": float("nan")}}),
            # in range for their type, out of range for the learner
            ("benchmark-models", {"logreg": {"C": -1}}),
            ("benchmark-models", {"knn": {"k": -2}}),
            ("benchmark-features", {"svd": {"k": 0}}),
            ("benchmark-features", {"pca": {"k": -3}}),
            ("benchmark-features", {"select": {"k": 0}}),
            ("ensembles", {"forest": {"n_trees": 0}}),
            ("benchmark-models", {"net": {"batch": 0}}),
            ("benchmark-models", {"logreg": {"max_iter": -1}}),
            ("benchmark-models", {"net": {"epochs": 0}}),
            ("benchmark-features", {"ensemble": {"members": 1}}),
            ("benchmark-models", {"ensemble": {"folds": 1}}),
            ("benchmark-features", {"ensemble": {"instance_c": [1.0]}}),
            ("benchmark-models", {"ensemble": {"instance_c": [1.0, -2.0]}}),
            ("ensembles", {"ensemble": {"instance_c": [1.0, 1.000001]}}),  # both members would be C=1
            ("ensembles", {"ensemble": {"instance_c": [5e-324, 5e-324]}}),
            ("benchmark-models", {"net": {"max_len": 2}}),  # shorter than the default kernel_width
            ("benchmark-models", {"net": {"merge": []}}),
            ("benchmark-models", {"tree": {"max_depth": -1}}),
            ("benchmark-models", {"net": {"lr": -1.0}}),
            ("benchmark-models", {"net": {"vocab_cap": -5}}),
            ("benchmark-features", {"tfidf": {"ngram_hi": 2, "ngram_lo": 3}}),  # the default ngram_hi, below ngram_lo
            ("benchmark-models", {"net": {"dropout": 1.5}}),
            ("benchmark-models", {"net": {"max_len": 0, "kernel_width": 0}}),  # max_len >= kernel_width holds
            ("benchmark-models", {"tree": {"min_samples_leaf": -3}}),
            ("benchmark-features", {"logreg": {"tol": -1.0}}),
            ("benchmark-features", {"tfidf": {"ngram_lo": 0}}),
        ],
        ids=[
            "tfidf.max_features", "svd.k", "ensemble.members", "knn.k", "forest.features_per_split",
            "tree.max_depth", "net.merge", "tfidf.max_features-negative", "tfidf.max_features-zero",
            "ensemble.sample_fraction-negative", "ensemble.sample_fraction-zero", "logreg.C-nan",
            "ensemble.sample_fraction-infinity", "net.lr-minus-infinity", "logreg.C-beyond-float",
            "ensemble.instance_c-nan", "forest.features_per_split-nan", "logreg.C-negative", "knn.k-negative",
            "svd.k-zero", "pca.k-negative", "select.k-zero", "forest.n_trees-zero", "net.batch-zero",
            "logreg.max_iter-negative", "net.epochs-zero", "ensemble.members-one", "ensemble.folds-one",
            "ensemble.instance_c-one", "ensemble.instance_c-negative", "ensemble.instance_c-alike-to-6-digits",
            "ensemble.instance_c-repeated", "net.max_len-below-kernel_width",
            "net.merge-empty", "tree.max_depth-negative", "net.lr-negative", "net.vocab_cap-negative",
            "tfidf.ngram_hi-below-ngram_lo", "net.dropout-above-one", "net.max_len-zero",
            "tree.min_samples_leaf-negative", "logreg.tol-negative", "tfidf.ngram_lo-zero",
        ],
    )
    def test_wrongly_typed_section_value_names_its_key(self, tmp_path, synthetic_csv, capsys, command, values):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data": str(synthetic_csv), **values}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        ((section, keys),) = values.items()
        key = next(iter(keys))  # the section's first key given is the one named
        assert capsys.readouterr().err.startswith(f"error: config key '{section}.{key}' must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "values,named",
        [
            ({"net": {"max_len": 4, "kernel_width": 5}}, "'net.max_len' must be >= 'net.kernel_width' (5), got 4"),
            ({"tfidf": {"ngram_lo": 3}}, "'tfidf.ngram_hi' must be >= 'tfidf.ngram_lo' (3), got 2"),
        ],
        ids=["net.max_len", "tfidf.ngram_hi"],
    )
    def test_key_below_the_key_it_must_reach_names_both(self, tmp_path, synthetic_csv, capsys, values, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data": str(synthetic_csv), **values}))
        assert main(["benchmark-models", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key {named}\n"
        assert not (tmp_path / "o").exists()

    def test_subsample_fraction_above_one_names_both_keys(self, tmp_path, synthetic_csv, capsys):
        from sevtriage.config import load_config

        cfg = tmp_path / "bad.json"
        ensemble = {"with_replacement": False, "sample_fraction": 1.5}
        cfg.write_text(json.dumps({"data": str(synthetic_csv), "ensemble": ensemble}))
        assert main(["ensembles", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'ensemble.sample_fraction' must be at most 1 when "
            "'ensemble.with_replacement' is false, got 1.5\n"
        )
        assert not (tmp_path / "o").exists()
        for ensemble in ({"with_replacement": False, "sample_fraction": 1.0}, {"sample_fraction": 1.5}):
            cfg.write_text(json.dumps({"ensemble": ensemble}))  # a whole subsample, or a resample of more rows than n
            assert load_config(str(cfg))["ensemble"]["sample_fraction"] == ensemble["sample_fraction"]

    @pytest.mark.parametrize(
        "values",
        [
            {"logreg": {"C": 1}},
            {"tree": {"max_depth": 3}},
            {"forest": {"features_per_split": 0.5}},
            {"lexicon": None},
            {"tree": {"max_depth": None}},
        ],
        ids=["integer-for-number", "integer-for-null", "fraction-per-split", "null-lexicon", "null-max-depth"],
    )
    def test_values_of_each_accepted_type_load(self, tmp_path, values):
        from sevtriage.config import load_config

        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(values))
        ((key, value),) = values.items()
        loaded = load_config(str(cfg))[key]
        assert ({name: loaded[name] for name in value} if isinstance(value, dict) else loaded) == value

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(boundary_trees())
    def test_values_at_each_rules_boundary_run_or_name_their_key(self, tmp_path_factory, boundary_feed, drawn):
        from sevtriage.config import load_config
        from sevtriage.errors import ConfigError

        values, broken = drawn
        tree: dict = {}
        for key, value in values.items():
            section, _, name = key.rpartition(".")
            (tree.setdefault(section, {}) if section else tree)[name] = value
        work = tmp_path_factory.mktemp("boundary-run")
        cfg = work / "run.json"
        cfg.write_text(json.dumps(tree))
        try:
            load_config(str(cfg))
        except ConfigError as exc:
            named = re.match(r"config key '([^']+)' must be ", str(exc)).group(1)
            # a value outside its rule is named; with none, only a key that breaks a cross-key rule is
            assert named == broken if broken else (named in values and re.search(r" must be (>=|at most)", str(exc)))
            return
        assert broken is None
        out = work / "out"
        for command in ("benchmark-models", "ensembles"):
            argv = [command, "--config", str(cfg), "--data", str(boundary_feed), "--out", str(out)]
            assert main([*argv, "--n-trees", "3", "--epochs", "1"]) == 0, command
        with open(out / "models_table.csv", newline="") as fh:
            statuses = {row["model"]: row["status"] for row in csv.DictReader(fh)}
        assert statuses == {**dict.fromkeys(statuses, "ok"), "lstm": "out of scope"}

    def test_knn_k_above_the_training_rows_scores_as_k_at_them(self, tmp_path, boundary_feed):
        knn_rows = {}
        for k in (28, 29):  # the boundary feed trains on 28 rows
            cfg = tmp_path / f"k{k}.json"
            cfg.write_text(json.dumps({"knn": {"k": k}}))
            out = tmp_path / f"k{k}"
            argv = ["benchmark-models", "--config", str(cfg), "--data", str(boundary_feed), "--out", str(out)]
            assert main([*argv, "--n-trees", "3", "--epochs", "1"]) == 0
            knn_rows[k] = next(row for row in csv_rows(out / "models_table.csv") if row[0] == "knn")
        assert knn_rows[29][-1] == "ok"
        assert knn_rows[29] == knn_rows[28]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tpyo": 1}))
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path)]) != 0
        assert "tpyo" in capsys.readouterr().err

    def test_out_env_var_honored(self, tmp_path, synthetic_csv, monkeypatch, capsys):
        target = tmp_path / "envout"
        monkeypatch.setenv("SEVTRIAGE_OUT", str(target))
        assert main(["ingest", "--data", str(synthetic_csv)]) == 0
        assert (target / "clean.csv").exists()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """README's "Library use" block runs as written, on a 120-row planted feed saved as its ``zdi.csv``."""
    from sevtriage.ensembles import STRATEGIES

    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    write_synthetic_csv(tmp_path / "zdi.csv", n=120, seed=9)
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(block, str(readme), "exec"), scope)
    assert len(scope["probs"]) == len(scope["split"].test_idx)
    assert tuple(scope["results"]) == STRATEGIES
