"""The benchmark's workloads: set-up, measured passes and output checks.

Every workload is a single-process closed loop: one client issues the
next command or batch only after the previous one returned.

- ``paper-415`` and ``wide-1000`` retrain: they run the CLI commands
  in-process through ``cli.main`` on a generated feed.
- ``score-stream`` scores new advisories in 20-row batches through
  ``corpus.parse_csv`` and ``ScoringArtifact.predict``, with an artifact
  that set-up trains on the ``wide-1000`` feed, saves and reloads.

BENCHMARK.json gates ``paper-415`` and ``score-stream``. ``wide-1000``
stays runnable by hand: one pass of its two commands takes about 40 s
on a 2-vCPU Xeon, too long to fit its feeds into a gated run.

Set-up (imports, feed generation, artifact training and warm-up) is
timed apart from the measured passes and reported as ``setup_s``. The
repeatable parts of set-up run ``SETUP_REPEATS`` times and count with
their median; imports and warm-up happen once per process.

Both modes measure the same untraced work for ``--seconds``; ``--trace 1``
then adds one traced pass. A retrain run makes ``FEEDS`` feeds from its
seed, because how long the trees and forests take depends on the feed:
on paper-415 the time of one feed's pass differed by about 12% (IQR over
median) between five seeds run interleaved in one process, so that the
host's drift fell on all of them alike. It runs
every command on every feed once, then goes on in the same order until
``--seconds`` have passed, and reports each command's median over the
feeds; a run so ends at most one command past the deadline. The stream
is scored in whole passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import feed
from layers import STRATEGIES, LayerTrace
from stats import median, percentile
from sevtriage import classical, cli, corpus, evaluation
from sevtriage.config import DEFAULTS
from sevtriage.pipelines import FeatureBuilder, ScoringArtifact

SETUP_REPEATS = 3
FEEDS = 3  # feeds per retrain run, made from its seed
WARMUP_ROWS = 60  # small feed that warms the commands set-up does not repeat in full
# The one command set-up repeats in full on the real feed: the cheapest, so a
# run fits its time budget. Its artifacts are the reference every run of it on
# the first feed must hash to.
REPEATED_IN_SETUP = "benchmark-features"
BATCH_ROWS = 20
STREAM_BATCHES = 500  # one pass scores 10,000 rows
MIN_BATCHES_TIMED = 1000  # so the 99th percentile has ten batches beyond it
STREAM_TRAIN_ROWS = 1000  # the wide-1000 feed
STREAM_WARMUP_BATCHES = 50


# Why each workload was chosen is recorded in BENCHMARK.json.
@dataclass(frozen=True)
class RetrainSpec:
    rows: int
    long_tail: bool
    commands: tuple[str, ...]


RETRAIN = {
    "paper-415": RetrainSpec(
        rows=415,
        long_tail=False,
        commands=("benchmark-features", "benchmark-models", "ensembles"),
    ),
    "wide-1000": RetrainSpec(
        rows=1000,
        long_tail=True,
        commands=("benchmark-features", "benchmark-models"),
    ),
}
STREAM = "score-stream"
WORKLOADS = (*RETRAIN, STREAM)

_COMMAND_METRIC = {"benchmark-features": "features_s", "benchmark-models": "models_s", "ensembles": "ensembles_s"}
_TABLES = {"benchmark-features": "features_table.csv", "benchmark-models": "models_table.csv"}


@dataclass
class Outcome:
    """What one run measured and checked. Metrics map name -> (value, unit, note)."""

    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    attempted: int = 0
    failed: int = 0
    missing_trace_points: list = field(default_factory=list)
    tracer: object = None  # the traced run's spans

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _generate(fn, outcome: Outcome, label: str):
    """Run the generator ``SETUP_REPEATS`` times; median seconds and one result."""
    runs = [_timed(fn) for _ in range(SETUP_REPEATS)]
    outcome.check(f"{label} deterministic", all(r[1] == runs[0][1] for r in runs))
    return median([r[0] for r in runs]), runs[0][1]


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far; Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _traced(outcome: Outcome, run_id: int, fn, *args):
    """Run ``fn`` with every layer traced; keep the spans on ``outcome``."""
    layer_trace = LayerTrace()
    layer_trace.install()
    layer_trace.tracer.run_id = run_id
    try:
        result = fn(*args)
    finally:
        layer_trace.tracer.restore()
    outcome.tracer = layer_trace.tracer
    outcome.missing_trace_points = sorted(set(layer_trace.tracer.missing))
    return result, layer_trace


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Retrain workloads


@dataclass
class CommandRun:
    seconds: float
    rc: int
    attempted: int
    failed: int
    f1: list
    auc: list
    digest: str


def _table_scores(out: Path, command: str) -> tuple[int, int, list, list]:
    """(rows attempted, error rows, macro F1s, AUCs) from the artifacts written."""
    if command == "ensembles":
        report = out / "ensembles_report.txt"
        text = report.read_text(encoding="utf-8") if report.exists() else ""
        f1 = [float(line.split()[3]) for line in text.splitlines() if line.split()[:1] == ["macro"]]
        auc = [float(line.split()[1]) for line in text.splitlines() if line.startswith("roc_auc:")]
        attempted = len(STRATEGIES)
        return attempted, attempted - min(len(f1), len(auc)), f1, auc
    table = out / _TABLES[command]
    if not table.exists():
        return 1, 1, [], []
    lines = table.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(",", len(header) - 1))) for line in lines[1:]]
    ok = [r for r in rows if r["status"] == "ok"]
    errors = [r for r in rows if r["status"].startswith("error")]
    return (
        len(ok) + len(errors),
        len(errors),
        [float(r["f1_macro"]) for r in ok],
        [float(r["roc_auc"]) for r in ok if r["roc_auc"]],
    )


def _run_command(command: str, data: Path, out: Path) -> CommandRun:
    out.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main([command, "--data", str(data), "--out", str(out)])
        seconds = time.perf_counter() - t0
    attempted, failed, f1, auc = _table_scores(out, command)
    if rc != 0:
        failed = attempted = max(attempted, 1)
    return CommandRun(seconds, rc, attempted, failed, f1, auc, _tree_digest(out))


def _record(outcome: Outcome, command: str, run: CommandRun, label: str) -> None:
    outcome.attempted += run.attempted
    outcome.failed += run.failed
    outcome.check(f"{command} exit code 0 ({label})", run.rc == 0, f"rc={run.rc}")


def _run_pass(spec: RetrainSpec, data: Path, out: Path, outcome: Outcome) -> dict[str, CommandRun]:
    runs = {c: _run_command(c, data, out / c) for c in spec.commands}
    for c, r in runs.items():
        _record(outcome, c, r, out.name)
    return runs


def run_retrain(name: str, seed: int, seconds: float, trace: bool, work: Path, import_s: float) -> Outcome:
    spec = RETRAIN[name]
    outcome = Outcome()

    gen_s, feeds = _generate(
        lambda: [feed.to_csv_bytes(feed.generate_rows(spec.rows, [seed, k], long_tail=spec.long_tail)) for k in range(FEEDS)],
        outcome,
        "feeds",
    )
    data = [work / f"feed{k}.csv" for k in range(FEEDS)]
    for path, content in zip(data, feeds):
        path.write_bytes(content)

    # warm-up: the first pass is slower; it is set-up, not measurement
    t0 = time.perf_counter()
    warm = work / "warmup.csv"
    warm.write_bytes(feed.to_csv_bytes(feed.generate_rows(WARMUP_ROWS, [seed, FEEDS], long_tail=spec.long_tail)))
    reference = None
    for c in spec.commands:
        run = _run_command(c, data[0] if c == REPEATED_IN_SETUP else warm, work / "setup" / c)
        _record(outcome, c, run, "setup")
        if c == REPEATED_IN_SETUP:
            reference = run.digest
    warm_s = time.perf_counter() - t0
    setup_s = import_s + gen_s + warm_s

    order = [(k, c) for k in range(FEEDS) for c in spec.commands]
    runs: dict[tuple[int, str], list[CommandRun]] = {u: [] for u in order}
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(order) and time.perf_counter() - start >= seconds:
            break
        k, c = order[i % len(order)]
        run = _run_command(c, data[k], work / f"run{i}" / c)
        _record(outcome, c, run, f"run{i}")
        runs[k, c].append(run)
    peak_mb = _peak_rss_mb()
    times = {c: [median([r.seconds for r in runs[k, c]]) for k in range(FEEDS)] for c in spec.commands}
    triage_s = sum(median(t) for t in times.values())

    if trace:
        untraced_s = sum(median([r.seconds for r in runs[0, c]]) for c in spec.commands)
        traced, layer_trace = _traced(outcome, i, _run_pass, spec, data[0], work / "traced", outcome)
        outcome.per_layer = layer_trace.metrics(sum(r.seconds for r in traced.values()) - untraced_s)
        for c in spec.commands:
            runs[0, c].append(traced[c])

    for (k, c), reps in runs.items():
        from_setup = k == 0 and c == REPEATED_IN_SETUP
        ref = reference if from_setup else reps[0].digest
        if len(reps) + from_setup > 1:
            outcome.check(f"{c} artifacts of feed {k} identical across {len(reps) + from_setup} repetitions",
                          all(r.digest == ref for r in reps))

    m = outcome.metrics
    m["setup_s"] = (setup_s, "s", f"imports {import_s:.3f} + feeds {gen_s:.3f} (median of {SETUP_REPEATS}) + warm-up {warm_s:.3f}")
    for c, t in times.items():
        m[_COMMAND_METRIC[c]] = (median(t), "s", f"median over {FEEDS} feeds {_fmt(t)}, each the median of its runs")
    m["triage_s"] = (triage_s, "s", f"sum of the medians of {len(spec.commands)} commands")
    # every run of a command on a feed writes the same tables (checked above), so its first run stands for all
    f1 = [v for rs in runs.values() for v in rs[0].f1]
    auc = [v for rs in runs.values() for v in rs[0].auc]
    m["macro_f1_mean"] = (float(np.mean(f1)) if f1 else 0.0, "ratio", f"{len(f1)} table rows")
    m["auc_mean"] = (float(np.mean(auc)) if auc else 0.0, "ratio", f"{len(auc)} table rows")
    m["peak_rss_mb"] = (peak_mb, "MB", "this process, through the measured runs")
    outcome.check("every table row scored", len(f1) > 0 and len(auc) > 0)
    return outcome


# ---------------------------------------------------------------------------
# Scoring stream


def _train_artifact(train_bytes: bytes, path: Path) -> bytes:
    """Train and save the logistic-regression artifact benchmark-models would save."""
    records = corpus.clean(corpus.parse_csv(train_bytes))
    dataset = corpus.stratified_split(
        records, corpus.label(records), test_fraction=float(DEFAULTS["split"]), seed=DEFAULTS["seed"]
    )
    builder = FeatureBuilder().fit(dataset.train_records())
    model = classical.train_logreg(builder.transform(dataset.train_records()), dataset.train_labels(), **DEFAULTS["logreg"])
    ScoringArtifact(builder, model).save(path)
    return path.read_bytes()


def _score(artifact: ScoringArtifact, batches: list[bytes], outcome: Outcome):
    """Score every batch in turn; (per-batch seconds, probabilities, pass seconds)."""
    latencies = []
    probs = []
    start = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        try:
            p, _ = artifact.predict(corpus.parse_csv(batch))
        except Exception as exc:  # noqa: BLE001 - a failed batch is counted, not fatal
            outcome.failed += 1
            outcome.check("batch scored", False, f"{type(exc).__name__}: {exc}")
            p = np.full(BATCH_ROWS, np.nan)
        latencies.append(time.perf_counter() - t0)
        probs.append(p)
        outcome.attempted += 1
    return latencies, np.concatenate(probs), time.perf_counter() - start


def run_stream(seed: int, seconds: float, trace: bool, work: Path, import_s: float) -> Outcome:
    outcome = Outcome()

    def make_inputs():
        train = feed.to_csv_bytes(feed.generate_rows(STREAM_TRAIN_ROWS, seed, long_tail=True))
        rows = feed.generate_rows(
            STREAM_BATCHES * BATCH_ROWS, [seed, 1], long_tail=True, missing_cvss=0, duplicate_ids=0, id_prefix="ZDI-25"
        )
        batches = [feed.to_csv_bytes(rows[i : i + BATCH_ROWS]) for i in range(0, len(rows), BATCH_ROWS)]
        return train, feed.to_csv_bytes(rows), batches

    gen_s, (train_bytes, stream_bytes, batches) = _generate(make_inputs, outcome, "feed and stream")

    builds = [_timed(_train_artifact, train_bytes, work / f"artifact{i}.json") for i in range(SETUP_REPEATS)]
    outcome.check("artifact identical across builds", all(b[1] == builds[0][1] for b in builds))
    artifact_s = median([b[0] for b in builds])
    t0 = time.perf_counter()
    artifact = ScoringArtifact.load(work / "artifact0.json")
    _score(artifact, batches[:STREAM_WARMUP_BATCHES], outcome)
    warm_s = time.perf_counter() - t0
    setup_s = import_s + gen_s + artifact_s + warm_s

    latencies = []
    pass_probs = []
    pass_seconds = []
    start = time.perf_counter()
    while len(latencies) < MIN_BATCHES_TIMED or time.perf_counter() - start < seconds:
        lat, probs, secs = _score(artifact, batches, outcome)
        latencies += lat
        pass_probs.append(probs)
        pass_seconds.append(secs)
    peak_mb = _peak_rss_mb()

    if trace:
        (_, traced_probs, traced_s), layer_trace = _traced(outcome, len(pass_seconds), _score, artifact, batches, outcome)
        outcome.per_layer = layer_trace.metrics(traced_s - median(pass_seconds))
        pass_probs.append(traced_probs)

    records = corpus.parse_csv(stream_bytes)
    whole, _ = artifact.predict(records)
    outcome.check("streamed batches equal one whole-stream predict",
                  all(np.array_equal(p, whole) for p in pass_probs))
    labels = corpus.label(records)

    rows = len(records)
    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    outcome.check("p99 has ten batches beyond it", p99.beyond >= 10, f"{p99.beyond} beyond")
    streamed = pass_probs[0]
    scored = evaluation.report(labels, (streamed >= 0.5).astype(np.int64), streamed)
    m = outcome.metrics
    m["setup_s"] = (setup_s, "s", f"imports {import_s:.3f} + inputs {gen_s:.3f} + artifact {artifact_s:.3f} "
                    f"(medians of {SETUP_REPEATS}) + load and warm-up {warm_s:.3f}")
    m["triage_s"] = (median(pass_seconds), "s",
                     f"{rows} rows in {len(batches)} batches, median of {len(pass_seconds)} passes {_fmt(pass_seconds)}")
    m["score_rows_per_s"] = (rows / median(pass_seconds), "rows/s", f"{rows} rows per pass")
    m["score_batch_p50_ms"] = (p50.value * 1e3, "ms", f"n={p50.samples}")
    m["score_batch_p99_ms"] = (p99.value * 1e3, "ms", f"n={p99.samples}, {p99.beyond} beyond")
    m["macro_f1_mean"] = (scored.f1_macro, "ratio", f"{rows} streamed rows at threshold 0.5")
    m["auc_mean"] = (scored.auc, "ratio", f"{rows} streamed rows")
    m["peak_rss_mb"] = (peak_mb, "MB", "this process, through the measured passes")
    return outcome


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, import_s: float) -> Outcome:
    if name == STREAM:
        return run_stream(seed, seconds, trace, work, import_s)
    return run_retrain(name, seed, seconds, trace, work, import_s)
