"""The fork helper: results in job order, errors in the caller, children that
take jobs while a result waits to be sent, the benchmark's longest heads handed
out first, serial nesting, and a schedule that changes no result of the
benchmark or the ensembles."""

import io
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from sevtriage import ensembles, evaluation, workers
from sevtriage.config import load_config
from sevtriage.errors import ConfigError, FitError, RowError, ShapeError
from sevtriage.pipelines import FeatureBuilder, model_benchmark_pipelines
from tests.test_ensembles import config as ensemble_config
from tests.test_ensembles import make_grouped_data


@pytest.fixture(autouse=True)
def no_child_outlives_the_call():
    yield
    assert multiprocessing.active_children() == []


def _cpus(monkeypatch, n):
    """An affinity mask of ``n`` CPUs, whatever the machine running the tests; nesting still runs serially."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _unshared_pickle(obj) -> bytes:
    """``obj`` pickled without a memo, so equal values give equal bytes however their objects are shared."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf)
    pickler.fast = True
    pickler.dump(obj)
    return buf.getvalue()


def _in(where, parent):
    return (os.getpid() == parent) == (where == "parent")


@pytest.fixture(scope="module")
def split(synthetic_dataset):
    builder = FeatureBuilder().fit(synthetic_dataset.train_records())
    train_X = builder.transform(synthetic_dataset.train_records())
    return synthetic_dataset, train_X, builder.transform(synthetic_dataset.test_records())


class TestMapJobs:
    @pytest.mark.parametrize("n_jobs", [0, 1, 2, 40], ids=["no-jobs", "one-job", "two-jobs", "many-jobs"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_results_in_job_order(self, monkeypatch, n_workers, n_jobs):
        _cpus(monkeypatch, n_workers)

        def square(j):
            time.sleep(0.002 * (j % 3))  # uneven jobs finish out of order
            return j * j

        assert workers.map_jobs(square, range(n_jobs)) == [j * j for j in range(n_jobs)]

    def test_each_job_runs_once_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        # two workers taking the same index, through a lost update of the shared counter, would log it twice
        _cpus(monkeypatch, 2 * len(os.sched_getaffinity(0)) + 1)
        log = tmp_path / "ran"

        def record(j):
            with open(log, "a") as fh:  # one short append per job; appends do not interleave
                fh.write(f"{j}\n")
            return j

        assert workers.map_jobs(record, range(300)) == list(range(300))
        assert sorted(int(line) for line in log.read_text().split()) == list(range(300))

    def test_every_worker_takes_jobs(self, monkeypatch):
        _cpus(monkeypatch, 3)

        def pid(j):
            time.sleep(0.01)
            return os.getpid()

        pids = workers.map_jobs(pid, range(30))
        assert len(set(pids)) == 3 and os.getpid() in pids

    @pytest.mark.parametrize("where", ["child", "parent"])
    @pytest.mark.parametrize("error", [ShapeError, ConfigError])
    def test_job_error_reaches_the_caller_as_itself(self, monkeypatch, where, error):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(j):
            time.sleep(0.05)  # each worker takes a job before either finishes
            if _in(where, parent):
                raise error(f"bad job {j}")
            return j

        with pytest.raises(error, match=r"^bad job \d$") as excinfo:
            workers.map_jobs(job, range(4))
        assert type(excinfo.value) is error

    def test_child_error_carries_the_child_traceback(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(j):
            time.sleep(0.05)
            if _in("child", parent):
                raise ShapeError(f"bad job {j}")  # the line the cause must name
            return j

        with pytest.raises(ShapeError) as excinfo:
            workers.map_jobs(job, range(4))
        cause = excinfo.value.__cause__
        assert type(cause) is workers.ChildTraceback
        raising_line = job.__code__.co_firstlineno + 3
        assert f'line {raising_line}, in job\n    raise ShapeError(f"bad job {{j}}")' in str(cause)

    def test_row_error_pickles_and_crosses_from_a_child(self, monkeypatch):
        copy = pickle.loads(pickle.dumps(RowError(3, "bad")))
        assert (type(copy), str(copy), copy.line_no) == (RowError, "line 3: bad", 3)
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(j):
            time.sleep(0.05)
            if _in("child", parent):
                raise RowError(j, "bad row")
            return j

        with pytest.raises(RowError, match=r"^line \d: bad row$") as excinfo:
            workers.map_jobs(job, range(4))
        assert str(excinfo.value) == f"line {excinfo.value.line_no}: bad row"

    def test_exception_that_does_not_pickle_is_a_fit_error(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        class Local(Exception):  # a local class does not pickle
            pass

        def job(j):
            time.sleep(0.05)
            if _in("child", parent):
                raise Local("boom")
            return j

        with pytest.raises(FitError, match=r"^a worker exited without sending jobs \d$"):
            workers.map_jobs(job, range(4))

    def test_child_exiting_unsent_is_a_fit_error_naming_its_job(self, monkeypatch, tmp_path):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(j):
            time.sleep(0.05)
            if _in("child", parent):
                (tmp_path / "taken").write_text(str(j))
                os._exit(3)
            return j

        with pytest.raises(FitError, match=r"^a worker exited without sending jobs \d$") as excinfo:
            workers.map_jobs(job, range(4))
        assert str(excinfo.value).endswith(f" jobs {(tmp_path / 'taken').read_text()}")

    def test_set_up_errors_raise_before_any_fork(self, monkeypatch):
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: pytest.fail("forked"))
        with pytest.raises(TypeError):
            workers.map_jobs(abs, (j for j in range(3)))  # the jobs must be a sequence
        Xtr, ytr, Xte, _ = make_grouped_data()
        cfg = ensemble_config()
        cfg["ensemble"]["members"] = 1  # past load_config, so ensembles.run's check by the same rule raises
        with pytest.raises(ConfigError, match="members must be an integer >= 2, got 1"):  # every member is planned before any fork
            ensembles.run(Xtr, ytr, Xte, cfg)


class TestOneSendPerChild:
    def test_a_child_takes_its_next_job_while_a_large_result_waits(self, monkeypatch, tmp_path):
        # a child that sent each result at once would block on a 1 MB one, larger than the pipe's
        # buffer, until the parent read its pipe after the parent's own job; here that job waits for it
        _cpus(monkeypatch, 2)
        parent = os.getpid()
        big = b"x" * 2**20

        def job(j):
            if os.getpid() != parent:
                (tmp_path / f"child-took-{j}").touch()
                return big
            deadline = time.monotonic() + 5
            while len(list(tmp_path.glob("child-took-*"))) < 2:
                if time.monotonic() > deadline:
                    return "timed out"
                time.sleep(0.01)
            return "parent"

        results = workers.map_jobs(job, range(4))
        assert "timed out" not in results
        assert set(results) <= {big, "parent"} and results.count(big) == len(list(tmp_path.glob("child-took-*")))

    def test_child_exiting_unsent_is_a_fit_error_naming_every_job_it_took(self, monkeypatch, tmp_path):
        _cpus(monkeypatch, 2)
        parent = os.getpid()
        taken = tmp_path / "taken"

        def job(j):
            if os.getpid() != parent:
                with open(taken, "a") as fh:
                    fh.write(f"{j}\n")
                if len(taken.read_text().split()) == 3:
                    os._exit(3)  # after two finished jobs, whose results it holds unsent
                return j
            deadline = time.monotonic() + 5
            while not (taken.exists() and len(taken.read_text().split()) == 3) and time.monotonic() < deadline:
                time.sleep(0.01)
            return j

        with pytest.raises(FitError, match=r"^a worker exited without sending jobs \d, \d, \d$") as excinfo:
            workers.map_jobs(job, range(8))
        lost = sorted(int(j) for j in taken.read_text().split())
        assert str(excinfo.value).endswith(" jobs " + ", ".join(map(str, lost)))


class TestHandOutOrder:
    def test_benchmark_hands_out_the_longest_model_heads_first(self, monkeypatch, split):
        dataset, train_X, test_X = split
        _cpus(monkeypatch, 1)
        seen, map_jobs = [], workers.map_jobs

        def recording(fn, jobs):
            return map_jobs(lambda named: (seen.append(named[0]), fn(named))[1], jobs)

        monkeypatch.setattr(evaluation, "map_jobs", recording)
        cfg = load_config(overrides={"seed": 3, "forest": {"n_trees": 4}, "net": {"epochs": 1}})
        pipes = model_benchmark_pipelines(cfg)
        table = evaluation.benchmark(pipes, dataset, train_X, test_X)
        assert seen == ["cnn", "random_forest", "ffnn", "logistic_regression", "decision_tree", "knn"]
        assert [row.name for row in table.rows] == [name for name, _ in pipes]  # the rows stay in table order
        assert all(row.report is not None for row in table.rows)


class TestNesting:
    def test_daemonic_pool_worker_gets_one_worker(self, monkeypatch):
        _cpus(monkeypatch, 3)
        assert workers.usable_cpus() == 3
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(workers.usable_cpus) == 1
        pool.join()

    def test_job_inside_a_mapped_job_gets_one_worker(self, monkeypatch):
        _cpus(monkeypatch, 3)

        def outer(j):
            time.sleep(0.01)
            inner_pids = workers.map_jobs(lambda k: os.getpid(), range(3))
            return workers.usable_cpus(), set(inner_pids) == {os.getpid()}

        assert workers.map_jobs(outer, range(9)) == [(1, True)] * 9
        assert workers.usable_cpus() == 3  # the parent counts its CPUs again once it stops working as a worker


class TestScheduleChangesNothing:
    def test_ensemble_probabilities(self, monkeypatch, split):
        dataset, train_X, test_X = split
        cfg = load_config(overrides={"seed": 3, "forest": {"n_trees": 4}})
        runs = []
        for n in (1, 2, 3):
            _cpus(monkeypatch, n)
            runs.append(ensembles.run(train_X, dataset.train_labels(), test_X, cfg))
        for strategy in ensembles.STRATEGIES:
            want = runs[0][strategy]
            for got in (run[strategy] for run in runs[1:]):
                assert got.probabilities.tobytes() == want.probabilities.tobytes(), strategy
                assert list(got.member_probabilities) == list(want.member_probabilities), strategy
                for name, probs in want.member_probabilities.items():
                    assert got.member_probabilities[name].tobytes() == probs.tobytes(), (strategy, name)

    def test_benchmark_rows(self, monkeypatch, split):
        dataset, train_X, test_X = split
        cfg = load_config(overrides={"seed": 3, "forest": {"n_trees": 4}, "net": {"epochs": 1}})
        tables = []
        for n in (1, 2, 3):
            _cpus(monkeypatch, n)
            tables.append(evaluation.benchmark(model_benchmark_pipelines(cfg), dataset, train_X, test_X))
        want = tables[0]
        assert all(row.report is not None for row in want.rows)

        def head_probabilities(table):
            records = dataset.test_records()
            return [np.asarray(r.head.predict_proba(test_X, records), dtype=np.float64).tobytes() for r in table.rows]

        want_probabilities = head_probabilities(want)
        for got in tables[1:]:
            # repr keeps every metric's bits; the probabilities and heads are compared as bytes
            assert [repr(r) for r in got.rows] == [repr(r) for r in want.rows]
            assert head_probabilities(got) == want_probabilities
            assert [_unshared_pickle(r.head) for r in got.rows] == [_unshared_pickle(r.head) for r in want.rows]

    def test_a_head_failing_in_a_child_gives_the_serial_error_row(self, monkeypatch, split, tmp_path):
        dataset, train_X, test_X = split

        class Exploding:  # a local class does not pickle, so only its error row may cross the pipe
            def fit(self, X, records, labels):
                time.sleep(0.1)  # each worker takes one head before either finishes
                (tmp_path / f"pid-{os.getpid()}").touch()
                raise RuntimeError("boom")

        pipes = [("first", Exploding()), ("second", Exploding())]
        errors = {}
        for n in (1, 2):
            _cpus(monkeypatch, n)
            table = evaluation.benchmark(pipes, dataset, train_X, test_X)
            errors[n] = [(row.name, row.status, row.head) for row in table.rows]
        assert len({int(p.name[4:]) for p in tmp_path.glob("pid-*")} - {os.getpid()}) == 1  # one head failed in a child
        assert errors[2] == errors[1]
        assert all(error.startswith("error: RuntimeError: boom (test_workers.py:") for _, error, _ in errors[1])
        assert all(error.endswith(" in fit)") and head is None for _, error, head in errors[1])
