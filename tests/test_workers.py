"""The fork helper: results in job order, errors in the caller, serial nesting,
and a schedule that changes no result of the benchmark or the ensembles."""

import io
import multiprocessing
import os
import pickle
import time

import pytest

from sevtriage import ensembles, evaluation, workers
from sevtriage.config import load_config
from sevtriage.errors import ConfigError, FitError, ShapeError
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
        with pytest.raises(ConfigError):  # ensembles.run plans every member before any forks
            ensembles.run(Xtr, ytr, Xte, ensemble_config(members=1))


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
    @pytest.fixture(scope="class")
    def split(self, synthetic_dataset):
        builder = FeatureBuilder().fit(synthetic_dataset.train_records())
        train_X = builder.transform(synthetic_dataset.train_records())
        return synthetic_dataset, train_X, builder.transform(synthetic_dataset.test_records())

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
        for got in tables[1:]:
            # repr keeps every metric's bits; the probabilities and heads are compared as bytes
            assert [repr(r) for r in got.rows] == [repr(r) for r in want.rows]
            assert [r.probabilities.tobytes() for r in got.rows] == [r.probabilities.tobytes() for r in want.rows]
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
            errors[n] = [(row.name, row.error, row.head) for row in table.rows]
        assert len({int(p.name[4:]) for p in tmp_path.glob("pid-*")} - {os.getpid()}) == 1  # one head failed in a child
        assert errors[2] == errors[1]
        assert all(error.startswith("error: RuntimeError: boom (test_workers.py:") for _, error, _ in errors[1])
        assert all(error.endswith(" in fit)") and head is None for _, error, head in errors[1])
