"""Independent jobs mapped over the CPUs in the process's affinity mask.

``map_jobs`` forks one child per usable CPU but one, and the parent works
as one more worker. Each worker takes the next job not yet started, so a
caller that lists its longest jobs first has them started first.
Children inherit ``fn`` and the jobs through fork, keep each job's
``(index, result)`` and send them all in one message once no job is
left, so a child never waits on a full pipe while jobs remain. The
results come back in job order, so they are the same for any number of
workers. Nested calls run serially. A child's exception is sent at once
and raised in the caller from a :class:`ChildTraceback` holding the
child's formatted traceback, as ``concurrent.futures`` does.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from multiprocessing.connection import wait
from typing import Callable, Sequence

from .errors import FitError

_in_worker = False  # set in forked children, and in the parent while it works as a worker


class ChildTraceback(Exception):
    """The cause of an exception raised in a forked child; its text is the child's traceback."""


def usable_cpus() -> int:
    """CPUs in the affinity mask; 1 in a worker, without fork or ``sched_getaffinity``, or in a daemonic process."""
    if (
        _in_worker
        or not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _take(counter, owner, worker: int) -> int:
    """The next job's index, recorded as ``worker``'s; ``len(owner)`` or more once every job is taken."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
        if i < len(owner):
            owner[i] = worker
    return i


def _child(fn, jobs, counter, owner, worker: int, conn) -> None:
    global _in_worker
    _in_worker = True
    try:
        done = []
        while (i := _take(counter, owner, worker)) < len(jobs):
            done.append((i, fn(jobs[i])))
        conn.send((done, None))  # one send once no job is left, so a full pipe holds up no job
    except Exception as exc:
        # an exception that does not pickle kills the child, which the parent reports
        conn.send((exc, traceback.format_exc()))


def map_jobs(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, with the jobs spread over every usable CPU.

    A job's exception reaches the caller with its type, and from a child
    with the child's traceback as its ``__cause__``; a child that exits
    without sending is a ``FitError`` naming every job it took, since a
    child sends its results only once no job is left. On any error the
    other children are terminated, and every child is joined.
    """
    workers = min(usable_cpus(), len(jobs))
    if workers < 2:
        return [fn(job) for job in jobs]
    global _in_worker
    ctx = multiprocessing.get_context("fork")
    counter, owner = ctx.Value("q", 0), ctx.RawArray("i", len(jobs))  # owner: who took each job, 0 the parent
    results, procs, pending = {}, [], {}  # pending: receiving end -> worker, for the children still sending

    def receive(timeout):
        for recv in wait(list(pending), timeout):
            try:
                payload, child_traceback = recv.recv()
            except EOFError:
                worker = pending.pop(recv)
                lost = [str(j) for j in range(len(jobs)) if owner[j] == worker and j not in results]
                if lost:
                    raise FitError(f"a worker exited without sending jobs {', '.join(lost)}") from None
                continue
            if child_traceback is not None:
                raise payload from ChildTraceback(child_traceback)
            results.update(payload)

    try:
        for worker in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            pending[recv] = worker
            proc = ctx.Process(target=_child, args=(fn, jobs, counter, owner, worker, send))
            proc.start()
            procs.append(proc)
            send.close()  # the child holds the only sending end, so its death reads as EOF
        _in_worker = True
        while (i := _take(counter, owner, 0)) < len(jobs):
            results[i] = fn(jobs[i])
            receive(0)  # a child's error stops the run before the parent's next job
        while pending:
            receive(None)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        _in_worker = False
        for proc in procs:
            proc.join()
    return [results[i] for i in range(len(jobs))]
