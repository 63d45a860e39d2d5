"""Independent jobs in forked worker processes.

A stage whose work splits into independent jobs (the train stage's model
fits, the cluster stage's k-means sweep) hands them to map_jobs. There is
one worker per CPU this process may run on, at most one per job. Workers are
forked, so they inherit the jobs and whatever the jobs reference without
copying; only each job's index goes to a worker, and only its result comes
back, pickled. A job computes the same bits in a worker as in-process, so
the artifacts do not depend on the worker count.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor


def worker_count(n_jobs: int) -> int:
    """Worker processes map_jobs uses for n_jobs jobs; 1 means in-process.

    Without os.sched_getaffinity or the fork start method (platforms other
    than Linux), the jobs run in-process."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_jobs))


def map_jobs(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], in job order, with the jobs spread over
    worker_count(len(jobs)) forked processes.

    fn must be a module-level function and its results picklable. The first
    job to fail, in job order, raises its exception here; a worker that dies
    raises BrokenProcessPool. Either way the pool is shut down, with the jobs
    not yet started cancelled, before this returns or raises."""
    workers = worker_count(len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    # Garbage left for a later collection would be inherited, and each
    # worker's own collections would free it again, copying its pages.
    gc.collect()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(fn, jobs))
    try:
        futures = [pool.submit(_run, i) for i in range(len(jobs))]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# A worker's job function and jobs, set once by the pool's initializer in the
# worker; the parent never sets them.
_fn = None
_jobs: list = []


def _inherit(fn, jobs: list) -> None:
    global _fn, _jobs
    _fn, _jobs = fn, jobs
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    """End this worker once the process that forked it is gone. A parent
    that is killed shuts no pool down, and its idle workers would otherwise
    wait for jobs forever."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _run(i: int):
    return _fn(_jobs[i])
