import gc
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from flowline_risk.workers import map_jobs, worker_count


def on_cpus(monkeypatch, n: int) -> None:
    """Make this process see n CPUs, so map_jobs uses up to n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def child_pids() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids += [int(pid) for pid in fh.read().split()]
    return pids


def later_jobs_finish_first(i):
    time.sleep(0.05 * (4 - i))
    return i, os.getpid()


def second_job_raises(i):
    if i == 1:
        raise ValueError(f"job {i} failed")
    return i


def second_job_kills_its_worker(i):
    if i == 1:
        os._exit(7)
    time.sleep(0.2)
    return i


EVENTS: list = []


def record_job(event):
    EVENTS.append(event)


@pytest.mark.parametrize("cpus", [1, 2])
def test_garbage_is_collected_once_before_the_first_job(monkeypatch, cpus):
    # Forked workers append to their own copy of EVENTS, so with two
    # workers only the parent's collection is seen here.
    on_cpus(monkeypatch, cpus)
    EVENTS.clear()
    monkeypatch.setattr(gc, "collect", lambda *args: EVENTS.append("collect"))
    map_jobs(record_job, ["job 0", "job 1"])
    assert EVENTS == (["collect", "job 0", "job 1"] if cpus == 1 else ["collect"])


def test_worker_count(monkeypatch):
    on_cpus(monkeypatch, 2)
    assert [worker_count(n) for n in (0, 1, 2, 10)] == [1, 1, 2, 2]
    on_cpus(monkeypatch, 8)
    assert [worker_count(n) for n in (3, 8, 10)] == [3, 8, 8]
    on_cpus(monkeypatch, 1)
    assert worker_count(10) == 1


def test_no_fork_runs_in_process(monkeypatch):
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert worker_count(4) == 1
    assert {pid for _, pid in map_jobs(later_jobs_finish_first, [0, 1])} == {os.getpid()}


def test_no_affinity_runs_in_process(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(4) == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_results_come_back_in_job_order(monkeypatch, cpus):
    on_cpus(monkeypatch, cpus)
    results = map_jobs(later_jobs_finish_first, list(range(4)))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    pids = {pid for _, pid in results}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) == 2
    assert not child_pids()


def test_the_real_cpu_set():
    # No patching: under `taskset -c 0` this runs the one-CPU path for real.
    cpus = len(os.sched_getaffinity(0))
    assert worker_count(10) == min(cpus, 10)
    pids = {pid for _, pid in map_jobs(later_jobs_finish_first, [0, 1, 2])}
    assert (pids == {os.getpid()}) == (cpus == 1)
    assert not child_pids()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_job_exception_reaches_the_caller(monkeypatch, cpus):
    on_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="job 1 failed"):
        map_jobs(second_job_raises, list(range(4)))
    assert not child_pids()


def test_a_killed_worker_breaks_the_pool_without_a_hang(monkeypatch):
    on_cpus(monkeypatch, 2)
    started = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        map_jobs(second_job_kills_its_worker, list(range(6)))
    assert time.perf_counter() - started < 30.0
    assert not child_pids()
