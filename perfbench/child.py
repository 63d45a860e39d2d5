"""Child processes: a pinned environment and wall/RSS measurement per child.

Peak RSS comes from os.wait4 on each child. RUSAGE_CHILDREN cannot be reset
between repetitions and RUSAGE_SELF would measure the benchmark itself.

A child's ru_maxrss also starts at the high-water mark of the process that
spawned it: Linux carries the parent's peak over at exec. The benchmark
process grows while it generates inputs and checks outputs, so it starts
children through a Spawner, a helper running this file that imports
nothing heavy and stays at a few MB. Requests and replies are JSON lines
on the helper's stdin and stdout.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# One BLAS thread: the machine may have as few as two cores, and a closed
# loop with one child at a time then measures the pipeline, not scheduling.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    maxrss_mb: float


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def pinned_env(src_dir: Path) -> dict:
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(src_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, cwd: Path, env: dict, log_path: Path, timeout_s: float) -> ChildResult:
    """Run argv to completion; wall time is spawn to reap, RSS from wait4.

    A child still running after timeout_s is killed and reported with a
    negative return code, so a hang fails the repetition instead of the run.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(tuple(argv), proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6)


class Spawner:
    """Runs children through a lean helper process; close() stops the helper."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, cwd: Path, env: dict, log_path: Path, timeout_s: float) -> ChildResult:
        request = {"argv": [str(a) for a in argv], "cwd": str(cwd), "env": env,
                   "log": str(log_path), "timeout_s": timeout_s}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("spawner helper exited")
        fields = json.loads(reply)
        return ChildResult(**{**fields, "argv": tuple(fields["argv"])})

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        result = run_child(req["argv"], Path(req["cwd"]), req["env"], Path(req["log"]),
                           req["timeout_s"])
        print(json.dumps(asdict(result)), flush=True)


def environment_record(seed: int, command_lines: list[list[str]]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "interpreter": sys.executable,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commands": command_lines,
    }


if __name__ == "__main__":
    _serve()
