"""flowline-risk pipeline benchmark.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark generates the
workload's inputs from --seed, runs the real CLI on them in child processes
(one at a time, BLAS pinned to one thread) and checks every repetition's
outputs against the generator's ground truth. --trace 0 prints the
end-to-end metrics; --trace 1 does a separate traced pass and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Metric names, units and what each
should move are listed in perfbench/metrics.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from child import Spawner, pin_threads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CATALOGUE = BENCH_DIR / "metrics.json"
# A run must end within 180 s; leave room to check and clean up.
RUN_BUDGET_S = 165.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; repetitions continue until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "flowline_risk" / "__init__.py").is_file():
        print(f"no flowline_risk package under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    pin_threads(os.environ)  # before numpy loads in this process
    with Spawner() as spawner:
        return measure(args, spawner, started)


def measure(args: argparse.Namespace, spawner: Spawner, started: float) -> int:
    sys.path.insert(0, str(SRC))
    import bench
    from checks import tree_digest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    catalogue = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = bench.Run(WORKLOADS[args.workload], args.seed, work, SRC, started + RUN_BUDGET_S,
                    spawner)
    registry = WORK_ROOT / "digests.json"
    # Artifacts are fixed by the program, the benchmark's workload code and the seed.
    key = f"{args.workload}:{args.seed}:{tree_digest(SRC, '*.py')[:16]}:{tree_digest(BENCH_DIR, '*.py')[:16]}"
    try:
        print("environment: " + json.dumps(run.environment(), sort_keys=True), flush=True)
        phase = bench.per_layer(run, registry, key) if args.trace else \
            bench.end_to_end(run, args.seconds, registry, key)
        reps, metrics, setup_ok, notes = phase
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rep in reps:
        status = "ok" if not rep.failed else "FAILED: " + "; ".join(rep.problems)
        print(f"{rep.label}: wall {rep.wall_s:.3f} s, peak rss {rep.peak_rss_mb:.1f} MB, "
              f"digest {rep.digest[:16]}, {status}")
    for note in notes:
        print(note)
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        raise RuntimeError(f"metrics not produced: {absent}")
    failed = sum(1 for r in reps if r.failed)
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
