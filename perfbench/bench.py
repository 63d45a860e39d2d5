"""One benchmark run: set up inputs, run the CLI, check its outputs, measure.

trace 0 (end to end): generate the inputs several times and keep the median
set-up time, then repeat the workload's CLI invocations untraced until the
measuring time is used, checking every repetition.

trace 1 (per layer): generate once with the generator's projection traced,
run the workload once untraced and once with every hook traced, and derive
the per-layer metrics. The traced artifacts must equal the untraced ones.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from flowline_risk import synth

import checks
import hooks
from child import ChildResult, Spawner, environment_record, pinned_env
from layers import layer_metrics, rationale_shares
from spans import SpanTable, Tracer
from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
# Set-up repeats until both bounds are met, so a 30 ms set-up gets enough
# samples for a steady median and a 10 s one stops after three.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
INPUTS = "inputs"


@dataclass
class Rep:
    label: str
    children: list[ChildResult] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    merge_recall: float = 0.0
    spill_recall: float = 0.0
    artifact_mb: float = 0.0
    digest: str = ""
    outputs: dict = field(default_factory=dict)
    span_files: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max((c.maxrss_mb for c in self.children), default=0.0)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Network:
    """One generated network: its name, seed and ground truth."""

    name: str
    seed: int
    truth: synth.GroundTruth | None = None

    @property
    def config(self) -> str:
        return f"{self.name}.cfg"


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path, src: Path, deadline: float,
                 spawner: Spawner):
        self.wl = workload
        self.spawner = spawner
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = pinned_env(src)
        self.networks = [Network(f"n{j}", s) for j, s in enumerate(workload.network_seeds(seed))]
        (work / "logs").mkdir(parents=True)
        (work / "spans").mkdir()
        for net in self.networks:
            (work / net.config).write_text(
                workload.config_text(net.seed, f"{INPUTS}/{net.name}"), encoding="utf-8")

    def _cli_args(self, args, net: Network, label: str) -> list[str]:
        return [*args, "--config", net.config, "--out", f"{label}/{net.name}"]

    def environment(self) -> dict:
        commands = [["python3", "-m", "flowline_risk", *self._cli_args(args, net, "rep0")]
                    for net in self.networks for args in self.wl.commands]
        return environment_record(self.seed, commands)

    # set-up ---------------------------------------------------------------

    def setup(self, min_repeats: int, min_seconds: float = 0.0,
              tracer: Tracer | None = None) -> tuple[list[float], list[str]]:
        """Generate the inputs at least min_repeats times and for min_seconds;
        every repeat must be byte-identical."""
        times, digests = [], []
        undo = []
        if tracer is not None:
            _, undo = hooks.install(tracer, hooks.SETUP_HOOKS)
        try:
            while len(times) < min_repeats or sum(times) < min_seconds:
                i = len(times)
                root = self.work / (INPUTS if i == 0 else f"{INPUTS}.{i}")
                started = time.perf_counter()
                truths = []
                for net in self.networks:
                    span = tracer.open("synth.generate") if tracer is not None else None
                    result = synth.generate(self.wl.synth_config(net.seed), root / net.name)
                    if span is not None:
                        tracer.close(span)
                    truths.append(synth.load_ground_truth(result.ground_truth_path))
                times.append(time.perf_counter() - started)
                digests.append(checks.tree_digest(root))
                if i:
                    shutil.rmtree(root)
        finally:
            hooks.uninstall(undo)
        for net, truth in zip(self.networks, truths):
            net.truth = truth
        problems = [] if len(set(digests)) == 1 else ["generator output differs between set-ups"]
        return times, problems

    # one repetition -------------------------------------------------------

    def run_rep(self, label: str, traced: bool = False) -> Rep:
        rep = Rep(label)
        for net in self.networks:
            if not self._run_network(rep, net, traced):
                break
        self._check(rep, self.work / label)
        shutil.rmtree(self.work / label, ignore_errors=True)
        return rep

    def _run_network(self, rep: Rep, net: Network, traced: bool) -> bool:
        for i, args in enumerate(self.wl.commands):
            cli_args = self._cli_args(args, net, rep.label)
            tag = f"{rep.label}-{net.name}-{i}"
            if traced:
                spans = self.work / "spans" / f"{tag}.npz"
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *cli_args]
                rep.span_files.append(spans)
            else:
                argv = [sys.executable, "-m", "flowline_risk", *cli_args]
            log = self.work / "logs" / f"{tag}.log"
            result = self.spawner.run(argv, self.work, self.env, log, self.time_left())
            rep.children.append(result)
            if result.returncode != 0:
                tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
                rep.problems.append(f"{net.name} {' '.join(args)} exited {result.returncode}: "
                                    f"{' '.join(tail)}")
                return False
        return True

    def _check(self, rep: Rep, rep_dir: Path) -> None:
        # Recall pools every network's pairs, so the preset-a bars apply to
        # the repetition as a whole.
        merge_hits = spill_hits = n_lines = n_spills = 0.0
        outputs = []
        for net in self.networks:
            run_dir = rep_dir / net.name
            artifacts = run_dir / "artifacts"
            audit_csv = artifacts / "merge_audit.csv"
            attributions_csv = artifacts / "attributions.csv"
            lines, spills = net.truth.line_matches, net.truth.spill_matches
            n_lines += len(lines)
            n_spills += len(spills)
            if audit_csv.is_file() and attributions_csv.is_file():
                merge_hits += checks.merge_recall(audit_csv, lines) * len(lines)
                spill_hits += checks.spill_recall(attributions_csv, spills) * len(spills)
            else:
                rep.problems.append(f"{net.name}: merge audit or attributions missing")
            outputs.append(_public_outputs(artifacts, audit_csv))
            if self.wl.full_run:
                rep.problems += [f"{net.name}: {p}" for p in checks.report_problems(run_dir)]
        rep.merge_recall = merge_hits / n_lines
        rep.spill_recall = spill_hits / n_spills
        rep.problems += checks.recall_problems(self.wl.preset, rep.merge_recall, rep.spill_recall)
        rep.outputs = _sum_outputs(outputs)
        if rep_dir.is_dir():
            rep.artifact_mb = checks.artifact_bytes(rep_dir) / 1e6
            rep.digest = checks.artifact_digest(rep_dir)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def _mb(path: Path) -> float:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6
    return path.stat().st_size / 1e6 if path.is_file() else 0.0


def _public_outputs(artifacts: Path, audit_csv: Path) -> dict:
    steps: Counter = Counter()
    candidates = 0
    rows = checks.read_rows(audit_csv) if audit_csv.is_file() else []
    for row in rows:
        steps[float(row["step_reached"])] += 1
        candidates += int(row["n_candidates"])
    return {
        "records_at_step": {int(s) if s.is_integer() else s: n for s, n in steps.items()},
        "audit_candidates": candidates,
        "merged_json_mb": _mb(artifacts / "merged.json"),
        "labeled_json_mb": _mb(artifacts / "labeled.json"),
        "models_mb": _mb(artifacts / "models"),
    }


def _sum_outputs(outputs: list[dict]) -> dict:
    total: dict = {"records_at_step": Counter()}
    for out in outputs:
        total["records_at_step"].update(out["records_at_step"])
        for key, value in out.items():
            if key != "records_at_step":
                total[key] = total.get(key, 0) + value
    return total


def check_digests(reps: list[Rep], registry: Path, key: str) -> None:
    """Every repetition must match the first and any earlier run of this commit."""
    known = json.loads(registry.read_text(encoding="utf-8")) if registry.is_file() else {}
    expected = known.get(key) or next((r.digest for r in reps if r.digest and not r.failed), "")
    for rep in reps:
        if expected and rep.digest and rep.digest != expected:
            rep.problems.append(f"artifact digest {rep.digest[:12]} != {expected[:12]}")
    if expected and key not in known:
        known[key] = expected
        registry.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def end_to_end(run: Run, seconds: float, registry: Path, key: str) -> tuple[list[Rep], dict, bool, list[str]]:
    setup_times, setup_problems = run.setup(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
    reps: list[Rep] = []
    started = time.perf_counter()
    while True:
        reps.append(run.run_rep(f"rep{len(reps)}"))
        spent = time.perf_counter() - started
        # Stop when the measuring time is used, or before a repetition as
        # long as the last one would overrun the run's deadline.
        if spent >= seconds or run.time_left() < 1.5 * reps[-1].wall_s:
            break
    check_digests(reps, registry, key)
    ok = [r for r in reps if not r.failed]
    metrics = {
        "wall_s": statistics.median([r.wall_s for r in reps]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median([r.peak_rss_mb for r in reps]),
        "artifact_mb": statistics.median([r.artifact_mb for r in reps]),
        "merge_recall": statistics.median([r.merge_recall for r in reps]),
        "spill_recall": statistics.median([r.spill_recall for r in reps]),
        "success_frac": len(ok) / len(reps),
    }
    return reps, metrics, not setup_problems, []


def per_layer(run: Run, registry: Path, key: str) -> tuple[list[Rep], dict, bool, list[str]]:
    setup_tracer = Tracer()
    _, setup_problems = run.setup(1, tracer=setup_tracer)
    untraced = run.run_rep("untraced")
    traced = run.run_rep("traced", traced=True)
    reps = [untraced, traced]
    check_digests(reps, registry, key)
    tables = [SpanTable.load(p) for p in traced.span_files if p.is_file()]
    cli = SpanTable.concat(tables)
    metrics = layer_metrics(cli, setup_tracer.spans(), traced.outputs)
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    notes = [f"untraced hooks: {', '.join(cli.missing)}"] if cli.missing else []
    notes.append("shares: " + json.dumps({k: round(v, 4) for k, v in rationale_shares(metrics).items()}))
    return reps, metrics, not setup_problems, notes
