"""The benchmark's workloads: what the generator makes and which CLI stages run.

Each workload is a closed loop: one client, one CLI child at a time. The CLI
runs in real-data mode on files the generator wrote, so it never sees the
seed's ground truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from flowline_risk import synth

REFERENCE_DATE = "2024-06-30"

# Stages a run-all invocation executes in real-data mode (synth is skipped).
PIPELINE_STAGES = ("merge", "attribute", "featurize", "train", "evaluate", "cluster", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str                         # "a" checks the perfect-merge acceptance bars
    n_lines: int
    drop_id_like: bool
    commands: tuple[tuple[str, ...], ...]
    spill_rate: float | None = None     # None keeps the preset's rate
    networks: int = 1                   # independent networks per repetition

    def network_seeds(self, seed: int) -> list[int]:
        return [seed * self.networks + j for j in range(self.networks)]

    def synth_config(self, seed: int) -> synth.SynthConfig:
        base = {"a": synth.config_a, "b": synth.config_b}[self.preset]
        cfg = base(seed=seed, n_lines=self.n_lines)
        if self.spill_rate is not None:
            cfg = dataclasses.replace(cfg, spill_rate=self.spill_rate)
        return cfg

    def config_text(self, seed: int, inputs: str) -> str:
        return "\n".join([
            f"seed = {seed}",
            f"descriptive_path = {inputs}/descriptive.geojson",
            f"operational_path = {inputs}/operational.csv",
            f"spills_path = {inputs}/spills.csv",
            f"reference_date = {REFERENCE_DATE}",
            f"drop_id_like = {str(self.drop_id_like).lower()}",
        ]) + "\n"

    @property
    def full_run(self) -> bool:
        return self.commands == (("run-all",),)


WORKLOADS = {
    w.name: w
    for w in (
        # Tree fits, KNN predict, k-means and the n x n silhouette dominate
        # wall time and peak RSS; p = 39 keeps the eigensolver small.
        Workload(
            name="tall",
            why="preset a, 4000 lines, id columns dropped, run-all: model fits and the n^2 silhouette dominate",
            preset="a", n_lines=4000, drop_id_like=True, commands=(("run-all",),),
        ),
        # Default width: one-hot ids make p = 2n + 39, so the Jacobi
        # eigensolver dominates. Its rotation count, and so its time, varies
        # by about 13% from one network to the next; two networks per
        # repetition average part of that out. 10% spills keep both classes
        # in the test split.
        Workload(
            name="wide",
            why="preset a, two 70-line networks, ids kept so p = 179, run-all on each: the eigensolver dominates",
            preset="a", n_lines=70, drop_id_like=False, commands=(("run-all",),),
            spill_rate=0.10, networks=2,
        ),
        # Data integration only: dense same-operator bundles give multi-
        # candidate index queries; numerics and models do no work. 8000
        # lines keep three set-ups of this dense preset inside a run's time
        # limit; 10% spills give about 1000 spills, enough for spill_recall
        # to stay steady across seeds.
        Workload(
            name="integrate",
            why="preset b, 8000 lines, merge/attribute/featurize: ingest, projection, R-tree, matcher and artifact JSON dominate",
            preset="b", n_lines=8000, drop_id_like=True,
            commands=(("merge",), ("attribute",), ("featurize",)),
            spill_rate=0.10,
        ),
    )
}
