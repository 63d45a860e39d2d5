"""Command-line pipeline driver.

Exit codes: 0 success, 2 configuration/validation error, 3 stage failure.
Each stage writes its artifacts under --out and appends to the run log;
run-all chains every stage in pipeline order. A stage's module is imported
when the stage first runs, so a process that runs one stage loads only the
code that stage uses.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import pipeline
from .config import ConfigError, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _stage(module: str, name: str):
    """Stage `name` of `module`, which is imported when the stage is called.

    __import__ takes the import statement's path, so -X importtime lists the
    module, which it does not for importlib.import_module."""
    def run(cfg, paths, manifest) -> dict:
        stage = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
        return stage(cfg, paths, manifest)
    return run


STAGES = {
    "synth": _stage("pipeline", "stage_synth"),
    "merge": _stage("pipeline", "stage_merge"),
    "attribute": _stage("pipeline", "stage_attribute"),
    "featurize": _stage("pipeline", "stage_featurize"),
    "train": _stage("modeling", "stage_train"),
    "evaluate": _stage("modeling", "stage_evaluate"),
    "cluster": _stage("modeling", "stage_cluster"),
    "report": _stage("report", "stage_report"),
}

RUN_ALL_ORDER = (
    "synth", "merge", "attribute", "featurize", "train", "evaluate", "cluster", "report",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowline-risk",
        description="Flowline spill-risk pipeline: merge, attribute, featurize, model, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "run-all"):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="run seed (mandatory here or in the config)")
        p.add_argument("--out", default=None, help="run output directory")
        p.add_argument("--pca", choices=("on", "off"), default=None,
                       help="train the PCA lane next to the raw lane")
        p.add_argument("--pca-k", type=int, default=None, dest="pca_k",
                       help="retained components; 0 selects by the 95%% variance rule")
        p.add_argument("--drop-id-like", action="store_const", const="true", default=None,
                       dest="drop_id_like", help="drop flowline/location id one-hot columns")
        p.add_argument("--ladder", default=None, help='tolerance steps, e.g. "0,1,2,5,10,15,20,25"')
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "out_dir": args.out,
        "pca": args.pca,
        "pca_k": args.pca_k,
        "drop_id_like": args.drop_id_like,
        "ladder": args.ladder,
    }


def _run_stage(name: str, cfg, paths, manifest) -> None:
    started = time.perf_counter()
    stats = STAGES[name](cfg, paths, manifest)
    elapsed = time.perf_counter() - started
    pipeline.append_run_log(paths, name, stats, elapsed)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(stats.items()) if not isinstance(v, dict))
    print(f"[{name}] done in {elapsed:.2f}s{': ' + summary if summary else ''}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        paths = pipeline.RunPaths(root=Path(cfg.out_dir)).ensure()
        manifest = pipeline.Manifest(paths)
    except (OSError, pipeline.UnreadableManifest) as exc:
        print(f"cannot open run directory {cfg.out_dir}: {exc}", file=sys.stderr)
        return EXIT_STAGE

    if args.command == "run-all":
        names = [n for n in RUN_ALL_ORDER if not (n == "synth" and cfg.descriptive_path)]
    else:
        names = [args.command]

    for name in names:
        try:
            _run_stage(name, cfg, paths, manifest)
        except (pipeline.MissingArtifact, pipeline.SchemaHashMismatch, pipeline.StaleArtifact,
                pipeline.InconsistentArtifact) as exc:
            print(f"stage {name} failed: {exc}", file=sys.stderr)
            return EXIT_STAGE
        except ConfigError as exc:
            print(f"config error in stage {name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except Exception as exc:  # stage-level failure, keep the exit contract
            print(f"stage {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
