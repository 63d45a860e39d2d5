import copy
import json
import logging
import math
import os
import re
import shutil
import subprocess
from dataclasses import fields
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowline_risk import cli, fileio, modeling, numerics, pipeline
from flowline_risk.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from flowline_risk.config import ConfigError, RunConfig, load_config
from flowline_risk.evaluation import metric_rows
from flowline_risk.features import (
    ColumnMeta,
    FeatureConfig,
    assemble,
    load_dataset,
    save_dataset,
    standardize,
    stratified_split,
)
from flowline_risk.ingest import parse_descriptive, parse_operational, parse_spills
from flowline_risk.matcher import MergedFlowlines, assign_risk, match_flowlines, match_spills
from flowline_risk.ml import KNNClassifier, fit_kmeans, schema_hash
from flowline_risk.modeling import _pca_by_config

from merged_oracle import merged_records, merged_to_dict
from rundiff import comparable_files, differing
from test_workers import child_pids, on_cpus


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "flowline_risk", *args],
        capture_output=True, text=True,
    )


def write_config(path: Path, **overrides) -> Path:
    base = {
        "seed": 7,
        "synth_preset": "a",
        "synth_n_lines": 240,  # enough lines for >= 2 spill-source positives
        "drop_id_like": "true",
        "reference_date": "2024-06-30",
        "gbdt_trees": 15,
        "adaboost_stumps": 15,
        "rf_trees": 15,
        "lr_epochs": 100,
        "svm_epochs": 60,
    }
    base.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


def count_calls(monkeypatch, fn) -> mock.Mock:
    """Wrap fn under every name the package binds it to; the mock counts calls."""
    counter = mock.Mock(wraps=fn)
    for name, module in list(sys.modules.items()):
        if name.startswith("flowline_risk"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counter)
    return counter


def parent_layout(doc: dict, key: str, array) -> None:
    """Put the array recorded as `key` back inside its JSON document, where
    earlier versions of its stage wrote it: merged.json's vertices as one
    flat x0, y0, x1, ... list, training.json's PCA components as rows."""
    if key == "merged_xy":
        doc["geometry"]["xy"] = array.ravel().tolist()
    else:
        doc["pca"]["components"] = array.tolist()


def run_stages(cfg: Path, out: Path, *stages: str) -> None:
    for stage in stages:
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_OK


class TestConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nladder = 0,5,25\n# comment\npca = off\n")
        cfg = load_config(path, {"pca_k": 4})
        assert cfg.seed == 3
        assert cfg.ladder == (0.0, 5.0, 25.0)
        assert cfg.pca is False
        assert cfg.pca_k == 4

    def test_seed_mandatory(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pca = on\n")
        cfg = load_config(path)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_input_path(self, tmp_path):
        cfg = load_config(None, {"seed": 1, "descriptive_path": str(tmp_path / "nope.geojson")})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_echo_round_trips_with_declared_types(self, tmp_path):
        # Every echoed field, written back as key = value text, loads equal
        # and with the type its RunConfig annotation declares.
        cfg = RunConfig(seed=11, synth_area=12345.678, ladder=(0.0, 2.5, 30.0), pca=False,
                        drop_id_like=True, reference_date="2024-06-30", rf_mtry=3)
        path = tmp_path / "run.cfg"
        path.write_text("".join(
            f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in cfg.echo().items()))
        back = load_config(path)
        for f in fields(RunConfig):
            if f.name == "out_dir":
                continue
            want, got = getattr(cfg, f.name), getattr(back, f.name)
            assert got == want and type(got) is type(want), f.name


class TestExitCodes:
    def test_missing_seed_is_config_error(self, tmp_path):
        proc = run_cli("synth", "--out", str(tmp_path / "r"))
        assert proc.returncode == EXIT_CONFIG

    def test_train_without_featurize_is_stage_failure(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        proc = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert proc.returncode == EXIT_STAGE
        assert "artifact" in proc.stderr

    def test_truncated_manifest_is_stage_failure(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=80)
        out = tmp_path / "r"
        run_stages(cfg, out, "synth", "merge")
        manifest = out / "artifacts" / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:200])
        proc = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == EXIT_STAGE
        assert "manifest.json is unreadable" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_interrupted_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=80)
        out = tmp_path / "r"
        run_stages(cfg, out, "synth")
        manifest = out / "artifacts" / "manifest.json"
        before = manifest.read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(fileio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["merge", "--config", str(cfg), "--out", str(out)])
        assert manifest.read_bytes() == before
        assert not list(out.rglob("*.tmp"))

    def test_interrupted_write_keeps_previous_features(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=80)
        out = tmp_path / "r"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        features = out / "artifacts" / "features.csv"
        before = features.read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(fileio.os, "replace", interrupted)
        wider = write_config(tmp_path / "wider.cfg", synth_n_lines=80, drop_id_like="false")
        with pytest.raises(KeyboardInterrupt):
            main(["featurize", "--config", str(wider), "--out", str(out)])
        assert features.read_bytes() == before
        assert not list(out.rglob("*.tmp"))

    def test_models_fitted_on_other_columns_refused(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", drop_id_like="false")
        out = tmp_path / "r"
        run_stages(cfg, out, "run-all")
        artifacts = out / "artifacts"
        fitted = json.loads((artifacts / "models" / "LR_pca.json").read_text())["schema_hash"]
        assert main(["featurize", "--config", str(cfg), "--out", str(out),
                     "--drop-id-like"]) == EXIT_OK
        narrow = [ColumnMeta.from_dict(d) for d in
                  json.loads((artifacts / "features.meta.json").read_text())["columns"]]
        proc = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == EXIT_STAGE
        assert (f"stage evaluate failed: model 'model_LR_pca' was fitted against feature "
                f"schema {fitted}, but the features now have schema {schema_hash(narrow)}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr and "ValueError" not in proc.stderr

    def test_unsplittable_labels_fail_before_any_fit(self, tmp_path):
        # 20 lines of preset a at seed 5 give one positive line, which the
        # stratified split can only put in train
        cfg = write_config(tmp_path / "run.cfg", seed=5, synth_n_lines=20)
        out = tmp_path / "r"
        proc = run_cli("run-all", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == EXIT_STAGE
        assert "stage train failed" in proc.stderr
        assert "class 0: 19, class 1: 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list((out / "artifacts" / "models").glob("*.json"))

    @pytest.mark.parametrize("key, value", [
        ("scale_factor", "0"), ("train_fraction", "1.5"), ("knn_k", "0"),
        ("reference_date", "2024-13-45"), ("synth_preset", "aa"),
        ("rf_trees", "0"), ("gbdt_trees", "0"), ("adaboost_stumps", "0"),
        ("rf_depth", "0"), ("gbdt_depth", "0"), ("gbdt_shrinkage", "0"),
        ("gbdt_shrinkage", "-1"), ("gbdt_shrinkage", "inf"), ("rf_mtry", "-3"),
        ("pca_k", "-3"), ("pca_variance_threshold", "0"), ("pca_variance_threshold", "1.5"),
        ("pca_variance_threshold", "nan"), ("lr_epochs", "0"), ("lr_rate", "-1"),
        ("lr_rate", "nan"), ("lr_rate", "0"), ("lr_l2", "-5"), ("lr_l2", "inf"),
        ("svm_c", "-1"), ("svm_c", "nan"), ("svm_epochs", "0"),
    ])
    def test_bad_setting_fails_before_any_stage(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "run.cfg", **{key: value})
        out = tmp_path / "r"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key.replace("_", " ") in err.replace("_", " ")  # names the setting
        assert not out.exists()

    @pytest.mark.parametrize("preset, key, value", [
        ("custom", "synth_spill_rate", "1.5"), ("custom", "synth_area", "nan"),
        ("custom", "synth_area", "-100"), ("custom", "synth_n_lines", "0"),
        ("a", "synth_n_lines", "0"), ("b", "synth_n_lines", "-3"),
        ("custom", "synth_min_separation", "inf"), ("custom", "synth_jitter_sigma", "-1"),
        ("custom", "synth_spill_lateral_sigma", "nan"), ("custom", "synth_n_operators", "0"),
        ("custom", "synth_operator_clustering", "1.5"),
    ])
    def test_bad_synth_setting_fails_before_any_stage(self, tmp_path, capsys, preset, key, value):
        cfg = write_config(tmp_path / "run.cfg", synth_preset=preset, **{key: value})
        out = tmp_path / "r"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
        assert not out.exists()

    def test_mtry_wider_than_a_lane_fails_before_any_fit(self, tmp_path, capsys):
        # the raw lane is wide enough for rf_mtry = 4, the 3-column PCA lane is not
        cfg = write_config(tmp_path / "run.cfg", pca_k=3, rf_mtry=4)
        out = tmp_path / "r"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error in stage train: rf_mtry = 4 exceeds the 3 columns of the pca lane" in err
        assert not list((out / "artifacts" / "models").glob("*.json"))

    def test_pca_k_above_the_gram_rank_fails_the_stage(self, tmp_path, capsys):
        # at default width the train lane has fewer rows than columns, so PCA
        # finds at most rows - 1 components
        cfg = write_config(tmp_path / "run.cfg", drop_id_like="false", pca_k=500)
        out = tmp_path / "r"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
        err = capsys.readouterr().err
        found = re.search(r"stage train failed: BadK: k must be in \[1, (\d+)\], got 500", err)
        assert found, err
        meta = json.loads((out / "artifacts" / "features.meta.json").read_text())
        assert int(found.group(1)) < meta["n_rows"] < len(meta["columns"])

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", drop_id_lke="true")
        out = tmp_path / "r"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "unknown config key 'drop_id_lke'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ladder_flag(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        proc = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "r"),
                       "--ladder", "5,4,3")
        assert proc.returncode == EXIT_CONFIG

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("steps", ["nan", "0,nan", "inf", "1,inf"])
    def test_non_finite_ladder_fails_before_any_stage(self, tmp_path, capsys, source, steps):
        # nan would leave every record unmatched, inf make every line a candidate of every record
        overrides = {"ladder": steps} if source == "config" else {}
        cfg = write_config(tmp_path / "run.cfg", **overrides)
        flag = ["--ladder", steps] if source == "flag" else []
        out = tmp_path / "r"
        assert main(["merge", "--config", str(cfg), "--out", str(out), *flag]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bad ladder: ladder steps must be finite")
        assert not out.exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One finished run-all; tests copy it before changing anything."""
    root = tmp_path_factory.mktemp("finished")
    cfg = write_config(root / "run.cfg")
    out = root / "run"
    assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return cfg, out


class TestRunLog:
    def test_synth_placement_counts_reach_the_log_and_the_cli_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=80)
        out = tmp_path / "r"
        run_stages(cfg, out, "synth")
        (entry,) = [json.loads(line) for line in
                    (out / "artifacts" / "run_log.jsonl").read_text().splitlines()]
        stats = entry["stats"]
        assert stats["placement_attempts"] == (
            80 + stats["rejected_before_snap"] + stats["rejected_after_snap"])
        printed = capsys.readouterr().out
        for key in ("placement_attempts", "rejected_before_snap", "rejected_after_snap"):
            assert f"{key}={stats[key]}" in printed

    @pytest.mark.parametrize("damage, line_no", [
        ("truncated", 8), ("not_utf8", 1), ("not_json", 3), ("not_an_entry", 2),
    ])
    def test_unreadable_log_is_a_named_stage_failure(self, finished_run, tmp_path, capsys,
                                                     damage, line_no):
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        log = out / "artifacts" / "run_log.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 8  # one entry per stage of run-all
        if damage == "truncated":
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
        elif damage == "not_utf8":
            lines[0] = b"\xff\xfe" + lines[0]
        elif damage == "not_json":
            lines[2] = b"garbage\n"
        else:
            lines[1] = b'["merge"]\n'
        log.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert f"UnreadableRunLog: {log} line {line_no} is unreadable" in err
        assert "Traceback" not in err

    def test_missing_log_gives_a_report_without_timings(self, finished_run, tmp_path):
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        (out / "artifacts" / "run_log.jsonl").unlink()
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["timings"] == {}
        # match_stats come from hashed artifacts, so they survive the log.
        assert not differing(out, finished)

    def test_match_stats_are_the_logged_stats_and_ignore_log_edits(self, finished_run, tmp_path):
        cfg, finished = finished_run
        logged = {}
        for line in (finished / "artifacts" / "run_log.jsonl").read_text().splitlines():
            entry = json.loads(line)
            logged[entry["stage"]] = entry["stats"]
        report = json.loads((finished / "report.json").read_text())
        assert report["match_stats"] == {stage: logged[stage]
                                         for stage in ("merge", "attribute", "featurize")}

        out = tmp_path / "run"
        shutil.copytree(finished, out)
        log = out / "artifacts" / "run_log.jsonl"
        edited = [json.loads(line) for line in log.read_text().splitlines()]
        for entry in edited:
            entry["stats"] = {"edited": True}
        log.write_text("".join(json.dumps(entry) + "\n" for entry in edited))
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert not differing(out, finished)


class TestStageChaining:
    def test_run_all_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

        report = json.loads((out / "report.json").read_text())
        assert len(report["metrics"]["rows"]) == 36
        assert len(report["clustering"]["scores"]) == 4  # sweep over k = 2..5
        assert isinstance(report["clustering"]["structure_found"], bool)
        assert len(list((out / "figures").glob("*.svg"))) == 8
        assert (out / "tables" / "metrics.csv").exists()
        assert (out / "artifacts" / "merge_audit.csv").exists()

    def test_no_structure_flag_and_warning(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        for scores, found in (([0.2, math.nextafter(0.25, 1.0), 0.1, 0.0], True),
                              ([0.2, 0.25, 0.1, 0.0], False)):
            caplog.clear()
            with mock.patch("flowline_risk.evaluation.silhouettes", return_value=scores), \
                    caplog.at_level(logging.WARNING, logger="flowline_risk.modeling"):
                run_stages(cfg, out, "cluster")
            doc = json.loads((out / "artifacts" / "clustering.json").read_text())
            assert doc["structure_found"] is found
            assert doc["best_k"] == 3  # the rule is unchanged either way
            warned = [r for r in caplog.records if "no cluster structure" in r.getMessage()]
            assert len(warned) == (0 if found else 1)

    def test_stale_artifact_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["merge", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

        # Still a consistent geometry, so only the recorded hash can tell.
        path = out / "artifacts" / "merged_xy.npy"
        xy = fileio.read_array(path)
        xy[0, 0] += 1.0
        fileio.write_array(path, xy)

        capsys.readouterr()
        code = main(["attribute", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_STAGE
        assert "'merged_xy' changed on disk" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, path, drop, writer, stages", [
        ("merged", "merged.json", "stats", "merge", ("featurize", "report")),
        ("merged", "merged.json", "geometry", "merge", ("attribute", "featurize", "report")),
        ("features_meta", "features.meta.json", "columns", "featurize", ("train", "evaluate", "report")),
        # merged.json as one dict per merged flowline under "records"
        ("merged", "merged.json", "operational", "merge", ("attribute", "featurize", "report")),
        # the vertices, or the PCA components, inside the JSON document and
        # no array in the manifest
        ("merged", "merged.json", "merged_xy", "merge", ("attribute", "featurize", "report")),
        ("training", "training.json", "pca_components", "train", ("evaluate",)),
    ])
    def test_artifact_in_another_layout_names_the_stage_to_rerun(self, finished_run, tmp_path, capsys,
                                                                  artifact, path, drop, writer, stages):
        # A JSON artifact without a key or an array its readers need,
        # recorded in the manifest as if its stage in another version had
        # written it.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        manifest = pipeline.Manifest(pipeline.RunPaths(out))
        path = out / "artifacts" / path
        doc = json.loads(path.read_text())
        if drop == "operational":
            merged = MergedFlowlines.from_json(doc, fileio.read_array(out / "artifacts" / "merged_xy.npy"))
            doc = {"records": [merged_to_dict(m) for m in merged_records(merged)], "stats": doc["stats"]}
        elif drop in manifest.entries:
            array_path = out / manifest.entries.pop(drop)["path"]
            parent_layout(doc, drop, fileio.read_array(array_path))
            array_path.unlink()
        else:
            del doc[drop]
        fileio.write_json(path, doc)
        manifest.record(artifact, path, writer)

        capsys.readouterr()
        for stage in stages:
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            err = capsys.readouterr().err
            assert err == (f"stage {stage} failed: artifact {artifact!r} has no {drop!r}: it was written "
                           f"in another layout; rerun stage {writer!r} and the stages after it\n")

    def test_older_stage_rerun_over_a_newer_run_names_the_stage_to_rerun(self, finished_run, tmp_path,
                                                                         capsys):
        # merge and train of an earlier version rerun in this run directory:
        # the arrays inside merged.json and training.json, and the arrays
        # recorded beside them left from the earlier run.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        manifest = pipeline.Manifest(pipeline.RunPaths(out))
        for artifact, key, writer in (("merged", "merged_xy", "merge"), ("training", "pca_components", "train")):
            path = out / manifest.entries[artifact]["path"]
            doc = json.loads(path.read_text())
            parent_layout(doc, key, fileio.read_array(out / manifest.entries[key]["path"]))
            fileio.write_json(path, doc)
            manifest.record(artifact, path, writer)

        capsys.readouterr()
        for stage, artifact, key, writer in (("attribute", "merged", "merged_xy", "merge"),
                                             ("evaluate", "training", "pca_components", "train")):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            assert capsys.readouterr().err == (
                f"stage {stage} failed: artifact {artifact!r} has no {key!r}: it was written in another "
                f"layout; rerun stage {writer!r} and the stages after it\n")

    @pytest.mark.parametrize("edit, problem, artifact", [
        ("short_column", "operational column 'diameter_in' does not have one value per geometry", "merged"),
        ("short_geometry", "operational column 'construction_date' does not have one value per geometry",
         "merged"),
        ("decreasing_geoms", "geoms offsets must rise by at least 1", "merged"),
        ("parts_past_xy", "parts must run from 0 to", "merged"),
        # the vertices as the flat x0, y0, x1, ... list, one value short
        ("odd_xy", "cannot load a rank-2 float64 array: it holds a (", "merged_xy"),
    ])
    def test_inconsistent_merged_json_names_the_stage_to_rerun(self, finished_run, tmp_path, capsys,
                                                               edit, problem, artifact):
        # merged.json and merged_xy.npy, re-recorded in the manifest, whose
        # columns, offsets and vertices do not fit together: no reader drops
        # a row.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        path = out / "artifacts" / "merged.json"
        xy_path = out / "artifacts" / "merged_xy.npy"
        doc = json.loads(path.read_text())
        geometry = doc["geometry"]
        xy = fileio.read_array(xy_path)
        if edit == "short_column":
            doc["operational"]["diameter_in"].pop()
        elif edit == "short_geometry":  # a whole geometry less, its arrays consistent
            geometry["geoms"].pop()
            del geometry["parts"][geometry["geoms"][-1] + 1:]
            xy = xy[:geometry["parts"][-1]]
        elif edit == "decreasing_geoms":
            geometry["geoms"][2] = geometry["geoms"][1] - 1
        elif edit == "parts_past_xy":
            geometry["parts"][-1] += 2
        else:
            xy = xy.ravel()[:-1]
        fileio.write_json(path, doc)
        fileio.write_array(xy_path, xy)
        manifest = pipeline.Manifest(pipeline.RunPaths(out))
        manifest.record("merged", path, "merge")
        manifest.record("merged_xy", xy_path, "merge")

        capsys.readouterr()
        for stage in ("attribute", "featurize", "report"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            err = capsys.readouterr().err
            assert err.startswith(f"stage {stage} failed: artifact {artifact!r} is inconsistent ("), err
            assert problem in err
            assert err.endswith("rerun stage 'merge' and the stages after it\n")

    @pytest.mark.parametrize("artifact, path, edit, stages, problem", [
        ("attributions", "attributions.csv", "empty", ("featurize", "report"), "it is empty"),
        ("attributions", "attributions.csv", "bad_distance", ("featurize", "report"),
         "line 2: could not convert string to float: 'far'"),
        ("attributions", "attributions.csv", "short_row", ("featurize", "report"),
         "line 2: 3 fields, not 4"),
        ("spill_diagnostics", "spill_diagnostics.csv", "empty", ("report",), "it is empty"),
        ("spill_diagnostics", "spill_diagnostics.csv", "other_header", ("report",),
         "its header is ['file', 'line', 'reason'], not ['file', 'row', 'reason']"),
        ("spill_diagnostics", "spill_diagnostics.csv", "bad_row", ("report",),
         "line 2: invalid literal for int() with base 10: 'two'"),
    ])
    def test_inconsistent_csv_artifact_names_the_stage_to_rerun(self, finished_run, tmp_path, capsys,
                                                                artifact, path, edit, stages, problem):
        # A CSV artifact its stage cannot have written, re-recorded in the
        # manifest: no reader takes it for one without rows.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        path = out / "artifacts" / path
        header, *rows = path.read_text().splitlines()
        if edit == "empty":
            text = ""
        elif edit == "other_header":
            text = header.replace("row", "line") + "\n"
        elif edit == "bad_row":
            text = f"{header}\nspills.csv,two,bad date\n"
        else:
            fields = rows[0].split(",")
            if edit == "bad_distance":
                fields[2] = "far"
            else:
                del fields[2]
            text = "\n".join([header, ",".join(fields)] + rows[1:]) + "\n"
        path.write_text(text)
        pipeline.Manifest(pipeline.RunPaths(out)).record(artifact, path, "attribute")

        capsys.readouterr()
        for stage in stages:
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            err = capsys.readouterr().err
            assert err == (f"stage {stage} failed: artifact {artifact!r} is inconsistent ({problem}); "
                           "rerun stage 'attribute' and the stages after it\n")

    @pytest.mark.parametrize("edit, problem", [
        ("missing_key", "has no 'threshold': it was written in another layout"),
        # the nested trees every earlier version of train wrote
        ("nested_trees", "has no 'feature': it was written in another layout"),
        ("feature_out_of_range", "is inconsistent (a node splits on column 1000000 of a matrix "
                                 "with 39 columns)"),
        ("child_past_its_tree", "is inconsistent (a child index is not after its node in the node's tree)"),
    ])
    def test_inconsistent_model_names_train(self, finished_run, tmp_path, capsys, edit, problem):
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        path = out / "artifacts" / "models" / "RF_raw.json"
        doc = json.loads(path.read_text())
        params = doc["parameters"]
        split = next(i for i, f in enumerate(params["feature"]) if f >= 0)
        if edit == "missing_key":
            del params["threshold"]
        elif edit == "nested_trees":
            doc["parameters"] = {"trees": [{"prediction": 0, "proba": 0.25}]}
        elif edit == "feature_out_of_range":
            params["feature"][split] = 1000000
        else:  # the root of the next tree
            params["right"][split] = min(s for s in params["tree_start"] if s > split)
        fileio.write_json(path, doc)
        pipeline.Manifest(pipeline.RunPaths(out)).record("model_RF_raw", path, "train")

        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith(f"stage evaluate failed: artifact 'model_RF_raw' {problem}"), err
        assert err.endswith("rerun stage 'train' and the stages after it\n")

    @pytest.mark.parametrize("artifact, path, damage, writer, stages, problem", [
        ("training", "training.json", "truncate", "train", ("evaluate",), ""),
        ("features_meta", "features.meta.json", "truncate", "featurize", ("train", "evaluate", "cluster"), ""),
        ("clustering", "clustering.json", "truncate", "cluster", ("report",), ""),
        ("metrics", "metrics.json", "truncate", "evaluate", ("report",), ""),
        ("model_RF_raw", "models/RF_raw.json", "truncate", "train", ("evaluate",), ""),
        ("attributions", "attributions.csv", "0xff", "attribute", ("featurize", "report"), "byte 0xff"),
        ("spill_diagnostics", "spill_diagnostics.csv", "0xff", "attribute", ("report",), "byte 0xff"),
        ("training", "training.json", "0xff", "train", ("evaluate",), "byte 0xff"),
        ("merged", "merged.json", "0xff", "merge", ("attribute", "featurize", "report"), "byte 0xff"),
        ("features", "features.csv", "truncate", "featurize", ("train", "evaluate", "cluster"), " fields, not "),
        ("features", "features.csv", "empty", "featurize", ("train", "evaluate", "cluster"), "it is empty"),
    ])
    def test_undecodable_artifact_names_the_stage_to_rerun(self, finished_run, tmp_path, capsys, artifact,
                                                           path, damage, writer, stages, problem):
        # Bytes that do not decode, re-recorded in the manifest: cut in
        # half, emptied, or with a 0xff byte in the middle.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        path = out / "artifacts" / path
        data = path.read_bytes()
        half = len(data) // 2
        path.write_bytes({"truncate": data[:half], "empty": b"",
                          "0xff": data[:half] + b"\xff" + data[half + 1:]}[damage])
        pipeline.Manifest(pipeline.RunPaths(out)).record(artifact, path, writer)

        capsys.readouterr()
        for stage in stages:
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            err = capsys.readouterr().err
            assert err.startswith(f"stage {stage} failed: artifact {artifact!r} is inconsistent ("), err
            assert problem in err
            assert err.endswith(f"); rerun stage {writer!r} and the stages after it\n"), err
            assert len(err.splitlines()) == 1

    def test_rejected_spill_rows_land_in_spill_diagnostics(self, finished_run, tmp_path):
        _, finished = finished_run
        inputs = tmp_path / "inputs"
        shutil.copytree(finished / "data", inputs)
        spills = inputs / "spills.csv"
        n_rows = len(spills.read_text().splitlines()) - 1
        with open(spills, "a", encoding="utf-8") as fh:
            fh.write("S_BAD,Acme Energy LLC,not-a-lat,-105.0,CORROSION,2020-01-01\n")
        cfg = write_config(tmp_path / "run.cfg", descriptive_path=inputs / "descriptive.geojson",
                           operational_path=inputs / "operational.csv", spills_path=spills)
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

        diag = out / "artifacts" / "spill_diagnostics.csv"
        assert diag.read_text().splitlines() == [
            "file,row,reason", f"{spills},{n_rows + 1},\"bad spill coordinates ('not-a-lat', '-105.0')\""]
        assert json.loads((out / "artifacts" / "manifest.json").read_text())[
            "spill_diagnostics"]["stage"] == "attribute"
        attribute = json.loads((out / "report.json").read_text())["match_stats"]["attribute"]
        assert attribute["spills_total"] == n_rows + 1
        assert attribute["spills_attributed"] + attribute["spills_unattributed"] == n_rows

    def test_individual_stage_chain(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=80)
        out = tmp_path / "run"
        for stage in ("synth", "merge", "attribute", "featurize"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        features = out / "artifacts" / "features.csv"
        assert features.exists()

    def test_pca_off_halves_metric_rows(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=300)
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg), "--out", str(out), "--pca", "off"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["metrics"]["rows"]) == 18


class TestEachResultOnce:
    def test_one_eigendecomposition_per_pca_stage(self, tmp_path, monkeypatch):
        on_cpus(monkeypatch, 1)  # a Mock counts only the calls made in this process
        eigen = count_calls(monkeypatch, numerics.sym_eigen)
        kmeans = count_calls(monkeypatch, fit_kmeans)
        per_stage = {}

        def counted(name, stage):
            def run(*args):
                before = eigen.call_count, kmeans.call_count
                stats = stage(*args)
                per_stage[name] = (eigen.call_count - before[0], kmeans.call_count - before[1])
                return stats
            return run

        for name, stage in list(cli.STAGES.items()):
            monkeypatch.setitem(cli.STAGES, name, counted(name, stage))
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["run-all", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--pca", "on"]) == EXIT_OK

        # (sym_eigen calls, fit_kmeans calls); the sweep covers k = 2..5
        assert per_stage["train"] == (1, 0)
        assert per_stage["cluster"] == (1, 4)
        assert eigen.call_count == 2 and kmeans.call_count == 4

    def test_labels_derived_from_attributions(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg_path, out, "synth", "merge", "attribute")
        artifacts = out / "artifacts"
        assert not (artifacts / "labeled.json").exists()
        assert "labeled" not in json.loads((artifacts / "manifest.json").read_text())
        run_stages(cfg_path, out, "featurize")

        cfg = load_config(cfg_path)
        params = cfg.projection_params()
        reference = cfg.resolve_reference_date()
        desc = parse_descriptive(out / "data" / "descriptive.geojson", params=params)
        ops = parse_operational(out / "data" / "operational.csv", params=params,
                                reference_date=reference)
        spills = parse_spills(out / "data" / "spills.csv", params=params,
                              reference_date=reference)
        merged, _, _ = match_flowlines(ops.records, desc.records, cfg.tolerance_ladder(), params)
        risk = assign_risk(
            merged, match_spills(spills.records, merged, cfg.tolerance_ladder(), params))
        ds = assemble(merged, risk, FeatureConfig(drop_id_like=True, reference_date=reference))
        assert ds.y.sum() > 0
        save_dataset(ds, tmp_path / "oracle.csv", tmp_path / "oracle.meta.json")
        assert (tmp_path / "oracle.csv").read_bytes() == (artifacts / "features.csv").read_bytes()

    def test_knn_fitted_in_evaluate_from_the_train_split(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg_path, out, "run-all")
        artifacts = out / "artifacts"
        assert not list((artifacts / "models").glob("KNN_*.json"))
        assert not [k for k in json.loads((artifacts / "manifest.json").read_text())
                    if k.startswith("model_KNN_")]
        assert "models" not in json.loads((artifacts / "training.json").read_text())
        columns = json.loads((artifacts / "merged.json").read_text())["operational"]
        assert columns["row_id"] and "risk" not in columns

        # The train split standardized and PCA-projected the way stage_train does it.
        cfg = load_config(cfg_path)
        ds = load_dataset(artifacts / "features.csv", fileio.read_json(artifacts / "features.meta.json"))
        split = stratified_split(ds, cfg.train_fraction, cfg.seed)
        train_z, test_z, _, _ = standardize(split.train.X, split.test.X)
        pca, _ = _pca_by_config(cfg, train_z)
        lanes = {"raw": (train_z, test_z),
                 "pca": (numerics.pca_transform(pca, train_z), numerics.pca_transform(pca, test_z))}
        rows = json.loads((artifacts / "metrics.json").read_text())["rows"]
        for lane, (X_train, X_test) in lanes.items():
            knn = KNNClassifier(cfg.knn_k).fit(X_train, split.train.y)
            want = [dict(r.to_dict(), pca=lane == "pca")
                    for r in metric_rows("KNN", split.test.y, knn.predict(X_test))]
            assert want == [r for r in rows
                            if r["classifier"] == "KNN" and r["pca"] == (lane == "pca")]

    def test_merged_json_keeps_only_what_later_stages_read(self, finished_run):
        _, out = finished_run
        doc = json.loads((out / "artifacts" / "merged.json").read_text())
        assert sorted(doc) == ["geometry", "operational", "stats"]
        assert sorted(doc["geometry"]) == ["geoms", "parts"]
        assert fileio.read_array(out / "artifacts" / "merged_xy.npy").shape == (doc["geometry"]["parts"][-1], 2)
        assert {len(values) for values in doc["operational"].values()} == {len(doc["geometry"]["geoms"]) - 1}
        assert sorted(doc["stats"]) == [
            "descriptive_accepted", "descriptive_total", "matched", "matched_by_step",
            "operational_accepted", "operational_total", "rejected_rows", "unmatched"]

    def test_merged_record_codec_round_trips(self, synth_a, tmp_path):
        merged, _, _ = match_flowlines(synth_a.operational, synth_a.descriptive)
        doc = json.loads(json.dumps(merged.to_json()))
        fileio.write_array(tmp_path / "xy.npy", merged.geometry.xy)
        back = MergedFlowlines.from_json(doc, fileio.read_array(tmp_path / "xy.npy"))
        assert back == merged
        assert back.geometry.xy.tobytes() == merged.geometry.xy.tobytes()
        assert sorted(doc["operational"]) == sorted([
            "row_id", "operator_number", "flowline_id", "location_id", "status",
            "flowline_action", "location_type", "fluid_type", "material", "diameter_in",
            "length_ft", "max_op_pressure", "construction_date", "operator_name",
        ])

    def test_edited_attributions_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize", "train", "evaluate",
                   "cluster")
        attributions = out / "artifacts" / "attributions.csv"
        rows = attributions.read_text().splitlines(keepends=True)
        attributions.write_text("".join(rows[:-1]))  # forget one spill

        capsys.readouterr()
        for stage in ("featurize", "report"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            assert "'attributions' changed on disk" in capsys.readouterr().err


# What a process that runs merge, attribute or featurize must not import:
# the other stages' modules and the libraries only they use, and numpy.ma,
# which np.unique imports on its first call.
OTHER_STAGES_MODULES = {
    "flowline_risk.ml", "flowline_risk.evaluation", "flowline_risk.workers",
    "flowline_risk.numerics", "flowline_risk.report", "flowline_risk.figures",
    "flowline_risk.modeling", "flowline_risk.synth",
    "multiprocessing", "concurrent.futures", "jsonschema", "numpy.ma",
}


class TestImportBudget:
    def test_single_stage_processes_load_only_their_stage(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", synth_preset="b", synth_n_lines=150)
        out = tmp_path / "run"
        run_stages(cfg, out, "synth")
        # Each stage in a fresh process, as the CLI runs it, so that no module
        # another stage imported is there already.
        script = ("import json, sys\n"
                  "from flowline_risk.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(json.dumps(list(sys.modules)))\n"
                  "sys.exit(code)\n")
        for stage in ("merge", "attribute", "featurize"):
            proc = subprocess.run([sys.executable, "-c", script, stage, "--config", str(cfg), "--out", str(out)],
                                  capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            loaded = set(json.loads(proc.stdout.splitlines()[-1]))
            assert "flowline_risk.pipeline" in loaded
            assert loaded & OTHER_STAGES_MODULES == set(), stage


VALID_REPORT = {
    "run_id": "0123456789ab",
    "created_at": "2024-06-30T00:00:00+00:00",
    "config": {"seed": 1},
    "match_stats": {"merge": {"matched": 3}},
    "eda": {"fluid_type": {"name": "fluid_type", "rows": [
        {"label": "oil", "risk": 1, "count": 3, "proportion": 0.25},
        {"label": "gas", "risk": 0, "count": 9, "proportion": 0.75}]}},
    "metrics": {"rows": [{"classifier": "LR", "averaging": "macro", "pca": False, "accuracy": 0.5,
                          "precision": 1, "recall": 0.0, "f1": 0.25, "undefined": ["precision"]}]},
    "clustering": {"k_range": [2, 3], "scores": {"2": 0.1}, "best_k": 2, "structure_found": False,
                   "pc_scores": [[0.1, 0.2]], "assignments": [0], "actual": [1]},
    "figures": [{"file": "figures/silhouette.svg", "payload_ref": "clustering.scores"},
                {"file": "figures/risk_by_fluid_type.svg", "payload_ref": "eda.fluid_type"}],
    "tables": ["tables/metrics.csv"],
    "timings": {"merge": 0.5},
}

# Values that break types (a bool for an integer), enums, bounds and the run_id pattern.
REPLACEMENTS = [True, False, 0, 1, -1, 2, 2.0, 0.5, 1.5, -0.5, float("nan"), float("inf"), None,
                "", "x", "macro", "0123456789AB", "0123456789ab\n", "0123456789a", [], ["x"], [1],
                {}, {"rows": []}, {"name": "x", "rows": []}]


# One change each to VALID_REPORT, at the edges of jsonschema's semantics.
EDGE_CASES = [
    (("run_id",), "0123456789ab\n"), (("run_id",), "0123456789AB"), (("run_id",), 12),
    (("eda", "fluid_type", "rows", 0, "count"), True), (("eda", "fluid_type", "rows", 0, "count"), 2.0),
    (("eda", "fluid_type", "rows", 0, "count"), 2.5), (("eda", "fluid_type", "rows", 0, "risk"), 1.0),
    (("eda", "fluid_type", "rows", 0, "risk"), 2), (("eda", "fluid_type", "rows", 0, "proportion"), float("nan")),
    (("eda", "fluid_type", "rows", 0, "proportion"), 1), (("eda", "fluid_type", "rows", 0, "proportion"), 1.5),
    (("eda", "fluid_type", "rows", 0, "proportion"), False), (("metrics", "rows", 0, "averaging"), "micro"),
    (("metrics", "rows", 0, "pca"), 0), (("metrics", "rows", 0, "undefined"), [1]),
    (("clustering", "best_k"), 1), (("clustering", "k_range"), [2, True]), (("eda", "extra"), {"rows": []}),
    (("eda", "extra"), {"name": "x", "rows": []}), (("extra",), None), (("tables",), ("a",)),
]


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_reports(draw):
    doc = json.loads(json.dumps(VALID_REPORT))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        target = node[path[-1]] if path else doc
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "name", "rows", "risk", "label"]))] = \
                copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        elif action == "drop" and path and isinstance(node, dict):
            del node[path[-1]]
        elif path:
            node[path[-1]] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return doc


def _schema_keywords(schema):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_keywords(sub)
    for key in ("additionalProperties", "items"):
        if isinstance(schema.get(key), dict):
            yield from _schema_keywords(schema[key])


class TestReportValidation:
    def test_no_cli_process_loads_jsonschema(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=150)
        script = ("import sys\n"
                  "from flowline_risk.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print('jsonschema' in sys.modules)\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script, "run-all", "--config", str(cfg),
                               "--out", str(tmp_path / "run")], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_checker_knows_every_schema_keyword(self):
        from flowline_risk.report import REPORT_SCHEMA, SCHEMA_KEYWORDS, check_schema
        assert set(_schema_keywords(REPORT_SCHEMA)) <= set(SCHEMA_KEYWORDS)
        with pytest.raises(KeyError, match="anyOf"):
            check_schema(1, {"anyOf": [{"type": "integer"}]})

    @settings(max_examples=300, deadline=None)
    @given(mutated_reports())
    def test_rejects_what_jsonschema_rejects(self, doc):
        import jsonschema
        from flowline_risk.report import REPORT_SCHEMA, InvalidReport, _resolve_ref, check_schema, validate_report

        reference = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
        schema_ok = reference.is_valid(doc)
        try:
            check_schema(doc, REPORT_SCHEMA)
            checked = True
        except InvalidReport:
            checked = False
        assert checked == schema_ok
        try:
            validate_report(doc)
            validated = True
        except ValueError:
            validated = False
        if schema_ok:
            try:
                for fig in doc["figures"]:
                    _resolve_ref(doc, fig["payload_ref"])
            except ValueError:
                schema_ok = False
        assert validated == schema_ok

    @pytest.mark.parametrize("path, value", EDGE_CASES,
                             ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v in EDGE_CASES])
    def test_edge_cases_agree_with_jsonschema(self, path, value):
        import jsonschema
        from flowline_risk.report import REPORT_SCHEMA, InvalidReport, check_schema

        doc = json.loads(json.dumps(VALID_REPORT))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            jsonschema.validate(doc, REPORT_SCHEMA)
            schema_ok = True
        except jsonschema.ValidationError:
            schema_ok = False
        try:
            check_schema(doc, REPORT_SCHEMA)
            checked = True
        except InvalidReport:
            checked = False
        assert checked == schema_ok

    def test_valid_report_accepted_and_bool_is_no_integer(self):
        from flowline_risk.report import InvalidReport, validate_report
        validate_report(VALID_REPORT)
        doc = json.loads(json.dumps(VALID_REPORT))
        doc["eda"]["fluid_type"]["rows"][0]["count"] = True
        with pytest.raises(InvalidReport, match=r"report.eda.fluid_type.rows\[0\].count: True is not of type 'integer'"):
            validate_report(doc)

    def test_schema_validates(self, tmp_path):
        from flowline_risk.report import validate_report
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=300)
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        validate_report(report)

    def test_payload_refs_resolve(self, tmp_path):
        from flowline_risk.report import _resolve_ref, validate_report
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=300)
        out = tmp_path / "run2"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        for fig in report["figures"]:
            assert _resolve_ref(report, fig["payload_ref"]) is not None
            assert (out / fig["file"]).exists()


class TestArtifactFormat:
    def test_json_artifacts_are_one_line_with_sorted_keys(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", synth_n_lines=300)
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        written = sorted(out.rglob("*.json")) + [out / "data" / "descriptive.geojson"]
        names = {p.name for p in written}
        assert {"manifest.json", "report.json", "merged.json", "LR_raw.json",
                "descriptive.geojson"} <= names
        for path in written:
            text = path.read_text(encoding="utf-8")
            canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
            assert text == canonical, path


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=20)


class TestWriteJson:
    """write_json writes a document piece by piece; the text is the one-shot
    encoding's."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_same_text_as_one_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        fileio.write_json(path, doc)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_counters_and_nested_records(self, tmp_path):
        from collections import Counter
        doc = {"stats": {"matched_by_step": Counter(["1", "0", "1"]), "n": 3},
               "records": [{"b": [1.5, -0.0], "a": {"z": None, "é": "\u2603"}}, {}, []], "": float("nan")}
        fileio.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_unencodable_document_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        fileio.write_json(path, {"records": [1]})
        with pytest.raises(TypeError):
            fileio.write_json(path, {"records": [1, object()]})
        assert path.read_text() == '{"records":[1]}\n'
        assert list(tmp_path.iterdir()) == [path]


# float64 bit patterns the codec must keep: signed zeros, subnormals, the
# extremes, infinities and NaNs with payloads
SPECIAL_BITS = [0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0010000000000000,
                0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                0x7FF0000000000001, 0xFFF8000000000ABC, 0x7FF7FFFFFFFFFFFF]
FLOAT64_ARRAYS = hnp.arrays(
    np.uint64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    elements=st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1),
).map(lambda bits: bits.view(np.float64))


class TestWriteArray:
    """write_array and read_array are the one codec of float matrices."""

    @settings(max_examples=200, deadline=None)
    @given(FLOAT64_ARRAYS)
    def test_round_trips_bit_for_bit_with_the_same_bytes(self, tmp_path_factory, a):
        root = tmp_path_factory.mktemp("npy")
        fileio.write_array(root / "a.npy", a)
        fileio.write_array(root / "b.npy", np.asfortranarray(a))
        back = fileio.read_array(root / "a.npy")
        assert back.dtype == np.float64 and back.shape == a.shape and back.flags.c_contiguous
        assert back.tobytes() == a.tobytes()
        assert (root / "a.npy").read_bytes() == (root / "b.npy").read_bytes()
        fileio.write_array(root / "a.npy", back)
        assert (root / "a.npy").read_bytes() == (root / "b.npy").read_bytes()

    def _npy(self, path, a, shape=None) -> None:
        """a as an NPY 1.0 file, as numpy writes it with pickling allowed; with
        shape, a's bytes under a header that gives that shape."""
        with open(path, "wb") as fh:
            if shape is None:
                np.lib.format.write_array(fh, a, version=(1, 0), allow_pickle=True)
            else:
                np.lib.format.write_array_header_1_0(
                    fh, dict(np.lib.format.header_data_from_array_1_0(a), shape=shape))
                fh.write(a.tobytes())

    @pytest.mark.parametrize("damage, problem", [
        ("truncated", "43 bytes of data, but its header describes a (3, 2) array of 8-byte values"),
        ("halved", "EOF: reading array header"),
        ("emptied", "EOF: reading magic string"),
        ("flipped_magic", "the magic string is not correct"),
        ("flipped_descr", "descr is not a valid dtype descriptor"),
        ("flipped_shape", "unreadable NPY header"),
        # a Python 2 long in the shape, which only numpy's fallback parses
        ("python2_header", "unreadable NPY header (UserWarning: "),
        ("huge_shape", "but its header describes a (1000000000000, 2) array"),
        ("object_dtype", "Object arrays cannot be loaded when allow_pickle=False"),
        ("int64", "it holds a (3, 2) array of int64"),
        ("big_endian", "it holds a (3, 2) array of >f8"),
        ("rank_1", "it holds a (6,) array of float64"),
    ])
    def test_manifest_read_array_names_the_stage_to_rerun(self, tmp_path, damage, problem):
        manifest = pipeline.Manifest(pipeline.RunPaths(tmp_path).ensure())
        path = tmp_path / "artifacts" / "merged_xy.npy"
        a = np.arange(6.0).reshape(3, 2)
        fileio.write_array(path, a)
        data = path.read_bytes()
        header = data[:data.index(b"\n") + 1]
        if damage == "truncated":
            data = data[:-5]
        elif damage == "halved":
            data = data[:len(data) // 2]
        elif damage in ("emptied", "flipped_magic", "flipped_descr", "flipped_shape"):
            at = {"emptied": None, "flipped_magic": 1, "flipped_descr": header.index(b"f8"),
                  "flipped_shape": header.index(b"(3") + 1}[damage]
            data = b"" if at is None else data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
        elif damage == "python2_header":
            data = data.replace(b"(3, 2)", b"(3L,2)", 1)
        if damage.startswith(("truncated", "halved", "emptied", "flipped", "python2")):
            path.write_bytes(data)
        elif damage == "huge_shape":
            self._npy(path, a, shape=(10**12, 2))
        elif damage == "object_dtype":
            self._npy(path, np.array([[1.0, "a"]], dtype=object))
        elif damage == "int64":
            self._npy(path, a.astype(np.int64))
        elif damage == "big_endian":
            self._npy(path, a.astype(">f8"))
        else:
            fileio.write_array(path, a.ravel())
        manifest.record("merged_xy", path, "merge")
        with pytest.raises(pipeline.InconsistentArtifact) as caught:
            manifest.read_array("merged_xy", 2)
        message = str(caught.value)
        assert message.startswith("artifact 'merged_xy' is inconsistent (cannot load a rank-2 float64 array: ")
        assert problem in message
        assert message.endswith("); rerun stage 'merge' and the stages after it")

    def test_the_arrays_hold_the_values_json_held(self, finished_run):
        # merged.json held the vertices as one flat list, training.json the
        # PCA components as rows; the arrays hold the same floats, bit for bit.
        cfg_path, out = finished_run
        cfg = load_config(cfg_path)
        params = cfg.projection_params()
        desc = parse_descriptive(out / "data" / "descriptive.geojson", params=params)
        ops = parse_operational(out / "data" / "operational.csv", params=params,
                                reference_date=cfg.resolve_reference_date())
        merged, _, _ = match_flowlines(ops.records, desc.records, cfg.tolerance_ladder(), params)
        doc = json.loads(json.dumps({"geometry": {"xy": merged.geometry.xy.ravel().tolist()}}))
        xy = fileio.read_array(out / "artifacts" / "merged_xy.npy")
        assert xy.tobytes() == np.array(doc["geometry"]["xy"]).reshape(-1, 2).tobytes()

        artifacts = out / "artifacts"
        ds = load_dataset(artifacts / "features.csv", fileio.read_json(artifacts / "features.meta.json"))
        split = stratified_split(ds, cfg.train_fraction, cfg.seed)
        pca, _ = _pca_by_config(cfg, standardize(split.train.X)[0])
        doc = json.loads(json.dumps({"pca": {"components": pca.components.tolist()}}))
        components = fileio.read_array(artifacts / "pca_components.npy")
        assert components.tobytes() == np.array(doc["pca"]["components"]).tobytes()
        training = json.loads((artifacts / "training.json").read_text())
        assert components.shape == (len(training["pca"]["means"]), training["pca"]["k"])


def cli_on_cpus(cpus: int, *args, patch: str = "") -> list[str]:
    """A command line that runs the CLI with os.sched_getaffinity reporting
    `cpus` CPUs, after running the statements in `patch`."""
    script = ("import os, sys\n"
              "from flowline_risk import cli, modeling\n"
              f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
              f"{patch}\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    return [sys.executable, "-c", script, *args]


def processes_naming(text: str) -> list[int]:
    """Live processes whose command line contains text; forked workers share
    their parent's."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and text.encode() in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:  # gone meanwhile
            pass
    return pids


class TestWorkerProcesses:
    """Train and cluster fit in forked workers (flowline_risk.workers); the
    worker count changes no artifact, and no worker outlives its stage."""

    @pytest.mark.parametrize("overrides", [
        {"synth_n_lines": 300},
        {"synth_n_lines": 200, "drop_id_like": "false"},  # default width, p = 439
    ], ids=["preset-a-300", "default-width"])
    def test_one_or_two_workers_write_the_same_files(self, tmp_path, monkeypatch, overrides):
        cfg = write_config(tmp_path / "run.cfg", **overrides)
        runs = {}
        for cpus in (1, 2):
            on_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["run-all", "--config", str(cfg), "--out", str(out), "--pca", "on"]) == EXIT_OK
            runs[cpus] = comparable_files(out)
            stats = {}
            for line in (out / "artifacts" / "run_log.jsonl").read_text().splitlines():
                entry = json.loads(line)
                stats[entry["stage"]] = entry["stats"]
            assert stats["train"]["workers"] == stats["cluster"]["workers"] == cpus
            assert sorted(stats["train"]["fit_s"]) == sorted(
                f"{kind}_{lane}" for kind in ("LR", "SVM", "GBDT", "ADABOOST", "RF")
                for lane in ("raw", "pca"))
            assert sorted(stats["cluster"]["fit_s"]) == ["2", "3", "4", "5"]
        assert runs[1] == runs[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_fit_exits_3_with_its_error(self, tmp_path, monkeypatch, capsys, cpus):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        fit = modeling._timed_fit

        def gbdt_fails(job):
            if job[0].kind == "GBDT":
                raise FloatingPointError("GBDT diverged")
            return fit(job)
        monkeypatch.setattr(modeling, "_timed_fit", gbdt_fails)
        on_cpus(monkeypatch, cpus)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
        assert "stage train failed: FloatingPointError: GBDT diverged" in capsys.readouterr().err
        assert not child_pids()

    def test_a_killed_worker_exits_3_without_a_hang(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        kill = ("fit = modeling._timed_fit\n"
                "modeling._timed_fit = lambda job: os._exit(9) if job[0].kind == 'RF' else fit(job)")
        started = time.perf_counter()
        proc = subprocess.run(cli_on_cpus(2, "train", "--config", str(cfg), "--out", str(out),
                                          patch=kill),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_STAGE, proc.stderr
        assert time.perf_counter() - started < 60.0
        assert "stage train failed: BrokenProcessPool" in proc.stderr
        assert not processes_naming(str(out))

    def test_a_killed_cli_leaves_no_worker(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        run_stages(cfg, out, "synth", "merge", "attribute", "featurize")
        stall = "import time\nmodeling._timed_fit = lambda job: time.sleep(600)"
        proc = subprocess.Popen(cli_on_cpus(2, "train", "--config", str(cfg), "--out", str(out),
                                            patch=stall))
        try:
            deadline = time.monotonic() + 60.0
            while len(processes_naming(str(out))) < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(processes_naming(str(out))) == 3  # the CLI and its two workers
        finally:
            proc.kill()
            proc.wait(timeout=60)
        deadline = time.monotonic() + 30.0
        while processes_naming(str(out)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not processes_naming(str(out))

    def test_each_done_line_once_with_stdout_in_a_file(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        log = tmp_path / "stdout.txt"
        # block-buffered, so lines printed before a fork sit in the buffer the workers inherit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open(log, "w") as fh:
            proc = subprocess.run(cli_on_cpus(2, "run-all", "--config", str(cfg),
                                              "--out", str(tmp_path / "run")),
                                  stdout=fh, stderr=subprocess.PIPE, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = log.read_text().splitlines()
        for stage in cli.RUN_ALL_ORDER:
            assert sum(line.startswith(f"[{stage}] done") for line in lines) == 1, stage
        assert len(lines) == len(cli.RUN_ALL_ORDER)
