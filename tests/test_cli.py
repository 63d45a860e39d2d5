import json
import logging
import math
import os
import shutil
import subprocess
from dataclasses import fields
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from test_acceptance import _rerun_comparable_files
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
        assert _rerun_comparable_files(out) == _rerun_comparable_files(finished)

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
        assert _rerun_comparable_files(out) == _rerun_comparable_files(finished)


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

        # Still a consistent merged.json, so only its recorded hash can tell.
        merged = out / "artifacts" / "merged.json"
        doc = json.loads(merged.read_text())
        doc["geometry"]["xy"][0] += 1.0
        merged.write_text(json.dumps(doc))

        capsys.readouterr()
        code = main(["attribute", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_STAGE
        assert "'merged' changed on disk" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, path, drop, writer, stages", [
        ("merged", "merged.json", "stats", "merge", ("featurize", "report")),
        ("merged", "merged.json", "geometry", "merge", ("attribute", "featurize", "report")),
        ("features_meta", "features.meta.json", "columns", "featurize", ("train", "evaluate", "report")),
        # merged.json as one dict per merged flowline under "records"
        ("merged", "merged.json", "operational", "merge", ("attribute", "featurize", "report")),
    ])
    def test_artifact_in_another_layout_names_the_stage_to_rerun(self, finished_run, tmp_path, capsys,
                                                                  artifact, path, drop, writer, stages):
        # A JSON artifact without a key its readers need, recorded in the
        # manifest as if its stage in another version had written it.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        path = out / "artifacts" / path
        doc = json.loads(path.read_text())
        if drop == "operational":
            merged = MergedFlowlines.from_json(doc)
            doc = {"records": [merged_to_dict(m) for m in merged_records(merged)], "stats": doc["stats"]}
        else:
            del doc[drop]
        fileio.write_json(path, doc)
        pipeline.Manifest(pipeline.RunPaths(out)).record(artifact, path, writer)

        capsys.readouterr()
        for stage in stages:
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            err = capsys.readouterr().err
            assert err == (f"stage {stage} failed: artifact {artifact!r} has no {drop!r}: it was written "
                           f"in another layout; rerun stage {writer!r} and the stages after it\n")

    @pytest.mark.parametrize("edit, problem", [
        ("short_column", "operational column 'diameter_in' does not have one value per geometry"),
        ("short_geometry", "operational column 'construction_date' does not have one value per geometry"),
        ("decreasing_geoms", "geoms offsets must rise by at least 1"),
        ("parts_past_xy", "parts must run from 0 to"),
        ("odd_xy", "cannot reshape"),
    ])
    def test_inconsistent_merged_json_names_the_stage_to_rerun(self, finished_run, tmp_path, capsys,
                                                               edit, problem):
        # merged.json with every key, re-recorded in the manifest, whose
        # columns and offsets do not fit together: no reader drops a row.
        cfg, finished = finished_run
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        path = out / "artifacts" / "merged.json"
        doc = json.loads(path.read_text())
        geometry = doc["geometry"]
        if edit == "short_column":
            doc["operational"]["diameter_in"].pop()
        elif edit == "short_geometry":  # a whole geometry less, its arrays consistent
            geometry["geoms"].pop()
            del geometry["parts"][geometry["geoms"][-1] + 1:]
            del geometry["xy"][2 * geometry["parts"][-1]:]
        elif edit == "decreasing_geoms":
            geometry["geoms"][2] = geometry["geoms"][1] - 1
        elif edit == "parts_past_xy":
            geometry["parts"][-1] += 2
        else:
            geometry["xy"].pop()
        fileio.write_json(path, doc)
        pipeline.Manifest(pipeline.RunPaths(out)).record("merged", path, "merge")

        capsys.readouterr()
        for stage in ("attribute", "featurize", "report"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == EXIT_STAGE
            err = capsys.readouterr().err
            assert err.startswith(f"stage {stage} failed: artifact 'merged' is inconsistent ("), err
            assert problem in err
            assert err.endswith("rerun stage 'merge' and the stages after it\n")

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
        assert sorted(doc["geometry"]) == ["geoms", "parts", "xy"]
        assert {len(values) for values in doc["operational"].values()} == {len(doc["geometry"]["geoms"]) - 1}
        assert sorted(doc["stats"]) == [
            "descriptive_accepted", "descriptive_total", "matched", "matched_by_step",
            "operational_accepted", "operational_total", "rejected_rows", "unmatched"]

    def test_merged_record_codec_round_trips(self, synth_a):
        merged, _, _ = match_flowlines(synth_a.operational, synth_a.descriptive)
        doc = json.loads(json.dumps(merged.to_json()))
        back = MergedFlowlines.from_json(doc)
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


class TestReportValidation:
    def test_only_the_report_loads_jsonschema(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, flowline_risk.cli; print('jsonschema' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.stdout.strip() == "False", proc.stderr

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
            runs[cpus] = _rerun_comparable_files(out)
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
