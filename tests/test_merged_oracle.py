"""The columnar merged flowlines write the bytes the per-record object path
of merged_oracle writes: features, attributions, EDA tables and risk map."""

import json

import pytest

from flowline_risk import figures
from flowline_risk.evaluation import eda_summaries
from flowline_risk.features import FeatureConfig, assemble, save_dataset
from flowline_risk.fileio import read_array, write_array
from flowline_risk.matcher import (
    MergedFlowlines,
    assign_risk,
    match_flowlines,
    match_spills,
    write_attributions,
)
from flowline_risk.report import risk_map_payload
from flowline_risk.synth import REFERENCE_DATE

import matcher_oracle
import merged_oracle
from geometry_oracle import multiline
from merged_oracle import MergedFlowline, merged_from_dict, merged_to_dict, operational_records, spill_records


def through_json(doc):
    return json.loads(json.dumps(doc))


def columnar_path(run, tmp):
    """merge, then merged.json and merged_xy.npy as the merge stage writes
    them and its readers read them."""
    merged, _, audit = match_flowlines(run.operational, run.descriptive)
    write_array(tmp / "merged_xy.npy", merged.geometry.xy)
    merged = MergedFlowlines.from_json(through_json(merged.to_json()), read_array(tmp / "merged_xy.npy"))
    attributions = match_spills(run.spills, merged)
    return merged, assign_risk(merged, attributions), attributions, audit


def record_path(run, audit):
    """The same bindings as MergedFlowline records, through the per-record
    merged.json, labelled by the ladder oracle's attributions. The geometry
    comes straight from the GeoJSON file, as scalar MultiLines."""
    with open(run.result.descriptive_path, encoding="utf-8") as fh:
        features = json.load(fh)["features"]
    geometry = {f["id"]: multiline(*f["geometry"]["coordinates"]) for f in features}
    records = [merged_from_dict(through_json(merged_to_dict(MergedFlowline(op, geometry[a.chosen_id]))))
               for op, a in zip(operational_records(run.operational), audit) if a.chosen_id is not None]
    attributions = matcher_oracle.match_spills(spill_records(run.spills), records)
    return merged_oracle.assign_risk(records, attributions), attributions


@pytest.fixture(scope="module", params=["synth_a", "synth_b"])
def both_paths(request):
    run = request.getfixturevalue(request.param)
    merged, risk, attributions, audit = columnar_path(
        run, request.getfixturevalue("tmp_path_factory").mktemp("merged"))
    labeled, oracle_attributions = record_path(run, audit)
    return merged, risk, attributions, labeled, oracle_attributions


def test_attributions_and_labels(both_paths, tmp_path):
    merged, risk, attributions, labeled, oracle_attributions = both_paths
    assert risk.tolist() == [m.risk for m in labeled] and risk.sum() > 0
    write_attributions(tmp_path / "new.csv", attributions)
    write_attributions(tmp_path / "old.csv", oracle_attributions)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("drop_id_like", [False, True])
@pytest.mark.parametrize("count_segments", [False, True])
def test_features(both_paths, tmp_path, drop_id_like, count_segments):
    merged, risk, _, labeled, _ = both_paths
    cfg = FeatureConfig(drop_id_like=drop_id_like, reference_date=REFERENCE_DATE,
                        count_segments=count_segments)
    save_dataset(assemble(merged, risk, cfg), tmp_path / "new.csv", tmp_path / "new.meta.json", seed=1)
    save_dataset(merged_oracle.assemble(labeled, cfg), tmp_path / "old.csv", tmp_path / "old.meta.json",
                 seed=1)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.meta.json").read_bytes() == (tmp_path / "old.meta.json").read_bytes()


def test_eda_tables_and_risk_map(both_paths, tmp_path):
    merged, risk, _, labeled, _ = both_paths
    # the report's eda payload, which its tables/eda_*.csv are written from
    new = {name: t.to_dict() for name, t in eda_summaries(merged, risk, REFERENCE_DATE).items()}
    old = {name: t.to_dict() for name, t in merged_oracle.eda_summaries(labeled, REFERENCE_DATE).items()}
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)

    figures.render_risk_map(risk_map_payload(merged, risk), tmp_path / "new.svg")
    figures.render_risk_map(merged_oracle.risk_map_payload(labeled), tmp_path / "old.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()
