import math

import pytest

from flowline_risk import fileio
from flowline_risk.geometry import endpoint_set
from flowline_risk.ingest import parse_descriptive, parse_operational, parse_spills
from flowline_risk.matcher import match_flowlines
from flowline_risk.synth import (
    REFERENCE_DATE,
    InfeasiblePacking,
    SynthConfig,
    config_a,
    config_b,
    generate,
    load_ground_truth,
)


class TestGenerate:
    def test_files_reparse_with_zero_rejects(self, synth_a):
        # parsing already happened in the fixture with assert rejected == 0;
        # spot-check shapes here
        assert len(synth_a.descriptive) == 1000
        assert len(synth_a.operational) == 1000
        assert len(synth_a.spills) >= 10

    def test_ground_truth_total(self, synth_a):
        truth = synth_a.truth
        op_ids = {r.source_row_id for r in synth_a.operational}
        assert set(truth.line_matches) == op_ids
        spill_ids = {s.spill_id for s in synth_a.spills}
        assert set(truth.spill_matches) == spill_ids

    def test_ground_truth_file_round_trip(self, synth_a):
        back = load_ground_truth(synth_a.result.ground_truth_path)
        assert back.line_matches == synth_a.truth.line_matches
        assert back.spill_matches == synth_a.truth.spill_matches

    def test_min_separation_honored(self, synth_a):
        points = []
        for rec in synth_a.descriptive:
            owner = rec.source_row_id
            for p in endpoint_set(rec.geometry):
                points.append((owner, p.x, p.y))
        # grid check against the config A floor of 60 m across distinct lines
        cell = 60.0
        buckets = {}
        for owner, x, y in points:
            buckets.setdefault((int(x // cell), int(y // cell)), []).append((owner, x, y))
        for (kx, ky), members in buckets.items():
            neighborhood = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    neighborhood.extend(buckets.get((kx + dx, ky + dy), []))
            for owner, x, y in members:
                for other, ox, oy in neighborhood:
                    if other == owner:
                        continue
                    assert math.hypot(x - ox, y - oy) >= 60.0 - 1e-6

    def test_zero_jitter_recovers_at_step_zero(self, tmp_path):
        cfg = SynthConfig(n_lines=10, area=5000.0, min_separation=60.0,
                          endpoint_jitter_sigma=0.0, spill_rate=0.0, seed=3)
        result = generate(cfg, tmp_path)
        desc = parse_descriptive(result.descriptive_path)
        ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE)
        merged, unmatched, audit = match_flowlines(ops.records, desc.records)
        assert not unmatched
        assert len(merged) == 10
        for m in merged:
            assert m.match_tolerance == 0.0
            assert m.endpoint_distances == (0.0, 0.0)
            assert result.ground_truth.line_matches[m.operational.source_row_id] == m.descriptive_id

    def test_zero_spill_rate(self, tmp_path):
        cfg = SynthConfig(n_lines=5, area=4000.0, min_separation=60.0, spill_rate=0.0, seed=4)
        result = generate(cfg, tmp_path)
        spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE)
        assert spills.accepted == 0
        assert result.ground_truth.spill_matches == {}

    def test_positive_fraction_band(self, synth_a):
        sources = set(synth_a.truth.spill_matches.values())
        assert 0.005 <= len(sources) / 1000 <= 0.02

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = SynthConfig(n_lines=50, area=8000.0, min_separation=60.0, seed=9)
        r1 = generate(cfg, tmp_path / "one")
        r2 = generate(cfg, tmp_path / "two")
        for a, b in [(r1.descriptive_path, r2.descriptive_path),
                     (r1.operational_path, r2.operational_path),
                     (r1.spills_path, r2.spills_path),
                     (r1.ground_truth_path, r2.ground_truth_path)]:
            assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        base = SynthConfig(n_lines=30, area=8000.0, min_separation=60.0, seed=1)
        other = SynthConfig(n_lines=30, area=8000.0, min_separation=60.0, seed=2)
        r1 = generate(base, tmp_path / "one")
        r2 = generate(other, tmp_path / "two")
        assert r1.operational_path.read_bytes() != r2.operational_path.read_bytes()

    def test_infeasible_packing(self, tmp_path):
        cfg = SynthConfig(n_lines=500, area=300.0, min_separation=80.0, seed=0)
        with pytest.raises(InfeasiblePacking):
            generate(cfg, tmp_path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_lines=0)
        with pytest.raises(ValueError):
            SynthConfig(n_lines=10, spill_rate=1.5)
        with pytest.raises(ValueError):
            SynthConfig(n_lines=10, endpoint_jitter_sigma=-1.0)


class TestPresets:
    def test_config_a_shape(self):
        cfg = config_a(seed=5)
        assert cfg.min_separation == 60.0
        assert cfg.endpoint_jitter_sigma == 5.0
        assert cfg.operator_reuse_clustering == 0.0

    def test_config_b_shape(self):
        cfg = config_b(seed=5)
        assert cfg.min_separation == 10.0
        assert cfg.operator_reuse_clustering == 0.8

    def test_config_b_bundles_share_operator(self, synth_b):
        # clustered placement must reuse operators across same-facility lines
        by_location = {}
        for rec in synth_b.operational:
            by_location.setdefault(rec.location_id, []).append(rec.operator_name)
        bundles = {loc: ops for loc, ops in by_location.items() if len(ops) > 1}
        assert bundles, "clustering 0.8 must produce shared-facility bundles"
        for ops in bundles.values():
            assert len(set(ops)) == 1


class TestAtomicWrites:
    @pytest.mark.parametrize("n_done", [0, 1, 2, 3])
    def test_interrupted_generate_keeps_previous_file(self, tmp_path, monkeypatch, n_done):
        # The first n_done files are renamed into place, then a rename is
        # interrupted: that file keeps its previous bytes and no .tmp stays.
        first = generate(config_a(seed=3, n_lines=40), tmp_path)
        paths = [first.descriptive_path, first.operational_path,
                 first.spills_path, first.ground_truth_path]
        before = [p.read_bytes() for p in paths]
        real_replace = fileio.os.replace
        calls = []

        def interrupted(src, dst):
            calls.append(dst)
            if len(calls) > n_done:
                raise KeyboardInterrupt
            real_replace(src, dst)
        monkeypatch.setattr(fileio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            generate(config_a(seed=4, n_lines=40), tmp_path)
        assert [str(c) for c in calls] == [str(p) for p in paths[:n_done + 1]]
        assert paths[n_done].read_bytes() == before[n_done]
        assert not list(tmp_path.rglob("*.tmp"))
