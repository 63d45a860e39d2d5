import datetime
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowline_risk.features import (
    CATEGORICAL_COLUMNS,
    ColumnMeta,
    DegenerateClass,
    Dataset,
    EmptyInput,
    FeatureConfig,
    FutureDate,
    NUMERIC_COLUMNS,
    apply_scaler,
    assemble,
    line_age,
    load_dataset,
    one_hot,
    save_dataset,
    standardize,
    stratified_split,
)
from flowline_risk.fileio import read_json
from flowline_risk.matcher import assign_risk, match_flowlines, match_spills
from flowline_risk.synth import REFERENCE_DATE

from conftest import make_operational
from geometry_oracle import multiline
from merged_oracle import MergedFlowline, geometry_features, merged_flowlines

REF = datetime.date(2020, 1, 1)


def merged_record(row_id="OP1", risk=0, **op_kw):
    g = multiline([(0.0, 0.0), (3.0, 4.0)])
    return MergedFlowline(make_operational(row_id=row_id, operator="Acme Energy LLC", **op_kw), g,
                          risk=risk)


class TestLineAge:
    def test_zero(self):
        assert line_age(REF, REF) == 0.0

    def test_decade(self):
        assert line_age(datetime.date(2010, 1, 1), REF) == pytest.approx(10.0, abs=0.01)

    def test_future_date(self):
        with pytest.raises(FutureDate):
            line_age(datetime.date(2021, 1, 1), REF)

    def test_matches_day_count_oracle(self):
        rng = np.random.default_rng(51)
        start = datetime.date(1970, 1, 1)
        for _ in range(100):
            a = start + datetime.timedelta(days=int(rng.integers(0, 18000)))
            b = a + datetime.timedelta(days=int(rng.integers(0, 18000)))
            expected = (b - a).days / 365.25
            assert line_age(a, b) == pytest.approx(expected, rel=1e-12)


class TestOneHot:
    def test_two_categories(self):
        X, metas = one_hot({"c": ["A", "B", "A"]}, ["c"])
        assert X.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert [m.name for m in metas] == ["c=A", "c=B"]

    def test_single_category_all_ones(self):
        X, metas = one_hot({"c": ["A", "A"]}, ["c"])
        assert X.tolist() == [[1.0], [1.0]]

    def test_category_count_and_row_sums(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            cats = [f"c{i}" for i in range(rng.integers(1, 8))]
            values = [cats[int(rng.integers(len(cats)))] for _ in range(40)]
            X, metas = one_hot({"col": values}, ["col"])
            assert X.shape[1] == len(set(values))
            assert np.all(X.sum(axis=1) == 1.0)

    def test_first_appearance_order(self):
        _, metas = one_hot({"c": ["B", "A", "B", "C"]}, ["c"])
        assert [m.category for m in metas] == ["B", "A", "C"]


class TestGeometryFeatures:
    def test_segment(self):
        assert geometry_features(multiline([(0, 0), (3, 4)])) == (5.0, 1, 12.0)

    def test_two_unit_segments(self):
        g = multiline([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        length, n, area = geometry_features(g)
        assert (length, n, area) == (2.0, 2, 1.0)

    def test_generator_lines_match_module(self, synth_a):
        from geometry_oracle import bbox_area, bounding_box, line_count, multiline_length
        for rec in synth_a.descriptive_records[:50]:
            length, n, area = geometry_features(rec.geometry)
            assert length == multiline_length(rec.geometry)
            assert n == line_count(rec.geometry)
            assert area == bbox_area(bounding_box(rec.geometry))


class TestAssemble:
    def test_width_arithmetic(self):
        rows = [merged_record("OP1", fluid_type="CRUDE_OIL"),
                merged_record("OP2", fluid_type="NATURAL_GAS", flowline_id="F2")]
        ds = assemble(merged_flowlines(rows), [0, 0], FeatureConfig(reference_date=REF))
        observed = {c: len({getattr(r.operational, c) for r in rows})
                    for c in CATEGORICAL_COLUMNS}
        assert ds.n_cols == len(NUMERIC_COLUMNS) + sum(observed.values())

    def test_drop_id_like(self):
        rows = [merged_record("OP1"), merged_record("OP2", flowline_id="F2")]
        ds = assemble(merged_flowlines(rows), [0, 0], FeatureConfig(drop_id_like=True, reference_date=REF))
        names = ds.column_names()
        assert not any(n.startswith("flowline_id=") or n.startswith("location_id=") for n in names)

    def test_root_cause_never_a_predictor(self, synth_a):
        merged, _, _ = match_flowlines(synth_a.operational, synth_a.descriptive)
        risk = assign_risk(merged, match_spills(synth_a.spills, merged))
        ds = assemble(merged, risk, FeatureConfig(drop_id_like=True, reference_date=REFERENCE_DATE))
        assert not any("root_cause" in c.name.lower() for c in ds.column_meta)
        assert np.all(np.isfinite(ds.X))

    def test_positive_rate_in_band(self, synth_a):
        merged, _, _ = match_flowlines(synth_a.operational, synth_a.descriptive)
        risk = assign_risk(merged, match_spills(synth_a.spills, merged))
        ds = assemble(merged, risk, FeatureConfig(drop_id_like=True, reference_date=REFERENCE_DATE))
        assert 0.005 <= float(np.mean(ds.y)) <= 0.02

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            assemble(merged_flowlines([]), [], FeatureConfig(reference_date=REF))

    def test_one_hot_group_sums(self, synth_a):
        merged, _, _ = match_flowlines(synth_a.operational.take(range(200)), synth_a.descriptive)
        ds = assemble(merged, np.zeros(len(merged)),
                      FeatureConfig(drop_id_like=True, reference_date=REFERENCE_DATE))
        for source in {c.source for c in ds.column_meta if c.kind == "one-hot"}:
            cols = [i for i, c in enumerate(ds.column_meta) if c.source == source]
            assert np.all(ds.X[:, cols].sum(axis=1) == 1.0)


class TestStratifiedSplit:
    def _labels(self, n0, n1):
        return np.array([0] * n0 + [1] * n1)

    def test_99_to_1_minority_is_refused(self):
        # a class of one row cannot sit on both sides
        y = self._labels(99, 1)
        with pytest.raises(DegenerateClass, match="at least two rows of each of the two classes; "
                                                  "the featurized rows have class 0: 99, class 1: 1"):
            stratified_split(y, 0.7, seed=3)

    def test_balanced_ten(self):
        y = self._labels(5, 5)
        train, test = stratified_split(y, 0.7, seed=1)
        assert len(train) == 7
        assert len(test) == 3
        assert int(np.sum(y[train])) in (3, 4)

    def test_seed_reproducibility(self):
        y = self._labels(80, 20)
        a, _ = stratified_split(y, 0.7, seed=9)
        b, _ = stratified_split(y, 0.7, seed=9)
        assert a.tolist() == b.tolist()
        c, _ = stratified_split(y, 0.7, seed=10)
        assert c.tolist() != a.tolist()
        assert int(np.sum(y[c])) == int(np.sum(y[a]))

    def test_partition_and_proportions_random(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n0 = int(rng.integers(4, 120))
            n1 = int(rng.integers(2, 40))
            y = self._labels(n0, n1)
            train, test = stratified_split(y, 0.7, seed=int(rng.integers(1 << 30)))
            assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
            assert sorted(train.tolist() + test.tolist()) == list(range(len(y)))
            assert abs(len(train) - round(0.7 * len(y))) <= 1
            for side in (train, test):
                frac = len(y) / len(side)
                share = np.sum(y[side]) / len(side)
                overall = np.sum(y) / len(y)
                assert abs(share - overall) <= frac / len(side) + 1.0 / len(side)

    def test_minimum_per_side(self):
        y = self._labels(30, 2)
        train, test = stratified_split(y, 0.7, seed=0)
        assert int(np.sum(y[train])) == 1
        assert int(np.sum(y[test])) == 1

    def test_single_class_degenerate(self):
        with pytest.raises(DegenerateClass):
            stratified_split(np.zeros(10, dtype=int), 0.7, seed=0)


class TestStandardize:
    def test_two_point_column(self):
        train, means, sds = standardize(np.array([[0.0], [2.0]]))
        assert train.tolist() == [[-1.0], [1.0]]
        assert means[0] == 1.0 and sds[0] == 1.0  # population sd

    def test_constant_column_passthrough(self, caplog):
        with caplog.at_level("WARNING"):
            train, _, sds = standardize(np.array([[5.0], [5.0], [5.0]]))
        assert np.all(train == 0.0)
        assert sds[0] == 0.0
        assert any("zero-variance" in r.message for r in caplog.records)

    def test_train_statistics_property(self):
        rng = np.random.default_rng(55)
        X = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
        train, _, _ = standardize(X)
        assert np.max(np.abs(train.mean(axis=0))) < 1e-12
        assert np.max(np.abs(train.std(axis=0) - 1.0)) < 1e-12

    def test_test_uses_train_statistics(self):
        train = np.array([[0.0], [2.0]])
        test = np.array([[4.0]])
        _, means, sds = standardize(train)
        assert apply_scaler(test, means, sds).tolist() == [[3.0]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda p: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(p)), elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, p, elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, p, elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3))))))
    def test_apply_scaler_divides_in_place(self, case):
        # the two-step expression's bits, a new array, and zero-sd columns
        # only centered
        X, means, sds = case
        before = X.copy()
        z = apply_scaler(X, means, sds)
        assert z.tobytes() == ((X - means) / np.where(sds == 0.0, 1.0, sds)).tobytes()
        assert X.tobytes() == before.tobytes() and not np.shares_memory(z, X)
        flat = sds == 0.0
        assert z[:, flat].tobytes() == (X[:, flat] - means[flat]).tobytes()


@st.composite
def saved_tables(draw):
    """(rows of finite floats, subnormals and extremes included; row ids of
    any text; labels) of 1-12 rows and 1-5 columns."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p, max_size=p)
    return (draw(st.lists(row, min_size=n, max_size=n)),
            draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                          min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


class TestRoundTrip:
    def test_save_load(self, tmp_path, synth_a):
        merged, _, _ = match_flowlines(synth_a.operational.take(range(100)), synth_a.descriptive)
        ds = assemble(merged, np.zeros(len(merged)),
                      FeatureConfig(drop_id_like=True, reference_date=REFERENCE_DATE))
        save_dataset(ds, tmp_path / "f.csv", tmp_path / "f.json", seed=7)
        back = load_dataset(tmp_path / "f.csv", read_json(tmp_path / "f.json"))
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.row_ids == ds.row_ids
        assert [c.name for c in back.column_meta] == [c.name for c in ds.column_meta]

    def test_floats_round_trip_bit_for_bit(self, tmp_path):
        values = [-0.0, 5e-324, 1e22, 0.1 + 0.2, -1.5e-310, 2.0 ** 53 + 2]
        ds = Dataset(np.array([values, values[::-1]]), np.array([1, 0]),
                     [ColumnMeta(f"c{j}", "numeric") for j in range(len(values))], ["R1", "R2"])
        save_dataset(ds, tmp_path / "f.csv", tmp_path / "f.json")
        back = load_dataset(tmp_path / "f.csv", read_json(tmp_path / "f.json"))
        assert [v.hex() for v in back.X.ravel().tolist()] == [v.hex() for v in ds.X.ravel().tolist()]
        assert back.y.tolist() == [1, 0] and back.row_ids == ["R1", "R2"]
        assert (tmp_path / "f.csv").read_text().splitlines()[1] \
            == "R1,-0.0,5e-324,1e+22,0.30000000000000004,-1.5e-310,9007199254740994.0,1"

    def test_edge_floats_load_as_their_repr_parses(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.3e-320,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        ds = Dataset(np.array([values, values[::-1]]), np.array([0, 1]),
                     [ColumnMeta(f"c{j}", "numeric") for j in range(len(values))], ["R1", "R2"])
        save_dataset(ds, tmp_path / "f.csv", tmp_path / "f.json")
        back = load_dataset(tmp_path / "f.csv", read_json(tmp_path / "f.json"))
        want = np.array([[float(repr(v)) for v in row] for row in (values, values[::-1])])
        assert back.X.dtype == np.float64 and back.X.flags.c_contiguous
        assert np.array_equal(back.X.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(saved_tables())
    @example(([[0.0, -0.0, 5e-324, -5e-324],
               [2.2250738585072009e-308, 2.2250738585072014e-308, sys.float_info.max,
                -sys.float_info.max]], ["a,b", 'say "hi"\r\n'], [0, 1]))
    def test_floats_and_ids_round_trip(self, table):
        # save_dataset writes repr(x) and quotes ids that hold a comma, a
        # quote or a line break; load_dataset reads back the same bits and ids
        values, ids, labels = table
        X = np.array(values, dtype=float)
        ds = Dataset(X, np.array(labels), [ColumnMeta(f"c{j}", "numeric") for j in range(X.shape[1])],
                     ids)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, Path(tmp) / "f.csv", Path(tmp) / "f.json")
            back = load_dataset(Path(tmp) / "f.csv", read_json(Path(tmp) / "f.json"))
        assert back.X.dtype == np.float64 and back.X.flags.c_contiguous
        assert back.X.tobytes() == X.tobytes()
        assert back.row_ids == ids and back.y.tolist() == labels

    @pytest.mark.parametrize("extra_rows", [0, 1])
    def test_an_empty_float_field_names_its_line(self, tmp_path, extra_rows):
        # "R2,,0" has the three fields of a one-column file; np.loadtxt would
        # skip its empty float text as a blank line, short of the sidecar's
        # rows, or filled by the row after it
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]),
                     [ColumnMeta("a", "numeric")], ["R1", "R2", "R3"])
        save_dataset(ds, tmp_path / "features.csv", tmp_path / "f.json")
        lines = (tmp_path / "features.csv").read_text().splitlines()
        lines[2] = "R2,,1"
        lines += ["R4,4.0,0"] * extra_rows
        (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^line 3: an empty float field$"):
            load_dataset(tmp_path / "features.csv", read_json(tmp_path / "f.json"))

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_row_count_must_match_the_sidecar(self, tmp_path, n_rows):
        ds = Dataset(np.eye(2), np.array([0, 1]), [ColumnMeta("a", "numeric"), ColumnMeta("b", "numeric")],
                     ["R1", "R2"])
        save_dataset(ds, tmp_path / "features.csv", tmp_path / "f.json")
        sidecar = dict(read_json(tmp_path / "f.json"), n_rows=n_rows)
        with pytest.raises(ValueError, match=f"features.csv has 2 rows, but its sidecar says {n_rows}"):
            load_dataset(tmp_path / "features.csv", sidecar)
