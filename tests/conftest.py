import datetime
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pytest

from flowline_risk.ingest import DescriptiveFlowlines, Table, parse_descriptive, parse_operational, parse_spills
from flowline_risk.synth import REFERENCE_DATE, config_a, config_b, generate

SYNTH_SEED = 42


@dataclass
class SynthRun:
    result: object
    descriptive: DescriptiveFlowlines
    operational: Table
    spills: Table

    @property
    def truth(self):
        return self.result.ground_truth

    @cached_property
    def descriptive_records(self) -> list:
        """The descriptive flowlines as scalar DescriptiveFlowline records."""
        from merged_oracle import descriptive_records

        return descriptive_records(self.descriptive)


def _materialize(cfg, out_dir) -> SynthRun:
    result = generate(cfg, out_dir)
    desc = parse_descriptive(result.descriptive_path)
    ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE)
    spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE)
    assert desc.rejected == 0 and ops.rejected == 0 and spills.rejected == 0
    return SynthRun(result, desc.records, ops.records, spills.records)


@pytest.fixture(scope="session")
def synth_a(tmp_path_factory) -> SynthRun:
    """Config A network (well separated), shared across the session."""
    return _materialize(config_a(seed=SYNTH_SEED), tmp_path_factory.mktemp("synth_a"))


@pytest.fixture(scope="session")
def synth_a_unjittered(tmp_path_factory) -> SynthRun:
    """Config A network whose operational endpoints are the true ones."""
    cfg = replace(config_a(seed=SYNTH_SEED, n_lines=300), endpoint_jitter_sigma=0.0)
    return _materialize(cfg, tmp_path_factory.mktemp("synth_a_unjittered"))


@pytest.fixture(scope="session")
def synth_b(tmp_path_factory) -> SynthRun:
    """Config B network (dense same-operator bundles)."""
    return _materialize(config_b(seed=SYNTH_SEED), tmp_path_factory.mktemp("synth_b"))


def disk_blob(rng: np.random.Generator, center, diameter: float, n: int) -> np.ndarray:
    """Tight blob: points uniform in a disk of the given diameter."""
    r = diameter / 2.0 * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])


def two_blobs(seed: int, sigma: float = 1.5, n: int = 100):
    """Two tight blobs separated by 10 sigma; labels are blob membership."""
    rng = np.random.default_rng(seed)
    X = np.vstack([
        disk_blob(rng, (0.0, 0.0), sigma, n),
        disk_blob(rng, (10.0 * sigma, 0.0), sigma, n),
    ])
    return X, np.array([0] * n + [1] * n)


def three_blobs(seed: int, sigma: float = 2.0, n: int = 70):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        disk_blob(rng, (0.0, 0.0), sigma, n),
        disk_blob(rng, (10.0 * sigma, 0.0), sigma, n),
        disk_blob(rng, (5.0 * sigma, 9.0 * sigma), sigma, n),
    ])
    return X, np.array([0] * n + [1] * n + [2] * n)


def random_multiline(rng: np.random.Generator, box: float = 10.0):
    """Random MultiLine value for geometry property tests."""
    from geometry_oracle import multiline

    chains = []
    for _ in range(int(rng.integers(1, 4))):
        n_vertices = int(rng.integers(2, 6))
        chains.append([(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(n_vertices)])
    return multiline(*chains)


def make_operational(row_id="OP1", lat=39.0, lon=-105.0, lat2=39.001, lon2=-105.0,
                     operator="Acme Energy LLC", **kw):
    """One OperationalFlowline record, the form the oracles read;
    merged_oracle.operational_table turns a list of them into the package's Table."""
    from crs_oracle import GeoPoint
    from merged_oracle import OperationalFlowline

    defaults = dict(
        source_row_id=row_id,
        operator_number="98216",
        flowline_id="F1",
        location_id="L1",
        status="ACTIVE",
        flowline_action="IN_SERVICE",
        location_type="WELL_SITE",
        fluid_type="CRUDE_OIL",
        material="STEEL",
        diameter_inches=4.0,
        length_feet=350.0,
        max_operating_pressure=300.0,
        construction_date=datetime.date(2005, 6, 1),
        operator_name=operator,
        start=GeoPoint(lat, lon),
        end=GeoPoint(lat2, lon2),
    )
    defaults.update(kw)
    return OperationalFlowline(**defaults)
