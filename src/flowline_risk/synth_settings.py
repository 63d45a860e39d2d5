"""The synthetic network generator's settings and its two presets.

They live apart from synth.py so that the run configuration can check them
in every CLI process without loading the generator, which only the synth
stage runs. synth re-exports every name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_OPERATOR_NAMES = (
    "Acme Energy LLC", "Bluestem Petroleum", "Cottonwood Resources",
    "Dry Creek Operating", "Elkhorn Production Co", "Front Range Midstream",
    "Greenhorn Oil & Gas", "High Plains Energy", "Ironwood Operating LLC",
    "Juniper Basin Partners", "Kiowa Creek Resources", "Longs Peak Petroleum",
    "Mesa Verde Energy", "North Platte Operating", "Owl Canyon Production",
    "Pawnee Buttes Energy",
)


class BadSynthSetting(ValueError):
    """A SynthConfig value out of range; `name` is the field."""

    def __init__(self, name: str, requirement: str, value):
        super().__init__(f"{name} must be {requirement}, got {value!r}")
        self.name = name
        self.requirement = requirement
        self.value = value


@dataclass(frozen=True)
class SynthConfig:
    n_lines: int
    area: float = 20000.0
    min_separation: float = 60.0
    endpoint_jitter_sigma: float = 5.0
    spill_rate: float = 0.01
    spill_lateral_sigma: float = 8.0
    n_operators: int = 12
    operator_reuse_clustering: float = 0.0
    seed: int = 0
    length_range: tuple[float, float] = (80.0, 300.0)
    max_members: int = 3

    def __post_init__(self):
        lo, hi = self.length_range if len(self.length_range) == 2 else (math.nan, math.nan)
        checks = (
            ("n_lines", self.n_lines >= 1, ">= 1"),
            ("area", math.isfinite(self.area) and self.area > 0, "finite and > 0"),
            ("min_separation", _finite_non_negative(self.min_separation), "finite and >= 0"),
            ("endpoint_jitter_sigma", _finite_non_negative(self.endpoint_jitter_sigma),
             "finite and >= 0"),
            ("spill_rate", 0.0 <= self.spill_rate <= 1.0, "in [0, 1]"),
            ("spill_lateral_sigma", _finite_non_negative(self.spill_lateral_sigma),
             "finite and >= 0"),
            ("n_operators", 1 <= self.n_operators <= len(_OPERATOR_NAMES),
             f"in [1, {len(_OPERATOR_NAMES)}]"),
            ("operator_reuse_clustering", 0.0 <= self.operator_reuse_clustering <= 1.0,
             "in [0, 1]"),
            ("length_range", 0.0 < lo <= hi < math.inf, "(low, high) with 0 < low <= high"),
            ("max_members", self.max_members >= 1, ">= 1"),
        )
        for name, ok, requirement in checks:
            if not ok:
                raise BadSynthSetting(name, requirement, getattr(self, name))


def _finite_non_negative(value: float) -> bool:
    return math.isfinite(value) and value >= 0


def config_a(seed: int = 0, n_lines: int = 1000) -> SynthConfig:
    """Well-separated regime (SynthConfig's defaults): merge recovery should be perfect."""
    return SynthConfig(n_lines=n_lines, seed=seed)


def config_b(seed: int = 0, n_lines: int = 1000) -> SynthConfig:
    """Dense same-operator bundles: ambiguous matches are expected."""
    return SynthConfig(n_lines=n_lines, area=4000.0, min_separation=10.0, n_operators=6,
                       operator_reuse_clustering=0.8, seed=seed)
