"""Application configuration: defaults, YAML files, and override layering.

Precedence is command line over config file over built-in defaults.  The
config file location may also come from the ``SCAFFOLDER_CONFIG`` environment
variable when no explicit path is given.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .partner_model import PartnerModelConfig
from .policy import Hyperparameters
from .schema import Checked, bounded
from .scoring import ScoringTable, default_scoring_table, load_scoring_table
from .session import SessionConfig
from .simulation import CAMPAIGN_RUNS, RunSpec

CONFIG_ENV_VAR = "SCAFFOLDER_CONFIG"


@dataclass
class SimulationConfig(Checked):
    # A run's defaults, under the config's stricter ranges: at least one
    # episode, and solve_time_low <= solve_time_high.
    runs: int = bounded(CAMPAIGN_RUNS, 1)
    horizon: int = bounded(RunSpec.horizon, 1)
    deviation_rate: float = bounded(RunSpec.deviation_rate, 0.0, 1.0)
    solve_time_low: float = bounded(RunSpec.time_low, 0.0)
    solve_time_high: float = RunSpec.time_high
    seed: int = 0
    workers: int = bounded(1, 1)

    def __post_init__(self) -> None:
        super().__post_init__()
        low, high = self.solve_time_low, self.solve_time_high
        if low > high:
            raise ValueError(f"solve_time_low must be <= solve_time_high, got {low} and {high}")


@dataclass
class ServerConfig(Checked):
    host: str = "127.0.0.1"
    port: int = bounded(8089, 0, 65535)
    query_timeout: float = bounded(60.0, 0.0, open_low=True)
    # Whether new sessions start from the rubric-initialised Q-table.
    preconfigured: bool = True


@dataclass
class AppConfig:
    partner_model: PartnerModelConfig = field(default_factory=PartnerModelConfig)
    policy: Hyperparameters = field(default_factory=Hyperparameters)
    session: SessionConfig = field(default_factory=SessionConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    # Optional path to a scoring-table CSV replacing the built-in default.
    scoring_csv: str | None = None

    def scoring_table(self) -> ScoringTable:
        if self.scoring_csv:
            return load_scoring_table(self.scoring_csv)
        return default_scoring_table()


# Section name -> record class; ``scoring_csv`` is the one non-section field.
_SECTION_TYPES: dict[str, type] = {
    f.name: f.default_factory
    for f in dataclasses.fields(AppConfig)
    if f.default_factory is not dataclasses.MISSING
}


def _section(raw: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    """A section's mapping; only a missing or null section counts as empty."""
    section = raw.get(name)
    if section is None:
        return {}
    if not isinstance(section, Mapping):
        raise ValueError(f"config section {name!r} must be a mapping, got {type(section).__name__}")
    return section


def _build_section(name: str, cls: type, raw: Mapping[str, Any]) -> Any:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    return cls(**raw)


def _merge_sections(base: Mapping[str, Any], extra: Mapping[str, Any]) -> dict[str, Any]:
    merged = dict(base)
    for key, value in extra.items():
        merged[key] = {**_section(base, key), **value} if isinstance(value, Mapping) else value
    return merged


def load_config(
    path: str | Path | None = None, overrides: Mapping[str, Any] | None = None
) -> AppConfig:
    """Build an AppConfig from defaults, an optional YAML file, and overrides.

    ``overrides`` holds per-section mappings (and top-level scalars such as
    ``scoring_csv``) that win over file values; the file wins over defaults.
    """
    if path is None:
        env_path = os.environ.get(CONFIG_ENV_VAR)
        path = env_path or None
    raw: Mapping[str, Any] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from exc
        if loaded is not None and not isinstance(loaded, Mapping):
            raise ValueError(f"config file {path} must hold a mapping, got {type(loaded).__name__}")
        raw = loaded or {}
    if overrides:
        raw = _merge_sections(raw, overrides)

    unknown = set(raw) - {f.name for f in dataclasses.fields(AppConfig)}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")

    kwargs = {
        name: _build_section(name, cls, _section(raw, name)) for name, cls in _SECTION_TYPES.items()
    }
    scoring_csv = raw.get("scoring_csv")
    if scoring_csv is not None and not isinstance(scoring_csv, str):
        raise ValueError("scoring_csv must be a string path")
    return AppConfig(scoring_csv=scoring_csv, **kwargs)


def config_digest(config: AppConfig) -> str:
    """Short stable fingerprint of the effective configuration."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
