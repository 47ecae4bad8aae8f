"""Application configuration: defaults, YAML files, and override layering.

Precedence is command line over config file over built-in defaults.  The
config file location may also come from the ``SCAFFOLDER_CONFIG`` environment
variable when no explicit path is given.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .partner_model import PartnerModelConfig
from .policy import Hyperparameters
from .scoring import ScoringTable, default_scoring_table, load_scoring_table
from .session import SessionConfig

CONFIG_ENV_VAR = "SCAFFOLDER_CONFIG"


@dataclass
class SimulationConfig:
    runs: int = 500
    horizon: int = 100
    deviation_rate: float = 0.05
    solve_time_low: float = 1.0
    solve_time_high: float = 10.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("runs", "horizon", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.deviation_rate <= 1.0:
            raise ValueError(f"deviation_rate must be in [0, 1], got {self.deviation_rate}")
        low, high = self.solve_time_low, self.solve_time_high
        if not (math.isfinite(low) and math.isfinite(high) and 0.0 <= low <= high):
            raise ValueError(
                f"solve times must be finite with 0 <= low <= high, got {low} and {high}"
            )


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 8089
    query_timeout: float = 60.0
    # Whether new sessions start from the rubric-initialised Q-table.
    preconfigured: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.query_timeout) and self.query_timeout > 0):
            raise ValueError(f"query_timeout must be finite and > 0, got {self.query_timeout}")


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


_SECTION_TYPES: dict[str, type] = {
    "partner_model": PartnerModelConfig,
    "policy": Hyperparameters,
    "session": SessionConfig,
    "simulation": SimulationConfig,
    "server": ServerConfig,
}


def _build_section(name: str, cls: type, raw: Mapping[str, Any]) -> Any:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    return cls(**raw)


def _merge_sections(base: Mapping[str, Any], extra: Mapping[str, Any]) -> dict[str, Any]:
    merged: dict[str, Any] = {k: dict(v) for k, v in base.items() if isinstance(v, Mapping)}
    merged.update({k: v for k, v in base.items() if not isinstance(v, Mapping)})
    for key, value in extra.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = dict(value) if isinstance(value, Mapping) else value
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
    raw: dict[str, Any] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            loaded = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(loaded, Mapping):
            raise ValueError(f"config file {path} must hold a mapping, got {type(loaded).__name__}")
        raw = dict(loaded)
    if overrides:
        raw = _merge_sections(raw, overrides)

    known_top = set(_SECTION_TYPES) | {"scoring_csv"}
    unknown = set(raw) - known_top
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")

    kwargs: dict[str, Any] = {}
    for name, cls in _SECTION_TYPES.items():
        section = raw.get(name) or {}
        if not isinstance(section, Mapping):
            raise ValueError(f"config section {name!r} must be a mapping")
        kwargs[name] = _build_section(name, cls, section)
    scoring_csv = raw.get("scoring_csv")
    if scoring_csv is not None and not isinstance(scoring_csv, str):
        raise ValueError("scoring_csv must be a string path")
    return AppConfig(scoring_csv=scoring_csv, **kwargs)


def config_digest(config: AppConfig) -> str:
    """Short stable fingerprint of the effective configuration."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
