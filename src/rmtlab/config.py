"""Experiment configuration: a versioned JSON document, fail-closed.

Unknown fields are rejected so a config file always means the same
experiment; reruns with the same config and seed must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .ensembles import EnsembleSpec, ParameterError
from .graphs import CumulantGraph, GraphParseError
from .linalg import MAX_MATRIX_SIZE
from .spectral import MAX_MOMENT_ORDER

SCHEMA_VERSION = 1

# Seeds must lie below 2**53: numpy's Philox(key=[seed, stream]) passes the
# pair through float64 when either value is at least 2**63, as it is for half
# of all substreams, so two larger seeds could draw the same matrices.
MAX_SEED = 2 ** 53

_KNOWN_FIELDS = {
    "schema_version", "ensemble", "n_grid", "samples_per_n", "seed",
    "moment_orders", "graphs_to_scan",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: EnsembleSpec
    n_grid: tuple[int, ...]
    samples_per_n: int
    seed: int
    moment_orders: tuple[int, ...] = (2, 4)
    graphs_to_scan: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.n_grid:
            raise ConfigError("n_grid: must not be empty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError("n_grid: must be strictly ascending")
        if any(not 1 <= n <= MAX_MATRIX_SIZE for n in self.n_grid):
            raise ConfigError(f"n_grid: sizes must be in [1, {MAX_MATRIX_SIZE}]")
        if self.samples_per_n < 1:
            raise ConfigError("samples_per_n: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")
        if self.seed >= MAX_SEED:
            raise ConfigError("seed: must be below 2**53")
        if not all(0 <= k <= MAX_MOMENT_ORDER for k in self.moment_orders):
            raise ConfigError(f"moment_orders: each order must lie in 0..{MAX_MOMENT_ORDER}")
        for text in self.graphs_to_scan:
            try:
                CumulantGraph.from_text(text)
            except GraphParseError as exc:
                raise ConfigError(f"graphs_to_scan: {exc}") from exc

    def parsed_graphs(self) -> list[CumulantGraph]:
        return [CumulantGraph.from_text(t) for t in self.graphs_to_scan]

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ensemble": self.ensemble.to_json(),
            "n_grid": list(self.n_grid),
            "samples_per_n": self.samples_per_n,
            "seed": self.seed,
            "moment_orders": list(self.moment_orders),
            "graphs_to_scan": list(self.graphs_to_scan),
        }

    def canonical_dump(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()

    @classmethod
    def from_json(cls, doc: Mapping) -> "ExperimentConfig":
        unknown = set(doc) - _KNOWN_FIELDS
        if unknown:
            raise ConfigError(f"unknown field(s): {sorted(unknown)}")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
        if "ensemble" not in doc:
            raise ConfigError("ensemble: required")
        try:
            ensemble = EnsembleSpec.from_json(doc["ensemble"])
        except ParameterError as exc:
            raise ConfigError(f"ensemble: {exc}") from exc
        return cls(
            ensemble=ensemble,
            n_grid=tuple(int(n) for n in doc.get("n_grid", ())),
            samples_per_n=int(doc.get("samples_per_n", 1)),
            seed=int(doc.get("seed", 0)),
            moment_orders=tuple(int(k) for k in doc.get("moment_orders", (2, 4))),
            graphs_to_scan=tuple(doc.get("graphs_to_scan", ())),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json(doc)
