"""Experiment configuration: a versioned JSON document, fail-closed.

The frozen dataclasses are the schema: ``from_json`` reads one by its fields
and their types, refusing anything else, and ``to_json`` writes it back, so a
config file always means the same experiment.  Reruns with the same config
and seed must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from .ensembles import EnsembleSpec, ParameterError
from .graphs import CumulantGraph, GraphParseError
from .linalg import MAX_MATRIX_SIZE
from .spectral import MAX_MOMENT_ORDER

SCHEMA_VERSION = 1

# Seeds must lie below 2**53: numpy's Philox(key=[seed, stream]) passes the
# pair through float64 when either value is at least 2**63, as it is for half
# of all substreams, so two larger seeds could draw the same matrices.
MAX_SEED = 2 ** 53


class ConfigError(ValueError):
    pass


# The JSON types each scalar field type takes, and how a refusal names them.
# A JSON true or false is refused everywhere, though Python counts it an int.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    Fraction: ((str, int), "a string or an integer"),
}


def from_json(cls, doc, where: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``doc``, by its fields.

    Every key must name a field and every field without a default must be
    present.  An ``int`` field takes a JSON integer, a ``float`` field an
    integer or number (stored as float), a ``str`` field a string, a
    ``Fraction`` field a string or an integer, ``tuple[X, ...]`` a list of X,
    ``X | None`` also null, and a nested dataclass an object.  Anything else
    raises ConfigError naming the field's path, prefixed by ``where``; the
    dataclass's own checks then run as usual.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'}: expected an object, got {json.dumps(doc)}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown field(s){' in ' + where if where else ''}: {unknown}")
    types_of = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name in doc:
            kwargs[f.name] = _read(types_of[f.name], doc[f.name], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: required")
    return cls(**kwargs)


def _read(tp, value, path: str):
    if get_origin(tp) in (Union, types.UnionType):
        if value is None and type(None) in get_args(tp):
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if is_dataclass(tp):
        return from_json(tp, value, path)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {json.dumps(value)}")
        return tuple(_read(get_args(tp)[0], item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    accepted, expected = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {expected}, got {json.dumps(value)}")
    try:
        return tp(value)
    except (ValueError, ArithmeticError) as exc:  # no rational, or too large a float
        raise ConfigError(f"{path}: cannot read {json.dumps(value)}: {exc}") from exc


def to_json(value):
    """The JSON form of a dataclass that ``from_json`` reads back: fields in
    declaration order, tuples as lists, fractions as their ``str``."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: EnsembleSpec
    n_grid: tuple[int, ...]
    samples_per_n: int = 1
    seed: int = 0
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
        return {"schema_version": SCHEMA_VERSION, **to_json(self)}

    def canonical_dump(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()

    @classmethod
    def from_json(cls, doc) -> "ExperimentConfig":
        if isinstance(doc, dict):
            version = doc.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
            doc = {key: value for key, value in doc.items() if key != "schema_version"}
        try:
            return from_json(cls, doc)
        except ParameterError as exc:
            raise ConfigError(f"ensemble: {exc}") from exc

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
