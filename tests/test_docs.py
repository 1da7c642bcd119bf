"""The config blocks of docs/formats.md and README.md read as configs, the
formats.md block names exactly the fields the reader takes, and README lists
exactly the names the package root exports."""

import dataclasses
import inspect
import json
import re
from pathlib import Path

import rmtlab
from rmtlab.config import ExperimentConfig, to_json
from rmtlab.ensembles import EnsembleSpec, FactorDistribution, MetropolisParams

ROOT = Path(__file__).resolve().parent.parent


def config_block(path: Path, heading: str) -> dict:
    text = path.read_text()
    section = text[text.index(heading):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def formats_block() -> dict:
    return config_block(ROOT / "docs" / "formats.md", "## Experiment config")


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_formats_config_block_names_every_accepted_field_and_no_other():
    doc = formats_block()
    assert set(doc) == {"schema_version"} | field_names(ExperimentConfig)
    ensemble = doc["ensemble"]
    assert set(ensemble) == field_names(EnsembleSpec)
    assert set(ensemble["factor_dist"]) == field_names(FactorDistribution)
    assert set(ensemble["metropolis"]) == field_names(MetropolisParams)


def test_formats_config_block_writes_back_to_itself_once_its_choices_are_made():
    # "kind" and "entry_dist" list their choices; every other value is one,
    # and the ensemble's are its defaults
    doc = formats_block()
    doc["ensemble"].update(kind="wigner", entry_dist="gaussian")
    assert ExperimentConfig.from_json(doc).to_json() == doc
    assert doc["ensemble"] == to_json(EnsembleSpec("wigner"))


def test_readme_config_block_is_a_valid_config():
    ExperimentConfig.from_json(config_block(ROOT / "README.md", "## CLI"))


def test_readme_lists_exactly_the_package_roots_names():
    text = (ROOT / "README.md").read_text()
    section = re.search(r"The package root exports(.*?)Monte\s+Carlo", text, re.S).group(1)
    listed = set(re.findall(r"`(\w+)`", section))
    exported = {name for name, value in vars(rmtlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    modules = {"graphs", "partitions", "ring", "replica_rg", "semicircle"}
    assert listed - modules == exported
