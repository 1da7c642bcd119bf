"""The config block of docs/formats.md names exactly the fields the readers take."""

import json
import re
from pathlib import Path

from rmtlab import config, ensembles
from rmtlab.config import ExperimentConfig

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def config_block() -> dict:
    text = FORMATS.read_text()
    section = text[text.index("## Experiment config"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_formats_config_block_names_every_accepted_field_and_no_other():
    doc = config_block()
    assert set(doc) == config._KNOWN_FIELDS
    assert set(doc["ensemble"]) == ensembles._ENSEMBLE_FIELDS


def test_formats_config_block_is_a_valid_config_once_its_choices_are_made():
    # "kind" and "entry_dist" list their choices; every other value is one
    doc = config_block()
    doc["ensemble"].update(kind="wigner", entry_dist="gaussian")
    ExperimentConfig.from_json(doc)
