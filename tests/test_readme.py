"""The README's reference sections agree with the code they describe."""

import re
from pathlib import Path

from deepdict.harness import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_key_list_matches_config_keys():
    text = README.read_text()
    section = text.split("### Config file keys", 1)[1].split("\n#", 1)[0]
    listed = re.search(r"`([a-z0-9_ \n]+)`", section).group(1).split()
    assert listed == list(CONFIG_KEYS)
